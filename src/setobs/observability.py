"""Observability analysis for LTI systems observed over an event channel.

At a no-event step the estimator still learns that the output lies within the
trigger threshold of the last transmitted value, so every step contributes a
set-valued measurement. Stacking n consecutive such sets through the
observability matrix yields an ellipsoid guaranteed to contain the state; the
worst pattern of event flags (always "no event") bounds how large that
ellipsoid can get, and a spectral-norm condition turns the per-step bound into
an asymptotic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .ellipsoid import Ellipsoid, _require_psd, _require_symmetric, _symmetrize


class NotObservableError(ValueError):
    """The observability matrix is rank deficient; window inversion fails."""


class UnstableSystemError(ValueError):
    """Spectral norm of A is >= 1, so the asymptotic trace bound is undefined."""


@dataclass(frozen=True)
class SystemModel:
    """Discrete-time LTI plant x_k = A x_{k-1} + w_{k-1}, y_k = C x_k + v_k.

    Disturbance and noise are bounded: w in E(0, Q) with Q positive definite,
    v in E(0, R) with scalar R > 0. Single-output only (C is one row). Every
    entry must be finite.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: float

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        C = np.asarray(self.C, dtype=float).ravel()
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        R = float(self.R)
        for name, value in (("A", A), ("C", C), ("Q", Q), ("R", R)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        n = A.shape[0]
        if n < 1:
            raise ValueError("state dimension must be at least 1")
        if C.size != n:
            raise ValueError(f"C has {C.size} entries, expected {n}")
        if Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got {Q.shape}")
        _require_symmetric(Q, "Q")
        Q = _symmetrize(Q)
        if float(np.linalg.eigvalsh(Q)[0]) <= 0.0:
            raise ValueError("Q must be positive definite")
        if R <= 0.0:
            raise ValueError(f"R must be positive, got {R}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @cached_property
    def _disturbance_set(self) -> Ellipsoid:
        """E(0, Q), validated once per model; read-only, as every prior shares it."""
        ell = Ellipsoid(np.zeros(self.n), self.Q)
        ell.center.flags.writeable = False
        ell.shape.flags.writeable = False
        return ell


@dataclass(frozen=True)
class TriggerConfig:
    """Send-on-delta channel: transmit when (y - y_tau)^2 > threshold.

    ``threshold`` is the no-event uncertainty about the output (squared output
    units); ``transmit_error`` is the residual uncertainty after an actual
    transmission (quantization of the link). Both are 1-D ellipsoid shapes.
    """

    threshold: float
    transmit_error: float

    def __post_init__(self):
        if not (np.isfinite(self.threshold) and np.isfinite(self.transmit_error)):
            raise ValueError("threshold and transmit_error must be finite")
        if self.threshold <= 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.transmit_error <= 0.0:
            raise ValueError(f"transmit_error must be positive, got {self.transmit_error}")
        if not self.transmit_error < self.threshold:
            raise ValueError("transmit_error must be smaller than threshold")

    def output_uncertainty(self, transmitted: bool) -> float:
        """Shape of the set known to contain y_k given the event flag."""
        return self.transmit_error if transmitted else self.threshold


@dataclass(frozen=True)
class WeightVector:
    """Positive finite weights combining the n window inequalities; must sum to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float)).ravel()
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w <= 0.0):
            raise ValueError("all weights must be positive")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {np.sum(w)!r}, expected 1")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        return cls(np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class ObservabilityReport:
    """Result of the worst-case observability test.

    ``epsilon`` is the largest trace, over all 2^n event patterns, of the
    initial-state ellipsoid recoverable from one n-step measurement window,
    and ``worst_pattern`` is the pattern that attains it, written as a bit
    string with position i holding the flag of window offset i. The worst
    pattern is always all zeros (see ``WindowSolver``), so both are closed
    form; ``WindowSolver.pattern_trace`` gives the trace of any other pattern.
    Both are None when the observability matrix is rank deficient.
    """

    matrix: np.ndarray
    full_rank: bool
    horizon: int
    epsilon: float | None = None
    worst_pattern: str | None = None


def observability_matrix(model: SystemModel) -> np.ndarray:
    """Stack [C; CA; ...; CA^(n-1)] (n x n for a single output)."""
    rows = []
    row = model.C.copy()
    for _ in range(model.n):
        rows.append(row)
        row = row @ model.A
    return np.vstack(rows)


def is_full_rank(O: np.ndarray) -> bool:
    """Rank test via singular values; determinants are scale-fragile."""
    svals = np.linalg.svd(O, compute_uv=False)
    return bool(svals[-1] > O.shape[0] * 1e-12 * svals[0])


def epsilon_observability(
    model: SystemModel, trigger: TriggerConfig, a: WeightVector | None = None
) -> ObservabilityReport:
    """Worst-case initial-state recovery test over all 2^n event patterns.

    The system passes when the observability matrix has full rank with an
    n-step window; ``epsilon`` is then the window-ellipsoid trace of the
    all-zeros pattern, which is the maximum over every pattern of event flags
    (``WindowSolver.epsilon``). Costs O(n^3); nothing is enumerated.
    """
    a = a if a is not None else WeightVector.uniform(model.n)
    try:
        solver = WindowSolver(model, trigger, a)
    except NotObservableError:
        return ObservabilityReport(
            matrix=observability_matrix(model), full_rank=False, horizon=model.n - 1
        )
    return ObservabilityReport(
        matrix=solver.matrix,
        full_rank=True,
        horizon=model.n - 1,
        epsilon=solver.epsilon,
        worst_pattern=solver.worst_pattern,
    )


class WindowSolver:
    """The observability facts of one (model, trigger, weights) triple.

    Caches the observability matrix O (validated full rank), the per-offset
    uncertainty table W[flag, i], the weights a and the diagonal of
    (O O^T)^-1. Inverting a window then reduces to a diagonal scale and two
    linear solves, and the window-ellipsoid trace of an event pattern is
    Tr(O^-1 diag(W_i/a_i) O^-T) = sum_i (W_i/a_i) [(O O^T)^-1]_ii, an O(n) sum.

    W_i bounds the output uncertainty at window offset i: the channel term
    (threshold without an event, transmit_error with one), the disturbance
    terms C A^j Q (A^j)^T C^T = O_j Q O_j^T for j < i, and the noise R. The
    trace-optimal outer sum of scalar shapes s_k is exactly (sum_k sqrt(s_k))^2,
    so W needs no set arithmetic and no special case for a zero term.

    ``epsilon``, the largest such trace over all 2^n patterns, is the trace of
    the all-zeros (no event) pattern. Every term of the sum is positive, and
    each W_i = (sqrt(channel) + rest)^2 grows with its channel term, where the
    no-event term (threshold) exceeds the event term (transmit_error). So
    replacing any event flag by "no event" can only raise the sum. Rounding
    keeps this order: sqrt, a sum or product of positives, a quotient by a
    positive and a fixed-order float sum are each monotone in every operand.
    """

    def __init__(self, model: SystemModel, trigger: TriggerConfig, a: WeightVector):
        if len(a) != model.n:
            raise ValueError(f"weight vector has length {len(a)}, expected {model.n}")
        O = observability_matrix(model)
        if not is_full_rank(O):
            raise NotObservableError("observability matrix is rank deficient")
        self.model = model
        self.n = model.n
        self.matrix = O
        # sqrt(O_j Q O_j^T); rounding can leave a tiny negative form when Q is
        # extremely ill-conditioned, and its true value is then below resolution.
        drift = np.sqrt(np.clip(np.sum((O @ model.Q) * O, axis=1), 0.0, None))
        reach = np.concatenate(([0.0], np.cumsum(drift[:-1])))  # sum over j < i
        channel = np.sqrt([[trigger.output_uncertainty(bool(flag))] for flag in (0, 1)])
        self.uncertainty = (channel + reach + np.sqrt(model.R)) ** 2
        self.weights = a.weights
        self.gram_inv_diag = np.diag(cho_solve(cho_factor(O @ O.T), np.eye(model.n)))
        # The terms (W_i/a_i) [(O O^T)^-1]_ii of the pattern trace, by flag.
        self._trace_terms = self.uncertainty / self.weights * self.gram_inv_diag
        self.epsilon = self.pattern_trace([0] * self.n)

    @property
    def worst_pattern(self) -> str:
        """The pattern whose window trace is ``epsilon``: no event at any offset."""
        return "0" * self.n

    def pattern_trace(self, flags: Sequence[int] | np.ndarray) -> float | np.ndarray:
        """Trace of the window ellipsoid for one pattern of event flags (a float),
        or for each row of a (P, n) stack of patterns (an array of P traces).

        A row's sum is numpy's pairwise sum along a contiguous last axis, which
        has the bits of summing that row alone.
        """
        flags = np.asarray(flags, dtype=bool)
        if flags.ndim not in (1, 2):
            raise ValueError(f"patterns must be a row or a stack of rows, got shape {flags.shape}")
        if flags.shape[-1] != self.n:
            raise ValueError(f"pattern has length {flags.shape[-1]}, expected {self.n}")
        terms = self._trace_terms
        traces = np.where(flags, terms[1], terms[0]).sum(axis=-1)
        return float(traces) if flags.ndim == 1 else traces

    def bound(self) -> float:
        """``convergence_bound`` of this solver's (model, trigger, weights).

        Raises:
            UnstableSystemError: ||A|| >= 1 (trace growth is unbounded).
        """
        return _sqrt_trace_level(self.model, self.epsilon, _stable_norm(self.model))

    def ellipsoid(self, flags: Sequence[int], references: Sequence[float]) -> Ellipsoid:
        """State set implied by one n-step window of set-valued measurements.

        Returns E(O^-1 Y, O^-1 diag(W_i/a_i) O^-T) where Y stacks the window's
        reference outputs; realized via linear solves against O.
        """
        if len(flags) != self.n or len(references) != self.n:
            raise ValueError(f"window must contain exactly {self.n} records")
        shape = _require_psd(self.window_shape(flags))
        center = self.window_centers(np.asarray(references, dtype=float)[None])[0]
        return Ellipsoid._trusted(center, shape)

    def window_shape(self, pattern: Sequence[bool]) -> np.ndarray:
        """Shape O^-1 diag(W_i/a_i) O^-T of one event pattern, not yet PSD-tested."""
        w = np.where(pattern, self.uncertainty[1], self.uncertainty[0])
        half = np.linalg.solve(self.matrix, np.diag(w / self.weights))
        return _symmetrize(np.linalg.solve(self.matrix, half.T).T)

    def window_centers(self, references: np.ndarray) -> np.ndarray:
        """Centers O^-1 Y for a (K, n) stack of windows of reference outputs.

        One stacked solve; each row equals the solve of its window alone, bit
        for bit, which the multi-right-hand-side form solve(O, Y^T) does not.
        """
        stacked = np.broadcast_to(self.matrix, (len(references), self.n, self.n))
        return np.linalg.solve(stacked, references[..., None])[..., 0]


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    return float(np.linalg.svd(A, compute_uv=False)[0])


def convergence_bound(
    model: SystemModel, trigger: TriggerConfig, a: WeightVector | None = None
) -> float:
    """Asymptotic upper bound on sqrt(Tr) of the posterior estimation ellipsoid.

    Equals (sqrt(epsilon) + sqrt(Tr(Q))) / (1 - ||A||) with epsilon the
    largest window-ellipsoid trace (``WindowSolver.epsilon``); the map is
    monotone, so this is the max of the same expression over every event
    pattern. Finite only for a strictly stable A.

    Raises:
        UnstableSystemError: ||A|| >= 1 (trace growth is unbounded).
        NotObservableError: the observability matrix is rank deficient.
    """
    a = a if a is not None else WeightVector.uniform(model.n)
    norm_a = _stable_norm(model)  # an unstable plant is reported first, observable or not
    return _sqrt_trace_level(model, WindowSolver(model, trigger, a).epsilon, norm_a)


def _stable_norm(model: SystemModel) -> float:
    """||A||; raises UnstableSystemError unless it is below one."""
    norm_a = spectral_norm(model.A)
    if norm_a >= 1.0:
        raise UnstableSystemError(f"spectral norm {norm_a:.6f} >= 1; bound is unbounded")
    return norm_a


def _sqrt_trace_level(model: SystemModel, epsilon: float, norm_a: float) -> float:
    """(sqrt(epsilon) + sqrt(Tr Q)) / (1 - ||A||) if ||A|| < 1, else sqrt(epsilon) + sqrt(Tr Q).

    The one formula behind ``WindowSolver.bound`` and the observer's
    divergence guard (``observer.guard_threshold``).
    """
    gain = np.sqrt(epsilon) + float(np.sqrt(np.trace(model.Q)))
    return gain / (1.0 - norm_a) if norm_a < 1.0 else gain
