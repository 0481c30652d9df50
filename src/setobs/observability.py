"""Observability analysis for LTI systems observed over an event channel.

At a no-event step the estimator still learns that the output lies within the
trigger threshold of the last transmitted value, so every step contributes a
set-valued measurement. Stacking n consecutive such sets through the
observability matrix yields an ellipsoid guaranteed to contain the state; the
worst pattern of event flags bounds how large that ellipsoid can get, and a
spectral-norm condition turns the per-step bound into an asymptotic one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .ellipsoid import Ellipsoid, minkowski_sum_chain, _symmetrize

# Exact pattern enumeration is 2^n; refuse beyond this.
PATTERN_ENUMERATION_CAP = 20


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
        if np.max(np.abs(Q - Q.T)) > 1e-9:
            raise ValueError("Q must be symmetric")
        if float(np.min(np.linalg.eigvalsh(Q))) <= 0.0:
            raise ValueError("Q must be positive definite")
        if R <= 0.0:
            raise ValueError(f"R must be positive, got {R}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "Q", _symmetrize(Q))
        object.__setattr__(self, "R", R)

    @property
    def n(self) -> int:
        return self.A.shape[0]


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
    initial-state ellipsoid recoverable from one n-step measurement window
    (None when the observability matrix is rank deficient). ``pattern_traces``
    maps each pattern, written as a bit string with position i holding the
    flag of window offset i, to its trace.
    """

    matrix: np.ndarray
    full_rank: bool
    horizon: int
    epsilon: float | None = None
    pattern_traces: dict[str, float] = field(default_factory=dict)
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


def measurement_uncertainty(
    model: SystemModel, trigger: TriggerConfig, transmitted: bool, i: int
) -> float:
    """Total output uncertainty at window offset i, as a 1-D ellipsoid shape.

    Folds the channel uncertainty, the i accumulated disturbance terms
    C A^j Q (A^j)^T C^T for j = i-1 .. 0, and the measurement noise R into one
    scalar shape with the trace-optimal Minkowski chain. At offset 0 no
    disturbance has acted yet and the chain is just [channel, R].
    """
    if not 0 <= i <= model.n - 1:
        raise ValueError(f"window offset {i} outside [0, {model.n - 1}]")
    # Disturbance terms carry descending powers A^(i-1) .. A^0; none at i = 0.
    shapes = [trigger.output_uncertainty(transmitted)]
    for j in range(i - 1, -1, -1):
        Aj = np.linalg.matrix_power(model.A, j)
        shapes.append(float(model.C @ Aj @ model.Q @ Aj.T @ model.C))
    shapes.append(model.R)
    chain = minkowski_sum_chain([Ellipsoid([0.0], [[s]]) for s in shapes])
    return float(chain.shape[0, 0])


def _uncertainty_table(model: SystemModel, trigger: TriggerConfig) -> np.ndarray:
    """W[flag, i] for flag in {0, 1} and window offsets i = 0 .. n-1."""
    return np.array(
        [
            [measurement_uncertainty(model, trigger, bool(flag), i) for i in range(model.n)]
            for flag in (0, 1)
        ]
    )


def information_weight_matrix(
    model: SystemModel,
    trigger: TriggerConfig,
    a: WeightVector,
    pattern: Sequence[int],
) -> np.ndarray:
    """Diagonal window-information matrix diag(a_i / W_i) for given event flags."""
    if len(pattern) != model.n:
        raise ValueError(f"pattern has length {len(pattern)}, expected {model.n}")
    if len(a) != model.n:
        raise ValueError(f"weight vector has length {len(a)}, expected {model.n}")
    diag = [
        a.weights[i] / measurement_uncertainty(model, trigger, bool(flag), i)
        for i, flag in enumerate(pattern)
    ]
    return np.diag(diag)


def _pattern_trace_fn(model: SystemModel, trigger: TriggerConfig, a: WeightVector, O: np.ndarray):
    """Closure computing Tr(O^-1 diag(W_i/a_i) O^-T) per pattern, via one solve.

    Tr(O^-1 D^-1 O^-T) = sum_i (W_i/a_i) * [(O O^T)^-1]_ii, so the O-dependent
    part is solved once and each pattern costs O(n).
    """
    gram_inv_diag = np.diag(cho_solve(cho_factor(O @ O.T), np.eye(model.n)))
    table = _uncertainty_table(model, trigger)

    def trace_for(pattern: tuple[int, ...]) -> float:
        w = table[list(pattern), range(model.n)]
        return float(np.sum(w / a.weights * gram_inv_diag))

    return trace_for


def epsilon_observability(
    model: SystemModel, trigger: TriggerConfig, a: WeightVector | None = None
) -> ObservabilityReport:
    """Worst-case initial-state recovery test over all 2^n event patterns.

    The system passes when the observability matrix has full rank with an
    n-step window; ``epsilon`` is then the maximum window-ellipsoid trace over
    every pattern of event flags (exact enumeration, capped at n <= 20).
    """
    if model.n > PATTERN_ENUMERATION_CAP:
        raise ValueError(
            f"pattern enumeration is 2^n; n = {model.n} exceeds the cap of "
            f"{PATTERN_ENUMERATION_CAP}"
        )
    a = a if a is not None else WeightVector.uniform(model.n)
    O = observability_matrix(model)
    if not is_full_rank(O):
        return ObservabilityReport(matrix=O, full_rank=False, horizon=model.n - 1)
    trace_for = _pattern_trace_fn(model, trigger, a, O)
    traces: dict[str, float] = {}
    worst_pattern, worst = None, -np.inf
    for bits in product((0, 1), repeat=model.n):
        key = "".join(map(str, bits))
        traces[key] = trace_for(bits)
        # Strict > keeps the lexicographically smallest pattern on ties.
        if traces[key] > worst:
            worst_pattern, worst = key, traces[key]
    return ObservabilityReport(
        matrix=O,
        full_rank=True,
        horizon=model.n - 1,
        epsilon=worst,
        pattern_traces=traces,
        worst_pattern=worst_pattern,
    )


class WindowSolver:
    """Precomputed machinery for repeatedly inverting n-step windows.

    Caches the observability matrix (validated full rank) and the per-offset
    uncertainty table, which depend only on the model and trigger, so that the
    per-window work reduces to a diagonal scale and two linear solves.
    """

    def __init__(self, model: SystemModel, trigger: TriggerConfig, a: WeightVector):
        if len(a) != model.n:
            raise ValueError(f"weight vector has length {len(a)}, expected {model.n}")
        O = observability_matrix(model)
        if not is_full_rank(O):
            raise NotObservableError("observability matrix is rank deficient")
        self.n = model.n
        self.matrix = O
        self.uncertainty = _uncertainty_table(model, trigger)
        self.weights = a.weights

    def ellipsoid(self, flags: Sequence[int], references: Sequence[float]) -> Ellipsoid:
        """State set implied by one n-step window of set-valued measurements.

        Returns E(O^-1 Y, O^-1 diag(W_i/a_i) O^-T) where Y stacks the window's
        reference outputs; realized via linear solves against O.
        """
        if len(flags) != self.n or len(references) != self.n:
            raise ValueError(f"window must contain exactly {self.n} records")
        w = self.uncertainty[[int(bool(f)) for f in flags], range(self.n)]
        center = np.linalg.solve(self.matrix, np.asarray(references, dtype=float))
        half = np.linalg.solve(self.matrix, np.diag(w / self.weights))
        shape = np.linalg.solve(self.matrix, half.T).T
        return Ellipsoid(center, _symmetrize(shape))


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

    Equals max over event patterns of (sqrt(Tr(P_window)) + sqrt(Tr(Q))) /
    (1 - ||A||); finite only for a strictly stable A. The map is monotone in
    the pattern trace, so the max is taken at epsilon, the largest trace.

    Raises:
        UnstableSystemError: ||A|| >= 1 (trace growth is unbounded).
        NotObservableError: the observability matrix is rank deficient.
    """
    a = a if a is not None else WeightVector.uniform(model.n)
    norm_a = spectral_norm(model.A)
    if norm_a >= 1.0:
        raise UnstableSystemError(f"spectral norm {norm_a:.6f} >= 1; bound is unbounded")
    report = epsilon_observability(model, trigger, a)
    if not report.full_rank:
        raise NotObservableError("observability matrix is rank deficient")
    sqrt_trace_q = float(np.sqrt(np.trace(model.Q)))
    return (np.sqrt(report.epsilon) + sqrt_trace_q) / (1.0 - norm_a)
