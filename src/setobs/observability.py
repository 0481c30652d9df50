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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .ellipsoid import Ellipsoid, _require_psd, _require_symmetric, _symmetrize


class NotObservableError(ValueError):
    """The observability matrix is rank deficient; window inversion fails."""


class UnstableSystemError(ValueError):
    """Spectral norm of A is >= 1, so the asymptotic trace bound is undefined."""


@dataclass(frozen=True)
class SystemModel:
    """Discrete-time LTI plant x_k = A x_{k-1} + w_{k-1}, y_k = C x_k + v_k.

    Disturbance and noise are bounded: w in E(0, Q) with Q positive definite,
    v in E(0, R) with scalar R > 0. Single-output only: C is one row, given
    with shape (n,) or (1, n) and stored with shape (n,). Every entry must be
    finite. Q is stored symmetrized and read-only: it is
    validated here once, and every prior shares it.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: float

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        C = np.asarray(self.C, dtype=float)
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        R = float(self.R)
        for name, value in (("A", A), ("C", C), ("Q", Q), ("R", R)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be a square matrix, got shape {A.shape}")
        n = A.shape[0]
        if n < 1:
            raise ValueError("state dimension must be at least 1")
        if C.shape not in ((n,), (1, n)):
            raise ValueError(f"C must have shape ({n},) or (1, {n}), got shape {C.shape}")
        C = C.ravel()
        if Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got {Q.shape}")
        _require_symmetric(Q, "Q")
        with np.errstate(over="ignore"):
            Q = _symmetrize(Q)
        if not np.isfinite(Q).all():
            raise ValueError("Q overflows float64 when symmetrized as (Q + Q^T) / 2")
        if float(np.linalg.eigvalsh(Q)[0]) <= 0.0:
            raise ValueError("Q must be positive definite")
        Q.flags.writeable = False
        if R <= 0.0:
            raise ValueError(f"R must be positive, got {R}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "Q", Q)
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
        with np.errstate(over="ignore"):  # a sum that overflows is inf, and fails
            total = np.sum(w)
        if abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, expected 1")
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


def epsilon_observability(
    model: SystemModel, trigger: TriggerConfig, a: WeightVector | None = None
) -> ObservabilityReport:
    """Worst-case initial-state recovery test over all 2^n event patterns.

    The system passes when the observability matrix has full rank with an
    n-step window; ``epsilon`` is then the window-ellipsoid trace of the
    all-zeros pattern, which is the maximum over every pattern of event flags
    (``WindowSolver.epsilon``). Costs O(n^3); nothing is enumerated.
    """
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
    """The observability facts and levels of one (model, trigger, weights) triple.

    Caches the observability matrix O (validated full rank), the per-offset
    uncertainty table W[flag, i], the weights a (uniform when None) and the
    diagonal of (O O^T)^-1, taken as the squared column norms of O^-1 from one
    inverse of O (the Gram matrix O O^T is never factored: its condition
    number is cond(O)^2). Inverting a window then reduces to a diagonal scale and two
    linear solves, and the window-ellipsoid trace of an event pattern is
    Tr(O^-1 diag(W_i/a_i) O^-T) = sum_i (W_i/a_i) [(O O^T)^-1]_ii, an O(n) sum.

    The levels that the bound and the observer read are computed here once:
    ``cond`` = cond(O), from the rank test's singular values (the bits of
    np.linalg.cond); ``norm_a`` = ||A||; and ``gain`` = sqrt(epsilon) +
    sqrt(Tr Q), by which a step's sqrt-trace exceeds ||A|| times the last one
    at most. ``bound`` is ``gain`` / (1 - ||A||). The observer's divergence
    guard is a multiple of ``gain`` squared for every A, as a fused posterior
    S_k of window set W_k and prior P_k has Tr S_k <= 2 Tr(W_k : P_k) <=
    2 Tr W_k <= 2 epsilon (the parallel sum is concave), whatever A is.

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

    # Overflow is tested on O O^T (so on O) and on epsilon, not warned of.
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(
        self, model: SystemModel, trigger: TriggerConfig, a: WeightVector | None = None
    ):
        a = a if a is not None else WeightVector.uniform(model.n)
        if len(a) != model.n:
            raise ValueError(f"weight vector has length {len(a)}, expected {model.n}")
        O = observability_matrix(model)
        if not np.isfinite(O @ O.T).all():
            raise ValueError("the observability matrix O or O O^T overflows float64")
        # Rank by singular values, as determinants are scale-fragile.
        svals = np.linalg.svd(O, compute_uv=False)
        if not svals[-1] > O.shape[0] * 1e-12 * svals[0]:
            raise NotObservableError("observability matrix is rank deficient")
        self.cond = svals[0] / svals[-1]
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
        # [(O O^T)^-1]_ii = [O^-T O^-1]_ii, the squared norm of column i of O^-1.
        self.gram_inv_diag = np.sum(np.linalg.inv(O) ** 2, axis=0)
        # The terms (W_i/a_i) [(O O^T)^-1]_ii of the pattern trace, by flag.
        self._trace_terms = self.uncertainty / self.weights * self.gram_inv_diag
        self.epsilon = self.pattern_trace([0] * self.n)
        if not np.isfinite(self.epsilon):
            raise ValueError(f"epsilon overflows float64: {self.epsilon}")
        self.norm_a = spectral_norm(model.A)
        self.gain = np.sqrt(self.epsilon) + float(np.sqrt(np.trace(model.Q)))

    @property
    def worst_pattern(self) -> str:
        """The pattern whose window trace is ``epsilon``: no event at any offset."""
        return "0" * self.n

    def pattern_trace(self, flags: Sequence[int] | np.ndarray) -> float:
        """Trace of the window ellipsoid for one pattern of event flags."""
        flags = np.asarray(flags, dtype=bool)
        if flags.ndim != 1:
            raise ValueError(f"pattern must be one row of flags, got shape {flags.shape}")
        if flags.size != self.n:
            raise ValueError(f"pattern has length {flags.size}, expected {self.n}")
        terms = self._trace_terms
        return float(np.where(flags, terms[1], terms[0]).sum())

    def pattern_trace_blocks(self, low: int) -> Iterator[np.ndarray]:
        """The traces of all 2^n patterns in sorted bit-string order, in blocks
        of 2^low (0 <= low <= n): block b holds the patterns whose first n - low
        flags spell b in binary. Each block is its own array.

        Every trace is added in the order of ``pattern_trace``'s 1-D sum,
        numpy's pairwise summation, written out as a tree over the flag
        positions (``_pairwise_tree``), so it has that sum's bits. A subtree of
        at most 8 leaves is tabulated once over its leaves' flags. A larger one
        is added per block from its children, each read from its table at the
        block's fixed first n - low flags, as a broadcast add over the last low
        flags in bit-string order: patterns that share a subtree's flags share
        its partial sum.
        """
        high, terms = self.n - low, self._trace_terms
        frame = list(range(high, self.n))  # the flags a block varies, one axis each

        def plan(tree):
            """A subtree's leaves, its table over their flags (one axis per leaf,
            in order; None above 8 leaves) and its values in a block, as a
            function of the block's number."""
            if isinstance(tree, int):
                leaves, table = (tree,), terms[:, tree]
            else:
                (left, left_table, left_block), (right, right_table, right_block) = map(plan, tree)
                leaves = tuple(sorted(left + right))
                if len(leaves) > 8:
                    return leaves, None, lambda code: left_block(code) + right_block(code)
                table = _spread(left_table, left, leaves) + _spread(right_table, right, leaves)
            fixed = [p for p in leaves if p < high]
            view, shifts = _spread(table, leaves, fixed + frame), [high - 1 - p for p in fixed]
            return leaves, table, lambda code: view[tuple(code >> shift & 1 for shift in shifts)]

        _, table, block = plan(_pairwise_tree(range(self.n)))
        for code in range(2**high):
            traces = block(code).reshape(2**low)
            yield traces if table is None else traces.copy()  # a table's view is shared

    def bound(self) -> float:
        """``convergence_bound`` of this solver's (model, trigger, weights):
        ``gain`` / (1 - ``norm_a``), from the stored levels.

        Raises:
            UnstableSystemError: ||A|| >= 1 (trace growth is unbounded).
        """
        _require_stable(self.norm_a)
        return self.gain / (1.0 - self.norm_a)

    def ellipsoid(self, flags: Sequence[int], references: Sequence[float]) -> Ellipsoid:
        """State set implied by one n-step window of set-valued measurements.

        Returns E(O^-1 Y, O^-1 diag(W_i/a_i) O^-T) where Y stacks the window's
        reference outputs; realized via linear solves against O.
        """
        if len(flags) != self.n or len(references) != self.n:
            raise ValueError(f"window must contain exactly {self.n} records")
        shape = _require_psd(self.window_shape(flags), _window_named([flags]))
        center = self.window_centers(np.asarray(references, dtype=float)[None])[0]
        return Ellipsoid._trusted(center, shape)

    def window_shape(self, pattern: Sequence[bool]) -> np.ndarray:
        """Shape O^-1 diag(W_i/a_i) O^-T of one event pattern, not yet PSD-tested."""
        return self.window_shapes(np.asarray(pattern, dtype=bool)[None])[0]

    def window_shapes(self, patterns: Sequence[Sequence[bool]] | np.ndarray) -> np.ndarray:
        """``window_shape`` of each row of a (count, n) array of event patterns.

        The pair of solves against O runs once on the stack: each member of a
        stacked solve is the solve of that member alone, so every shape has
        the bits of its pattern's two solves.
        """
        patterns = np.asarray(patterns, dtype=bool)
        if patterns.ndim != 2:
            raise ValueError(f"pattern must be one row of flags, got shape {patterns.shape[1:]}")
        if patterns.shape[1] != self.n:
            raise ValueError(f"pattern has length {patterns.shape[1]}, expected {self.n}")
        w = np.where(patterns, self.uncertainty[1], self.uncertainty[0]) / self.weights
        scales = np.zeros((len(patterns), self.n, self.n))
        scales[:, np.arange(self.n), np.arange(self.n)] = w
        stacked = np.broadcast_to(self.matrix, scales.shape)
        half = np.linalg.solve(stacked, scales)
        return _symmetrize(np.linalg.solve(stacked, half.swapaxes(1, 2)).swapaxes(1, 2))

    def window_centers(self, references: np.ndarray) -> np.ndarray:
        """Centers O^-1 Y for a (K, n) stack of windows of reference outputs.

        One stacked solve; each row equals the solve of its window alone, bit
        for bit, which the multi-right-hand-side form solve(O, Y^T) does not.
        """
        stacked = np.broadcast_to(self.matrix, (len(references), self.n, self.n))
        return np.linalg.solve(stacked, references[..., None])[..., 0]


def _window_named(patterns) -> Callable[[int], str]:
    """The ``where`` of a PSD test of the window shapes of ``patterns``: a
    failing one is named by its pattern as ``check`` lists it, first flag first."""
    return lambda i: "window of pattern " + "".join(str(int(flag)) for flag in patterns[i])


def _pairwise_tree(leaves: Sequence[int]):
    """The order in which numpy sums a contiguous float64 array of len(leaves)
    terms (its pairwise summation), as a tree: a leaf is a term's index and a
    node a pair (left, right), added as left + right. Below 8 terms the sum runs
    left to right; up to 128, eight accumulators r_j = a_j + a_{j+8} + ... take
    the terms up to a multiple of 8, ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)) adds them, and the rest follow in order; above 128 the halves,
    split at a multiple of 8, are summed apart."""
    def chain(leaves, *first):  # left to right
        return functools.reduce(lambda tree, leaf: (tree, leaf), leaves, *first)

    n = len(leaves)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_tree(leaves[:half]), _pairwise_tree(leaves[half:])
    if n < 8:
        return chain(leaves)
    full = n - n % 8
    r = [chain(leaves[j:full:8]) for j in range(8)]
    return chain(leaves[full:], (((r[0], r[1]), (r[2], r[3])), ((r[4], r[5]), (r[6], r[7]))))


def _spread(table: np.ndarray, leaves: Sequence[int], positions: Sequence[int]) -> np.ndarray:
    """A table over the flags of ``leaves`` (one axis each, in order) as a view
    over ``positions``, which holds them in order: size 2 on their axes, 1 on
    the others, to broadcast."""
    return table.reshape([2 if p in leaves else 1 for p in positions])


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
        UnstableSystemError: ||A|| >= 1 (trace growth is unbounded), before any other error.
        NotObservableError: the observability matrix is rank deficient.
    """
    try:
        solver = WindowSolver(model, trigger, a)
    except ValueError:
        _require_stable(spectral_norm(model.A))  # an unstable plant is reported first
        raise
    return solver.bound()


def _require_stable(norm_a: float) -> None:
    """Raise UnstableSystemError unless ||A|| is below one.

    The message gives the norm to seven significant digits, so its width is
    bounded: six decimals below 10, as before, and an exponent from 1e7 on."""
    if norm_a >= 1.0:
        raise UnstableSystemError(f"spectral norm {norm_a:#.7g} >= 1; bound is unbounded")


def _squared_level(level: float) -> float:
    """The trace level of a sqrt-trace level: ``level ** 2``, or inf where the
    square overflows a double."""
    try:
        return float(level) ** 2
    except OverflowError:
        return math.inf
