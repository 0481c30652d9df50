"""Iterative event-triggered set-membership observer.

Each estimate fuses two guaranteed ellipsoids: the previous posterior pushed
through the dynamics plus disturbance (prior set), and the set implied by the
next n channel records (measurement information set). The fusion is the
trace-optimal outer approximation of their intersection. Because a window of
n records is needed, the estimate of step k is only available at step k+n-1;
``predict_no_delay`` bridges the gap on demand, from any finalized posterior.
A run is one recursion over the log's flag and reference arrays, and its
result (``ObserverRun``) is arrays too.

``_observe`` is the one run kernel: its loop body makes a whole step on the
(S, n, n) stack, in place, and calls no helper in the common case. The public
steps ``prior_set`` and ``fuse`` are the public calculus (``affine_transform``,
the fusion matrix, ``minkowski_sum_outer``) and the loop's bit-for-bit
specification: every prior and posterior of a run equals theirs.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ellipsoid import (
    PSD_TOL,
    _SINGULAR_RATIO,
    Ellipsoid,
    SingularShapeError,
    _outer_sum_into,
    _require_psd,
    _singular,
    _solve_regular,
    _sum_parameter,
    _traces,
    affine_transform,
    minkowski_sum_outer,
    optimal_fusion_matrix,
)
from .observability import (
    SystemModel,
    TriggerConfig,
    WeightVector,
    WindowSolver,
    _squared_level,
    _window_named,
)

# Abort when a posterior trace exceeds this multiple of
# (sqrt(epsilon) + sqrt(Tr Q))^2 (``WindowSolver.gain`` squared). A correct
# fusion keeps every trace within 2 epsilon for any A, at least 5e5 times
# below this guard, so only a numerical breakdown of the observer gets there.
DIVERGENCE_FACTOR = 1e6
# A posterior's smallest semi-axis must exceed this multiple of the rounding
# error of its center (``_require_resolution``).
RESOLUTION_MARGIN = 2.0**10
# Steps per stacked PSD test (5 shapes per run and step), in at most
# PSD_BLOCK_BYTES of test stack unless one step needs more. A 369 KB buffer
# (256 steps at n = 6) raised the peak memory of a 1000-step simulation by
# about 1 MB; 92 KB did not, nor did a 74 KB block (4 shapes per step) with
# the 92 KB stack its flush builds.
PSD_BLOCK_STEPS = 64
PSD_BLOCK_BYTES = 1 << 17
# The shapes a step makes, in the order ``_PsdBlock`` tests them.
_BLOCK_SHAPES = ("A P A^T", "prior", "M W M^T", "K P K^T", "posterior")


class DivergenceError(RuntimeError):
    """The run broke down numerically: the posterior trace blew past any
    plausible bound, or the sets became too thin to resolve their centers."""


@dataclass(frozen=True)
class MeasurementRecord:
    """One step of channel output: event flag and reference output value.

    At an event step ``y_tau`` is the transmitted measurement; at a no-event
    step it repeats the last transmitted value and the flag tells the observer
    the true output stayed within the trigger threshold of it.
    """

    k: int
    gamma: bool
    y_tau: float

    def __post_init__(self):
        _require_record(self.k, self.y_tau)


def _require_record(k: int, y_tau: float) -> None:
    """The checks of a ``MeasurementRecord``, for a step read without building one."""
    if k < 0:
        raise ValueError(f"step index must be non-negative, got {k}")
    if not math.isfinite(y_tau):
        raise ValueError(f"reference output must be finite, got {y_tau}")


@dataclass(frozen=True)
class ObserverOutput:
    """Estimation sets for one target step.

    ``available_at`` is the step at which the window completes (k + n - 1);
    forecasts for offsets 1 .. n-1 past the target step come from
    ``predict_no_delay(posterior_set, model, n - 1)`` when a caller needs them.
    ``prior_set`` is None at the first step, where the posterior is the
    measurement set itself.
    """

    k: int
    available_at: int
    measurement_set: Ellipsoid
    posterior_set: Ellipsoid
    prior_set: Ellipsoid | None = None


@dataclass(frozen=True, eq=False)
class ObserverRun(Sequence[ObserverOutput]):
    """The arrays of one observer run, readable as a sequence of ``ObserverOutput``.

    Row i belongs to target step ``first_k + i``: ``centers`` and ``shapes``
    hold the posterior, ``prior_centers`` and ``prior_shapes`` the propagated
    previous posterior (NaN in row 0, which has none), and ``window_centers``
    with ``window_shapes[pattern[i]]`` the measurement set, one shape per
    distinct event pattern. ``solver`` is the run's ``WindowSolver``. Indexing
    builds ``ObserverOutput`` views of the rows on demand; the arrays are
    read-only. Runs computed together (the seeds of a sweep) are columns of
    common (K, S, ...) arrays, so their arrays are strided views, and they
    share one ``window_shapes`` for the patterns of them all.
    """

    first_k: int
    solver: WindowSolver
    centers: np.ndarray
    shapes: np.ndarray
    prior_centers: np.ndarray
    prior_shapes: np.ndarray
    window_centers: np.ndarray
    pattern: np.ndarray
    window_shapes: np.ndarray

    def __len__(self) -> int:
        return len(self.centers)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"observer run has {len(self)} steps, no index {index}")
        k = self.first_k + i
        return ObserverOutput(
            k=k,
            available_at=k + self.solver.n - 1,
            measurement_set=Ellipsoid._trusted(
                self.window_centers[i], self.window_shapes[self.pattern[i]]
            ),
            posterior_set=Ellipsoid._trusted(self.centers[i], self.shapes[i]),
            prior_set=(
                None if i == 0
                else Ellipsoid._trusted(self.prior_centers[i], self.prior_shapes[i])
            ),
        )


class _PsdBlock:
    """``_require_psd`` deferred to one stacked test per block of steps.

    A step makes five shapes per run: A P A^T, the prior, the two split shapes
    and the posterior. The prior and the posterior are rows of the run arrays
    ``priors`` and ``posteriors``; the step's slot in the block, (4, S, n, n)
    [A P A^T; Q; S1; S2] with Q filled once, holds the rest. A flush tests
    the pending steps' shapes, stacked in the order made, by one
    ``_require_psd`` call, so the verdict and the error raised are those of
    testing each shape when it is made. The error names the shape, its step
    (the first is ``first_step``) and, of several runs, its run.
    """

    def __init__(self, priors: np.ndarray, posteriors: np.ndarray, Q: np.ndarray,
                 first_step: int):
        stack = priors.shape[1:]  # (S, n, n), five of them per step
        steps = max(1, min(PSD_BLOCK_STEPS, PSD_BLOCK_BYTES // (40 * math.prod(stack))))
        self._block = np.empty((steps, 4, *stack))
        self._block[:, 1] = Q
        diagonals = self._block.diagonal(0, -2, -1)
        self._slots = [(slot[:2], slot[0], diagonal[0], slot[2:], diagonal[2:])
                       for slot, diagonal in zip(self._block, diagonals)]
        self._priors, self._posteriors = priors, posteriors
        self._first = self._count = 0
        self._first_step = first_step

    def reserve(self) -> tuple[np.ndarray, ...]:
        """The next step's stack [A P A^T; Q], its A P A^T with that one's diagonal
        view, and its stack [S1; S2] with its diagonal view; the pending steps are
        tested first if the block is full."""
        if self._count == len(self._slots):
            self.flush()
        self._count += 1
        return self._slots[self._count - 1]

    def flush(self, made: int = 5) -> None:
        """Test the pending steps, of which the last has made its first ``made`` shapes."""
        count, first = self._count, self._first
        self._count, self._first = 0, first + count
        block, rows = self._block[:count], slice(first, first + count)
        shapes = np.stack((block[:, 0], self._priors[rows], block[:, 2], block[:, 3],
                           self._posteriors[rows]), axis=1)
        runs, n = shapes.shape[2:4]
        _require_psd(shapes.reshape(-1, n, n)[: (5 * count - 5 + made) * runs], lambda i: (
            _BLOCK_SHAPES[i // runs % 5] + (f" of run {i % runs}" if runs > 1 else "")
            + f" at step {self._first_step + first + i // (5 * runs)}"))


def prior_set(previous: Ellipsoid, model: SystemModel) -> Ellipsoid:
    """Propagate a posterior one step: E(A x, P) -> E(A x, f+(A P A^T, Q)).

    The shape is the trace-optimal outer sum of the mapped posterior and the
    disturbance set, so sqrt(Tr) of the result is exactly
    sqrt(Tr(A P A^T)) + sqrt(Tr(Q)). The observer's loop computes the prior
    of every step with these bits.
    """
    return minkowski_sum_outer(affine_transform(previous, model.A),
                               Ellipsoid._trusted(np.zeros(model.n), model.Q))


def fuse(measurement: Ellipsoid, prior: Ellipsoid) -> tuple[Ellipsoid, np.ndarray, float]:
    """Trace-optimal outer approximation of measurement ^ prior.

    Returns (posterior, M, p): the fused ellipsoid, the fusion matrix weighting
    the measurement center, and the Minkowski parameter used for the outer sum:
    the outer sum of E(M c_meas, M W M^T) and E(K c_prior, K P K^T), K = I - M,
    with p = sqrt of their trace ratio, or 1 unless both traces are positive.
    A singular shape sum is regularized on the diagonal (``_bumped_fusion_matrix``)
    so the iteration stays total at every n; the perturbation is below all
    test tolerances. The observer's loop computes the posterior of every step
    with these bits.
    """
    if measurement.dim != prior.dim:
        raise ValueError(f"dimension mismatch: {measurement.dim} vs {prior.dim}")
    try:
        M = optimal_fusion_matrix(measurement.shape, prior.shape)
    except SingularShapeError:
        M = _bumped_fusion_matrix(measurement.shape, prior.shape)
    parts = affine_transform(measurement, M), affine_transform(prior, np.eye(len(M)) - M)
    t1, t2 = (float(np.trace(part.shape)) for part in parts)
    p = float(_sum_parameter(t1, t2)) if t1 > 0.0 and t2 > 0.0 else 1.0
    return minkowski_sum_outer(*parts, p), M, p


def _bumped_fusion_matrix(W: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``optimal_fusion_matrix`` of W + b I and P + b I, for n x n shapes whose
    sum ``_singular`` finds singular.

    b = max(1e-12/n, n ``_SINGULAR_RATIO``) Tr(W + P) (1e-12 Tr/n up to
    n = 10), which lifts a PSD sum to twice the rule's floor at any n. A sum of
    zero trace stays singular, and ``optimal_fusion_matrix`` raises
    SingularShapeError.
    """
    n = len(W)
    bump = 1e-12 * float(np.trace(W + P)) / n * max(1.0, n * n / 100.0) * np.eye(n)
    return optimal_fusion_matrix(W + bump, P + bump)


def predict_no_delay(
    posterior: Ellipsoid, model: SystemModel, horizon: int
) -> list[Ellipsoid]:
    """Forecast ellipsoids for 1 .. horizon steps past a finalized estimate.

    Each step reapplies the prior propagation, so the forecast for offset j
    has center A^j x and shape built by j nested outer sums with Q.
    """
    if not 1 <= horizon <= model.n - 1:
        raise ValueError(f"horizon {horizon} outside [1, {model.n - 1}]")
    out = []
    current = posterior
    for _ in range(horizon):
        current = prior_set(current, model)
        out.append(current)
    return out


def observer_run(
    records: list[MeasurementRecord],
    model: SystemModel,
    trigger: TriggerConfig,
    a: WeightVector | None = None,
) -> ObserverRun:
    """Run the iterative estimator over a full channel log.

    A log of steps 0 .. N yields estimates for target steps 0 .. N-(n-1).
    Step 0 adopts its measurement set directly; every later step fuses the
    propagated previous posterior with its own measurement window.
    """
    solver = _log_solver(len(records), model, trigger, a)
    ks = [r.k for r in records]
    if ks != list(range(ks[0], ks[0] + len(records))):
        raise ValueError("record log has non-consecutive step indices")
    flags = np.array([[bool(r.gamma) for r in records]])
    references = np.array([[float(r.y_tau) for r in records]])
    [run] = _observe(flags, references, ks[0], solver)
    return run


def _log_solver(
    length: int, model: SystemModel, trigger: TriggerConfig, a: WeightVector | None
) -> WindowSolver:
    """The ``WindowSolver`` of a log of ``length`` records, which must fill a window."""
    if length < model.n:
        raise ValueError(f"log holds {length} records; at least {model.n} are required")
    return WindowSolver(model, trigger, a)


def _observe(
    flags: np.ndarray, references: np.ndarray, first_k: int, solver: WindowSolver
) -> list[ObserverRun]:
    """The observer recursion over S logs of one length, given as (S, L) flag
    and reference arrays; returns one run per log.

    Every step advances all S runs at once, as (S, n, n) shapes and (S, n, 1)
    centers, and each run gets the bits it would get alone. The loop body is
    the whole step: the prior of ``prior_set`` and the posterior of ``fuse``,
    with their IEEE operations, written into work arrays and run-array rows
    made before the loop; a member whose outer sum has an operand of trace
    <= 0 goes through ``_outer_sum_into``. At small n a step costs numpy's
    per-call overhead more than its arithmetic, so it makes no Python call but
    ``_PsdBlock.reserve`` and ``_solve_regular`` in the common case, and each
    numpy call in its cheapest form: constant operands are arrays made once
    per run, every product goes into a buffer or a run-array row, and ``out``
    is positional. The -0.0 entries of the centers and prior centers after
    row 0 are turned into 0.0 by one pass after the loop, not per step; row 0
    keeps the window center's bits. A step is cleared when a bound on its
    posterior traces, twice its split traces summed over runs (at step 0 the
    sum of its window traces), is below a quarter of the lower of the
    divergence guard and ``_singularity_skip_level``; the fusion after a
    cleared step skips its singularity test, and a step not cleared has its
    posterior traces checked against the guard. The run arrays are laid out
    step by step, (K, S, ...), and each ``ObserverRun`` holds views of its
    run's column. The window shapes depend on the event patterns
    alone, so each distinct one is PSD-tested once, before any step: a window
    that fails raises before every step's failure. Every shape a step makes
    is PSD-tested, in blocks (``_PsdBlock``); an exception leaving the loop
    first runs the tests still pending, of the shapes made so far, so among
    the steps the error of the earliest failing one is raised. With S > 1 the
    run that raises may not be the first in order; a caller that needs the
    error of one run alone runs it alone.
    """
    model = solver.model
    n = model.n
    runs, length = flags.shape
    steps = length - (n - 1)
    # Windows step by step: row t * S + s is the window of run s at step t.
    windows = sliding_window_view(flags, n, axis=1).swapaxes(0, 1).reshape(-1, n)
    patterns, pattern = _distinct_rows(windows)
    pattern = pattern.reshape(steps, runs)
    window_shapes = solver.window_shapes(patterns)
    _require_psd(window_shapes, _window_named(patterns))  # every window of the run is one
    window_centers = solver.window_centers(
        sliding_window_view(references, n, axis=1).swapaxes(0, 1).reshape(-1, n)
    ).reshape(steps, runs, n)

    centers = np.empty((steps, runs, n))
    shapes = np.empty((steps, runs, n, n))
    prior_centers = np.full((steps, runs, n), np.nan)
    prior_shapes = np.full((steps, runs, n, n), np.nan)
    guard = DIVERGENCE_FACTOR * _squared_level(solver.gain)
    # The level a step's bound must be below for the step to be cleared.
    quick = min(guard, _singularity_skip_level(solver, window_shapes)) / 4.0
    A, Q = model.A, model.Q
    A_T, eye = A.T, np.eye(n)
    q_trace = float(_traces(Q))
    # Centers are (S, n, 1) columns; M c and K c are taken in that layout.
    center_columns, prior_columns = centers[..., None], prior_centers[..., None]
    window_columns = window_centers[..., None]
    posterior_diagonals = shapes.diagonal(0, -2, -1)
    # The fusion's operands [W; P], W + P, the solve result X and M = X^T (a
    # view), [M; K] and its transposed view, and the product pairs with theirs.
    operands, sums, factors, halves, products = np.empty((5, 2, runs, n, n))
    x_half, y_half = halves
    W, P = operands
    total, X = sums
    M, K = X.swapaxes(1, 2), factors[1]
    transposes, products_T = factors.swapaxes(2, 3), products.swapaxes(2, 3)
    # A S and A S A^T, with the latter's transposed view, and M w and K c_prior:
    # every product of a step is written into a buffer made here.
    left, product = np.empty((2, runs, n, n))
    product_T = product.swapaxes(1, 2)
    window_parts, prior_parts = np.empty((2, runs, n, 1))
    # The constant operands as arrays: a Python float takes numpy's scalar
    # conversion on every call. At these sizes full-shape arrays are fastest.
    twos = np.full((2, runs, n, n), 2.0)
    two, ones, q_traces = twos[0], np.ones((2, runs, 1, 1)), np.full(runs, q_trace)
    # An outer sum's pair [1 + 1/p; 1 + p] is [1; p] / [p; 1] + 1, from the
    # rows [1; p; 1].
    rows = np.ones((3, runs, 1, 1))
    p, numerators, denominators = rows[1, :, 0, 0], rows[:2], rows[1:]
    coefficients = np.empty((2, runs, 1, 1))
    # The ufuncs as locals; every call in the loop passes ``out`` positionally.
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    sqrt, matmul, add_reduce = np.sqrt, np.matmul, np.add.reduce

    def require_below_guard(t: int) -> None:
        """The divergence guard on the posterior traces of step t, which is not cleared."""
        for trace in add_reduce(posterior_diagonals[t], -1).tolist():
            if trace > guard:
                raise DivergenceError(
                    f"posterior trace {trace:.3e} at step {first_k + t} exceeds "
                    f"divergence guard {guard:.3e}; the observer has broken down numerically"
                )

    block = _PsdBlock(prior_shapes[1:], shapes[1:], Q, first_k + 1)
    made = 5  # how many of its five PSD-tested shapes the latest step has made
    # A center or shape that overflows or turns NaN (as would a singular
    # member of ``_solve_regular``) fails the PSD or the resolution test,
    # which say so; the float warnings would only repeat it.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            centers[0] = window_centers[0]
            shape = window_shapes.take(pattern[0], 0, shapes[0], "clip")
            center = center_columns[0]
            # Step 0's posteriors are windows, whose PSD test keeps each trace at
            # or above zero (to within a subnormal), so their sum bounds each.
            test_singular = not sum(add_reduce(posterior_diagonals[0], -1).tolist()) < quick
            if test_singular:
                require_below_guard(0)
            for t in range(1, steps):
                made = 0
                stack, mapped, mapped_diagonals, split, split_diagonals = block.reserve()
                # The prior E(A c, f+(A S A^T, Q)), with A S A^T in the block's
                # [A S A^T; Q] for its PSD test.
                matmul(matmul(A, shape, left), A_T, product)
                divide(add(product, product_T, mapped), two, mapped)
                prior = prior_shapes[t]
                traces = add_reduce(mapped_diagonals, -1)
                if min(traces.tolist()) > 0.0:
                    sqrt(divide(traces, q_traces, p), p)
                    add(divide(numerators, denominators, coefficients), ones, coefficients)
                    multiply(stack, coefficients, halves)
                    add(x_half, y_half, prior)
                else:  # a point among the mapped posteriors (Q is positive definite)
                    _outer_sum_into(prior, stack)
                c_prior = matmul(A, center, prior_columns[t])
                made = 2
                # The fusion's operands; pattern indices are always in range.
                window_shapes.take(pattern[t], 0, W, "clip")
                P[...] = prior
                add(W, P, total)
                # M (W + P) = P  =>  (W + P) M^T = P by symmetry: X = M^T.
                if test_singular:
                    singular = _singular(np.linalg.eigvalsh(total))
                if test_singular and singular.any():
                    regular = ~singular
                    X[regular] = np.linalg.solve(total[regular], P[regular])
                    for s in np.flatnonzero(singular):
                        X[s] = _bumped_fusion_matrix(W[s], P[s]).T
                else:
                    _solve_regular(total, prior, X)
                # The split shapes M W M^T and K P K^T, K = I - M, as one product
                # pair, ([M; K] @ [W; P]) @ [X; K^T] with [M; K] a copy. Each
                # member gets the bits of m @ w @ m.T with m the transposed view
                # of its solve result, as the centers use it, if BLAS gives a
                # transposed operand the bits of its copy, which
                # test_stacked_calls_equal_per_matrix_calls checks.
                factors[0] = M
                subtract(eye, M, K)
                matmul(matmul(factors, operands, halves), transposes, products)
                divide(add(products, products_T, split), twos, split)
                shape = shapes[t]
                traces = add_reduce(split_diagonals, -1)
                t_x, t_y = traces.tolist()
                if min(t_x) > 0.0 and min(t_y) > 0.0:
                    # When ``fast`` holds, the step is cleared: every posterior
                    # trace is within both levels.
                    # - at the optimal p, (1 + 1/p) t_x + (1 + p) t_y =
                    #   (sqrt t_x + sqrt t_y)^2 <= 2 (t_x + t_y);
                    # - so each run's computed trace is at most 2 (t_x + t_y)
                    #   up to a few n u of rounding, which the 4 of ``quick`` covers;
                    # - the sum over runs bounds the largest run;
                    # - a NaN or inf fails the strict comparison, even with an
                    #   infinite level, and the step is not cleared;
                    # - split shapes that fail their PSD test, and a posterior
                    #   made non-finite by a trace ratio past float range, stop
                    #   the run at this step's flush, whatever the trigger
                    #   decided, so the bound need only hold for valid shapes.
                    fast = 2.0 * (sum(t_x) + sum(t_y)) < quick
                    sqrt(divide(traces[0], traces[1], p), p)
                    add(divide(numerators, denominators, coefficients), ones, coefficients)
                    multiply(split, coefficients, halves)
                    add(x_half, y_half, shape)
                else:  # a point, or a trace below zero within the PSD floor
                    fast = False
                    _outer_sum_into(shape, split)
                center = center_columns[t]
                add(matmul(M, window_columns[t], window_parts),
                    matmul(K, c_prior, prior_parts), center)
                made = 5
                test_singular = not fast
                if test_singular:
                    require_below_guard(t)
        except Exception:
            block.flush(made)  # an earlier failing PSD test would have stopped the run first
            raise
        block.flush()
    # Signed zeros, fixed once per run: adding 0.0 turns -0.0 into 0.0 and
    # keeps every other value, NaN included. In the loop a center feeds only
    # the products A c and K c_prior and the sum M w + K c_prior, and a zero
    # operand's sign changes no nonzero result of a product or a sum (an exact
    # result that is not zero rounds the same; an exact zero comes out as a
    # zero of either sign). So a + 0.0 per step would move only the signs of
    # zeros, and this pass fixes those. Row 0 keeps the window center's bits:
    # a log of -0.0 references has -0.0 at k = 0.
    for array in (centers[1:], prior_centers[1:]):
        add(array, 0.0, array)
    _require_resolution(centers, shapes, window_centers, solver, first_k)
    arrays = (centers, shapes, prior_centers, prior_shapes, window_centers, pattern)
    for array in (*arrays, window_shapes):
        array.flags.writeable = False
    return [
        ObserverRun(first_k, solver, *(array[:, s] for array in arrays[:5]),
                    pattern=pattern[:, s], window_shapes=window_shapes)
        for s in range(runs)
    ]


def _distinct_rows(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(flags, axis=0, return_inverse=True) of a 2-D bool array: its
    distinct rows in ascending order, and the index of each row among them.

    Each row is packed into bytes, its first flag the high bit. A stable sort
    on the byte columns, first byte first, orders the rows as np.unique does
    (False before True, from the first flag on), and a row unlike the one
    before it starts a pattern, at a fraction of np.unique's row-wise cost.
    """
    packed = np.packbits(flags, axis=1)
    order = np.lexsort(packed.T[::-1])
    ordered = packed[order]
    starts = np.ones(len(order), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    return flags[order[starts]], inverse


def _singularity_skip_level(solver: WindowSolver, window_shapes: np.ndarray) -> float:
    """A previous posterior trace at or below which the fusion's singularity
    test is sure to pass, so that it need not run; -inf when there is none.
    ``window_shapes`` are the run's distinct window shapes, and ||A|| is the
    solver's ``norm_a``.

    The test passes when the computed eigenvalues of T = W + P have
    l_min > n ``_SINGULAR_RATIO`` l_max (``_singular``). For the prior
    P = a A S A^T + b Q of a posterior S (b >= 1, and A S A^T is PSD within
    ``PSD_TOL`` Tr/n):

    - l_min(T) >= l_min(W) + l_min(Q) - PSD_TOL Tr(T)/n, less the rounding of
      P and T, about (n + 4) u Tr(T);
    - l_max(T) <= Tr(T), and ``eigvalsh`` errs by about n u l_max at most
      (taken as 16 n u here, as for the eigenvalues of Q and W);
    - so the test passes while Tr(T) < (l_min(W) + l_min(Q)) / rate;
    - Tr(T) <= max Tr(W) + Tr(P), Tr(P) <= 2 (Tr(A S A^T) + Tr Q) and
      Tr(A S A^T) <= ||A||^2 Tr S, each up to rounding.

    Each step of that chain gives away a factor of 2 to cover its rounding.
    The window shapes have passed their PSD test, so they are finite.
    """
    n = solver.n
    u = float(np.finfo(float).eps) / 2.0
    error = 16 * n * u
    Q = solver.model.Q
    q = np.linalg.eigvalsh(Q)
    w = np.linalg.eigvalsh(window_shapes)
    q_min = float(q[0] - error * q[-1])
    if q_min <= 0.0:  # b l_min(Q) >= l_min(Q) needs l_min(Q) >= 0
        return -math.inf
    # Python floats from here on: a room that overflows is inf, without a
    # warning, and so is the level, which every finite trace is below.
    smallest = q_min + float(np.min(w[:, 0] - error * w[:, -1]))
    rate = PSD_TOL / n + n * _SINGULAR_RATIO + (n + 4) * u + error
    prior_room = smallest / (2.0 * rate) / 2.0 - float(np.max(_traces(window_shapes)))
    mapped_room = prior_room / 2.0 / 2.0 - float(np.trace(Q))
    if not mapped_room > 0.0:
        return -math.inf
    norm_a = solver.norm_a
    return mapped_room / norm_a / norm_a / 2.0 if norm_a > 0.0 else math.inf


def _require_resolution(
    centers: np.ndarray, shapes: np.ndarray, window_centers: np.ndarray,
    solver: WindowSolver, first_k: int,
) -> None:
    """Raise DivergenceError at the first posterior too thin for its center's rounding.

    The arrays are laid out (K, S, ...) as in ``_observe``; the first posterior
    is the earliest step's, and among runs the first in order.

    A float64 center is only known to within its rounding error, so a set
    narrower than that error can miss the state it claims to contain (an
    unstable plant drives |x| to where one ulp exceeds the set's width while
    the trace stays bounded). The error of a center has two sources:

    - the window solve O c_w = Y: LU with partial pivoting is backward stable,
      so its forward error is about n u cond(O) |c_w| (u the unit roundoff,
      cond(O) the solver's ``cond``);
    - the recursion c = M c_w + (I - M) A c_prev: its n-term products and the
      final sum add about n u |c| at each step.

    Errors of earlier steps travel through (I - M) A, which the posterior
    metric damps (the prior enters the outer sum scaled by 1 + p > 1), so the
    error at a step is within a small multiple of that step's two terms.
    ``RESOLUTION_MARGIN`` covers that multiple, the slack of the worst-case
    constants and the rounding of the state a set is tested against; it keeps
    the rounding's effect on a generalized distance below about 2^-9.
    """
    n = solver.n
    steps, runs = centers.shape[:2]
    centers = centers.reshape(-1, n)
    unit_roundoff = np.finfo(float).eps / 2.0
    # A center whose squared norm overflows has an infinite norm and error: no
    # set resolves it, and the check below fails on it.
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(centers, axis=1)
        error = n * unit_roundoff * (
            solver.cond * np.linalg.norm(window_centers.reshape(-1, n), axis=1)
            + norms
        )
    shapes = shapes.reshape(-1, n, n)
    limits = RESOLUTION_MARGIN * error
    # The screen: every width tested below is at least sqrt(n u l_max) >=
    # sqrt(u Tr S), as l_max >= Tr S / n for any symmetric S and eigvalsh
    # finds l_max to within about n u of itself; rounding is monotone, so the
    # factor 4 covers both. A set of finite entries and finite trace with
    # sqrt(u/4 Tr S) >= its limit thus passes whatever eigvalsh returns (a
    # NaN or infinite limit, or a negative trace, passes no screen), and the
    # eigenvalues are computed only when some set is not cleared this way.
    traces = _traces(shapes)
    with np.errstate(invalid="ignore"):
        screen = np.sqrt(unit_roundoff / 4.0 * traces)
    if np.isfinite(shapes).all() and np.isfinite(traces).all() and (screen >= limits).all():
        return
    # eigvalsh finds the smallest eigenvalue only to within about n u times the
    # largest, so the width tested is the largest the set can have: the check
    # fires only on sets known to be too thin.
    eigs = np.linalg.eigvalsh(shapes)
    semi_axis = np.sqrt(np.clip(eigs[:, 0], 0.0, None) + n * unit_roundoff * eigs[:, -1])
    # A NaN center has a NaN error, and no set resolves it either.
    unresolved = np.flatnonzero(~(semi_axis >= limits))
    if unresolved.size:
        i = int(unresolved[0])
        raise DivergenceError(
            f"posterior at step {first_k + i // runs} has smallest semi-axis "
            f"{semi_axis[i]:.3e}, below {RESOLUTION_MARGIN:.0f} times the rounding error "
            f"{error[i]:.3e} of its center (norm {norms[i]:.3e}); the state "
            f"has outgrown float64 resolution and containment is no longer guaranteed"
        )

