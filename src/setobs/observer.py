"""Iterative event-triggered set-membership observer.

Each estimate fuses two guaranteed ellipsoids: the previous posterior pushed
through the dynamics plus disturbance (prior set), and the set implied by the
next n channel records (measurement information set). The fusion is the
trace-optimal outer approximation of their intersection. Because a window of
n records is needed, the estimate of step k is only available at step k+n-1;
``predict_no_delay`` bridges the gap on demand, from any finalized posterior.
A run is one recursion over the log's flag and reference arrays, and its
result (``ObserverRun``) is arrays too.
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
    Ellipsoid,
    _fusion_matrix,
    _require_psd_stack,
    _sum_parameter,
)
from .observability import (
    SystemModel,
    TriggerConfig,
    WeightVector,
    WindowSolver,
    spectral_norm,
    _sqrt_trace_level,
)

# Abort when the posterior trace exceeds this multiple of the squared
# asymptotic bound; only a mis-configured (unstable) model can get there.
DIVERGENCE_FACTOR = 1e6
# A posterior's smallest semi-axis must exceed this multiple of the rounding
# error of its center (``_require_resolution``).
RESOLUTION_MARGIN = 2.0**10
# Steps per stacked PSD test (5 shapes per run and step), in at most
# PSD_BLOCK_BYTES of buffer unless one step needs more. A 369 KB buffer (256
# steps at n = 6) raised the peak memory of a 1000-step simulation by about
# 1 MB; 92 KB did not.
PSD_BLOCK_STEPS = 64
PSD_BLOCK_BYTES = 1 << 17


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
        if self.k < 0:
            raise ValueError(f"step index must be non-negative, got {self.k}")
        if not math.isfinite(self.y_tau):
            raise ValueError(f"reference output must be finite, got {self.y_tau}")


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
    """``_require_psd`` deferred to ``_require_psd_stack`` per block of shapes.

    Each step reserves a region, an array of shapes (..., n, n) of the given
    ``region`` dimensions, and writes its shapes straight into it. A full
    block is tested as one stack, in the order written, so the verdict and
    the error raised for the first failing shape are those of testing each
    shape when it is made.
    """

    def __init__(self, region: tuple[int, ...]):
        steps = max(1, min(PSD_BLOCK_STEPS, PSD_BLOCK_BYTES // (8 * math.prod(region))))
        self._block = np.empty((steps, *region))
        self._count = 0

    def reserve(self) -> np.ndarray:
        """The next step's region, testing the block first if it is full."""
        if self._count == len(self._block):
            self.flush()
        self._count += 1
        return self._block[self._count - 1]

    def flush(self) -> None:
        pending = self._block[: self._count]
        self._count = 0
        _require_psd_stack(pending.reshape(-1, *pending.shape[-2:]))


def _prior_step(
    P: np.ndarray, c: np.ndarray, A: np.ndarray, Q: np.ndarray, trace_q: np.ndarray,
    out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Prior sets E(A c, f+(A P A^T, Q)) of a stack of posteriors.

    ``P`` is (S, n, n), ``c`` holds the centers as (S, n, 1) columns and
    ``trace_q`` is Tr Q as a one-element array. ``out`` (2, S, n, n) receives
    A P A^T and the prior shapes, for the caller to PSD-test in that order.
    Returns the prior centers and ``out[1]``.
    """
    mapped, prior = out
    product = A @ P @ A.T
    np.add(product, product.swapaxes(1, 2), out=mapped)
    np.divide(mapped, 2.0, out=mapped)
    _outer_sum_into(prior, mapped, _traces(mapped), Q, trace_q)
    # The + 0.0 turns a -0.0 entry into 0.0, as adding a zero offset does.
    return A @ c + 0.0, prior


def _fuse_step(
    W: np.ndarray, c_meas: np.ndarray, P: np.ndarray, c_prior: np.ndarray, eye: np.ndarray,
    out: np.ndarray, test_singular: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Trace-optimal outer approximations of E(c_meas, W) ^ E(c_prior, P), stacked.

    Shapes are (S, n, n) and centers (S, n, 1) columns. ``out`` (3, S, n, n)
    receives the two split shapes M W M^T and (I - M) P (I - M)^T and the
    posterior shapes, for the caller to PSD-test in that order. Returns the
    posterior centers, ``out[2]``, the fusion matrices M and the sum
    parameters p.

    W + P is singular within tolerance only where ``_fusion_matrix`` says so;
    a member found singular is regularized by 1e-12 Tr/n on the diagonal.
    With ``test_singular`` false the caller has proven that no member is, and
    the eigenvalue test is skipped.
    """
    total = W + P
    if test_singular:
        eigs = np.linalg.eigvalsh(total)
        singular = (eigs[:, -1] <= 0.0) | (eigs[:, 0] <= eye.shape[0] * 1e-14 * eigs[:, -1])
    if test_singular and singular.any():
        X = np.empty_like(total)
        regular = ~singular
        X[regular] = np.linalg.solve(total[regular], P[regular])
        for s in np.flatnonzero(singular):
            bump = 1e-12 * float(np.trace(total[s])) / eye.shape[0] * eye
            X[s] = _fusion_matrix(W[s] + bump, P[s] + bump).T
    else:
        # M (W + P) = P  =>  (W + P) M^T = P by symmetry.
        X = np.linalg.solve(total, P)
    M = X.swapaxes(1, 2)
    K = eye - M
    split = out[:2]
    np.matmul(M @ W, X, out=split[0])
    np.matmul(K @ P, K.swapaxes(1, 2), out=split[1])
    np.add(split, split.swapaxes(2, 3), out=split)
    np.divide(split, 2.0, out=split)
    traces = _traces(split)
    p = _outer_sum_into(out[2], split[0], traces[0], split[1], traces[1])
    # The + 0.0 turns a -0.0 entry into 0.0; on a sum it has the bits of adding
    # 0.0 to each term first.
    return (M @ c_meas + K @ c_prior) + 0.0, out[2], M, p


def _traces(shapes: np.ndarray) -> np.ndarray:
    """Traces over the last two axes: the reduction ``ndarray.trace`` runs, called
    directly (so with its bits, and without its overhead)."""
    return np.add.reduce(shapes.diagonal(0, -2, -1), -1)


def _outer_sum_into(
    out: np.ndarray, X: np.ndarray, t_x: np.ndarray, Y: np.ndarray, t_y: np.ndarray
) -> np.ndarray:
    """Trace-optimal outer sums (1 + 1/p) X + (1 + p) Y, p = sqrt(t_x / t_y), of
    a stack of shapes X and shapes Y (a stack, or one shape for every member),
    written into ``out``; returns p.

    A member whose traces are not both positive takes p = 1, and where one of
    its operands has zero trace (a point) its sum is the other operand, as in
    ``_outer_sum_shape``; only such members leave the stack.
    """
    if min(t_x.tolist()) > 0.0 and min(t_y.tolist()) > 0.0:
        p = _sum_parameter(t_x, t_y)
        degenerate = None
    else:
        t_x, t_y = np.broadcast_arrays(t_x, t_y)
        regular = (t_x > 0.0) & (t_y > 0.0)
        p = np.ones(t_x.shape)
        p[regular] = _sum_parameter(t_x[regular], t_y[regular])
        degenerate = np.flatnonzero(~regular)
    coefficient = p[:, None, None]
    np.multiply(X, 1.0 + 1.0 / coefficient, out=out)
    out += (1.0 + coefficient) * Y
    if degenerate is not None:
        Y = np.broadcast_to(Y, X.shape)
        for s in degenerate:
            if t_x[s] == 0.0:
                out[s] = Y[s]
            elif t_y[s] == 0.0:
                out[s] = X[s]
    return p


def prior_set(previous: Ellipsoid, model: SystemModel) -> Ellipsoid:
    """Propagate a posterior one step: E(A x, P) -> E(A x, f+(A P A^T, Q)).

    The shape is the trace-optimal outer sum of the mapped posterior and the
    disturbance set, so sqrt(Tr) of the result is exactly
    sqrt(Tr(A P A^T)) + sqrt(Tr(Q)). This is the observer's own step, on a
    stack of one.
    """
    n = model.n
    if previous.dim != n:
        raise ValueError(f"matrix has {n} columns, ellipsoid has dimension {previous.dim}")
    Q = model._disturbance_set.shape
    shapes = np.empty((2, 1, n, n))
    center, shape = _prior_step(
        previous.shape[None], previous.center[None, :, None], model.A, Q,
        np.array([np.trace(Q)]), shapes,
    )
    _require_psd_stack(shapes[:, 0])
    return Ellipsoid._trusted(center[0, :, 0], shape[0])


def fuse(measurement: Ellipsoid, prior: Ellipsoid) -> tuple[Ellipsoid, np.ndarray, float]:
    """Trace-optimal outer approximation of measurement ^ prior.

    Returns (posterior, M, p): the fused ellipsoid, the fusion matrix weighting
    the measurement center, and the Minkowski parameter used for the outer sum.
    A singular shape sum is regularized by 1e-12 Tr/n on the diagonal so the
    iteration stays total; the perturbation is below all test tolerances.
    This is the observer's own step, on a stack of one.
    """
    if measurement.dim != prior.dim:
        raise ValueError(f"dimension mismatch: {measurement.dim} vs {prior.dim}")
    n = measurement.dim
    shapes = np.empty((3, 1, n, n))
    center, shape, M, p = _fuse_step(
        measurement.shape[None], measurement.center[None, :, None], prior.shape[None],
        prior.center[None, :, None], np.eye(n), shapes,
    )
    _require_psd_stack(shapes[:, 0])
    return Ellipsoid._trusted(center[0, :, 0], shape[0]), M[0], float(p[0])


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
    a = a if a is not None else WeightVector.uniform(model.n)
    n = model.n
    if len(records) < n:
        raise ValueError(f"log holds {len(records)} records; at least {n} are required")
    solver = WindowSolver(model, trigger, a)
    ks = [r.k for r in records]
    if ks != list(range(ks[0], ks[0] + len(records))):
        raise ValueError("record log has non-consecutive step indices")
    flags = np.array([[bool(r.gamma) for r in records]])
    references = np.array([[float(r.y_tau) for r in records]])
    [run] = _observe(flags, references, ks[0], solver)
    return run


def _observe(
    flags: np.ndarray, references: np.ndarray, first_k: int, solver: WindowSolver
) -> list[ObserverRun]:
    """The observer recursion over S logs of one length, given as (S, L) flag
    and reference arrays; returns one run per log.

    Every step advances all S runs at once, as (S, n, n) shapes and (S, n, 1)
    centers, and each run gets the bits it would get alone. The run arrays are
    laid out step by step, (K, S, ...), and each ``ObserverRun`` holds views
    of its run's column. The window shapes depend on the event patterns
    alone, so each distinct one is PSD-tested once, before any step: a window
    that fails raises before every step's failure. Every shape a step makes
    is PSD-tested, in blocks (``_PsdBlock``); an exception leaving the loop
    first runs the tests still pending, so among the steps the error of the
    earliest failing one is raised. With S > 1 the run that raises may not be
    the first in order; a caller that needs the error of one run alone runs
    it alone.
    """
    model = solver.model
    n = model.n
    runs, length = flags.shape
    steps = length - (n - 1)
    # Windows step by step: row t * S + s is the window of run s at step t.
    windows = sliding_window_view(flags, n, axis=1).swapaxes(0, 1).reshape(-1, n)
    patterns, pattern = np.unique(windows, axis=0, return_inverse=True)
    pattern = pattern.reshape(steps, runs)
    window_shapes = np.array([solver.window_shape(p) for p in patterns])
    _require_psd_stack(window_shapes)  # every window of the run is one of these
    window_centers = solver.window_centers(
        sliding_window_view(references, n, axis=1).swapaxes(0, 1).reshape(-1, n)
    ).reshape(steps, runs, n)

    centers = np.empty((steps, runs, n))
    shapes = np.empty((steps, runs, n, n))
    prior_centers = np.full((steps, runs, n), np.nan)
    prior_shapes = np.full((steps, runs, n, n), np.nan)
    guard = DIVERGENCE_FACTOR * guard_threshold(model, solver.epsilon) ** 2
    skip_level = _singularity_skip_level(model, window_shapes)
    settled = min(guard, skip_level)
    A, Q = model.A, model._disturbance_set.shape
    trace_q = np.array([np.trace(Q)])
    eye = np.eye(n)
    # Per step: A P A^T, the prior, the two split shapes and the posterior.
    block = _PsdBlock((5, runs, n, n))
    try:
        for t in range(steps):
            if t == 0:
                centers[0] = window_centers[0]
                shapes[0] = window_shapes[pattern[0]]
            else:
                region = block.reserve()
                c_prior, prior = _prior_step(
                    shapes[t - 1], centers[t - 1][..., None], A, Q, trace_q, region[:2]
                )
                center, shape, _, _ = _fuse_step(
                    window_shapes[pattern[t]], window_centers[t][..., None], prior, c_prior,
                    eye, region[2:], test_singular=test_singular,
                )
                prior_centers[t] = c_prior[..., 0]
                prior_shapes[t] = prior
                centers[t] = center[..., 0]
                shapes[t] = shape
            traces = _traces(shapes[t]).tolist()
            # Usually every trace is below both levels, and one pass shows it.
            test_singular = not all(trace <= settled for trace in traces)
            if test_singular:
                for trace in traces:
                    if trace > guard:
                        raise DivergenceError(
                            f"posterior trace {trace:.3e} at step {first_k + t} exceeds "
                            f"divergence guard {guard:.3e}; the model is likely unstable"
                        )
                test_singular = not all(trace <= skip_level for trace in traces)
    except Exception:
        block.flush()  # an earlier failing PSD test would have stopped the run first
        raise
    block.flush()
    _require_resolution(centers, shapes, window_centers, solver, first_k)
    arrays = (centers, shapes, prior_centers, prior_shapes, window_centers, pattern)
    for array in (*arrays, window_shapes):
        array.flags.writeable = False
    return [
        ObserverRun(first_k, solver, *(array[:, s] for array in arrays[:5]),
                    pattern=pattern[:, s], window_shapes=window_shapes)
        for s in range(runs)
    ]


def _singularity_skip_level(model: SystemModel, window_shapes: np.ndarray) -> float:
    """A previous posterior trace at or below which ``_fuse_step``'s singularity
    test is sure to pass, so that it need not run; -inf when there is none.

    The test passes when the computed eigenvalues of T = W + P have
    l_min > n 1e-14 l_max. For the prior P = a A S A^T + b Q of a posterior S
    (b >= 1, and A S A^T is PSD within ``PSD_TOL`` Tr/n):

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
    n = model.n
    u = np.finfo(float).eps / 2.0
    error = 16 * n * u
    Q = model._disturbance_set.shape
    q = np.linalg.eigvalsh(Q)
    w = np.linalg.eigvalsh(window_shapes)
    q_min = q[0] - error * q[-1]
    if q_min <= 0.0:  # b l_min(Q) >= l_min(Q) needs l_min(Q) >= 0
        return -math.inf
    smallest = q_min + float(np.min(w[:, 0] - error * w[:, -1]))
    rate = PSD_TOL / n + n * 1e-14 + (n + 4) * u + error
    prior_room = smallest / (2.0 * rate) / 2.0 - float(np.max(_traces(window_shapes)))
    mapped_room = prior_room / 2.0 / 2.0 - float(np.trace(Q))
    if not mapped_room > 0.0:
        return -math.inf
    norm_a = spectral_norm(model.A)
    return mapped_room / norm_a**2 / 2.0 if norm_a > 0.0 else math.inf


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
      so its forward error is about n u cond(O) |c_w| (u the unit roundoff);
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
    error = n * unit_roundoff * (
        np.linalg.cond(solver.matrix) * np.linalg.norm(window_centers.reshape(-1, n), axis=1)
        + np.linalg.norm(centers, axis=1)
    )
    # eigvalsh finds the smallest eigenvalue only to within about n u times the
    # largest, so the width tested is the largest the set can have: the check
    # fires only on sets known to be too thin.
    eigs = np.linalg.eigvalsh(shapes.reshape(-1, n, n))
    semi_axis = np.sqrt(np.clip(eigs[:, 0], 0.0, None) + n * unit_roundoff * eigs[:, -1])
    unresolved = np.flatnonzero(semi_axis < RESOLUTION_MARGIN * error)
    if unresolved.size:
        i = int(unresolved[0])
        raise DivergenceError(
            f"posterior at step {first_k + i // runs} has smallest semi-axis "
            f"{semi_axis[i]:.3e}, below {RESOLUTION_MARGIN:.0f} times the rounding error "
            f"{error[i]:.3e} of its center (norm {np.linalg.norm(centers[i]):.3e}); the state "
            f"has outgrown float64 resolution and containment is no longer guaranteed"
        )


def guard_threshold(model: SystemModel, epsilon: float) -> float:
    """Reference sqrt-trace level for the divergence guard, from the model's epsilon.

    The asymptotic bound (sqrt(epsilon) + sqrt(Tr Q)) / (1 - ||A||) when A is
    strictly stable; otherwise the undamped single-step gain
    sqrt(epsilon) + sqrt(Tr Q), which every healthy posterior stays below
    regardless of stability (the window information alone caps the fused
    trace). The guard is pure defense in depth: it trips only on numeric
    breakdown, never in a well-posed run.
    """
    return float(_sqrt_trace_level(model, epsilon, spectral_norm(model.A)))
