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
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ellipsoid import (
    Ellipsoid,
    SingularShapeError,
    _fusion_matrix,
    _outer_sum_shape,
    _require_psd,
    _require_psd_stack,
    _symmetrize,
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
# Shapes per stacked PSD test: about 64 steps of 5 tests each, in at most
# PSD_BLOCK_BYTES of buffer. A 369 KB buffer (256 steps at n = 6) raised the
# peak memory of a 1000-step simulation by about 1 MB; 92 KB did not.
PSD_BLOCK = 320
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
    read-only.
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


class _PendingPsd:
    """``_require_psd`` deferred to ``_require_psd_stack`` per block of shapes.

    The stack test's verdict, and the error it raises for the first failing
    shape in the order pushed, are those of testing each shape when it is made.
    """

    def __init__(self, n: int):
        capacity = max(1, min(PSD_BLOCK, PSD_BLOCK_BYTES // (8 * n * n)))
        self._block = np.empty((capacity, n, n))
        self._count = 0

    def push(self, shape: np.ndarray) -> None:
        if self._count == len(self._block):
            self.flush()
        self._block[self._count] = shape
        self._count += 1

    def flush(self) -> None:
        pending = self._block[: self._count]
        self._count = 0
        _require_psd_stack(pending)


def _propagate(
    center: np.ndarray, shape: np.ndarray, A: np.ndarray, Q: np.ndarray, trace_q: float,
    check: Callable[[np.ndarray], object],
) -> tuple[np.ndarray, np.ndarray]:
    """Prior (center, shape) from a posterior; ``check`` PSD-tests each shape made."""
    mapped = _symmetrize(A @ shape @ A.T)
    check(mapped)
    prior = _outer_sum_shape(mapped, float(mapped.trace()), Q, trace_q, None)
    check(prior)
    return A @ center + 0.0, prior


def _fuse(
    c_meas: np.ndarray, S_meas: np.ndarray, c_prior: np.ndarray, S_prior: np.ndarray,
    check: Callable[[np.ndarray], object],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Posterior (center, shape, M, p) of ``fuse``; ``check`` PSD-tests each shape made."""
    n = c_meas.size
    try:
        M = _fusion_matrix(S_meas, S_prior)
    except SingularShapeError:
        total = S_meas + S_prior
        bump = 1e-12 * float(np.trace(total)) / n * np.eye(n)
        M = _fusion_matrix(S_meas + bump, S_prior + bump)
    # The split x = M x + (I - M) x, with p computed once and passed on.
    K = np.eye(n) - M
    S1 = _symmetrize(M @ S_meas @ M.T)
    check(S1)
    S2 = _symmetrize(K @ S_prior @ K.T)
    check(S2)
    t1, t2 = float(S1.trace()), float(S2.trace())
    if t1 <= 0.0 or t2 <= 0.0:
        p = 1.0  # one side degenerate; the outer sum is exact and ignores p
    else:
        p = float(np.sqrt(t1 / t2))  # optimal_sum_parameter
    shape = _outer_sum_shape(S1, t1, S2, t2, p)
    check(shape)
    # The + 0.0 turns a -0.0 entry into 0.0, as adding a zero offset does.
    return (M @ c_meas + 0.0) + (K @ c_prior + 0.0), shape, M, p


def prior_set(previous: Ellipsoid, model: SystemModel) -> Ellipsoid:
    """Propagate a posterior one step: E(A x, P) -> E(A x, f+(A P A^T, Q)).

    The shape is the trace-optimal outer sum of the mapped posterior and the
    disturbance set, so sqrt(Tr) of the result is exactly
    sqrt(Tr(A P A^T)) + sqrt(Tr(Q)).
    """
    if previous.dim != model.n:
        raise ValueError(f"matrix has {model.n} columns, ellipsoid has dimension {previous.dim}")
    Q = model._disturbance_set.shape
    center, shape = _propagate(
        previous.center, previous.shape, model.A, Q, float(np.trace(Q)), _require_psd
    )
    return Ellipsoid._trusted(center, shape)


def fuse(measurement: Ellipsoid, prior: Ellipsoid) -> tuple[Ellipsoid, np.ndarray, float]:
    """Trace-optimal outer approximation of measurement ^ prior.

    Returns (posterior, M, p): the fused ellipsoid, the fusion matrix weighting
    the measurement center, and the Minkowski parameter used for the outer sum.
    A singular shape sum is regularized by 1e-12 Tr/n on the diagonal so the
    iteration stays total; the perturbation is below all test tolerances.
    """
    if measurement.dim != prior.dim:
        raise ValueError(f"dimension mismatch: {measurement.dim} vs {prior.dim}")
    center, shape, M, p = _fuse(
        measurement.center, measurement.shape, prior.center, prior.shape, _require_psd
    )
    return Ellipsoid._trusted(center, shape), M, p


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
    flags = np.array([bool(r.gamma) for r in records])
    references = np.array([float(r.y_tau) for r in records])
    return _observe(flags, references, ks[0], solver)


def _observe(
    flags: np.ndarray, references: np.ndarray, first_k: int, solver: WindowSolver
) -> ObserverRun:
    """The observer recursion over a log given as flag and reference arrays.

    Every shape the recursion makes is PSD-tested, in blocks (``_PendingPsd``);
    an exception leaving the loop first runs the tests still pending, so the
    error of the earliest failing step is the one raised.
    """
    model = solver.model
    n = model.n
    steps = flags.size - (n - 1)
    patterns, first_seen, pattern = np.unique(
        sliding_window_view(flags, n), axis=0, return_index=True, return_inverse=True
    )
    pattern = pattern.reshape(-1)
    window_shapes = np.array([solver.window_shape(p) for p in patterns])
    window_centers = solver.window_centers(sliding_window_view(references, n))
    is_new = np.zeros(steps, dtype=bool)
    is_new[first_seen] = True

    centers = np.empty((steps, n))
    shapes = np.empty((steps, n, n))
    prior_centers = np.full((steps, n), np.nan)
    prior_shapes = np.full((steps, n, n), np.nan)
    guard = DIVERGENCE_FACTOR * guard_threshold(model, solver.epsilon) ** 2
    A, Q = model.A, model._disturbance_set.shape
    trace_q = float(np.trace(Q))
    pending = _PendingPsd(n)
    check = pending.push
    try:
        for t, (code, new) in enumerate(zip(pattern.tolist(), is_new.tolist())):
            window = window_shapes[code]
            if new:
                check(window)
            if t == 0:
                center, shape = window_centers[0], window
            else:
                c_prior, S_prior = _propagate(center, shape, A, Q, trace_q, check)
                center, shape, _, _ = _fuse(window_centers[t], window, c_prior, S_prior, check)
                prior_centers[t] = c_prior
                prior_shapes[t] = S_prior
            trace = float(shape.trace())
            if trace > guard:
                raise DivergenceError(
                    f"posterior trace {trace:.3e} at step {first_k + t} exceeds divergence "
                    f"guard {guard:.3e}; the model is likely unstable"
                )
            centers[t] = center
            shapes[t] = shape
    except Exception:
        pending.flush()  # an earlier failing PSD test would have stopped the run first
        raise
    pending.flush()
    _require_resolution(centers, shapes, window_centers, solver, first_k)
    run = ObserverRun(
        first_k=first_k,
        solver=solver,
        centers=centers,
        shapes=shapes,
        prior_centers=prior_centers,
        prior_shapes=prior_shapes,
        window_centers=window_centers,
        pattern=pattern,
        window_shapes=window_shapes,
    )
    for array in (centers, shapes, prior_centers, prior_shapes, window_centers, pattern,
                  window_shapes):
        array.flags.writeable = False
    return run


def _require_resolution(
    centers: np.ndarray, shapes: np.ndarray, window_centers: np.ndarray,
    solver: WindowSolver, first_k: int,
) -> None:
    """Raise DivergenceError at the first posterior too thin for its center's rounding.

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
    unit_roundoff = np.finfo(float).eps / 2.0
    error = n * unit_roundoff * (
        np.linalg.cond(solver.matrix) * np.linalg.norm(window_centers, axis=1)
        + np.linalg.norm(centers, axis=1)
    )
    # eigvalsh finds the smallest eigenvalue only to within about n u times the
    # largest, so the width tested is the largest the set can have: the check
    # fires only on sets known to be too thin.
    eigs = np.linalg.eigvalsh(shapes)
    semi_axis = np.sqrt(np.clip(eigs[:, 0], 0.0, None) + n * unit_roundoff * eigs[:, -1])
    unresolved = np.flatnonzero(semi_axis < RESOLUTION_MARGIN * error)
    if unresolved.size:
        t = int(unresolved[0])
        raise DivergenceError(
            f"posterior at step {first_k + t} has smallest semi-axis {semi_axis[t]:.3e}, "
            f"below {RESOLUTION_MARGIN:.0f} times the rounding error {error[t]:.3e} of its "
            f"center (norm {np.linalg.norm(centers[t]):.3e}); the state has outgrown "
            f"float64 resolution and containment is no longer guaranteed"
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
