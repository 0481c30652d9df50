"""Iterative event-triggered set-membership observer.

Each estimate fuses two guaranteed ellipsoids: the previous posterior pushed
through the dynamics plus disturbance (prior set), and the set implied by the
next n channel records (measurement information set). The fusion is the
trace-optimal outer approximation of their intersection. Because a window of
n records is needed, the estimate of step k is only available at step k+n-1;
``predict_no_delay`` bridges the gap on demand, from any finalized posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ellipsoid import (
    DegenerateOperandError,
    Ellipsoid,
    SingularShapeError,
    affine_transform,
    minkowski_sum_outer,
    optimal_fusion_matrix,
    optimal_sum_parameter,
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


class DivergenceError(RuntimeError):
    """Posterior trace blew past any plausible bound; the model is diverging."""


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


def prior_set(previous: Ellipsoid, model: SystemModel) -> Ellipsoid:
    """Propagate a posterior one step: E(A x, P) -> E(A x, f+(A P A^T, Q)).

    The shape is the trace-optimal outer sum of the mapped posterior and the
    disturbance set, so sqrt(Tr) of the result is exactly
    sqrt(Tr(A P A^T)) + sqrt(Tr(Q)).
    """
    mapped = affine_transform(previous, model.A)
    return minkowski_sum_outer(mapped, model._disturbance_set)


def fuse(measurement: Ellipsoid, prior: Ellipsoid) -> tuple[Ellipsoid, np.ndarray, float]:
    """Trace-optimal outer approximation of measurement ^ prior.

    Returns (posterior, M, p): the fused ellipsoid, the fusion matrix weighting
    the measurement center, and the Minkowski parameter used for the outer sum.
    A singular shape sum is regularized by 1e-12 Tr/n on the diagonal so the
    iteration stays total; the perturbation is below all test tolerances.
    """
    if measurement.dim != prior.dim:
        raise ValueError(f"dimension mismatch: {measurement.dim} vs {prior.dim}")
    n = measurement.dim
    try:
        M = optimal_fusion_matrix(measurement.shape, prior.shape)
    except SingularShapeError:
        total = measurement.shape + prior.shape
        bump = 1e-12 * float(np.trace(total)) / n * np.eye(n)
        M = optimal_fusion_matrix(measurement.shape + bump, prior.shape + bump)
    # The split x = M x + (I - M) x, with p computed once and passed on.
    part_meas = affine_transform(measurement, M)
    part_prior = affine_transform(prior, np.eye(n) - M)
    try:
        p = optimal_sum_parameter(part_meas.shape, part_prior.shape)
    except DegenerateOperandError:
        p = 1.0  # one side degenerate; the outer sum is exact and ignores p
    return minkowski_sum_outer(part_meas, part_prior, p), M, p


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
) -> list[ObserverOutput]:
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
    guard = DIVERGENCE_FACTOR * guard_threshold(model, solver.epsilon) ** 2
    ks = [r.k for r in records]
    if ks != list(range(ks[0], ks[0] + len(records))):
        raise ValueError("record log has non-consecutive step indices")
    outputs: list[ObserverOutput] = []
    posterior: Ellipsoid | None = None
    for offset in range(len(records) - (n - 1)):
        window = records[offset : offset + n]
        target = window[0].k
        measurement = solver.ellipsoid(
            [int(r.gamma) for r in window], [float(r.y_tau) for r in window]
        )
        prior: Ellipsoid | None = None
        if posterior is None:
            posterior = measurement
        else:
            prior = prior_set(posterior, model)
            posterior, _, _ = fuse(measurement, prior)
        trace = float(np.trace(posterior.shape))
        if trace > guard:
            raise DivergenceError(
                f"posterior trace {trace:.3e} at step {target} exceeds divergence "
                f"guard {guard:.3e}; the model is likely unstable"
            )
        outputs.append(
            ObserverOutput(
                k=target,
                available_at=target + n - 1,
                measurement_set=measurement,
                posterior_set=posterior,
                prior_set=prior,
            )
        )
    return outputs


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
