"""Closed-loop plant simulation with a send-on-delta channel.

Runs the LTI dynamics under noise drawn uniformly from the bounded-noise
ellipsoids, evaluates the trigger, produces the channel log the observer sees,
and scores the estimator (mean error, communication rate, containment).
Identical configurations, seed included, reproduce traces bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ellipsoid import Ellipsoid, _draw, contains, shape_sqrt
from .observability import (
    NotObservableError,
    SystemModel,
    TriggerConfig,
    WeightVector,
    is_full_rank,
    observability_matrix,
)
from .observer import MeasurementRecord, ObserverOutput, observer_run


@dataclass(frozen=True)
class SimConfig:
    """One reproducible closed-loop experiment."""

    model: SystemModel
    trigger: TriggerConfig
    x0: np.ndarray
    N: int
    seed: int
    a: WeightVector | None = None

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float)).ravel()
        if x0.size != self.model.n:
            raise ValueError(f"x0 has dimension {x0.size}, model has {self.model.n}")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")
        if self.N < self.model.n:
            raise ValueError(f"horizon N = {self.N} must be at least n = {self.model.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "x0", x0)
        if self.a is None:
            object.__setattr__(self, "a", WeightVector.uniform(self.model.n))


@dataclass(frozen=True)
class Trace:
    """Realized closed-loop trajectory and the channel log it produced.

    ``process_noise[k]`` is the disturbance taking x_k to x_{k+1};
    ``measurement_noise[k]`` enters y_k.
    """

    states: np.ndarray
    outputs: np.ndarray
    records: list[MeasurementRecord]
    process_noise: np.ndarray
    measurement_noise: np.ndarray


@dataclass(frozen=True)
class Metrics:
    """Estimator scores for one run.

    ``mean_estimation_error`` averages ||x_k - x_hat_k|| over the fused steps
    k = 1 .. N-(n-1); the last n-1 steps have no finalized estimate.
    ``communication_rate`` is the fraction of steps 1 .. N with an event.
    """

    mean_estimation_error: float
    communication_rate: float
    containment_violations: int
    max_generalized_distance: float


def step_plant(x: np.ndarray, w: np.ndarray, model: SystemModel) -> np.ndarray:
    """One step of x -> A x + w."""
    x = np.asarray(x, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    if x.size != model.n or w.size != model.n:
        raise ValueError(f"state/disturbance must have dimension {model.n}")
    return model.A @ x + w


def evaluate_trigger(
    y: float, y_tau_prev: float, trigger: TriggerConfig
) -> tuple[bool, float]:
    """Send-on-delta decision: transmit iff (y - y_tau)^2 strictly exceeds the threshold.

    Returns (flag, new reference); the reference moves to y only on an event.
    """
    if (y - y_tau_prev) ** 2 > trigger.threshold:
        return True, y
    return False, y_tau_prev


def sample_noise(model: SystemModel, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Draw (w, v) uniformly from their bounded-noise ellipsoids."""
    return _draw_noise(_noise_roots(model), rng)


def _noise_roots(model: SystemModel) -> tuple[np.ndarray, np.ndarray]:
    """shape_sqrt of the validated disturbance set E(0, Q) and noise set E(0, R)."""
    noise_set = Ellipsoid([0.0], [[model.R]])
    return shape_sqrt(model._disturbance_set.shape), shape_sqrt(noise_set.shape)


def _draw_v(roots: tuple[np.ndarray, np.ndarray], rng: np.random.Generator) -> float:
    return float(_draw(np.zeros(1), roots[1], rng)[0])


def _draw_noise(
    roots: tuple[np.ndarray, np.ndarray], rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """``sample_noise`` from precomputed roots: w first, then v."""
    w = _draw(np.zeros(roots[0].shape[0]), roots[0], rng)
    return w, _draw_v(roots, rng)


def run_closed_loop(config: SimConfig) -> tuple[Trace, list[ObserverOutput], Metrics]:
    """Simulate the plant, log the channel, run the observer, and score it.

    The first transmission is forced (gamma_0 = 1, y_tau_0 = y_0) so the
    send-on-delta reference is well defined from the start. Raises
    NotObservableError before simulating anything if the observability matrix
    is rank deficient.
    """
    model, trigger = config.model, config.trigger
    if not is_full_rank(observability_matrix(model)):
        raise NotObservableError("model is not observable; refusing to simulate")
    rng = np.random.default_rng(config.seed)
    n, N = model.n, config.N

    states = np.empty((N + 1, n))
    outputs = np.empty(N + 1)
    process_noise = np.empty((N, n))
    measurement_noise = np.empty(N + 1)
    records: list[MeasurementRecord] = []

    roots = _noise_roots(model)  # once per run; every draw reuses them

    states[0] = config.x0
    v = _draw_v(roots, rng)
    measurement_noise[0] = v
    outputs[0] = float(model.C @ states[0]) + v
    y_tau = outputs[0]
    records.append(MeasurementRecord(k=0, gamma=True, y_tau=y_tau))

    for k in range(1, N + 1):
        w, v = _draw_noise(roots, rng)
        process_noise[k - 1] = w
        measurement_noise[k] = v
        states[k] = step_plant(states[k - 1], w, model)
        outputs[k] = float(model.C @ states[k]) + v
        gamma, y_tau = evaluate_trigger(outputs[k], y_tau, trigger)
        records.append(MeasurementRecord(k=k, gamma=gamma, y_tau=y_tau))

    trace = Trace(
        states=states,
        outputs=outputs,
        records=records,
        process_noise=process_noise,
        measurement_noise=measurement_noise,
    )
    estimates = observer_run(records, model, trigger, config.a)
    return trace, estimates, compute_metrics(trace, estimates)


def compute_metrics(trace: Trace, estimates: list[ObserverOutput]) -> Metrics:
    """Score a run: mean error over fused steps, event rate, containment."""
    N = trace.states.shape[0] - 1
    errors = [
        float(np.linalg.norm(trace.states[out.k] - out.posterior_set.center))
        for out in estimates
        if out.k >= 1
    ]
    violations = 0
    max_distance = 0.0
    for out in estimates:
        inside, dist = contains(out.posterior_set, trace.states[out.k])
        max_distance = max(max_distance, dist)
        if not inside:
            violations += 1
    rate = sum(int(r.gamma) for r in trace.records[1:]) / N
    return Metrics(
        mean_estimation_error=float(np.mean(errors)) if errors else 0.0,
        communication_rate=rate,
        containment_violations=violations,
        max_generalized_distance=max_distance,
    )


def run_seed_sweep(base: SimConfig, seeds: list[int]) -> list[tuple[int, Metrics]]:
    """Run independent seeds one after another, in seed order.

    Each run owns its random stream, so every seed's metrics equal those of a
    single run with that seed. The runs are small matrix work that holds the
    GIL, so threads would not overlap them.
    """
    results = []
    for seed in sorted(seeds):
        cfg = SimConfig(
            model=base.model, trigger=base.trigger, x0=base.x0, N=base.N, seed=seed, a=base.a
        )
        _, _, metrics = run_closed_loop(cfg)
        results.append((seed, metrics))
    return results
