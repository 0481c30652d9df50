"""Closed-loop plant simulation with a send-on-delta channel.

Runs the LTI dynamics under noise drawn uniformly from the bounded-noise
ellipsoids, evaluates the trigger, produces the channel log the observer sees,
and scores the estimator (mean error, communication rate, containment).
Identical configurations, seed included, reproduce traces bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .ellipsoid import CONTAINMENT_TOL, Ellipsoid, _draw, _generalized_distance, shape_sqrt
from .observability import (
    NotObservableError,
    SystemModel,
    TriggerConfig,
    WeightVector,
    WindowSolver,
)
from .observer import MeasurementRecord, ObserverRun, _observe

# Seeds per stacked observer run in a sweep: as many as keep a group's plant
# histories, logs and run arrays within this many bytes.
SWEEP_GROUP_BYTES = 1 << 22


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
    ``distances[i]`` is the generalized distance of the true state from the
    i-th posterior set (``contains``); a step is a violation when it exceeds
    1 + ``CONTAINMENT_TOL``.
    """

    mean_estimation_error: float
    communication_rate: float
    containment_violations: int
    max_generalized_distance: float
    distances: list[float] = field(default_factory=list, repr=False, compare=False)


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


def run_closed_loop(config: SimConfig) -> tuple[Trace, ObserverRun, Metrics]:
    """Simulate the plant, log the channel, run the observer, and score it.

    The first transmission is forced (gamma_0 = 1, y_tau_0 = y_0) so the
    send-on-delta reference is well defined from the start. Raises
    NotObservableError before simulating anything if the observability matrix
    is rank deficient.
    """
    solver = _window_solver(config)
    [result] = _run_seeds([config], solver, _noise_roots(config.model))
    return result


def _window_solver(config: SimConfig) -> WindowSolver:
    try:
        return WindowSolver(config.model, config.trigger, config.a)
    except NotObservableError:
        raise NotObservableError("model is not observable; refusing to simulate") from None


def _simulate(config: SimConfig, roots: tuple[np.ndarray, np.ndarray]) -> Trace:
    """The plant and channel of one run, drawing noise from the given roots."""
    model, trigger = config.model, config.trigger
    rng = np.random.default_rng(config.seed)
    n, N = model.n, config.N

    try:
        states = np.empty((N + 1, n))
        outputs = np.empty(N + 1)
        process_noise = np.empty((N, n))
        measurement_noise = np.empty(N + 1)
    except MemoryError as err:
        size = 8 * ((N + 1) * (n + 2) + N * n)
        raise ValueError(
            f"N = {N} steps need {size:.3g} bytes of plant history, more than can be allocated"
        ) from err
    records: list[MeasurementRecord] = []

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
        states[k] = model.A @ states[k - 1] + w
        outputs[k] = float(model.C @ states[k]) + v
        gamma, y_tau = evaluate_trigger(outputs[k], y_tau, trigger)
        records.append(MeasurementRecord(k=k, gamma=gamma, y_tau=y_tau))

    return Trace(
        states=states,
        outputs=outputs,
        records=records,
        process_noise=process_noise,
        measurement_noise=measurement_noise,
    )


def _run_seeds(
    configs: list[SimConfig], solver: WindowSolver, roots: tuple[np.ndarray, np.ndarray]
) -> list[tuple[Trace, ObserverRun, Metrics]]:
    """``run_closed_loop`` of configs that differ only in their seed: each plant
    is simulated alone, the observer advances all of them as one stack."""
    traces = [_simulate(config, roots) for config in configs]
    flags = np.array([[r.gamma for r in trace.records] for trace in traces])
    references = np.array([[r.y_tau for r in trace.records] for trace in traces])
    runs = _observe(flags, references, 0, solver)
    return [(trace, run, compute_metrics(trace, run)) for trace, run in zip(traces, runs)]


def compute_metrics(trace: Trace, estimates: ObserverRun) -> Metrics:
    """Score a run: mean error over fused steps, event rate, containment."""
    N = trace.states.shape[0] - 1
    first, last = estimates.first_k, estimates.first_k + len(estimates)
    states = trace.states[first:last]
    fused = max(0, 1 - first)  # rows of steps k >= 1
    residuals = states[fused:] - estimates.centers[fused:]
    # Row by row, the bits of np.linalg.norm of each residual.
    errors = np.sqrt((residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0])
    distances = [
        _generalized_distance(center, shape, x)
        for x, center, shape in zip(states, estimates.centers, estimates.shapes)
    ]
    rate = sum(int(r.gamma) for r in trace.records[1:]) / N
    return Metrics(
        mean_estimation_error=float(np.mean(errors)) if errors.size else 0.0,
        communication_rate=rate,
        containment_violations=sum(not d <= 1.0 + CONTAINMENT_TOL for d in distances),
        max_generalized_distance=max([0.0, *distances]),
        distances=distances,
    )


def run_seed_sweep(base: SimConfig, seeds: list[int]) -> list[tuple[int, Metrics]]:
    """Run independent seeds in seed order; the observer advances a group of
    them at once.

    Each run owns its random stream, and the stacked observer gives each run
    the bits it gets alone, so every seed's metrics equal those of a single
    run with that seed. Groups hold as many seeds as keep their run arrays
    within ``SWEEP_GROUP_BYTES``. A group that raises is rerun one seed at a
    time, so the error raised is that of the first failing seed.
    """
    return [(seed, metrics) for seed, _, _, metrics in _sweep(base, seeds)]


def _sweep(
    base: SimConfig, seeds: list[int]
) -> Iterator[tuple[int, Trace, ObserverRun, Metrics]]:
    """``run_seed_sweep`` with each seed's trace and observer run, a group at a
    time, so that only one group's arrays are held at once."""
    solver = _window_solver(base)
    roots = _noise_roots(base.model)
    n, steps = base.model.n, base.N + 1
    # Plant history, channel log (about 160 bytes a record) and run arrays.
    seed_bytes = steps * (8 * (2 * n * n + 5 * n + 2) + 160)
    group = max(1, SWEEP_GROUP_BYTES // seed_bytes)
    ordered = sorted(seeds)
    for start in range(0, len(ordered), group):
        configs = [replace(base, seed=seed) for seed in ordered[start : start + group]]
        try:
            runs = _run_seeds(configs, solver, roots)
        except Exception:
            # The stack may meet a later seed's failure first; alone, the
            # first failing seed raises what the serial loop raises.
            runs = [run for config in configs for run in _run_seeds([config], solver, roots)]
        for config, run in zip(configs, runs):
            yield config.seed, *run
