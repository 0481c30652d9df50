"""Closed-loop plant simulation with a send-on-delta channel.

Runs the LTI dynamics under noise drawn uniformly from the bounded-noise
ellipsoids, evaluates the trigger, produces the channel log the observer sees,
and scores the estimator (mean error, communication rate, containment).
Identical configurations, seed included, reproduce traces bit for bit.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .ellipsoid import CONTAINMENT_TOL, _generalized_distances, shape_sqrt
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
    ``measurement_noise[k]`` enters y_k. The channel log is ``flags[k]`` and
    ``references[k]``, the event flag and reference output of step k;
    ``records`` builds it as ``MeasurementRecord``s on demand.
    """

    states: np.ndarray
    outputs: np.ndarray
    flags: np.ndarray
    references: np.ndarray
    process_noise: np.ndarray
    measurement_noise: np.ndarray

    @property
    def records(self) -> list[MeasurementRecord]:
        return [MeasurementRecord(k, gamma, y_tau) for k, (gamma, y_tau)
                in enumerate(zip(self.flags.tolist(), self.references.tolist()))]


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


def _noise_roots(model: SystemModel) -> tuple[np.ndarray, np.ndarray]:
    """shape_sqrt of the model's disturbance shape Q and noise shape [[R]]."""
    return shape_sqrt(model.Q), shape_sqrt([[model.R]])


def run_closed_loop(config: SimConfig) -> tuple[Trace, ObserverRun, Metrics]:
    """Simulate the plant, log the channel, run the observer, and score it.

    The first transmission is forced (gamma_0 = 1, y_tau_0 = y_0) so the
    send-on-delta reference is well defined from the start. Raises
    NotObservableError before simulating anything if the observability matrix
    is rank deficient. This is a sweep of one seed.
    """
    [(_, trace, run, metrics)] = _sweep(config, [config.seed])
    return trace, run, metrics


def _simulate(
    configs: list[SimConfig], roots: tuple[np.ndarray, np.ndarray]
) -> tuple[list[Trace], np.ndarray, np.ndarray]:
    """The plants and channels of runs that differ only in their seed, drawing
    noise from the given roots, with their (S, N + 1) flags and references, of
    which each trace holds a row; each run gets the bits it gets alone.

    Each seed's stream is drawn in the order of one run: step 0's v, then w and
    v of every later step, each as ``sample_point`` draws it (a normal vector
    and a uniform number per point). The draws then become noise in one batch,
    the dynamics step every seed as one (S, n) stack, and the send-on-delta
    trigger runs on Python floats.
    """
    model, threshold = configs[0].model, configs[0].trigger.threshold
    n, N, runs = model.n, configs[0].N, len(configs)
    try:
        states = np.empty((runs, N + 1, n))
        process_noise = np.empty((runs, N, n))  # normal draws, then w
        measurement_noise = np.empty((runs, N + 1))  # normal draws, then v
        w_radii = np.empty((runs, N))
        v_radii = np.empty((runs, N + 1))
        flags = np.empty((runs, N + 1), dtype=bool)
        references = np.empty((runs, N + 1))
    except (MemoryError, ValueError) as err:  # numpy refuses some sizes outright
        size = 8 * runs * ((N + 1) * (n + 2) + N * n)
        if size > sys.float_info.max:  # an int past float range, which '.3g' cannot format
            from decimal import Decimal
            size = Decimal(size)
        raise ValueError(
            f"N = {N} steps need {size:.3g} bytes of plant history, more than can be allocated"
        ) from err

    power = 1.0 / n
    for config, w_normal, w_radius, v_normal, v_radius in zip(
        configs, process_noise, w_radii, measurement_noise, v_radii
    ):
        rng = np.random.default_rng(config.seed)
        normal, uniform = rng.standard_normal, rng.random
        # Scalar draws go to lists, each written to its array once.
        w_radius_draws, v_normal_draws, v_radius_draws = [], [normal()], [uniform()]
        for w_row in w_normal:
            normal(out=w_row)
            w_radius_draws.append(uniform() ** power)  # a Python power, as _draw takes it
            v_normal_draws.append(normal())
            v_radius_draws.append(uniform())
        w_radius[:] = w_radius_draws
        v_normal[:] = v_normal_draws
        v_radius[:] = v_radius_draws

    # A plant that overflows yields non-finite states and outputs; the check
    # of the references below reports the failure.
    with np.errstate(over="ignore", invalid="ignore"):
        process_noise[:] = _ball_noise(roots[0], process_noise, w_radii)
        measurement_noise[:] = _ball_noise(roots[1], measurement_noise[..., None], v_radii)[..., 0]
        states[:, 0] = configs[0].x0
        # Row by row, the bits of A @ x + w, on step-major (S, n, 1) column views.
        columns = states.swapaxes(0, 1)[..., None]
        noise_columns = process_noise.swapaxes(0, 1)[..., None]
        mapped = np.empty((runs, n, 1))
        A, add, matmul = model.A, np.add, np.matmul
        for k in range(N):
            add(matmul(A, columns[k], mapped), noise_columns[k], columns[k + 1])
        # Row by row, the bits of C @ x.
        outputs = (states[..., None, :] @ model.C[:, None])[..., 0, 0] + measurement_noise

    for y, flag, reference in zip(outputs.tolist(), flags, references):
        # The first transmission is forced; later ones fire when (y - y_tau)^2
        # strictly exceeds the threshold. The square is C's pow, as numpy's
        # scalars take it (d * d differs in the last bit for about 0.1% of d);
        # a square that overflows is numpy's inf, so an event.
        y_tau, gammas, y_taus = y[0], [True], [y[0]]
        for y_k in y[1:]:
            try:
                gamma = (y_k - y_tau) ** 2 > threshold
            except OverflowError:
                gamma = True
            if gamma:
                y_tau = y_k
            gammas.append(gamma)
            y_taus.append(y_tau)
        flag[:] = gammas
        reference[:] = y_taus
    finite = np.isfinite(references)
    if not finite.all():
        raise ValueError(f"reference output must be finite, got {references[~finite][0]}")

    return [Trace(*arrays) for arrays in zip(
        states, outputs, flags, references, process_noise, measurement_noise
    )], flags, references


def _ball_noise(root: np.ndarray, normals: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Noise points root @ (radius * normal / ||normal||) + 0.0 of a stack of
    (..., d) normal draws and their radii, with the bits ``_draw`` gives each
    point; a zero draw stays zero. Scales ``normals`` in place."""
    # Row by row, the bits of np.linalg.norm of each draw.
    norms = np.sqrt(normals[..., None, :] @ normals[..., :, None])[..., 0]
    np.divide(normals, norms, out=normals, where=norms > 0.0)
    normals *= radii[..., None]
    return (root @ normals[..., None])[..., 0] + 0.0


def _run_seeds(
    configs: list[SimConfig], solver: WindowSolver, roots: tuple[np.ndarray, np.ndarray]
) -> list[tuple[Trace, ObserverRun, Metrics]]:
    """``run_closed_loop`` of configs that differ only in their seed: the plants
    are simulated as one group and the observer advances them as one stack."""
    traces, flags, references = _simulate(configs, roots)
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
    distances = _generalized_distances(estimates.centers, estimates.shapes, states).tolist()
    rate = np.count_nonzero(trace.flags[1:]) / N
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
    time, so the error raised is that of the first failing seed. The metrics
    returned carry no per-step ``distances``, which would outlive their group.
    """
    return [(seed, replace(metrics, distances=[])) for seed, _, _, metrics in _sweep(base, seeds)]


def _sweep(
    base: SimConfig, seeds: list[int]
) -> Iterator[tuple[int, Trace, ObserverRun, Metrics]]:
    """``run_seed_sweep`` with each seed's trace and observer run, a group at a
    time, so that only one group's arrays are held at once."""
    try:
        solver = WindowSolver(base.model, base.trigger, base.a)
    except NotObservableError:
        raise NotObservableError("model is not observable; refusing to simulate") from None
    roots = _noise_roots(base.model)
    n, steps = base.model.n, base.N + 1
    # A seed's bytes per step: plant history (2n + 2 floats) and noise radii
    # (2), flags and references, run arrays (2n^2 + 3n floats and a pattern
    # index), the resolution check's eigenvalues and error terms (n + 2) and
    # the metrics' list of distances (a pointer and a float object).
    seed_bytes = steps * (8 * (2 * n * n + 6 * n + 7) + 9 + 32)
    group = max(1, SWEEP_GROUP_BYTES // seed_bytes)
    ordered = sorted(seeds)
    for start in range(0, len(ordered), group):
        configs = [replace(base, seed=seed) for seed in ordered[start : start + group]]
        try:
            runs = _run_seeds(configs, solver, roots)
        except Exception:
            if len(configs) == 1:
                raise
            # The stack may meet a later seed's failure first; alone, the
            # first failing seed raises what the serial loop raises.
            runs = [run for config in configs for run in _run_seeds([config], solver, roots)]
        for config, run in zip(configs, runs):
            yield config.seed, *run
        del runs, run  # so that the next group is not computed beside this one
