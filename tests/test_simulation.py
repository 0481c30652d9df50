"""Closed-loop plant, trigger bookkeeping, noise admissibility, metrics."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import setobs.observer as observer_mod
import setobs.simulation as simulation_mod
from setobs import (
    DivergenceError,
    Ellipsoid,
    NotObservableError,
    SimConfig,
    SystemModel,
    TriggerConfig,
    contains,
    run_closed_loop,
    run_seed_sweep,
    sample_point,
)
from setobs.ellipsoid import CONTAINMENT_TOL
from setobs.observability import WindowSolver

from conftest import UNSTABLE_PLANT, orthogonal_plant, reference_plant, same_bits
from oracles import cho_distance, evaluate_trigger, sample_noise, step_plant


@pytest.fixture
def bench_config(bench_model, bench_trigger) -> SimConfig:
    return SimConfig(model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0], N=60, seed=42)


class TestSimConfigType:
    def test_rejects_short_horizon(self, bench_model, bench_trigger):
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0], N=1, seed=0)

    def test_rejects_wrong_x0_dimension(self, bench_model, bench_trigger):
        with pytest.raises(ValueError, match="x0"):
            SimConfig(model=bench_model, trigger=bench_trigger, x0=[0.0], N=10, seed=0)

    def test_defaults_to_uniform_weights(self, bench_config):
        assert np.allclose(bench_config.a.weights, [0.5, 0.5])


class TestStepPlant:
    def test_identity_no_noise(self):
        model = SystemModel(A=np.eye(2), C=[1.0, 0.0], Q=np.eye(2), R=1.0)
        assert np.allclose(step_plant([1.5, -0.5], [0.0, 0.0], model), [1.5, -0.5])

    def test_bench_row_sums(self, bench_model):
        assert np.allclose(step_plant([1.0, 1.0], [0.0, 0.0], bench_model), [0.95, 0.8])

    def test_homogeneity(self, bench_model):
        x = np.array([0.3, -0.7])
        w = np.array([0.1, 0.2])
        assert np.allclose(
            step_plant(3.0 * x, 3.0 * w, bench_model), 3.0 * step_plant(x, w, bench_model)
        )


class TestEvaluateTrigger:
    def test_no_change_no_event(self, bench_trigger):
        gamma, y_tau = evaluate_trigger(1.2, 1.2, bench_trigger)
        assert not gamma and y_tau == 1.2

    def test_large_delta_fires_and_updates(self, bench_trigger):
        # 0.8^2 = 0.64 > 0.6
        gamma, y_tau = evaluate_trigger(1.8, 1.0, bench_trigger)
        assert gamma and y_tau == 1.8

    def test_boundary_is_silent(self):
        # 0.75^2 = 0.5625 exactly; the inequality is strict, so no event.
        trigger = TriggerConfig(threshold=0.5625, transmit_error=1e-4)
        gamma, y_tau = evaluate_trigger(0.75, 0.0, trigger)
        assert not gamma and y_tau == 0.0


class TestSampleNoise:
    def test_quadratic_form_bounds(self, bench_model):
        rng = np.random.default_rng(31)
        Qinv = np.linalg.inv(bench_model.Q)
        for _ in range(2000):
            w, v = sample_noise(bench_model, rng)
            assert w @ Qinv @ w <= 1.0 + 1e-12
            assert v**2 / bench_model.R <= 1.0 + 1e-12

    def test_noise_reaches_the_boundary(self, bench_model):
        rng = np.random.default_rng(32)
        ratios = [
            sample_noise(bench_model, rng)[1] ** 2 / bench_model.R for _ in range(10_000)
        ]
        assert 0.95 < max(ratios) <= 1.0

    def test_admissibility_over_a_million_samples(self, bench_model):
        from scipy.linalg import cho_factor, cho_solve

        from setobs import Ellipsoid, sample_point

        rng = np.random.default_rng(34)
        w = sample_point(Ellipsoid(np.zeros(2), bench_model.Q), rng, size=1_000_000)
        quad = np.einsum("ij,ij->i", w, cho_solve(cho_factor(bench_model.Q), w.T).T)
        assert int(np.sum(quad > 1.0 + 1e-12)) == 0
        v = sample_point(Ellipsoid([0.0], [[bench_model.R]]), rng, size=1_000_000)[:, 0]
        assert int(np.sum(v**2 / bench_model.R > 1.0 + 1e-12)) == 0

    def test_tiny_noise_set_gives_tiny_noise(self):
        model = SystemModel(A=[[0.5]], C=[1.0], Q=[[1e-30]], R=1e-30)
        rng = np.random.default_rng(33)
        w, v = sample_noise(model, rng)
        assert abs(w[0]) <= 1e-14 and abs(v) <= 1e-14


class TestRunClosedLoop:
    def test_determinism_bit_identical(self, bench_config):
        t1, o1, m1 = run_closed_loop(bench_config)
        t2, o2, m2 = run_closed_loop(bench_config)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.outputs, t2.outputs)
        assert np.array_equal(t1.process_noise, t2.process_noise)
        assert t1.records == t2.records
        assert m1 == m2
        for a, b in zip(o1, o2):
            assert np.array_equal(a.posterior_set.center, b.posterior_set.center)
            assert np.array_equal(a.posterior_set.shape, b.posterior_set.shape)

    def test_quiet_plant_silent_channel(self, bench_model):
        # Vanishing noise and a huge threshold: states stay at zero and only
        # the forced first transmission fires.
        model = SystemModel(A=bench_model.A, C=bench_model.C, Q=1e-30 * np.eye(2), R=1e-30)
        trigger = TriggerConfig(threshold=1e6, transmit_error=1e-10)
        config = SimConfig(model=model, trigger=trigger, x0=[0.0, 0.0], N=30, seed=0)
        trace, _, metrics = run_closed_loop(config)
        assert np.max(np.abs(trace.states)) < 1e-10
        assert trace.records[0].gamma
        assert not any(r.gamma for r in trace.records[1:])
        assert metrics.communication_rate == 0.0
        assert metrics.mean_estimation_error < 1e-10  # estimates collapse onto x

    def test_noise_stream_matches_per_draw_sampling(self, bench_config):
        # One v for step 0, then (w, v) per step, all from the seed's stream;
        # sample_point recomputes the matrix root on every draw.
        trace, _, _ = run_closed_loop(bench_config)
        model = bench_config.model
        rng = np.random.default_rng(bench_config.seed)
        v0 = float(sample_point(Ellipsoid([0.0], [[model.R]]), rng)[0])
        draws = [sample_noise(model, rng) for _ in range(bench_config.N)]
        assert np.array_equal(trace.measurement_noise, [v0] + [v for _, v in draws])
        assert np.array_equal(trace.process_noise, [w for w, _ in draws])

    def test_first_record_forced_transmission(self, bench_config):
        trace, _, _ = run_closed_loop(bench_config)
        assert trace.records[0].gamma
        assert trace.records[0].y_tau == trace.outputs[0]

    def test_output_equation_exact(self, bench_config):
        trace, _, _ = run_closed_loop(bench_config)
        C = bench_config.model.C
        for k in range(bench_config.N + 1):
            assert trace.outputs[k] == float(C @ trace.states[k]) + trace.measurement_noise[k]

    def test_state_equation_exact(self, bench_config):
        trace, _, _ = run_closed_loop(bench_config)
        A = bench_config.model.A
        for k in range(1, bench_config.N + 1):
            expected = A @ trace.states[k - 1] + trace.process_noise[k - 1]
            assert np.array_equal(trace.states[k], expected)

    def test_trigger_bookkeeping(self, bench_config):
        trace, _, _ = run_closed_loop(bench_config)
        y_tau = trace.records[0].y_tau
        for record in trace.records[1:]:
            if record.gamma:
                assert record.y_tau == trace.outputs[record.k]
                y_tau = record.y_tau
            else:
                assert record.y_tau == y_tau
                assert (trace.outputs[record.k] - y_tau) ** 2 <= 0.6

    def test_realized_noise_admissible(self, bench_config):
        trace, _, _ = run_closed_loop(bench_config)
        Qinv = np.linalg.inv(bench_config.model.Q)
        for w in trace.process_noise:
            assert w @ Qinv @ w <= 1.0 + 1e-12
        for v in trace.measurement_noise:
            assert v**2 / bench_config.model.R <= 1.0 + 1e-12

    def test_containment_and_metrics(self, bench_config):
        _, _, metrics = run_closed_loop(bench_config)
        assert metrics.containment_violations == 0
        assert 0.0 <= metrics.communication_rate <= 1.0
        assert metrics.max_generalized_distance <= 1.0 + 1e-9
        assert metrics.mean_estimation_error > 0.0

    def test_unobservable_model_rejected_before_simulation(self, bench_trigger):
        model = SystemModel(A=np.eye(2), C=[1.0, 0.0], Q=np.eye(2), R=0.5)
        config = SimConfig(model=model, trigger=bench_trigger, x0=[0.0, 0.0], N=10, seed=0)
        with pytest.raises(NotObservableError):
            run_closed_loop(config)


class TestMetricsDistances:
    def test_distances_equal_lone_contains_and_cholesky_oracle(self, bench_trigger):
        model = orthogonal_plant(6, 95)
        config = SimConfig(model=model, trigger=bench_trigger, x0=np.zeros(6), N=1000, seed=301)
        trace, estimates, metrics = run_closed_loop(config)
        states = trace.states[estimates.first_k:estimates.first_k + len(estimates)]
        alone = [contains(estimates[i].posterior_set, x) for i, x in enumerate(states)]
        assert len(alone) == 996
        assert same_bits(metrics.distances, [d for _, d in alone])
        # scipy's Cholesky as an independent reference: LAPACK builds differ
        # in the last bits, not in the verdict.
        expected = [cho_distance(center, shape, x) for center, shape, x
                    in zip(estimates.centers, estimates.shapes, states)]
        np.testing.assert_allclose(metrics.distances, expected, rtol=1e-11, atol=0.0)
        verdicts = [inside for inside, _ in alone]
        assert verdicts == [d <= 1.0 + CONTAINMENT_TOL for d in expected]
        assert metrics.containment_violations == verdicts.count(False)


class TestSeedSweep:
    def test_results_ordered_and_deterministic(self, bench_model, bench_trigger):
        base = SimConfig(model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0], N=20, seed=0)
        first = run_seed_sweep(base, [5, 3, 1])
        second = run_seed_sweep(base, [1, 3, 5])
        assert [s for s, _ in first] == [1, 3, 5]
        assert first == second

    def test_unresolvable_seed_raises_the_serial_error(self):
        raw = UNSTABLE_PLANT
        model = SystemModel(A=raw["A"], C=raw["C"], Q=raw["Q"], R=raw["R"])
        base = SimConfig(model=model, trigger=TriggerConfig(raw["Gamma"], raw["Gamma_e"]),
                         x0=[0.0, 0.0], N=100, seed=0)
        # Alone, seed 2 runs through, seed 1 loses resolution at step 98 and
        # seed 4 at step 96: the stack meets seed 4's failure first.
        assert len(run_closed_loop(replace(base, seed=2))[1]) == 100
        for seed, step in ((1, 98), (4, 96)):
            with pytest.raises(DivergenceError, match=f"step {step} ") as err:
                run_closed_loop(replace(base, seed=seed))
            if seed == 1:
                expected = str(err.value)
        with pytest.raises(DivergenceError) as err:
            run_seed_sweep(base, [4, 2, 1])
        assert str(err.value) == expected

    def test_failing_group_of_one_seed_runs_once(self, monkeypatch):
        # A single run is a sweep's group of one: its failure is raised as is,
        # not after a second run of the same seed.
        raw = UNSTABLE_PLANT
        model = SystemModel(A=raw["A"], C=raw["C"], Q=raw["Q"], R=raw["R"])
        config = SimConfig(model=model, trigger=TriggerConfig(raw["Gamma"], raw["Gamma_e"]),
                           x0=[0.0, 0.0], N=100, seed=1)
        groups = []
        run_seeds = simulation_mod._run_seeds
        monkeypatch.setattr(simulation_mod, "_run_seeds",
                            lambda configs, *args: groups.append(len(configs))
                            or run_seeds(configs, *args))
        with pytest.raises(DivergenceError, match="step 98 "):
            run_closed_loop(config)
        with pytest.raises(DivergenceError, match="step 98 "):
            run_seed_sweep(config, [1])
        assert groups == [1, 1]

    def test_divergent_seed_raises_the_serial_error(self, bench_model, bench_trigger,
                                                    monkeypatch):
        base = SimConfig(model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0], N=60, seed=0)
        seeds = [3, 5, 8, 13]
        largest = {seed: float(np.max(np.trace(run_closed_loop(replace(base, seed=seed))[1]
                                                .shapes, axis1=1, axis2=2)))
                   for seed in seeds}
        # A guard between the seeds' largest traces stops some of them.
        level = float(np.median(list(largest.values())))
        gain = WindowSolver(bench_model, bench_trigger, base.a).gain
        monkeypatch.setattr(observer_mod, "DIVERGENCE_FACTOR", level / gain**2)
        failing = [seed for seed in seeds if largest[seed] > level]
        assert 0 < len(failing) < len(seeds)
        with pytest.raises(DivergenceError, match="guard") as err:
            run_closed_loop(replace(base, seed=failing[0]))
        expected = str(err.value)
        with pytest.raises(DivergenceError) as err:
            run_seed_sweep(base, seeds[::-1])
        assert str(err.value) == expected

    def test_rate_vs_threshold_diagnostic(self, bench_model, capsys):
        # Path-dependent under send-on-delta, so reported rather than asserted.
        rates = []
        for gamma in (0.2, 0.4, 0.6, 0.9, 1.3, 2.0):
            trigger = TriggerConfig(threshold=gamma, transmit_error=1e-4)
            config = SimConfig(
                model=bench_model, trigger=trigger, x0=[0.0, 0.0], N=120, seed=9
            )
            _, _, metrics = run_closed_loop(config)
            rates.append((gamma, metrics.communication_rate))
        inversions = sum(
            1 for (_, r1), (_, r2) in zip(rates, rates[1:]) if r2 > r1 + 1e-12
        )
        print(f"rate-vs-threshold: {rates}, inversions: {inversions}")
        assert all(0.0 <= r <= 1.0 for _, r in rates)


@st.composite
def sweep_cases(draw):
    """A random observable-or-not plant, channel and horizon, and a few seeds."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = draw(st.floats(0.1, 0.98)) * np.linalg.qr(rng.standard_normal((n, n)))[0]
    G = rng.standard_normal((n, n))
    Q = draw(st.sampled_from([1e-6, 1.0, 1e4])) * (G @ G.T + 0.1 * np.eye(n))
    model = SystemModel(A=A, C=rng.standard_normal(n), Q=Q, R=draw(st.floats(0.01, 2.0)))
    threshold = draw(st.floats(0.05, 5.0))
    trigger = TriggerConfig(threshold, threshold * draw(st.floats(1e-6, 0.5)))
    base = SimConfig(model=model, trigger=trigger, x0=rng.standard_normal(n),
                     N=draw(st.integers(n, 40)), seed=0)
    return base, draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=5, unique=True))


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sweep_cases())
def test_stacked_sweep_equals_solo_runs(case):
    """Every seed of a stacked sweep gets the bits of its solo run, with the
    fusion's singularity test skipped where its bound allows and run everywhere."""
    base, seeds = case
    try:
        solo = [run_closed_loop(replace(base, seed=seed)) for seed in sorted(seeds)]
    except (NotObservableError, DivergenceError, ValueError) as err:
        with pytest.raises(type(err)) as raised:
            list(simulation_mod._sweep(base, seeds))
        assert str(raised.value) == str(err)
        return
    stacked = list(simulation_mod._sweep(base, seeds))
    with mock.patch.object(observer_mod, "_singularity_skip_level", lambda *args: -math.inf):
        tested = list(simulation_mod._sweep(base, seeds))
    assert [seed for seed, *_ in stacked] == sorted(seeds)
    for (trace, run, metrics), *sweeps in zip(solo, stacked, tested):
        for _, trace_s, run_s, metrics_s in sweeps:
            assert same_bits(trace_s.states, trace.states)
            for name in ("centers", "shapes", "prior_centers", "prior_shapes",
                         "window_centers"):
                assert same_bits(getattr(run_s, name), getattr(run, name)), name
            assert metrics_s == metrics
            assert same_bits(metrics_s.distances, metrics.distances)


def test_sweep_holds_one_group_within_its_byte_budget(bench_model, bench_trigger):
    """A sweep computes one group at a time, and the traced peak of a group is
    within SWEEP_GROUP_BYTES: nine 2000-step seeds of the paper plant span two
    groups, and what a caller keeps of a seed is dropped at once."""
    base = SimConfig(model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0], N=2000, seed=0)
    run_closed_loop(base)  # lazy imports and caches, which are not the group's
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for item in simulation_mod._sweep(base, list(range(9))):
            del item
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert 0 < peak <= simulation_mod.SWEEP_GROUP_BYTES


def test_sweep_result_keeps_no_distance_lists(bench_model, bench_trigger):
    """What a sweep returns grows by under 1 KB a seed: its metrics drop the
    per-step distances, a pointer and a float object per step."""
    base = SimConfig(model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0], N=2000, seed=0)
    seeds = list(range(20))
    run_seed_sweep(base, seeds[:1])  # lazy imports and caches, which are not the result's
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        results = run_seed_sweep(base, seeds)
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert [seed for seed, _ in results] == seeds
    assert retained < 1024 * len(seeds)
    solo = run_closed_loop(replace(base, seed=seeds[-1]))[2]
    assert results[-1][1] == solo and solo.distances and not results[-1][1].distances


_default_rng = np.random.default_rng


class _ZeroDraws:
    """The generator of a seed, except that every ``every``-th normal draw is
    zero: a direction of norm zero, which ``sample_point`` leaves unscaled."""

    def __init__(self, seed: int, every: int):
        self._rng, self._every, self._count = _default_rng(seed), every, 0

    def standard_normal(self, size=None, out=None):
        draw = self._rng.standard_normal(size, out=out)
        self._count += 1
        if self._count % self._every:
            return draw
        if out is not None:
            out[...] = 0.0
            return out
        return 0.0 if size is None else np.zeros(size)

    def random(self) -> float:
        return self._rng.random()


@st.composite
def plant_cases(draw):
    """A random plant and channel, a few seeds, and every how many normal draws
    one is zero (0: none is)."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = draw(st.floats(0.1, 1.2)) * np.linalg.qr(rng.standard_normal((n, n)))[0]
    G = rng.standard_normal((n, n))
    model = SystemModel(A=A, C=rng.standard_normal(n), Q=G @ G.T + 0.1 * np.eye(n),
                        R=draw(st.floats(0.01, 2.0)))
    threshold = draw(st.floats(0.05, 5.0))
    base = SimConfig(model=model, trigger=TriggerConfig(threshold, threshold * 1e-3),
                     x0=rng.standard_normal(n), N=draw(st.integers(n, 40)), seed=0)
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4, unique=True))
    return base, seeds, draw(st.sampled_from([0, 1, 2, 3, 7]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plant_cases())
@example((SimConfig(model=SystemModel(A=[[0.9]], C=[1.0], Q=[[2.0]], R=0.5),
                    trigger=TriggerConfig(0.6, 1e-4), x0=[0.3], N=12, seed=0), [4, 1], 2))
@example((SimConfig(model=orthogonal_plant(16, 7), trigger=TriggerConfig(0.6, 1e-4),
                    x0=np.zeros(16), N=30, seed=0), [3, 8], 5))
@pytest.mark.bit_identity
def test_simulate_equals_the_per_step_plant(case):
    """Every seed's plant, noise and channel log, from a group and from a group
    of one, have the bits of the per-step plant of ``reference_plant``."""
    base, seeds, every = case
    configs = [replace(base, seed=seed) for seed in seeds]
    roots = simulation_mod._noise_roots(base.model)
    rng = (lambda seed: _ZeroDraws(seed, every)) if every else _default_rng
    with mock.patch.object(np.random, "default_rng", rng):
        group, flags, references = simulation_mod._simulate(configs, roots)
        alone = [simulation_mod._simulate([config], roots)[0][0] for config in configs]
        expected = [reference_plant(base.model, base.trigger, base.x0, base.N, seed)
                    for seed in seeds]
    # The stacked log arrays are those the traces' rows view.
    assert same_bits(flags, [trace.flags for trace in group])
    assert same_bits(references, [trace.references for trace in group])
    for trace_g, trace_a, (states, outputs, w, v, records) in zip(group, alone, expected):
        for trace in (trace_g, trace_a):
            assert same_bits(trace.states, states)
            assert same_bits(trace.outputs, outputs)
            assert same_bits(trace.process_noise, w)
            assert same_bits(trace.measurement_noise, v)
            assert same_bits(trace.flags, [r.gamma for r in records])
            assert same_bits(trace.references, [r.y_tau for r in records])
            assert trace.records == records


@st.composite
def hard_plants(draw):
    """A plant at the edges of what the guarantee is claimed for: n up to 10, A
    either contractive with ||A|| -> 1- or stable and non-normal with
    rho(A) < 1 <= ||A|| (up to about 17), C's components spread over up to four
    decades (cond(O) up to about 1e8 and beyond), Gamma_e / Gamma down to
    1e-8, and every set scaled by s^2 for a unit scale s from 1e-6 to 1e6."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if n > 1 and draw(st.booleans()):
        # ||N|| >= 2 and ||D|| <= 0.9 give ||A|| >= 1.1; the eigenvalues are D's.
        N = np.triu(rng.standard_normal((n, n)), 1)
        N *= draw(st.floats(2.0, 16.0)) / np.linalg.norm(N, 2)
        A = U @ (np.diag(rng.uniform(-0.9, 0.9, n)) + N) @ U.T
    else:
        A = (1.0 - 10.0 ** -draw(st.integers(1, 6))) * U
    C = rng.standard_normal(n) * 10.0 ** rng.uniform(-draw(st.sampled_from([0, 2, 4])), 0.0, n)
    s2 = (10.0 ** draw(st.integers(-6, 6))) ** 2
    G = rng.standard_normal((n, n))
    model = SystemModel(A=A, C=C, Q=s2 * (G @ G.T + 0.1 * np.eye(n)),
                        R=s2 * draw(st.floats(0.01, 2.0)))
    threshold = s2 * draw(st.floats(0.05, 5.0))
    trigger = TriggerConfig(threshold, threshold * 10.0 ** -draw(st.integers(1, 8)))
    return SimConfig(model=model, trigger=trigger, x0=np.sqrt(s2) * rng.standard_normal(n),
                     N=draw(st.integers(n, 80)), seed=draw(st.integers(0, 10**6)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hard_plants())
def test_completed_runs_on_hard_plants_contain_the_state(config):
    """A run that completes contains the true state at every step; a run that
    stops raises one of the errors the CLI reports with exit 1 or 2. Non-normal
    plants with ||A|| near 10 can stop at a failed PSD test (ValueError).

    Every posterior trace is within twice its window set's, for any A (the
    cap the divergence guard relies on): step 0 adopts the window set, and a
    fused set has Tr S_k <= 2 Tr(W_k : P_k) <= 2 Tr W_k."""
    try:
        _, run, metrics = run_closed_loop(config)
    except (DivergenceError, NotObservableError, ValueError):
        return
    assert metrics.containment_violations == 0
    assert metrics.max_generalized_distance <= 1.0 + CONTAINMENT_TOL
    traces = np.trace(run.shapes, axis1=1, axis2=2)
    window_traces = np.trace(run.window_shapes[run.pattern], axis1=1, axis2=2)
    assert traces[0] == window_traces[0]
    assert np.all(traces[1:] <= 2.0 * window_traces[1:])
