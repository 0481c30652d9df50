"""Closed-loop plant, trigger bookkeeping, noise admissibility, metrics."""

from __future__ import annotations

import numpy as np
import pytest

from setobs import (
    Ellipsoid,
    NotObservableError,
    SimConfig,
    SystemModel,
    TriggerConfig,
    run_closed_loop,
    run_seed_sweep,
    sample_point,
)
from setobs.simulation import evaluate_trigger, sample_noise, step_plant


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


class TestSeedSweep:
    def test_results_ordered_and_deterministic(self, bench_model, bench_trigger):
        base = SimConfig(model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0], N=20, seed=0)
        first = run_seed_sweep(base, [5, 3, 1])
        second = run_seed_sweep(base, [1, 3, 5])
        assert [s for s, _ in first] == [1, 3, 5]
        assert first == second

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
