"""Iterative estimator: prior propagation, window inversion, fusion, predictions."""

from __future__ import annotations

import numpy as np
import pytest

from setobs import (
    DivergenceError,
    Ellipsoid,
    MeasurementRecord,
    SimConfig,
    SystemModel,
    WeightVector,
    contains,
    convergence_bound,
    fuse,
    intersection_outer,
    observer_run,
    optimal_fusion_matrix,
    predict_no_delay,
    prior_set,
    run_closed_loop,
    sample_point,
    spectral_norm,
)
from setobs.observability import WindowSolver

from conftest import rand_spd, scalar_chain


@pytest.fixture
def scalar_model() -> SystemModel:
    return SystemModel(A=[[0.5]], C=[1.0], Q=[[1.0]], R=0.5)


class TestMeasurementRecordType:
    def test_rejects_negative_step(self):
        with pytest.raises(ValueError, match="non-negative"):
            MeasurementRecord(k=-1, gamma=True, y_tau=0.0)

    def test_rejects_nonfinite_reference(self):
        with pytest.raises(ValueError, match="finite"):
            MeasurementRecord(k=0, gamma=True, y_tau=float("nan"))


class TestPriorSet:
    def test_degenerate_previous_returns_disturbance_shape(self, bench_model):
        previous = Ellipsoid([1.0, 2.0], np.zeros((2, 2)))
        out = prior_set(previous, bench_model)
        assert np.allclose(out.center, bench_model.A @ np.array([1.0, 2.0]))
        assert np.allclose(out.shape, bench_model.Q)

    def test_scalar_closed_form(self, scalar_model):
        out = prior_set(Ellipsoid([2.0], [[4.0]]), scalar_model)
        # A P A^T = 0.25 * 4 = 1, so the outer sum with Q = 1 is (1 + 1)^2 / ... = 4.
        assert out.center[0] == pytest.approx(1.0)
        assert out.shape[0, 0] == pytest.approx(scalar_chain([1.0, 1.0]), rel=1e-12)

    def test_sqrt_trace_identity(self, bench_model):
        rng = np.random.default_rng(21)
        for _ in range(25):
            previous = Ellipsoid(rng.standard_normal(2), rand_spd(rng, 2, scale=3.0))
            out = prior_set(previous, bench_model)
            mapped = bench_model.A @ previous.shape @ bench_model.A.T
            expected = (np.sqrt(np.trace(mapped)) + np.sqrt(np.trace(bench_model.Q))) ** 2
            assert np.trace(out.shape) == pytest.approx(expected, rel=1e-12)


class TestMeasurementInfoSet:
    # The measurement set of a window is WindowSolver.ellipsoid; non-consecutive
    # windows are refused by observer_run (TestObserverRun.test_gap_in_log_rejected).
    @pytest.fixture
    def solver(self, bench_model, bench_trigger, bench_weights) -> WindowSolver:
        return WindowSolver(bench_model, bench_trigger, bench_weights)

    def test_zero_references_center_zero(self, solver):
        out = solver.ellipsoid([0, 0], [0.0, 0.0])
        assert np.allclose(out.center, 0.0)

    def test_no_event_window_trace(self, solver):
        out = solver.ellipsoid([0, 0], [0.1, 0.2])
        assert np.trace(out.shape) == pytest.approx(323.43, abs=0.01)

    def test_event_window_strictly_tighter(self, solver):
        t_quiet = np.trace(solver.ellipsoid([0, 0], [0.1, 0.2]).shape)
        t_active = np.trace(solver.ellipsoid([1, 1], [0.1, 0.2]).shape)
        assert t_active < t_quiet

    def test_wrong_window_length(self, solver):
        with pytest.raises(ValueError, match="exactly"):
            solver.ellipsoid([0], [0.0])


class TestFuse:
    def test_equal_operands_keep_center(self):
        S = np.array([[2.0, 0.3], [0.3, 1.0]])
        c = np.array([1.0, -1.0])
        posterior, M, p = fuse(Ellipsoid(c, S), Ellipsoid(c, S))
        assert np.allclose(posterior.center, c)
        assert np.allclose(M, 0.5 * np.eye(2))
        assert p == pytest.approx(1.0, rel=1e-9)

    def test_scalar_closed_form(self):
        posterior, M, _ = fuse(Ellipsoid([0.0], [[1.0]]), Ellipsoid([4.0], [[3.0]]))
        assert M[0, 0] == pytest.approx(0.75)
        assert posterior.center[0] == pytest.approx(1.0)
        # (sqrt(0.75^2 * 1) + sqrt(0.25^2 * 3))^2
        expected = (np.sqrt(0.75**2) + np.sqrt(0.25**2 * 3.0)) ** 2
        assert posterior.shape[0, 0] == pytest.approx(expected, rel=1e-12)
        assert posterior.shape[0, 0] == pytest.approx(1.3995, abs=1e-4)

    def test_sqrt_trace_identity_exact(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            meas = Ellipsoid(rng.standard_normal(d), rand_spd(rng, d, scale=2.0))
            prior = Ellipsoid(rng.standard_normal(d), rand_spd(rng, d, scale=5.0))
            posterior, M, _ = fuse(meas, prior)
            I = np.eye(d)
            part1 = np.trace(M @ meas.shape @ M.T)
            part2 = np.trace((I - M) @ prior.shape @ (I - M).T)
            expected = (np.sqrt(part1) + np.sqrt(part2)) ** 2
            assert np.trace(posterior.shape) == pytest.approx(expected, rel=1e-12)

    def test_equals_intersection_outer_bit_for_bit(self):
        rng = np.random.default_rng(24)
        cases = [(Ellipsoid([1.0, 2.0], np.zeros((2, 2))), Ellipsoid([0.0, 0.0], np.eye(2)))]
        for _ in range(30):
            d = int(rng.integers(1, 4))
            cases.append((
                Ellipsoid(rng.standard_normal(d), rand_spd(rng, d, scale=2.0)),
                Ellipsoid(rng.standard_normal(d), rand_spd(rng, d, scale=5.0)),
            ))
        for meas, prior in cases:
            posterior, M, _ = fuse(meas, prior)
            reference = intersection_outer(meas, prior, M)
            assert np.array_equal(posterior.center, reference.center)
            assert np.array_equal(posterior.shape, reference.shape)


class TestPredictNoDelay:
    def test_first_step_equals_prior_propagation(self, bench_model):
        posterior = Ellipsoid([1.0, 1.0], np.eye(2))
        [one] = predict_no_delay(posterior, bench_model, 1)
        direct = prior_set(posterior, bench_model)
        assert np.allclose(one.center, direct.center)
        assert np.allclose(one.shape, direct.shape)

    def test_scalar_fixed_point(self):
        model = SystemModel(A=[[0.5]], C=[1.0], Q=[[1.0]], R=0.5)
        # horizon capped at n-1; widen the state space with a 2-D equivalent.
        # For the 1-D chain use prior_set directly.
        current = Ellipsoid([0.0], [[4.0]])
        for _ in range(3):
            current = prior_set(current, model)
            assert current.shape[0, 0] == pytest.approx(4.0, rel=1e-12)

    def test_containment_through_chain(self, bench_model):
        rng = np.random.default_rng(23)
        posterior = Ellipsoid([0.5, -0.5], rand_spd(rng, 2, scale=2.0))
        [pred] = predict_no_delay(posterior, bench_model, 1)
        noise = Ellipsoid(np.zeros(2), bench_model.Q)
        for _ in range(200):
            x = sample_point(posterior, rng)
            w = sample_point(noise, rng)
            inside, _ = contains(pred, bench_model.A @ x + w)
            assert inside

    def test_horizon_out_of_range(self, bench_model):
        posterior = Ellipsoid([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="horizon"):
            predict_no_delay(posterior, bench_model, 0)
        with pytest.raises(ValueError, match="horizon"):
            predict_no_delay(posterior, bench_model, 2)


class TestObserverRun:
    def test_first_output_adopts_measurement_set(self, bench_model, bench_trigger):
        records = [MeasurementRecord(k, k == 0, 0.1 * k) for k in range(6)]
        outputs = observer_run(records, bench_model, bench_trigger)
        first = outputs[0]
        assert first.prior_set is None
        assert np.allclose(first.posterior_set.center, first.measurement_set.center)
        assert np.allclose(first.posterior_set.shape, first.measurement_set.shape)

    def test_output_count_and_stamps(self, bench_model, bench_trigger):
        records = [MeasurementRecord(k, False, 0.0) for k in range(10)]
        outputs = observer_run(records, bench_model, bench_trigger)
        assert len(outputs) == 9  # N - (n-1) + 1 targets for N = 9
        n = bench_model.n
        for out in outputs:
            assert out.available_at == out.k + 1
            assert len(predict_no_delay(out.posterior_set, bench_model, n - 1)) == n - 1

    def test_short_log_rejected(self, bench_model, bench_trigger):
        with pytest.raises(ValueError, match="at least"):
            observer_run([MeasurementRecord(0, True, 0.0)], bench_model, bench_trigger)

    def test_log_starting_past_zero_keeps_step_labels(self, bench_model, bench_trigger):
        records = [MeasurementRecord(k, False, 0.1) for k in range(5, 12)]
        outputs = observer_run(records, bench_model, bench_trigger)
        assert [out.k for out in outputs] == list(range(5, 11))
        assert outputs[0].available_at == 6

    def test_gap_in_log_rejected(self, bench_model, bench_trigger):
        records = [MeasurementRecord(0, True, 0.0), MeasurementRecord(2, False, 0.0)]
        with pytest.raises(ValueError, match="consecutive"):
            observer_run(records, bench_model, bench_trigger)

    def test_containment_on_closed_loop(self, bench_model, bench_trigger):
        for seed in range(3):
            config = SimConfig(
                model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0], N=80, seed=seed
            )
            trace, outputs, metrics = run_closed_loop(config)
            assert metrics.containment_violations == 0
            for out in outputs:
                inside, _ = contains(out.posterior_set, trace.states[out.k])
                assert inside

    def test_trace_recursion_bound(self, bench_model, bench_trigger):
        config = SimConfig(
            model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0], N=80, seed=4
        )
        _, outputs, _ = run_closed_loop(config)
        norm_a = spectral_norm(bench_model.A)
        sqrt_q = np.sqrt(np.trace(bench_model.Q))
        for prev, cur in zip(outputs, outputs[1:]):
            lhs = np.sqrt(np.trace(cur.posterior_set.shape))
            rhs = (
                norm_a * np.sqrt(np.trace(prev.posterior_set.shape))
                + np.sqrt(np.trace(cur.measurement_set.shape))
                + sqrt_q
            )
            assert lhs <= rhs * (1 + 1e-9)

    def test_fusion_parts_never_exceed_operands(self, bench_model, bench_trigger):
        config = SimConfig(
            model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0], N=80, seed=5
        )
        _, outputs, _ = run_closed_loop(config)
        I = np.eye(2)
        for out in outputs[1:]:
            Pbar = out.measurement_set.shape
            Pchk = out.prior_set.shape
            M = optimal_fusion_matrix(Pbar, Pchk)
            assert np.trace(M @ Pbar @ M.T) <= np.trace(Pbar) * (1 + 1e-9)
            assert np.trace((I - M) @ Pchk @ (I - M).T) <= np.trace(Pchk) * (1 + 1e-9)

    def test_posterior_trace_identity_invariant(self, bench_model, bench_trigger):
        config = SimConfig(
            model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0], N=60, seed=6
        )
        _, outputs, _ = run_closed_loop(config)
        I = np.eye(2)
        for out in outputs[1:]:
            M = optimal_fusion_matrix(out.measurement_set.shape, out.prior_set.shape)
            part1 = np.trace(M @ out.measurement_set.shape @ M.T)
            part2 = np.trace((I - M) @ out.prior_set.shape @ (I - M).T)
            budget = (np.sqrt(part1) + np.sqrt(part2)) ** 2
            assert np.trace(out.posterior_set.shape) <= budget + 1e-9

    def test_asymptotic_bound_after_burn_in(self, bench_model, bench_trigger):
        bound = convergence_bound(bench_model, bench_trigger)
        for seed in range(3):
            config = SimConfig(
                model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0], N=120, seed=seed
            )
            _, outputs, _ = run_closed_loop(config)
            for out in outputs:
                if out.k >= 50:
                    assert np.sqrt(np.trace(out.posterior_set.shape)) <= bound + 1e-6

    def test_unstable_model_estimates_stay_bounded(self, bench_trigger):
        # Window information alone caps the fused trace, so an unstable plant
        # does not blow up the observer; the guard must stay silent.
        from setobs.observer import guard_threshold

        model = SystemModel(A=[[1.3, 0.1], [0.0, 1.2]], C=[1.0, 0.0], Q=np.eye(2), R=0.5)
        records = [MeasurementRecord(k, False, 0.0) for k in range(200)]
        outputs = observer_run(records, model, bench_trigger)
        level = guard_threshold(model, bench_trigger, WeightVector.uniform(2))
        for out in outputs:
            assert np.sqrt(np.trace(out.posterior_set.shape)) <= 2.0 * level

    def test_guard_threshold_levels(self, bench_model, bench_trigger):
        from setobs import epsilon_observability
        from setobs.observer import guard_threshold

        weights = WeightVector.uniform(2)
        assert guard_threshold(bench_model, bench_trigger, weights) == pytest.approx(
            convergence_bound(bench_model, bench_trigger, weights)
        )
        unstable = SystemModel(A=[[1.3, 0.1], [0.0, 1.2]], C=[1.0, 0.0], Q=np.eye(2), R=0.5)
        report = epsilon_observability(unstable, bench_trigger, weights)
        expected = np.sqrt(report.epsilon) + np.sqrt(np.trace(unstable.Q))
        assert guard_threshold(unstable, bench_trigger, weights) == pytest.approx(expected)

    def test_divergence_guard_abort_path(self, bench_model, bench_trigger, monkeypatch):
        import setobs.observer as observer_mod

        monkeypatch.setattr(observer_mod, "DIVERGENCE_FACTOR", 1e-12)
        records = [MeasurementRecord(k, False, 0.0) for k in range(4)]
        with pytest.raises(DivergenceError, match="guard"):
            observer_run(records, bench_model, bench_trigger)
