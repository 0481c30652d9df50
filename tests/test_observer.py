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
    TriggerConfig,
    WeightVector,
    contains,
    convergence_bound,
    fuse,
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
from oracles import intersection_outer


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
        assert out.shape.flags.writeable and not np.shares_memory(out.shape, bench_model.Q)

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
        epsilon = WindowSolver(model, bench_trigger, WeightVector.uniform(2)).epsilon
        level = guard_threshold(model, epsilon)
        for out in outputs:
            assert np.sqrt(np.trace(out.posterior_set.shape)) <= 2.0 * level

    def test_guard_threshold_levels(self, bench_model, bench_trigger):
        from setobs.observer import guard_threshold

        weights = WeightVector.uniform(2)
        epsilon = WindowSolver(bench_model, bench_trigger, weights).epsilon
        assert guard_threshold(bench_model, epsilon) == pytest.approx(
            convergence_bound(bench_model, bench_trigger, weights)
        )
        unstable = SystemModel(A=[[1.3, 0.1], [0.0, 1.2]], C=[1.0, 0.0], Q=np.eye(2), R=0.5)
        epsilon = WindowSolver(unstable, bench_trigger, weights).epsilon
        expected = np.sqrt(epsilon) + np.sqrt(np.trace(unstable.Q))
        assert guard_threshold(unstable, epsilon) == pytest.approx(expected)

    def test_divergence_guard_abort_path(self, bench_model, bench_trigger, monkeypatch):
        import setobs.observer as observer_mod

        monkeypatch.setattr(observer_mod, "DIVERGENCE_FACTOR", 1e-12)
        records = [MeasurementRecord(k, False, 0.0) for k in range(4)]
        with pytest.raises(DivergenceError, match="guard"):
            observer_run(records, bench_model, bench_trigger)


def paper_plant_in_units(s: float, seed: int) -> SimConfig:
    """The benchmark plant with its state measured in units 1/s: Q, R and both
    channel shapes scale by s^2, so every set scales by s and the run is the same."""
    s2 = s * s
    model = SystemModel(A=[[0.75, 0.2], [0.5, 0.3]], C=[0.5, 0.5], Q=5.0 * s2 * np.eye(2),
                        R=0.5 * s2)
    trigger = TriggerConfig(threshold=0.6 * s2, transmit_error=1e-4 * s2)
    return SimConfig(model=model, trigger=trigger, x0=[0.0, 0.0], N=200, seed=seed)


class TestUnitScale:
    """The guarantee and the estimates do not depend on the units of the state."""

    def test_scaled_plant_gives_the_scaled_run(self):
        for seed in (1, 2, 3):
            trace, outputs, _ = run_closed_loop(paper_plant_in_units(1.0, seed))
            distances = [contains(out.posterior_set, trace.states[out.k])[1] for out in outputs]
            size = max(np.linalg.norm(out.posterior_set.center) for out in outputs)
            for s in (1e-9, 1e-7, 1e-6, 1e-3, 1e3, 1e8):
                trace_s, outputs_s, metrics = run_closed_loop(paper_plant_in_units(s, seed))
                assert metrics.containment_violations == 0, (seed, s)
                assert [r.gamma for r in trace_s.records] == [r.gamma for r in trace.records]
                for out, out_s, dist in zip(outputs, outputs_s, distances):
                    ref, got = out.posterior_set, out_s.posterior_set
                    assert np.allclose(got.center / s, ref.center, rtol=1e-13,
                                       atol=1e-13 * size), (seed, s, out.k)
                    assert np.allclose(got.shape / (s * s), ref.shape, rtol=0.0,
                                       atol=1e-13 * np.max(np.abs(ref.shape))), (seed, s, out.k)
                    _, dist_s = contains(got, trace_s.states[out.k])
                    assert dist_s == pytest.approx(dist, abs=1e-12), (seed, s, out.k)

    def test_rank_one_dynamics_at_large_scale(self):
        # A P A^T is singular here; its rounding must not fail an absolute PSD floor.
        for s in (1.0, 1e3, 1e5):
            s2 = s * s
            model = SystemModel(A=[[0.5, 0.5], [0.5, 0.5]],
                                C=[0.6404226504432821, 0.10490011715303971],
                                Q=s2 * np.eye(2), R=0.5 * s2)
            trigger = TriggerConfig(threshold=0.6 * s2, transmit_error=1e-4 * s2)
            config = SimConfig(model=model, trigger=trigger, x0=[0.0, 0.0], N=300, seed=1)
            _, outputs, metrics = run_closed_loop(config)
            assert len(outputs) == 300
            assert metrics.containment_violations == 0


def reference_observer_run(records, model, trigger, weights):
    """Plain-numpy observer recursion: the formulas of the library, written out
    without the Ellipsoid type, its caches or its trusted constructor.

    Returns (measurement, prior, posterior) triples of (center, shape) per
    target step; prior is None at the first step.
    """
    A, C, Q, R = model.A, model.C, model.Q, model.R
    n = model.n
    sym = lambda S: (S + S.T) / 2.0

    def outer_sum(c1, S1, c2, S2, p=None):
        center = c1 + c2
        t1, t2 = float(np.trace(S1)), float(np.trace(S2))
        if t1 == 0.0:
            return center, S2
        if t2 == 0.0:
            return center, S1
        if p is None:
            p = float(np.sqrt(t1 / t2))
        return center, sym((1.0 + 1.0 / p) * S1 + (1.0 + p) * S2)

    rows, row = [], C.copy()
    for _ in range(n):
        rows.append(row)
        row = row @ A
    O = np.vstack(rows)
    # W[flag, i] = (sqrt(channel) + sum_{j<i} sqrt(C A^j Q A^j^T C^T) + sqrt(R))^2,
    # with C A^j = O_j.
    drift = np.sqrt(np.sum((O @ Q) * O, axis=1))
    W = np.empty((2, n))
    for flag, channel in ((0, trigger.threshold), (1, trigger.transmit_error)):
        reach = 0.0
        for i in range(n):
            W[flag, i] = np.sqrt(channel) + reach + np.sqrt(R)
            reach += drift[i]
    W = W ** 2

    def fusion_matrix(S1, S2):
        total = sym(S1 + S2)
        eigs = np.linalg.eigvalsh(total)
        if eigs[-1] <= 0.0 or eigs[0] <= n * 1e-14 * eigs[-1]:
            return None
        return np.linalg.solve(total, S2).T

    out, posterior = [], None
    for offset in range(len(records) - (n - 1)):
        window = records[offset: offset + n]
        w = np.where([r.gamma for r in window], W[1], W[0])
        half = np.linalg.solve(O, np.diag(w / weights.weights))
        meas = (np.linalg.solve(O, np.array([r.y_tau for r in window])),
                sym(np.linalg.solve(O, half.T).T))
        prior = None
        if posterior is None:
            posterior = meas
        else:
            c, P = posterior
            prior = outer_sum(A @ c + 0.0, sym(A @ P @ A.T), np.zeros(n), Q)
            M = fusion_matrix(meas[1], prior[1])
            if M is None:
                bump = 1e-12 * float(np.trace(meas[1] + prior[1])) / n * np.eye(n)
                M = fusion_matrix(meas[1] + bump, prior[1] + bump)
            K = np.eye(n) - M
            c1, S1 = M @ meas[0] + 0.0, sym(M @ meas[1] @ M.T)
            c2, S2 = K @ prior[0] + 0.0, sym(K @ prior[1] @ K.T)
            t1, t2 = float(np.trace(S1)), float(np.trace(S2))
            p = float(np.sqrt(t1 / t2)) if t1 > 0.0 and t2 > 0.0 else 1.0
            posterior = outer_sum(c1, S1, c2, S2, p)
        out.append((meas, prior, posterior))
    return out


class TestReferenceRecursion:
    @pytest.mark.parametrize("weights", [[0.5, 0.5], [0.3, 0.7]])
    def test_observer_run_equals_plain_numpy_reference(self, bench_model, bench_trigger,
                                                       weights):
        a = WeightVector(weights)
        config = SimConfig(model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0], N=300,
                           seed=301, a=a)
        trace, _, _ = run_closed_loop(config)
        outputs = observer_run(trace.records, bench_model, bench_trigger, a)
        expected = reference_observer_run(trace.records, bench_model, bench_trigger, a)
        assert len(outputs) == len(expected) == 300
        assert any(r.gamma for r in trace.records[1:]) and not all(r.gamma for r in trace.records)
        for out, (meas, prior, posterior) in zip(outputs, expected):
            pairs = [(out.measurement_set, meas), (out.posterior_set, posterior)]
            if prior is None:
                assert out.prior_set is None
            else:
                pairs.append((out.prior_set, prior))
            for ell, (center, shape) in pairs:
                assert np.array_equal(ell.center, center)
                assert np.array_equal(ell.shape, shape)
