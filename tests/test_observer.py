"""Iterative estimator: prior propagation, window inversion, fusion, predictions."""

from __future__ import annotations

import math
import re

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
import setobs.observer as observer_mod
from setobs.ellipsoid import _require_psd
from setobs.observability import WindowSolver

from conftest import (
    UNSTABLE_PLANT,
    channel_log,
    orthogonal_plant,
    rand_spd,
    same_bits,
    scalar_chain,
)
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


def closed_loop_records(model: SystemModel, trigger: TriggerConfig, N: int, seed: int):
    config = SimConfig(model=model, trigger=trigger, x0=np.zeros(model.n), N=N, seed=seed)
    return run_closed_loop(config)[0].records


class TestObserverRunView:
    """observer_run returns the run's arrays, read as a sequence of ObserverOutput."""

    @pytest.fixture
    def run(self, bench_model, bench_trigger):
        records = closed_loop_records(bench_model, bench_trigger, 40, 7)
        return observer_run(records, bench_model, bench_trigger)

    def test_views_read_the_arrays(self, run):
        assert len(run) == len(run.centers) == 40
        for i, out in enumerate(run):
            assert (out.k, out.available_at) == (i, i + 1)
            assert np.array_equal(out.posterior_set.center, run.centers[i])
            assert np.array_equal(out.posterior_set.shape, run.shapes[i])
            assert np.array_equal(out.measurement_set.center, run.window_centers[i])
            assert np.array_equal(out.measurement_set.shape, run.window_shapes[run.pattern[i]])
            if i:
                assert np.array_equal(out.prior_set.center, run.prior_centers[i])
                assert np.array_equal(out.prior_set.shape, run.prior_shapes[i])
        assert run[0].prior_set is None

    def test_negative_indices_and_slices(self, run):
        assert run[-1].k == 39 and run[-40].k == 0
        assert np.array_equal(run[-1].posterior_set.shape, run.shapes[39])
        assert [out.k for out in run[5:9]] == [5, 6, 7, 8]
        assert [out.k for out in run[::-10]] == [39, 29, 19, 9]
        assert run[1:][0].prior_set is not None
        for index in (40, -41):
            with pytest.raises(IndexError):
                run[index]
        pairs = list(zip(run, run[1:]))
        assert len(pairs) == 39
        for prev, cur in pairs:
            assert cur.k == prev.k + 1
            assert np.array_equal(cur.prior_set.shape, run.prior_shapes[cur.k])

    def test_arrays_are_read_only(self, run):
        with pytest.raises(ValueError, match="read-only"):
            run[3].posterior_set.shape[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            run.centers[0, 0] = 1.0

    def test_one_window_shape_per_pattern(self, bench_model, bench_trigger):
        records = closed_loop_records(bench_model, bench_trigger, 200, 2)
        run = observer_run(records, bench_model, bench_trigger)
        solver = WindowSolver(bench_model, bench_trigger, WeightVector.uniform(2))
        assert 1 < len({shape.tobytes() for shape in run.window_shapes}) == len(run.window_shapes) <= 4
        for i, out in enumerate(run):
            flags = [records[i].gamma, records[i + 1].gamma]
            assert np.array_equal(out.measurement_set.shape, solver.ellipsoid(flags, [0, 0]).shape)

    @pytest.mark.parametrize("n", [2, 6])
    def test_public_steps_equal_the_loop(self, n, bench_model, bench_trigger):
        model = bench_model if n == 2 else orthogonal_plant(n, 95)
        run = observer_run(closed_loop_records(model, bench_trigger, 120, 5), model, bench_trigger)
        for prev, cur in zip(run, run[1:]):
            pairs = [(prior_set(prev.posterior_set, model), cur.prior_set),
                     (predict_no_delay(prev.posterior_set, model, n - 1)[0], cur.prior_set),
                     (fuse(cur.measurement_set, cur.prior_set)[0], cur.posterior_set)]
            for got, expected in pairs:
                assert np.array_equal(got.center, expected.center)
                assert np.array_equal(got.shape, expected.shape)


class TestBlockedPsdTests:
    """PSD tests run stacked per block, yet raise what a test per shape raises."""

    N = 700  # more than two blocks of PSD tests

    @pytest.fixture
    def records(self, bench_model, bench_trigger):
        assert self.N > 2 * observer_mod.PSD_BLOCK_STEPS
        return closed_loop_records(bench_model, bench_trigger, self.N, 3)

    @staticmethod
    def call(step: int, posterior: bool = False) -> int:
        """Number of the step call that makes a step's prior (or posterior) shape."""
        return 2 * step - (0 if posterior else 1)

    @staticmethod
    def plant(monkeypatch, bad_call=None, raise_call=None, spoil=np.negative):
        """Spoil (by default negate) the shape made by step call ``bad_call`` (the
        prior of ``_prior_step``, the posterior of ``_fuse_step``) and raise
        ZeroDivisionError at ``raise_call``; returns the error _require_psd gives
        the spoiled shape."""
        calls = []
        expected = []

        def planted(original):
            def step(*args, **kwargs):
                calls.append(None)
                if len(calls) == raise_call:
                    raise ZeroDivisionError("planted")
                result = original(*args, **kwargs)
                if len(calls) == bad_call:
                    shape = result[1]  # a stack of one, in the block the loop tests
                    shape[...] = spoil(shape)
                    with pytest.raises(ValueError) as err:
                        _require_psd(shape[0].copy())
                    expected.append(str(err.value))
                return result
            return step

        for name in ("_prior_step", "_fuse_step"):
            monkeypatch.setattr(observer_mod, name, planted(getattr(observer_mod, name)))
        return expected

    @pytest.mark.parametrize("bad_step", [100, 690])  # in a full block, in the last partial one
    def test_indefinite_shape_raises_the_per_shape_error(self, records, bench_model,
                                                         bench_trigger, monkeypatch, bad_step):
        full_blocks = self.N // observer_mod.PSD_BLOCK_STEPS
        assert (bad_step > full_blocks * observer_mod.PSD_BLOCK_STEPS) == (bad_step == 690)
        expected = self.plant(monkeypatch, bad_call=self.call(bad_step))
        with pytest.raises(ValueError) as err:
            observer_run(records, bench_model, bench_trigger)
        assert str(err.value) == expected[0]
        assert "eigenvalue" in expected[0]

    def test_non_finite_shape_raises_the_per_shape_error(self, records, bench_model,
                                                         bench_trigger, monkeypatch):
        # A NaN shape factorizes without error, so only the finiteness test catches it.
        expected = self.plant(monkeypatch, bad_call=self.call(100),
                              spoil=lambda shape: shape * np.nan)
        with pytest.raises(ValueError) as err:
            observer_run(records, bench_model, bench_trigger)
        assert str(err.value) == expected[0]
        assert "non-finite" in expected[0]

    def test_failing_last_shape_is_raised_at_the_end(self, records, bench_model,
                                                     bench_trigger, monkeypatch):
        expected = self.plant(monkeypatch, bad_call=self.call(self.N - 1, posterior=True))
        with pytest.raises(ValueError) as err:
            observer_run(records, bench_model, bench_trigger)
        assert str(err.value) == expected[0]

    def test_earliest_failing_step_wins(self, records, bench_model, bench_trigger, monkeypatch):
        expected = self.plant(monkeypatch, bad_call=self.call(100), raise_call=self.call(110))
        with pytest.raises(ValueError) as err:
            observer_run(records, bench_model, bench_trigger)
        assert str(err.value) == expected[0]

    def test_earlier_exception_wins(self, records, bench_model, bench_trigger, monkeypatch):
        self.plant(monkeypatch, bad_call=self.call(110), raise_call=self.call(100))
        with pytest.raises(ZeroDivisionError, match="planted"):
            observer_run(records, bench_model, bench_trigger)

    def test_failing_window_shape_wins_over_every_step(self, records, bench_model,
                                                       bench_trigger, monkeypatch):
        # Weights that skipped validation make every window shape indefinite.
        bad = object.__new__(WeightVector)
        object.__setattr__(bad, "weights", np.array([1.5, -0.5]))
        solver = WindowSolver(bench_model, bench_trigger, bad)
        # The run's patterns in the order np.unique gives them.
        patterns = sorted({(a.gamma, b.gamma) for a, b in zip(records, records[1:])})
        with pytest.raises(ValueError) as err:
            _require_psd(solver.window_shape(patterns[0]))
        assert "eigenvalue" in str(err.value)
        self.plant(monkeypatch, bad_call=self.call(5))
        with pytest.raises(ValueError) as raised:
            observer_run(records, bench_model, bench_trigger, bad)
        assert str(raised.value) == str(err.value)

    @pytest.mark.parametrize("n", [2, 6])
    def test_each_window_shape_is_tested_once(self, bench_model, bench_trigger, monkeypatch, n):
        model = bench_model if n == 2 else orthogonal_plant(n, 95)
        records = closed_loop_records(model, bench_trigger, 3 * observer_mod.PSD_BLOCK_STEPS, 4)
        tested = []
        original = observer_mod._require_psd_stack
        monkeypatch.setattr(observer_mod, "_require_psd_stack",
                            lambda shapes: tested.append(shapes.copy()) or original(shapes))
        run = observer_run(records, model, bench_trigger)
        assert same_bits(tested[0], run.window_shapes)
        assert len(tested) > 2  # the windows, then more than one block of steps
        shapes = [shape.tobytes() for stack in tested for shape in stack]
        assert all(shapes.count(window.tobytes()) == 1 for window in run.window_shapes)


class TestResolutionLoss:
    """An unstable plant outgrows float64 resolution while its sets stay bounded."""

    @pytest.fixture
    def system(self):
        raw = UNSTABLE_PLANT
        model = SystemModel(A=raw["A"], C=raw["C"], Q=raw["Q"], R=raw["R"])
        return model, TriggerConfig(raw["Gamma"], raw["Gamma_e"])

    def test_simulation_stops_before_containment_is_lost(self, system):
        model, trigger = system
        config = SimConfig(model=model, trigger=trigger, x0=[0.0, 0.0], N=200, seed=1)
        with pytest.raises(DivergenceError, match="resolution") as err:
            run_closed_loop(config)
        # Without the check the run reports its first containment violation at step 137.
        assert int(re.search(r"step (\d+)", str(err.value)).group(1)) < 137

    def test_replay_of_its_log_stops_too(self, system):
        model, trigger = system
        records = channel_log(model, trigger, [0.0, 0.0], 200, 1)
        with pytest.raises(DivergenceError, match="resolution"):
            observer_run(records, model, trigger)
        # A prefix that ends while the sets still resolve their centers runs through.
        assert len(observer_run(records[:60], model, trigger)) == 59


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

    def test_n6_run_longer_than_a_block_equals_reference(self, bench_trigger):
        model = orthogonal_plant(6, 95)
        a = WeightVector.uniform(6)
        records = closed_loop_records(model, bench_trigger, 400, 301)
        outputs = observer_run(records, model, bench_trigger, a)
        expected = reference_observer_run(records, model, bench_trigger, a)
        assert len(outputs) == len(expected) == 396
        assert len(outputs) > observer_mod.PSD_BLOCK_STEPS
        for out, (meas, prior, posterior) in zip(outputs, expected):
            pairs = [(out.measurement_set, meas), (out.posterior_set, posterior)]
            if prior is not None:
                pairs.append((out.prior_set, prior))
            for ell, (center, shape) in pairs:
                assert np.array_equal(ell.center, center)
                assert np.array_equal(ell.shape, shape)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 16])
def test_stacked_calls_equal_per_matrix_calls(n):
    """The premise of the stacked kernel: each numpy call it makes on a stack
    gives every member the bits of the same call on that member alone, in the
    operand layouts the kernel uses (M a transposed view of a solve result)."""
    rng = np.random.default_rng(n)
    runs, rows = 7, 5000
    A = rng.standard_normal((n, n))
    W = np.array([rand_spd(rng, n) for _ in range(runs)])
    P = np.array([rand_spd(rng, n) for _ in range(runs)])
    c = rng.standard_normal((runs, n, 1))
    X = np.linalg.solve(W + P, P)
    M = X.swapaxes(1, 2)
    K = np.eye(n) - M
    single = []
    for w, p, col in zip(W, P, c[..., 0]):
        m = np.linalg.solve(w + p, p).T
        k = np.eye(n) - m
        single.append((A @ p @ A.T, m @ w @ m.T, k @ p @ k.T, m.T, np.linalg.eigvalsh(w + p),
                       p.trace(), A @ col, m @ col, k @ col))
    stacked = (A @ P @ A.T, M @ W @ X, K @ P @ K.swapaxes(1, 2), X, np.linalg.eigvalsh(W + P),
               observer_mod._traces(P), (A @ c)[..., 0], (M @ c)[..., 0], (K @ c)[..., 0])
    names = ("A S A^T", "M W M^T", "K P K^T", "solve", "eigvalsh", "trace", "A c", "M c", "K c")
    for name, got, expected in zip(names, stacked, zip(*single)):
        assert same_bits(got, np.array(expected)), name
    assert same_bits(P.trace(axis1=1, axis2=2), observer_mod._traces(P))
    d = rng.standard_normal((rows, n))
    norms = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    assert same_bits(norms, [np.linalg.norm(row) for row in d])


class TestStackedSteps:
    """A member of a stack that takes a rare branch leaves the others' bits alone."""

    @staticmethod
    def prior(P, c, model):
        Q = model._disturbance_set.shape
        out = np.empty((2, *P.shape))
        center, _ = observer_mod._prior_step(P, c, model.A, Q, np.array([np.trace(Q)]), out)
        return out, center

    @staticmethod
    def fuse(W, c_meas, P, c_prior):
        out = np.empty((3, *W.shape))
        center, _, M, p = observer_mod._fuse_step(W, c_meas, P, c_prior, np.eye(W.shape[1]),
                                                  out)
        return out, center, M, p

    @staticmethod
    def assert_members_alone(step, *stacks):
        """Each member's results in the stack equal the step on that member alone."""
        together = step(*stacks)
        for s in range(len(stacks[0])):
            alone = step(*(stack[s : s + 1] for stack in stacks))
            for got, expected in zip(together, alone):
                member = got[:, s] if got.ndim == 4 else got[s]
                assert same_bits(member, expected[:, 0] if got.ndim == 4 else expected[0])
        return together

    def test_point_posterior_in_a_stack(self, bench_model):
        rng = np.random.default_rng(3)
        P = np.array([rand_spd(rng, 2), np.zeros((2, 2)), rand_spd(rng, 2)])
        out, _ = self.assert_members_alone(lambda P, c: self.prior(P, c, bench_model), P,
                                           rng.standard_normal((3, 2, 1)))
        assert same_bits(out[1, 1], bench_model.Q)  # the sum with a point is Q itself

    @pytest.mark.parametrize("case", ["bump", "point prior", "negative trace"])
    def test_rare_member_in_a_stack(self, case, monkeypatch):
        rng = np.random.default_rng(4)
        W = np.array([rand_spd(rng, 2) for _ in range(3)])
        P = np.array([rand_spd(rng, 2) for _ in range(3)])
        if case == "bump":
            W[1] = P[1] = np.diag([1.0, 0.0])  # W + P is singular
        elif case == "point prior":
            P[1] = 0.0
        else:
            W[1] = -1e-300 * np.eye(2)  # within the PSD floor, with a negative trace
        bumps = []
        original = observer_mod._fusion_matrix
        monkeypatch.setattr(observer_mod, "_fusion_matrix",
                            lambda *args: bumps.append(None) or original(*args))
        out, _, _, p = self.assert_members_alone(
            self.fuse, W, rng.standard_normal((3, 2, 1)), P, rng.standard_normal((3, 2, 1)))
        assert len(bumps) == 2 * (case == "bump")  # once in the stack, once alone
        if case != "bump":
            assert p[1] == 1.0 and p[0] != 1.0 and p[2] != 1.0
        if case == "point prior":
            assert not out[:, 1].any()  # the posterior is the prior's point


class TestSingularityTestSkip:
    def test_bench_plant_skips_every_step(self, bench_model, bench_trigger):
        run = observer_run(closed_loop_records(bench_model, bench_trigger, 300, 5), bench_model,
                           bench_trigger)
        level = observer_mod._singularity_skip_level(bench_model, run.window_shapes)
        assert np.max(np.trace(run.shapes, axis1=1, axis2=2)) < level

    def test_bump_fires_where_the_skip_bound_fails(self, bench_trigger, monkeypatch):
        # O is nearly singular (cond about 1e7) and Q tiny, so W + P comes within
        # the singularity tolerance; centers of zero keep the run resolvable.
        model = SystemModel(A=[[0.5, 1e-7], [0.0, 0.5]], C=[1.0, 0.0], Q=1e-12 * np.eye(2),
                            R=0.5)
        records = [MeasurementRecord(k, k % 2 == 0, 0.0) for k in range(60)]
        bumps = []
        original = observer_mod._fusion_matrix
        monkeypatch.setattr(observer_mod, "_fusion_matrix",
                            lambda *args: bumps.append(None) or original(*args))
        run = observer_run(records, model, bench_trigger)
        assert observer_mod._singularity_skip_level(model, run.window_shapes) == -math.inf
        assert len(bumps) > 30
        expected = reference_observer_run(records, model, bench_trigger, WeightVector.uniform(2))
        for out, (meas, prior, posterior) in zip(run, expected):
            pairs = [(out.posterior_set, posterior)]
            if prior is not None:
                pairs.append((out.prior_set, prior))
            for ell, (center, shape) in pairs:
                assert same_bits(ell.center, center)
                assert same_bits(ell.shape, shape)
