"""Iterative estimator: prior propagation, window inversion, fusion, predictions."""

from __future__ import annotations

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from setobs import (
    DivergenceError,
    Ellipsoid,
    MeasurementRecord,
    SimConfig,
    SystemModel,
    TriggerConfig,
    WeightVector,
    affine_transform,
    contains,
    convergence_bound,
    fuse,
    observer_run,
    optimal_fusion_matrix,
    predict_no_delay,
    prior_set,
    run_closed_loop,
    run_seed_sweep,
    sample_point,
    spectral_norm,
)
import setobs.observability as observability_mod
import setobs.observer as observer_mod
from setobs.ellipsoid import (
    _outer_sum_into,
    _require_psd,
    _singular,
    _solve_regular,
    _symmetrize,
    _traces,
)
from setobs.observability import WindowSolver

from conftest import (
    UNSTABLE_PLANT,
    channel_log,
    orthogonal_plant,
    rand_spd,
    same_bits,
    scalar_chain,
)
from oracles import intersection_outer, resolution_failure


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

    @pytest.mark.parametrize("flags", [[True, False], [False, True], [0, 0]])
    def test_failing_window_is_named_by_its_pattern(self, bench_model, bench_trigger, flags):
        # Weights that skipped validation make the window shape indefinite; the
        # error names the pattern as observer_run and check spell it.
        bad = object.__new__(WeightVector)
        object.__setattr__(bad, "weights", np.array([1.5, -0.5]))
        solver = WindowSolver(bench_model, bench_trigger, bad)
        with pytest.raises(ValueError) as alone:
            _require_psd(solver.window_shape(flags))
        with pytest.raises(ValueError) as named:
            solver.ellipsoid(flags, [0.0, 0.0])
        bits = "".join("1" if flag else "0" for flag in flags)
        assert str(named.value) == f"{alone.value} (window of pattern {bits})"
        if bits == "10":
            assert str(named.value) == ("shape matrix has eigenvalue -2.631e+02 below the "
                                        "floor -2.225e-317 (window of pattern 10)")


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

    def test_rejects_operands_of_other_dimensions(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 1 vs 2$"):
            fuse(Ellipsoid([0.0], [[1.0]]), Ellipsoid([0.0, 0.0], np.eye(2)))

    @pytest.mark.parametrize("n", [2, 10, 14, 15, 16])
    def test_singular_sum_is_regularized_at_every_n(self, n):
        # W + P = e1 e1^T is singular at every n; from n = 15 on a bump of
        # 1e-12 Tr/n alone would not clear the singularity rule.
        line = np.zeros((n, n))
        line[0, 0] = 1.0
        posterior, M, p = fuse(Ellipsoid(np.zeros(n), line),
                               Ellipsoid(np.zeros(n), np.zeros((n, n))))
        assert not posterior.center.any()
        assert 0.0 < np.trace(posterior.shape) < 1e-20  # the intersection is a point
        assert p == 1.0


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

    def test_weights_of_other_length_rejected(self, bench_model, bench_trigger):
        records = [MeasurementRecord(k, False, 0.0) for k in range(4)]
        with pytest.raises(ValueError, match="^weight vector has length 3, expected 2$"):
            observer_run(records, bench_model, bench_trigger, WeightVector([0.2, 0.3, 0.5]))

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
        # The window set alone caps the fused trace at 2 epsilon, so an
        # unstable plant does not blow up the observer; the guard stays silent.
        model = SystemModel(A=[[1.3, 0.1], [0.0, 1.2]], C=[1.0, 0.0], Q=np.eye(2), R=0.5)
        records = [MeasurementRecord(k, False, 0.0) for k in range(200)]
        outputs = observer_run(records, model, bench_trigger)
        epsilon = WindowSolver(model, bench_trigger, WeightVector.uniform(2)).epsilon
        for out in outputs:
            assert np.trace(out.posterior_set.shape) <= 2.0 * epsilon

    def test_guard_threshold_levels(self, bench_trigger, monkeypatch):
        # One guard for every A, stable or not: DIVERGENCE_FACTOR times
        # (sqrt(epsilon) + sqrt(Tr Q))^2, read from the run's solver.
        monkeypatch.setattr(observer_mod, "DIVERGENCE_FACTOR", 1e-12)
        records = [MeasurementRecord(k, False, 0.0) for k in range(4)]
        for A in ([[0.75, 0.2], [0.5, 0.3]], [[1.3, 0.1], [0.0, 1.2]]):
            model = SystemModel(A=A, C=[1.0, 0.0], Q=5.0 * np.eye(2), R=0.5)
            solver = WindowSolver(model, bench_trigger, WeightVector.uniform(2))
            gain = np.sqrt(solver.epsilon) + np.sqrt(np.trace(model.Q))
            assert solver.gain == gain
            with pytest.raises(DivergenceError) as err:
                observer_run(records, model, bench_trigger)
            assert f"divergence guard {1e-12 * gain**2:.3e}; the observer has broken down " \
                   "numerically" in str(err.value)

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
    @pytest.mark.bit_identity
    def test_public_steps_equal_the_loop(self, n, bench_model, bench_trigger):
        model = bench_model if n == 2 else orthogonal_plant(n, 95)
        run = observer_run(closed_loop_records(model, bench_trigger, 120, 5), model, bench_trigger)
        for prev, cur in zip(run, run[1:]):
            pairs = [(prior_set(prev.posterior_set, model), cur.prior_set),
                     (predict_no_delay(prev.posterior_set, model, n - 1)[0], cur.prior_set),
                     (fuse(cur.measurement_set, cur.prior_set)[0], cur.posterior_set)]
            for got, expected in pairs:
                assert same_bits(got.center, expected.center)
                assert same_bits(got.shape, expected.shape)


@pytest.mark.parametrize("n", [1, 2, 6, 16, 70])
@pytest.mark.bit_identity
def test_distinct_rows_equal_unique_rows(n):
    """The window patterns and their indices are those of np.unique(axis=0), in
    its order, for any window length (70 flags pack into 9 bytes)."""
    rng = np.random.default_rng(n)
    for runs, length, rate in ((1, n, 0.5), (1, 400 + n, 0.5), (3, 150 + n, 0.05)):
        flags = rng.random((runs, length)) < rate
        flags[:, 0] = True
        # The windows as ``_observe`` lays them out: a strided view of the flags.
        windows = sliding_window_view(flags, n, axis=1).swapaxes(0, 1).reshape(-1, n)
        expected, inverse = np.unique(windows, axis=0, return_inverse=True)
        patterns, pattern = observer_mod._distinct_rows(windows)
        assert same_bits(patterns, expected)
        assert same_bits(pattern, inverse.reshape(-1).astype(pattern.dtype))


class MappingHook(np.ndarray):
    """A dynamics matrix A that calls its ``hook`` before each product A @ S with
    a stack S of n x n shapes: in an observer run, the first operation of each
    step t >= 1, before the step has made a shape. Every result is that of A."""

    hook = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        other = inputs[-1]
        if (ufunc is np.matmul and inputs[0] is self and other.ndim == 3
                and other.shape[-1] == len(self)):
            self.hook()
        plain = (x.view(np.ndarray) if isinstance(x, MappingHook) else x for x in inputs)
        return getattr(ufunc, method)(*plain, **kwargs)


def hooked_model(model: SystemModel, hook) -> SystemModel:
    """``model`` with an A that calls ``hook`` as the observer starts each step."""
    A = model.A.view(MappingHook)
    A.hook = hook
    hooked = SystemModel(A=model.A, C=model.C, Q=model.Q, R=model.R)
    object.__setattr__(hooked, "A", A)
    return hooked


@pytest.mark.bit_identity
class TestBlockedPsdTests:
    """PSD tests run stacked per block, yet raise what a test per shape raises."""

    N = 700  # more than two blocks of PSD tests

    @pytest.fixture
    def records(self, bench_model, bench_trigger):
        assert self.N > 2 * observer_mod.PSD_BLOCK_STEPS
        return closed_loop_records(bench_model, bench_trigger, self.N, 3)

    @staticmethod
    def plant(monkeypatch, model, bad_step=None, raise_step=None, in_fusion=False,
              diverge_step=None, spoil=np.negative, posterior=False):
        """The loop's seams at each step t >= 1: the model's A, whose product with
        the posteriors starts the step before it has made a shape, and
        ``_solve_regular``, which gets the step's prior after the step has made
        A S A^T and the prior. Spoil (by default negate) the prior of step
        ``bad_step`` as the solve gets it, raise ZeroDivisionError at step
        ``raise_step`` (as A maps its posteriors, or in its solve ``in_fusion``),
        and scale the fusion matrix of step ``diverge_step`` by 1e6, which sends
        its posterior trace past the divergence guard. With ``posterior``, spoil
        the posterior of ``bad_step`` instead: its fusion matrix is zeroed, so
        M W M^T is a point and the fusion's outer sum goes through
        ``_outer_sum_into``, whose result is spoiled. Returns the model to run
        and the error _require_psd gives the spoiled shape, named with its step
        (the records start at k = 0, so step t is k = t)."""
        expected, starts, solves = [], [], []
        helper, outer_sum = observer_mod._solve_regular, observer_mod._outer_sum_into

        def spoiled_sum(out, *args):
            p = outer_sum(out, *args)
            out[...] = spoil(out)  # the run's posterior row
            with pytest.raises(ValueError) as err:
                _require_psd(out[0].copy())
            expected.append(f"{err.value} (posterior at step {len(solves)})")
            monkeypatch.setattr(observer_mod, "_outer_sum_into", outer_sum)
            return p

        def start():
            starts.append(None)
            if len(starts) == raise_step and not in_fusion:
                raise ZeroDivisionError("planted")

        def solve(a, b, out):
            solves.append(None)
            step = len(solves)
            if step == bad_step and posterior:
                helper(a, b, out=out)
                out[...] = 0.0
                monkeypatch.setattr(observer_mod, "_outer_sum_into", spoiled_sum)
                return out
            if step == bad_step:
                b[...] = spoil(b)  # the run's prior row
                with pytest.raises(ValueError) as err:
                    _require_psd(b[0].copy())
                expected.append(f"{err.value} (prior at step {step})")
            if step == raise_step and in_fusion:
                raise ZeroDivisionError("planted")
            helper(a, b, out=out)
            if step == diverge_step:
                out *= 1e6
            return out

        monkeypatch.setattr(observer_mod, "_solve_regular", solve)
        return hooked_model(model, start), expected

    @pytest.mark.parametrize("bad_step", [100, 690])  # in a full block, in the last partial one
    def test_indefinite_shape_raises_the_per_shape_error(self, records, bench_model,
                                                         bench_trigger, monkeypatch, bad_step):
        full_blocks = self.N // observer_mod.PSD_BLOCK_STEPS
        assert (bad_step > full_blocks * observer_mod.PSD_BLOCK_STEPS) == (bad_step == 690)
        model, expected = self.plant(monkeypatch, bench_model, bad_step=bad_step)
        with pytest.raises(ValueError) as err:
            observer_run(records, model, bench_trigger)
        assert str(err.value) == expected[0]
        assert "eigenvalue" in expected[0]

    def test_non_finite_shape_raises_the_per_shape_error(self, records, bench_model,
                                                         bench_trigger, monkeypatch):
        # A NaN shape factorizes without error, so only the finiteness test catches it.
        model, expected = self.plant(monkeypatch, bench_model, bad_step=100,
                                     spoil=lambda shape: shape * np.nan)
        with pytest.raises(ValueError) as err:
            observer_run(records, model, bench_trigger)
        assert str(err.value) == expected[0]
        assert "non-finite" in expected[0]

    def test_failing_last_shape_is_raised_at_the_end(self, records, bench_model,
                                                     bench_trigger, monkeypatch):
        # The last step (N - 1) tests its shapes in the final flush, after the loop.
        model, expected = self.plant(monkeypatch, bench_model, bad_step=self.N - 1)
        with pytest.raises(ValueError) as err:
            observer_run(records, model, bench_trigger)
        assert str(err.value) == expected[0]

    @pytest.mark.parametrize("bad_step", [100, N - 1])  # in a full block, in the final flush
    def test_indefinite_posterior_raises_the_per_shape_error(self, records, bench_model,
                                                             bench_trigger, monkeypatch,
                                                             bad_step):
        # The posteriors are read from their own run array, not from the block.
        model, expected = self.plant(monkeypatch, bench_model, bad_step=bad_step,
                                     posterior=True)
        with pytest.raises(ValueError) as err:
            observer_run(records, model, bench_trigger)
        assert str(err.value) == expected[0]
        assert "eigenvalue" in expected[0]

    @staticmethod
    def filled_block(n, runs, spoiled=None, kind=0):
        """A ``_PsdBlock`` of steps 7, 8 and 9 of ``runs`` runs, every shape I
        but, if ``spoiled`` is given, step 8's shape ``kind`` in the last run."""
        priors, posteriors = np.empty((2, 3, runs, n, n))
        block = observer_mod._PsdBlock(priors, posteriors, np.eye(n), 7)
        for step in range(3):
            _, mapped, _, split, _ = block.reserve()
            mapped[...] = split[...] = priors[step] = posteriors[step] = np.eye(n)
            if step == 1 and spoiled is not None:
                [mapped, priors[step], split[0], split[1], posteriors[step]][kind][-1] = spoiled
        return block

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("kind", range(5))
    def test_failing_shape_is_named(self, kind, runs):
        self.assert_named(2, runs, -np.eye(2), kind)

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("spoil", ["nan", "slightly negative"])
    @pytest.mark.parametrize("kind", range(5))
    def test_failing_shape_of_any_size_is_named(self, kind, spoil, n):
        # At n <= 3 the block fails the screen and then ``_require_psd``; at
        # n = 6 it goes to ``_require_psd`` alone. The slightly negative shape
        # has eigenvalue -1e-6, below the floor -1e-9 Tr/n.
        spoiled = (np.full((n, n), np.nan) if spoil == "nan"
                   else np.diag([1.0] * (n - 1) + [-1e-6]))
        self.assert_named(n, 3, spoiled, kind)

    def assert_named(self, n, runs, spoiled, kind):
        """A flush of ``filled_block(n, runs, spoiled, kind)`` raises the error
        ``_require_psd`` gives the spoiled shape, named with its shape, run and step."""
        block = self.filled_block(n, runs, spoiled, kind)
        with pytest.raises(ValueError) as err:
            _require_psd(spoiled)
        name = ("A P A^T", "prior", "M W M^T", "K P K^T", "posterior")[kind]
        where = f"{name} of run {runs - 1}" if runs > 1 else name
        with pytest.raises(ValueError) as named:
            block.flush()
        assert str(named.value) == f"{err.value} ({where} at step 8)"

    @pytest.mark.parametrize("n, factorizations", [(2, 0), (3, 0), (6, 1)])
    def test_passing_block_factorizes_above_the_screen_only(self, monkeypatch, n,
                                                           factorizations):
        # A block of 2 x 2 or 3 x 3 shapes is cleared by one elimination over
        # the stack; a 6 x 6 block is one stacked LAPACK Cholesky.
        block = self.filled_block(n, 3)
        calls, cholesky = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
        block.flush()
        assert calls == [(15 * 3, n, n)] * factorizations

    def test_earliest_failing_step_wins(self, records, bench_model, bench_trigger, monkeypatch):
        model, expected = self.plant(monkeypatch, bench_model, bad_step=100, raise_step=110)
        with pytest.raises(ValueError) as err:
            observer_run(records, model, bench_trigger)
        assert str(err.value) == expected[0]

    def test_shape_made_before_an_exception_in_its_step_wins(self, records, bench_model,
                                                              bench_trigger, monkeypatch):
        # Step 100's prior is made, then its fusion raises: the prior's test comes first.
        model, expected = self.plant(monkeypatch, bench_model, bad_step=100, raise_step=100,
                                     in_fusion=True)
        with pytest.raises(ValueError) as err:
            observer_run(records, model, bench_trigger)
        assert str(err.value) == expected[0]

    @pytest.mark.parametrize("posterior", [False, True])
    def test_shapes_a_step_did_not_make_are_not_tested(self, records, bench_model,
                                                        bench_trigger, monkeypatch, posterior):
        # Step 5 raises in the first block, whose slots hold whatever np.empty
        # gave, here NaN: only the shapes made so far are tested, so the
        # exception leaves.
        numpy = dict(vars(np), empty=lambda shape: np.full(shape, np.nan))
        monkeypatch.setattr(observer_mod, "np", SimpleNamespace(**numpy))
        model, _ = self.plant(monkeypatch, bench_model, raise_step=5, in_fusion=posterior)
        with pytest.raises(ZeroDivisionError, match="planted"):
            observer_run(records, model, bench_trigger)

    @pytest.mark.parametrize("bad_step", [None, 100])
    def test_divergence_raises_after_its_step_is_tested(self, records, bench_model,
                                                        bench_trigger, monkeypatch, bad_step):
        # The guard raises once step 100 has made all five shapes; they are
        # tested, and a failing one is raised instead.
        model, expected = self.plant(monkeypatch, bench_model, bad_step=bad_step,
                                     diverge_step=100)
        if bad_step is None:
            with pytest.raises(DivergenceError, match="at step 100 exceeds divergence guard"):
                observer_run(records, model, bench_trigger)
        else:
            with pytest.raises(ValueError) as err:
                observer_run(records, model, bench_trigger)
            assert str(err.value) == expected[0]

    def test_earlier_exception_wins(self, records, bench_model, bench_trigger, monkeypatch):
        model, _ = self.plant(monkeypatch, bench_model, bad_step=110, raise_step=100)
        with pytest.raises(ZeroDivisionError, match="planted"):
            observer_run(records, model, bench_trigger)

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
        model, _ = self.plant(monkeypatch, bench_model, bad_step=5)
        with pytest.raises(ValueError) as raised:
            observer_run(records, model, bench_trigger, bad)
        bits = "".join("1" if flag else "0" for flag in patterns[0])
        assert str(raised.value) == f"{err.value} (window of pattern {bits})"

    @pytest.mark.parametrize("n", [2, 6])
    def test_failing_window_shape_is_named_by_its_pattern(self, bench_model, bench_trigger,
                                                          monkeypatch, n):
        # Every window whose first step has an event is planted indefinite: the
        # error names the first of them in sorted order, spelled as check lists it.
        model = bench_model if n == 2 else orthogonal_plant(n, 95)
        records = closed_loop_records(model, bench_trigger, 60, 4)
        original = WindowSolver.window_shapes

        def window_shapes(self, patterns):
            shapes = original(self, patterns)
            shapes[np.asarray(patterns)[:, 0]] = -np.eye(n)
            return shapes

        monkeypatch.setattr(WindowSolver, "window_shapes", window_shapes)
        gammas = [record.gamma for record in records]
        windows = sorted({tuple(gammas[k : k + n]) for k in range(len(gammas) - n + 1)})
        first = next(window for window in windows if window[0])
        with pytest.raises(ValueError) as alone:
            _require_psd(-np.eye(n))
        with pytest.raises(ValueError) as named:
            observer_run(records, model, bench_trigger)
        bits = "".join("1" if flag else "0" for flag in first)
        assert str(named.value) == f"{alone.value} (window of pattern {bits})"
        assert windows[0] != first  # a window that passes comes first

    @pytest.mark.parametrize("n", [2, 6])
    def test_each_window_shape_is_tested_once(self, bench_model, bench_trigger, monkeypatch, n):
        model = bench_model if n == 2 else orthogonal_plant(n, 95)
        records = closed_loop_records(model, bench_trigger, 3 * observer_mod.PSD_BLOCK_STEPS, 4)
        tested = []
        for name in ("_require_psd", "_pivots_positive"):  # blocks at n <= 3 are screened
            original = getattr(observer_mod, name)
            monkeypatch.setattr(observer_mod, name,
                                lambda shapes, *args, original=original:
                                tested.append(shapes.copy()) or original(shapes, *args))
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


class TestResolutionScreen:
    """``_require_resolution`` computes eigenvalues only when its trace screen
    leaves a posterior uncleared, and raises what the eigenvalues of every
    posterior decide (``resolution_failure``)."""

    @staticmethod
    def verdict(centers, shapes, window_centers, solver) -> str | None:
        try:
            observer_mod._require_resolution(centers, shapes, window_centers, solver, 3)
        except DivergenceError as err:
            return str(err)
        return None

    @staticmethod
    def eigvalsh_calls(monkeypatch) -> list[tuple[int, ...]]:
        """The shapes of the arrays that numpy's eigvalsh is called on."""
        calls = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args: calls.append(np.shape(a)) or original(a, *args))
        return calls

    @staticmethod
    def rows(kind: str, rng: np.random.Generator, n: int):
        """One posterior of a hard kind: its center, shape and window center."""
        center, window_center = rng.standard_normal(n), rng.standard_normal(n)
        G = rng.standard_normal((n, n))
        shape = G @ G.T
        if kind == "thin":  # rank one, its width across it at most rounding
            v = rng.standard_normal(n)
            shape = np.outer(v, v) * 10.0 ** rng.uniform(-40, 5)
        elif kind == "ill-conditioned":
            Q = np.linalg.qr(G)[0]
            shape = _symmetrize(Q @ np.diag(10.0 ** rng.uniform(-30, 0, n)) @ Q.T)
        elif kind == "huge center":
            center *= 10.0 ** rng.uniform(150, 308)
            shape *= 10.0 ** rng.uniform(-5, 300)
        elif kind == "overflowing trace":  # finite entries whose trace overflows
            shape = np.diag(rng.uniform(0.9, 1.0, n) * np.finfo(float).max)
            center *= 10.0 ** rng.uniform(100, 250)
        elif kind == "tiny":
            shape *= 10.0 ** rng.uniform(-320, -250)
            center *= 10.0 ** rng.uniform(-200, -100)
            window_center *= 0.0
        elif kind == "nan":
            where = rng.integers(3)
            if where == 0:
                shape[rng.integers(n), rng.integers(n)] = math.nan
            elif where == 1:
                center[rng.integers(n)] = math.nan
            else:
                shape[0, 0] = math.inf
        elif kind == "boundary":  # sqrt(Tr S) within a factor of 2^3 of the limit
            error = n * np.finfo(float).eps / 2.0 * (np.linalg.norm(center)
                                                     + np.linalg.norm(window_center))
            limit = observer_mod.RESOLUTION_MARGIN * error
            shape *= limit**2 / np.trace(shape) * 4.0 ** rng.uniform(-3, 3)
        return center, shape, window_center

    @pytest.mark.parametrize("kind", ["thin", "ill-conditioned", "huge center",
                                      "overflowing trace", "tiny", "nan", "boundary"])
    def test_screen_never_clears_a_flagged_posterior(self, kind, bench_model, bench_trigger):
        rng = np.random.default_rng(sum(map(ord, kind)))
        solver = WindowSolver(bench_model, bench_trigger, WeightVector.uniform(2))
        flagged = 0
        for _ in range(300):
            # A flagged posterior among well-resolved ones, in a (K, S) layout.
            centers = rng.standard_normal((4, 3, 2))
            window_centers = rng.standard_normal((4, 3, 2))
            shapes = np.broadcast_to(np.eye(2), (4, 3, 2, 2)).copy()
            t, s = rng.integers(4), rng.integers(3)
            centers[t, s], shapes[t, s], window_centers[t, s] = self.rows(kind, rng, 2)
            with np.errstate(all="ignore"):
                expected = resolution_failure(centers, shapes, window_centers, solver, 3)
                assert self.verdict(centers, shapes, window_centers, solver) == expected
            flagged += expected is not None
        assert flagged > 0

    @pytest.mark.parametrize("model", ["paper", "n6"])
    def test_resolved_runs_compute_no_eigenvalues_of_posteriors(self, model, bench_model,
                                                                bench_trigger, monkeypatch):
        model = bench_model if model == "paper" else orthogonal_plant(6, 95)
        records = closed_loop_records(model, bench_trigger, 300, 5)
        calls = self.eigvalsh_calls(monkeypatch)
        run = observer_run(records, model, bench_trigger)
        assert calls and all(len(shape) < len(run) for shape in calls)

    def test_unstable_plant_message_equals_eigenvalue_oracle(self, monkeypatch):
        raw = UNSTABLE_PLANT
        model = SystemModel(A=raw["A"], C=raw["C"], Q=raw["Q"], R=raw["R"])
        trigger = TriggerConfig(raw["Gamma"], raw["Gamma_e"])
        checked = []
        original = observer_mod._require_resolution
        monkeypatch.setattr(observer_mod, "_require_resolution",
                            lambda *args: checked.append(args) or original(*args))
        with pytest.raises(DivergenceError, match="resolution") as err:
            observer_run(channel_log(model, trigger, [0.0, 0.0], 200, 1), model, trigger)
        [args] = checked
        assert str(err.value) == resolution_failure(*args)


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
            for s in (1e-9, 1e-7, 1e-6, 1e-3, 1e3, 1e8, 1e150):
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
                trace = float(np.trace(meas[1] + prior[1]))
                bump = max(1e-12 * trace / n, n * 1e-14 * trace) * np.eye(n)
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
    @pytest.mark.bit_identity
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

    @pytest.mark.bit_identity
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


def wrapped_solve(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``_solve_regular`` through np.linalg.solve: the reference it must equal."""
    out[...] = np.linalg.solve(a, b)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 16])
@pytest.mark.bit_identity
def test_stacked_calls_equal_per_matrix_calls(n):
    """The premise of the stacked kernel: each numpy call it makes on a stack
    gives every member the bits of the same call on that member alone, in the
    operand layouts the kernel uses (M a transposed view of a solve result, and
    the fusion's product pair in the work arrays of ``_observe``)."""
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
               _traces(P), (A @ c)[..., 0], (M @ c)[..., 0], (K @ c)[..., 0])
    names = ("A S A^T", "M W M^T", "K P K^T", "solve", "eigvalsh", "trace", "A c", "M c", "K c")
    single = [np.array(column) for column in zip(*single)]
    for name, got, expected in zip(names, stacked, single):
        assert same_bits(got, expected), name
    assert same_bits(P.trace(axis1=1, axis2=2), _traces(P))
    # The solve without np.linalg.solve's wrapper, and the fusion's product pair
    # in the layouts ``_observe`` computes them in: X in a row of a work array,
    # [M; K] a copy of M = X^T and of I - M, and [X; K^T] its transposed view.
    operands, sums, factors, halves, products = np.empty((5, 2, runs, n, n))
    operands[:] = W, P
    total, solution = sums
    assert same_bits(_solve_regular(np.add(W, P, out=total), P, out=solution), X)
    factors[0] = solution.swapaxes(1, 2)
    np.subtract(np.eye(n), solution.swapaxes(1, 2), out=factors[1])
    np.matmul(np.matmul(factors, operands, out=halves), factors.swapaxes(2, 3), out=products)
    assert same_bits(products, single[1:3])  # M W M^T and K P K^T
    # (S + S^T) / 2 of a stack.
    S = A @ P
    plain = np.array([(s + s.T) / 2.0 for s in S])
    assert same_bits(_symmetrize(S), plain)
    # The outer sums' pair [1 + 1/p; 1 + p] as the loop takes it, from the
    # rows [1; p; 1]: their first two rows over their last two are [1/p; p].
    parameters = np.sqrt(rng.uniform(0.1, 10.0, runs))
    ones = np.ones((3, runs, 1, 1))
    ones[1, :, 0, 0] = parameters
    pair = np.add(np.divide(ones[:2], ones[1:]), 1.0)[:, :, 0, 0]
    assert same_bits(pair, [[1.0 + 1.0 / q for q in parameters], [1.0 + q for q in parameters]])
    # (1 + 1/p) X + (1 + p) Y as the steps lay it out, a (2, S, n, n) stack
    # [X; Y]: with the trace-optimal p, with a given p, and with one Q for
    # every member, in a slot of a PSD block as the prior step reads it. Each
    # result goes into a fresh array and into a row of a (K, S, n, n) run array.
    given = rng.uniform(0.5, 2.0, runs)
    Q = rand_spd(rng, n)
    block = np.empty((2, 4, runs, n, n))
    block[:, 1] = Q
    block[1, 0] = W
    slot = block[1, :2]
    pair = np.stack((W, P))
    run = np.empty((3, runs, n, n))
    for stack, p in ((pair, None), (pair, given), (slot, None)):
        expected_p, expected = [], []
        for s, (w, y) in enumerate(zip(*stack)):
            q = float(np.sqrt(w.trace() / y.trace())) if p is None else float(p[s])
            expected_p.append(q)
            expected.append((1.0 + 1.0 / q) * w + (1.0 + q) * y)
        for out in (np.empty_like(W), run[1]):
            got = _outer_sum_into(out, stack, p)
            assert same_bits(got, expected_p) and same_bits(out, expected)
    d = rng.standard_normal((rows, n))
    norms = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    assert same_bits(norms, [np.linalg.norm(row) for row in d])


RUN_ARRAYS = ("centers", "shapes", "prior_centers", "prior_shapes", "window_centers")


def assert_public_steps_equal(run, model: SystemModel) -> None:
    """Every prior and posterior of a run has the bits of ``prior_set`` and ``fuse``."""
    for prev, cur in zip(run, run[1:]):
        for got, expected in ((prior_set(prev.posterior_set, model), cur.prior_set),
                              (fuse(cur.measurement_set, cur.prior_set)[0], cur.posterior_set)):
            assert same_bits(got.center, expected.center) and same_bits(got.shape, expected.shape)


# A plant whose window and prior shapes nearly share a null direction: O is
# nearly singular and Q tiny, so the fusion's shape sum is singular within
# tolerance at many steps, and its singularity test runs at every step.
BUMP_PLANT = {"A": [[0.5, 1e-7], [0.0, 0.5]], "C": [1.0, 0.0], "Q": 1e-12 * np.eye(2), "R": 0.5}


class TestStackedSteps:
    """A member of a stack of runs that takes a rare branch leaves the others'
    bits alone, and on it the loop still equals the public steps. The rare
    members come through the loop's seams: the all-event window of the paper
    plant made a point (or a shape of negative trace within the PSD floor),
    and a plant with singular shape sums. Run 1 is the rare one; its
    references are zero, so that its point sets resolve their centers."""

    STEPS = 12
    QUIET = ([k in (0, 2, 5, 7, 10) for k in range(STEPS)],  # no two events in a row
             [k in (0, 3, 5, 8, 10) for k in range(STEPS)])

    @classmethod
    def case(cls, name, monkeypatch, bench_model) -> tuple[SystemModel, np.ndarray, np.ndarray]:
        """The model, flags and references of a stack of three runs with a rare member."""
        if name == "bump":
            flags = [[k % 2 == 0 for k in range(cls.STEPS)], [True] * cls.STEPS,
                     [k % 3 == 0 for k in range(cls.STEPS)]]
            return SystemModel(**BUMP_PLANT), np.array(flags), np.zeros((3, cls.STEPS))
        rare = [True] * cls.STEPS  # every window of run 1 is the all-event one
        if name == "point posterior":
            rare = [k in (0, 1, 3, 6, 8, 11) for k in range(cls.STEPS)]  # only its first
        # A Q that is not a multiple of I: a prior of a point is not, and the
        # fusion with a window of negative trace keeps a prior part.
        model = SystemModel(A=bench_model.A, C=bench_model.C, Q=[[5.0, 1.0], [1.0, 3.0]],
                            R=bench_model.R)
        window = [[-1e-318, 0.0], [0.0, 0.0]] if name == "negative trace" else np.zeros((2, 2))
        original = WindowSolver.window_shapes

        def window_shapes(self, patterns):
            shapes = original(self, patterns)
            shapes[np.asarray(patterns).all(axis=1)] = window
            return shapes

        monkeypatch.setattr(WindowSolver, "window_shapes", window_shapes)
        references = np.random.default_rng(7).standard_normal((3, cls.STEPS))
        references[1] = 0.0
        return model, np.array([cls.QUIET[0], rare, cls.QUIET[1]]), references

    @staticmethod
    def observe(model, flags, references, trigger):
        """The runs of a stack of logs through ``_observe``, each equal to its log
        run alone and to the public steps."""
        solver = WindowSolver(model, trigger, WeightVector.uniform(model.n))
        together = observer_mod._observe(flags, references, 0, solver)
        for s, run in enumerate(together):
            [alone] = observer_mod._observe(flags[s : s + 1], references[s : s + 1], 0, solver)
            for name in RUN_ARRAYS:
                assert same_bits(getattr(run, name), getattr(alone, name)), (s, name)
            assert_public_steps_equal(run, model)
        return together

    @staticmethod
    def general_sums(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
        """The operand traces and the p of each outer sum the loop leaves to
        ``_outer_sum_into``."""
        sums = []
        original = observer_mod._outer_sum_into

        def spy(out, operands, *args):
            sums.append((_traces(operands), original(out, operands, *args)))
            return sums[-1][1]

        monkeypatch.setattr(observer_mod, "_outer_sum_into", spy)
        return sums

    @staticmethod
    def assert_rare_sum(sums, rare) -> None:
        """Some general outer sum finds ``rare`` true of the traces of run 1's
        operands and sets its p to 1, and the trace-optimal p of the others."""
        assert any(rare(*traces[:, 1]) and p[1] == 1.0 and p[0] != 1.0 and p[2] != 1.0
                   for traces, p in sums)

    @pytest.mark.bit_identity
    def test_point_posterior_in_a_stack(self, bench_model, bench_trigger, monkeypatch):
        model, flags, references = self.case("point posterior", monkeypatch, bench_model)
        sums = self.general_sums(monkeypatch)
        runs = self.observe(model, flags, references, bench_trigger)
        assert not runs[1].shapes[0].any()
        assert same_bits(runs[1].prior_shapes[1], model.Q)  # the sum with a point is Q itself
        self.assert_rare_sum(sums, lambda t_x, t_y: t_x == 0.0 < t_y)

    @pytest.mark.parametrize("case", ["bump", "negative trace"])
    @pytest.mark.bit_identity
    def test_rare_member_in_a_stack(self, case, bench_model, bench_trigger, monkeypatch):
        model, flags, references = self.case(case, monkeypatch, bench_model)
        if case == "bump":
            # Each run alone bumps at its own steps, so in the stack a step
            # bumps some members and solves the others.
            steps, bumps = [], []
            hooked = hooked_model(model, lambda: steps.append(None))
            solver = WindowSolver(hooked, bench_trigger, WeightVector.uniform(2))
            fusion_matrix = observer_mod.optimal_fusion_matrix
            monkeypatch.setattr(observer_mod, "optimal_fusion_matrix",
                                lambda *args: bumps.append(len(steps)) or fusion_matrix(*args))
            bumped = []
            for s in range(3):
                steps.clear()
                bumps.clear()
                observer_mod._observe(flags[s : s + 1], references[s : s + 1], 0, solver)
                bumped.append(set(bumps))
            assert all(bumped) and len({frozenset(b) for b in bumped}) == 3
            self.observe(model, flags, references, bench_trigger)
            return
        sums = self.general_sums(monkeypatch)
        runs = self.observe(model, flags, references, bench_trigger)
        # Run 1's first posterior is its window, of negative trace.
        assert np.trace(runs[1].shapes[0]) < 0.0
        self.assert_rare_sum(sums, lambda t_x, t_y: t_x < 0.0 < t_y)

    @pytest.mark.parametrize("case", ["bump"])
    @pytest.mark.bit_identity
    def test_solve_helper_never_sees_a_singular_member(self, case, bench_model, bench_trigger,
                                                      monkeypatch):
        """``_solve_regular`` gets only stacks that ``_singular`` has cleared, and
        every result is that of solving with np.linalg.solve."""
        model, flags, references = self.case(case, monkeypatch, bench_model)
        solver = WindowSolver(model, bench_trigger, WeightVector.uniform(2))
        received = []
        helper = observer_mod._solve_regular

        def spy(a, b, out):
            received.extend(a.copy())
            return helper(a, b, out=out)

        outcomes = {}
        for solve in (spy, wrapped_solve):
            monkeypatch.setattr(observer_mod, "_solve_regular", solve)
            outcomes[solve] = []
            for members in ([0, 1, 2], [0], [1], [2]):  # the stack, then each member alone
                runs = observer_mod._observe(flags[members], references[members], 0, solver)
                outcomes[solve].append([getattr(run, name) for run in runs for name in RUN_ARRAYS])
        assert received and not _singular(np.linalg.eigvalsh(np.array(received))).any()
        for got, expected in zip(*outcomes.values()):
            assert all(same_bits(g, e) for g, e in zip(got, expected))


class SignedZeroProducts(np.ndarray):
    """A dynamics matrix A whose products with centers give each zero entry as
    -0.0, as a fused multiply-add does where a negative exact result
    underflows; every other bit is that of A. numpy's products of zeros
    usually give 0.0, so without it no -0.0 might reach a later center. The
    public steps take A through np.asarray, which drops the subclass."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = (x.view(np.ndarray) if isinstance(x, SignedZeroProducts) else x for x in inputs)
        result = getattr(ufunc, method)(*plain, **kwargs)
        other = inputs[-1]
        if ufunc is np.matmul and inputs[0] is self and (other.ndim == 1 or other.shape[-1] == 1):
            result[result == 0.0] = -0.0
        return result


@pytest.mark.parametrize("products", ["numpy", "signed zeros"])
@pytest.mark.parametrize("value", [0.0, -0.0])
@pytest.mark.parametrize("n", [2, 6])
@pytest.mark.bit_identity
def test_signed_zero_references(n, value, products, bench_model, bench_trigger):
    """On logs of zero references of either sign, alone and in a stack, every
    prior and posterior has the bits of the public steps, whose zero offsets
    turn -0.0 into 0.0. Row 0 is the window center itself, -0.0 entries
    included, and no later center or prior center holds a -0.0, also where
    the products with A give -0.0."""
    model = bench_model if n == 2 else orthogonal_plant(n, 95)
    if products == "signed zeros":
        model = SystemModel(A=model.A, C=model.C, Q=model.Q, R=model.R)
        object.__setattr__(model, "A", model.A.view(SignedZeroProducts))
    steps = 40
    flags = np.array([[k == 0 or k % 7 == 3 for k in range(steps)],
                      [k % 2 == 0 for k in range(steps)]])
    runs = TestStackedSteps.observe(model, flags, np.full((2, steps), value), bench_trigger)
    for run in runs:
        assert same_bits(run.centers[0], run.window_centers[0])
        for centers in (run.centers[1:], run.prior_centers[1:]):
            assert not (np.signbit(centers) & (centers == 0.0)).any()
    if np.signbit(value):
        # The window solve leaves some -0.0 entry in the first center of each run.
        assert all(np.signbit(run.centers[0]).any() for run in runs)


class TestSingularityTestSkip:
    def test_bench_plant_skips_every_step(self, bench_model, bench_trigger):
        run = observer_run(closed_loop_records(bench_model, bench_trigger, 300, 5), bench_model,
                           bench_trigger)
        level = observer_mod._singularity_skip_level(run.solver, run.window_shapes)
        assert np.max(np.trace(run.shapes, axis1=1, axis2=2)) < level

    @pytest.mark.bit_identity
    def test_solve_helper_gets_only_cleared_stacks(self, bench_trigger, monkeypatch):
        """In a run where the bump fires, ``_solve_regular`` gets no singular stack,
        and the run has the bits of one that solves with np.linalg.solve."""
        model = SystemModel(A=[[0.5, 1e-7], [0.0, 0.5]], C=[1.0, 0.0], Q=1e-12 * np.eye(2),
                            R=0.5)
        records = [MeasurementRecord(k, k % 2 == 0, 0.0) for k in range(60)]
        received, bumps = [], []
        helper, fusion_matrix = observer_mod._solve_regular, observer_mod.optimal_fusion_matrix
        monkeypatch.setattr(observer_mod, "optimal_fusion_matrix",
                            lambda *args: bumps.append(None) or fusion_matrix(*args))
        monkeypatch.setattr(observer_mod, "_solve_regular",
                            lambda a, b, out: received.append(a.copy()) or helper(a, b, out=out))
        run = observer_run(records, model, bench_trigger)
        assert received and bumps
        assert not _singular(np.linalg.eigvalsh(np.concatenate(received))).any()
        monkeypatch.setattr(observer_mod, "_solve_regular", wrapped_solve)
        expected = observer_run(records, model, bench_trigger)
        for name in ("centers", "shapes", "prior_centers", "prior_shapes"):
            assert same_bits(getattr(run, name), getattr(expected, name)), name

    def test_bump_fires_where_the_skip_bound_fails(self, bench_trigger, monkeypatch):
        # O is nearly singular (cond about 1e7) and Q tiny, so W + P comes within
        # the singularity tolerance; centers of zero keep the run resolvable.
        model = SystemModel(A=[[0.5, 1e-7], [0.0, 0.5]], C=[1.0, 0.0], Q=1e-12 * np.eye(2),
                            R=0.5)
        records = [MeasurementRecord(k, k % 2 == 0, 0.0) for k in range(60)]
        bumps = []
        original = observer_mod.optimal_fusion_matrix
        monkeypatch.setattr(observer_mod, "optimal_fusion_matrix",
                            lambda *args: bumps.append(None) or original(*args))
        run = observer_run(records, model, bench_trigger)
        assert observer_mod._singularity_skip_level(run.solver, run.window_shapes) == -math.inf
        assert len(bumps) > 30
        expected = reference_observer_run(records, model, bench_trigger, WeightVector.uniform(2))
        for out, (meas, prior, posterior) in zip(run, expected):
            pairs = [(out.posterior_set, posterior)]
            if prior is not None:
                pairs.append((out.prior_set, prior))
            for ell, (center, shape) in pairs:
                assert same_bits(ell.center, center)
                assert same_bits(ell.shape, shape)


class TestSplitTraceTrigger:
    """A step is cleared when its bound, 2 (t_x + t_y) summed over runs (at
    step 0 the window traces), is below a quarter of the levels. The guard
    checks the posterior traces of every other step, and the fusion after it
    runs its singularity test. A guard set just above the largest posterior
    trace leaves most steps uncleared.

    A paper-plant run alone is never in that band: its first set is a bare
    window of trace at least 163, and no later step's bound reaches a quarter
    of that. A stack of three is, since the bound sums over runs; alone, a
    scalar plant with the paper plant's noise and channel is, since its prior
    is wide against every window."""

    N = 300
    SCALAR = SystemModel(A=[[0.5]], C=[1.0], Q=[[5.0]], R=0.5)

    @classmethod
    def logs(cls, model, trigger, seeds) -> tuple[np.ndarray, np.ndarray]:
        logs = [closed_loop_records(model, trigger, cls.N, seed) for seed in seeds]
        return (np.array([[r.gamma for r in log] for log in logs]),
                np.array([[r.y_tau for r in log] for log in logs]))

    @staticmethod
    def set_guard(monkeypatch, solver, level) -> float:
        """Set DIVERGENCE_FACTOR so that the run's guard is about ``level``; returns the guard."""
        squared = observability_mod._squared_level(solver.gain)
        monkeypatch.setattr(observer_mod, "DIVERGENCE_FACTOR", level / squared)
        return observer_mod.DIVERGENCE_FACTOR * squared

    @staticmethod
    def step_bounds(runs) -> np.ndarray:
        """Each step's bound, summed over the runs in the loop's order: the
        window traces at step 0, then twice the split traces, which are
        ``fuse``'s, whose bits the loop has."""
        bounds = [sum(float(np.trace(run.shapes[0])) for run in runs)]
        for i in range(1, len(runs[0])):
            t_x, t_y = [], []
            for out in (run[i] for run in runs):
                _, M, _ = fuse(out.measurement_set, out.prior_set)
                t_x.append(float(np.trace(affine_transform(out.measurement_set, M).shape)))
                t_y.append(float(np.trace(
                    affine_transform(out.prior_set, np.eye(len(M)) - M).shape)))
            bounds.append(2.0 * (sum(t_x) + sum(t_y)))
        return np.array(bounds)

    @classmethod
    def exact_share(cls, runs, quick: float) -> float:
        """The share of steps after the first that do not clear ``quick``."""
        return float(np.mean(~(cls.step_bounds(runs)[1:] < quick)))

    @staticmethod
    def spy_eigvalsh(monkeypatch) -> tuple[list[tuple[int, np.ndarray]], list[None]]:
        """Record each ``np.linalg.eigvalsh`` argument with the number of steps
        the loop has begun (``_PsdBlock.reserve`` calls, one list entry each)
        when it is made; returns both lists, which a new run clears."""
        calls, begun = [], []
        eigvalsh, reserve = np.linalg.eigvalsh, observer_mod._PsdBlock.reserve
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append((len(begun), a.copy())) or eigvalsh(a))
        monkeypatch.setattr(observer_mod._PsdBlock, "reserve",
                            lambda block: begun.append(None) or reserve(block))
        return calls, begun

    @staticmethod
    def steps_tested(runs, calls: list[tuple[int, np.ndarray]]) -> list[int]:
        """The steps t whose fusion sum W + P, stacked over the runs, is an
        ``eigvalsh`` argument of ``calls`` made during step t, in call order."""
        sums = np.stack([run.window_shapes[run.pattern] + run.prior_shapes for run in runs],
                        axis=1)
        return [t for t, call in calls
                if 0 < t < len(sums) and call.shape == sums[t].shape and same_bits(call, sums[t])]

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("seeds", [[5], [5, 6, 7]], ids=["scalar-alone", "paper-stack"])
    def test_guard_in_the_fallback_band_keeps_the_bits(self, seeds, bench_model,
                                                       bench_trigger, monkeypatch):
        model = self.SCALAR if len(seeds) == 1 else bench_model
        flags, references = self.logs(model, bench_trigger, seeds)
        solver = WindowSolver(model, bench_trigger, WeightVector.uniform(model.n))
        expected = observer_mod._observe(flags, references, 0, solver)
        largest = max(float(np.trace(run.shapes, axis1=1, axis2=2).max()) for run in expected)
        guard = self.set_guard(monkeypatch, solver, largest * (1 + 1e-9))
        assert largest < guard < observer_mod._singularity_skip_level(
            solver, expected[0].window_shapes)
        assert self.exact_share(expected, guard / 4.0) > 0.8
        if len(seeds) == 1:
            records = closed_loop_records(model, bench_trigger, self.N, seeds[0])
            runs = [observer_run(records, model, bench_trigger)]
        else:
            runs = observer_mod._observe(flags, references, 0, solver)
        for run, default in zip(runs, expected, strict=True):
            for name in ("centers", "shapes", "prior_centers", "prior_shapes",
                         "window_centers", "pattern"):
                assert same_bits(getattr(run, name), getattr(default, name)), name

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("seeds", [[5], [5, 6, 7]], ids=["scalar-alone", "paper-stack"])
    def test_singularity_test_runs_after_exactly_the_uncleared_steps(
            self, seeds, bench_model, bench_trigger, monkeypatch):
        model = self.SCALAR if len(seeds) == 1 else bench_model
        flags, references = self.logs(model, bench_trigger, seeds)
        solver = WindowSolver(model, bench_trigger, WeightVector.uniform(model.n))
        calls, begun = self.spy_eigvalsh(monkeypatch)
        expected = observer_mod._observe(flags, references, 0, solver)
        assert self.steps_tested(expected, calls) == []
        largest = max(float(np.trace(run.shapes, axis1=1, axis2=2).max()) for run in expected)
        guard = self.set_guard(monkeypatch, solver, largest * (1 + 1e-9))
        calls.clear()
        begun.clear()
        runs = observer_mod._observe(flags, references, 0, solver)
        assert guard < observer_mod._singularity_skip_level(solver, runs[0].window_shapes)
        uncleared = np.flatnonzero(~(self.step_bounds(runs) < guard / 4.0))
        assert len(uncleared) > self.N / 2
        assert self.steps_tested(runs, calls) == [t + 1 for t in uncleared if t + 1 < len(runs[0])]
        for run, default in zip(runs, expected, strict=True):
            for name in ("centers", "shapes", "prior_centers", "prior_shapes"):
                assert same_bits(getattr(run, name), getattr(default, name)), name

    def test_guard_below_the_largest_trace_stops_at_its_step(self, bench_trigger, monkeypatch):
        model = self.SCALAR
        records = closed_loop_records(model, bench_trigger, self.N, 5)
        traces = observer_run(records, model, bench_trigger).shapes[:, 0, 0]
        solver = WindowSolver(model, bench_trigger, WeightVector.uniform(1))
        guard = self.set_guard(monkeypatch, solver, float(traces.max()) * (1 - 1e-9))
        step = int(np.flatnonzero(traces > guard)[0])
        assert step > 0 and traces[step] == traces.max()
        with pytest.raises(DivergenceError) as err:
            observer_run(records, model, bench_trigger)
        assert str(err.value) == (
            f"posterior trace {traces[step]:.3e} at step {step} exceeds divergence guard "
            f"{guard:.3e}; the observer has broken down numerically")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(-150, 150),
           st.floats(-150, 150))
    def test_posterior_trace_is_within_twice_the_split_traces(self, n, seed, x_scale,
                                                              y_scale):
        # The loop's outer sum of two PSD split shapes of any rank: p from the
        # traces, [1 + 1/p; 1 + p] as one product and the halves as one sum
        # (``_outer_sum_into`` makes the loop's bits, as TestStackedSteps checks).
        rng = np.random.default_rng(seed)
        split = np.empty((2, 1, n, n))
        for shape, scale in zip(split[:, 0], (x_scale, y_scale)):
            G = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            shape[...] = _symmetrize(10.0**scale * G @ G.T)
        t_x, t_y = _traces(split)[:, 0]
        posterior = np.empty((1, n, n))
        _outer_sum_into(posterior, split)
        assert _traces(posterior)[0] <= 2.0 * (t_x + t_y) * (1 + 1e-12)


class TestSkipLevelOverflow:
    """A skip level whose chain overflows float64 is computed without a warning."""

    def test_room_that_overflows_gives_an_infinite_level(self):
        # In units of 1e-150 the room for the sum's trace is beyond float64:
        # every finite trace is below the level.
        config = paper_plant_in_units(1e150, 1)
        solver = WindowSolver(config.model, config.trigger, WeightVector.uniform(2))
        windows = np.array([solver.window_shape(p) for p in ((0, 0), (0, 1), (1, 0), (1, 1))])
        assert observer_mod._singularity_skip_level(solver, windows) == math.inf

    def test_norm_whose_square_overflows_gives_a_zero_level(self, bench_trigger):
        model = SystemModel(A=[[1e200]], C=[1.0], Q=[[1.0]], R=0.5)
        solver = WindowSolver(model, bench_trigger, WeightVector.uniform(1))
        assert observer_mod._singularity_skip_level(solver, solver.window_shape([1])[None]) == 0.0
        # Its first prior overflows, which the PSD test reports.
        records = [MeasurementRecord(k, True, 0.0) for k in range(5)]
        with pytest.raises(ValueError, match="non-finite"):
            observer_run(records, model, bench_trigger)


class TestLevelsComputedOnce:
    """The levels of a (model, trigger, a) triple are computed by its
    ``WindowSolver`` alone: one SVD of O and one of A (``spectral_norm``) per
    solver, and no SVD, norm of A or cond(O) inside a run."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"solver": 0, "spectral_norm": 0, "svd": 0, "cond": 0}

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return counted

        monkeypatch.setattr(WindowSolver, "__init__", counting("solver", WindowSolver.__init__))
        monkeypatch.setattr(observability_mod, "spectral_norm",
                            counting("spectral_norm", observability_mod.spectral_norm))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "cond", counting("cond", np.linalg.cond))
        return calls

    def test_single_run(self, bench_model, bench_trigger, calls):
        run_closed_loop(SimConfig(model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0],
                                  N=60, seed=1))
        assert calls == {"solver": 1, "spectral_norm": 1, "svd": 2, "cond": 0}

    def test_stacked_sweep(self, bench_model, bench_trigger, calls):
        base = SimConfig(model=bench_model, trigger=bench_trigger, x0=[0.0, 0.0], N=60, seed=0)
        assert len(run_seed_sweep(base, list(range(6)))) == 6
        assert calls == {"solver": 1, "spectral_norm": 1, "svd": 2, "cond": 0}

    def test_none_inside_observe(self, bench_model, bench_trigger, calls):
        logs = [closed_loop_records(bench_model, bench_trigger, 40, seed) for seed in range(3)]
        flags = np.array([[r.gamma for r in log] for log in logs])
        references = np.array([[r.y_tau for r in log] for log in logs])
        solver = WindowSolver(bench_model, bench_trigger, WeightVector.uniform(2))
        calls.update(dict.fromkeys(calls, 0))
        assert len(observer_mod._observe(flags, references, 0, solver)) == 3
        assert calls == {"solver": 0, "spectral_norm": 0, "svd": 0, "cond": 0}

    @pytest.mark.parametrize("model", [
        SystemModel(A=[[0.75, 0.2], [0.5, 0.3]], C=[0.5, 0.5], Q=5.0 * np.eye(2), R=0.5),
        SystemModel(A=np.diag([0.5, 0.5 + 1e-9]), C=[1.0, 1.0], Q=5.0 * np.eye(2), R=0.5),
        orthogonal_plant(6, 3), orthogonal_plant(16, 7),
    ], ids=["paper", "cond-2.5e9", "n6", "n16"])
    def test_cond_has_the_bits_of_np_linalg_cond(self, bench_trigger, model):
        solver = WindowSolver(model, bench_trigger, WeightVector.uniform(model.n))
        assert same_bits(np.array(solver.cond), np.array(np.linalg.cond(solver.matrix)))
