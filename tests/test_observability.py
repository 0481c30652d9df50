"""Observability matrix, uncertainty chains, the worst-case test, and the bound."""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest

from setobs import (
    NotObservableError,
    SystemModel,
    TriggerConfig,
    UnstableSystemError,
    WeightVector,
    contains,
    convergence_bound,
    epsilon_observability,
    observability_matrix,
    spectral_norm,
)
import setobs.observability as observability_mod
from setobs.observability import WindowSolver

from conftest import orthogonal_plant, same_bits, scalar_chain
from oracles import window_shape_two_solves


def bench_window_trace(flags, threshold=0.6, transmit_error=1e-4) -> float:
    """Brute-force oracle for the benchmark system: explicit adjugate inverse.

    Independent of the library path: uncertainties via direct sqrt sums, the
    2x2 inverse written out by hand, trace of O^-1 diag(W_i/a_i) O^-T.
    """
    CQC = 2.5  # [0.5,0.5] @ 5I @ [0.5,0.5]^T
    R = 0.5
    w0 = scalar_chain([transmit_error if flags[0] else threshold, R])
    w1 = scalar_chain([transmit_error if flags[1] else threshold, CQC, R])
    O = np.array([[0.5, 0.5], [0.625, 0.25]])
    det = O[0, 0] * O[1, 1] - O[0, 1] * O[1, 0]
    Oinv = np.array([[O[1, 1], -O[0, 1]], [-O[1, 0], O[0, 0]]]) / det
    D_inv = np.diag([w0 / 0.5, w1 / 0.5])
    return float(np.trace(Oinv @ D_inv @ Oinv.T))


def enumerated_traces(solver: WindowSolver) -> dict[str, float]:
    """Trace of every one of the 2^n patterns, keyed by bit string in sorted order."""
    return {
        "".join(map(str, bits)): solver.pattern_trace(bits)
        for bits in product((0, 1), repeat=solver.n)
    }


class TestSystemModelType:
    def test_rejects_indefinite_q(self):
        with pytest.raises(ValueError, match="positive definite"):
            SystemModel(A=np.eye(2), C=[1.0, 0.0], Q=np.diag([1.0, 0.0]), R=1.0)

    def test_rejects_tiny_asymmetric_q(self):
        # eigvalsh reads one triangle only; the symmetrized Q has eigenvalue -3e-18.
        with pytest.raises(ValueError, match="asymmetry"):
            SystemModel(A=np.eye(2), C=[1.0, 0.0], Q=[[1e-18, 8e-18], [0.0, 1e-18]], R=1.0)

    def test_rejects_nonpositive_r(self, bench_model):
        with pytest.raises(ValueError, match="R"):
            SystemModel(A=bench_model.A, C=bench_model.C, Q=bench_model.Q, R=0.0)

    def test_rejects_inconsistent_dims(self):
        with pytest.raises(ValueError):
            SystemModel(A=np.eye(2), C=[1.0], Q=np.eye(2), R=1.0)

    @pytest.mark.parametrize("C, shape", [
        ([[0.5], [0.5]], (2, 1)), ([0.5], (1,)), ([0.5, 0.5, 0.5], (3,)),
        ([[0.5, 0.5], [0.5, 0.5]], (2, 2)), ([[[0.5, 0.5]]], (1, 1, 2)), (0.5, ()),
    ])
    def test_c_of_any_other_shape_than_a_row_is_refused(self, C, shape):
        # A column used to be raveled and read as the row.
        with pytest.raises(ValueError, match=rf"C must have shape \(2,\) or \(1, 2\), "
                                             rf"got shape {re.escape(str(shape))}"):
            SystemModel(A=np.eye(2), C=C, Q=np.eye(2), R=1.0)

    def test_q_of_other_shape_is_refused(self):
        with pytest.raises(ValueError, match=r"^Q must be 2x2, got \(3, 3\)$"):
            SystemModel(A=np.eye(2), C=[1.0, 0.0], Q=np.eye(3), R=1.0)

    def test_c_as_one_row_matrix_is_the_row(self, bench_model):
        model = SystemModel(A=bench_model.A, C=[bench_model.C.tolist()], Q=bench_model.Q, R=0.5)
        assert model.C.shape == (2,) and model.C.tolist() == bench_model.C.tolist()


class TestTriggerConfigType:
    def test_rejects_error_not_below_threshold(self):
        with pytest.raises(ValueError, match="smaller"):
            TriggerConfig(threshold=0.5, transmit_error=0.5)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            TriggerConfig(threshold=0.0, transmit_error=0.0)

    @pytest.mark.parametrize("transmit_error", [0.0, -0.1])
    def test_rejects_nonpositive_transmit_error(self, transmit_error):
        with pytest.raises(ValueError, match=rf"^transmit_error must be positive, "
                                             rf"got {transmit_error}$"):
            TriggerConfig(threshold=0.5, transmit_error=transmit_error)

    def test_uncertainty_selection(self, bench_trigger):
        assert bench_trigger.output_uncertainty(False) == 0.6
        assert bench_trigger.output_uncertainty(True) == 1e-4


class TestWeightVectorType:
    def test_uniform_sums_to_one(self):
        w = WeightVector.uniform(7)
        assert len(w) == 7
        assert float(np.sum(w.weights)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            WeightVector([0.5, 0.6])

    def test_rejects_nonpositive_entry(self):
        with pytest.raises(ValueError, match="positive"):
            WeightVector([1.0, 0.0])


class TestObservabilityMatrix:
    def test_bench_matrix(self, bench_model):
        O = observability_matrix(bench_model)
        assert np.allclose(O, [[0.5, 0.5], [0.625, 0.25]], atol=1e-15)
        assert abs(np.linalg.det(O) - (-0.1875)) < 1e-15

    def test_rank_deficient_stack(self):
        model = SystemModel(A=np.eye(2), C=[1.0, 0.0], Q=np.eye(2), R=1.0)
        O = observability_matrix(model)
        assert np.allclose(O, [[1.0, 0.0], [1.0, 0.0]])

    def test_scalar_system(self):
        model = SystemModel(A=[[0.5]], C=[2.0], Q=[[1.0]], R=1.0)
        assert np.allclose(observability_matrix(model), [[2.0]])


class TestMeasurementUncertainty:
    # W[flag, i] of WindowSolver: the output uncertainty at window offset i.
    @pytest.fixture
    def table(self, bench_model, bench_trigger, bench_weights) -> np.ndarray:
        return WindowSolver(bench_model, bench_trigger, bench_weights).uncertainty

    def test_no_event_offset_zero(self, table):
        assert table[0, 0] == pytest.approx(scalar_chain([0.6, 0.5]), rel=1e-12)

    def test_no_event_offset_one(self, table):
        assert table[0, 1] == pytest.approx(scalar_chain([0.6, 2.5, 0.5]), rel=1e-12)

    def test_event_offset_zero(self, table):
        assert table[1, 0] == pytest.approx(scalar_chain([1e-4, 0.5]), rel=1e-12)

    def test_finite_when_a_disturbance_term_rounds_below_zero(self, bench_trigger):
        # Q has eigenvalues 1 and about 1e-17, and C lies along the weak
        # direction: C Q C^T rounds to -1.7e-18, far below resolution.
        model = SystemModel(
            A=[[0.5, 0.2], [0.1, 0.4]], C=[-0.903565550871845, -0.42844987487179803],
            Q=[[0.1835692952776594, -0.38713254720950924],
               [-0.38713254720950924, 0.8164307047223407]],
            R=0.5,
        )
        table = WindowSolver(model, bench_trigger, WeightVector.uniform(2)).uncertainty
        assert np.all(np.isfinite(table))
        assert np.all(table[:, 1] >= table[:, 0])


class TestEpsilonObservability:
    def test_bench_report_matches_bruteforce(self, bench_model, bench_trigger, bench_weights):
        report = epsilon_observability(bench_model, bench_trigger, bench_weights)
        assert report.full_rank
        assert report.horizon == 1
        traces = enumerated_traces(WindowSolver(bench_model, bench_trigger, bench_weights))
        assert len(traces) == 4
        expected = {
            f"{f0}{f1}": bench_window_trace((f0, f1)) for f0 in (0, 1) for f1 in (0, 1)
        }
        for pattern, trace in traces.items():
            assert trace == pytest.approx(expected[pattern], rel=1e-12)
        assert report.worst_pattern == "00"
        assert report.epsilon == pytest.approx(max(expected.values()), rel=1e-12)
        assert report.epsilon == pytest.approx(323.43, abs=0.01)

    def test_ill_conditioned_plant_epsilon_exact(self, bench_trigger):
        # cond(O) is about 2.5e9, so cond(O O^T) about 6e18: the Gram matrix
        # does not factor in float64, yet O passes the rank test. The Gram
        # diagonal is checked against its exact value from O's float entries.
        model = SystemModel(A=np.diag([0.5, 0.5 + 1e-9]), C=[1.0, 1.0], Q=5.0 * np.eye(2),
                            R=0.5)
        solver = WindowSolver(model, bench_trigger, WeightVector.uniform(2))
        assert np.linalg.cond(solver.matrix) > 1e9
        (a, b), (c, d) = [[Fraction(v) for v in row] for row in solver.matrix]
        det = a * d - b * c
        gram_inv_diag = [(d * d + c * c) / det**2, (b * b + a * a) / det**2]
        exact = sum(Fraction(w) / Fraction(weight) * g for w, weight, g
                    in zip(solver.uncertainty[0], solver.weights, gram_inv_diag))
        assert solver.epsilon == pytest.approx(float(exact), rel=1e-14)
        report = epsilon_observability(model, bench_trigger)
        assert report.full_rank and report.epsilon == solver.epsilon

    def test_rank_deficient_system(self, bench_trigger):
        model = SystemModel(A=np.eye(2), C=[1.0, 0.0], Q=np.eye(2), R=1.0)
        report = epsilon_observability(model, bench_trigger)
        assert not report.full_rank
        assert report.epsilon is None
        assert report.worst_pattern is None

    def test_pattern_traces_equal_when_error_matches_threshold(self, bench_model):
        trigger = TriggerConfig(threshold=0.6, transmit_error=0.6 * (1 - 1e-12))
        solver = WindowSolver(bench_model, trigger, WeightVector.uniform(2))
        values = list(enumerated_traces(solver).values())
        assert np.allclose(values, values[0], rtol=1e-9)

    def test_epsilon_is_max_of_traces(self, bench_model, bench_trigger):
        report = epsilon_observability(bench_model, bench_trigger)
        solver = WindowSolver(bench_model, bench_trigger, WeightVector.uniform(2))
        traces = enumerated_traces(solver)
        assert report.epsilon == max(traces.values())
        assert traces[report.worst_pattern] == report.epsilon

    def test_closed_form_is_enumerated_max_on_random_systems(self):
        # Bit for bit, and the first maximal pattern in sorted order is all zeros.
        rng = np.random.default_rng(2203)
        checked = 0
        while checked < 200:
            n = int(rng.integers(1, 9))
            A = rng.standard_normal((n, n))
            A *= rng.uniform(0.2, 1.5) / max(np.linalg.norm(A, 2), 1e-9)
            G = rng.standard_normal((n, n))
            model = SystemModel(
                A=A, C=rng.standard_normal(n), Q=G @ G.T + 0.1 * np.eye(n),
                R=float(rng.uniform(0.05, 2.0)),
            )
            threshold = float(rng.uniform(0.05, 5.0))
            trigger = TriggerConfig(threshold, threshold * 10.0 ** rng.uniform(-8.0, 0.0))
            raw = rng.uniform(0.1, 1.0, n)
            weights = WeightVector(raw / raw.sum())
            try:
                solver = WindowSolver(model, trigger, weights)
            except NotObservableError:
                continue
            traces = enumerated_traces(solver)
            argmax = max(traces, key=traces.get)
            report = epsilon_observability(model, trigger, weights)
            assert report.epsilon == solver.epsilon == traces[argmax]
            assert argmax == report.worst_pattern == "0" * n
            checked += 1

    def test_pattern_trace_rejects_wrong_length(self, bench_model, bench_trigger, bench_weights):
        solver = WindowSolver(bench_model, bench_trigger, bench_weights)
        with pytest.raises(ValueError, match="pattern has length 3, expected 2"):
            solver.pattern_trace((0, 0, 0))
        with pytest.raises(ValueError, match=r"one row of flags, got shape \(4, 2\)"):
            solver.pattern_trace(np.zeros((4, 2), dtype=int))
        with pytest.raises(ValueError, match="one row of flags"):
            solver.pattern_trace(np.zeros((2, 2, 2), dtype=int))

    @pytest.mark.parametrize("n", range(1, 21))
    @pytest.mark.bit_identity
    def test_stacked_traces_equal_single_pattern_sums(self, n):
        # Weights spread over 10 decades, so the terms of one sum do too. Up to
        # n = 12, every pattern in blocks of one pattern (low = 0), of half the
        # flags and of all of them (one block); beyond, a sample of 4096
        # patterns from blocks of 2048.
        rng = np.random.default_rng(n)
        spread = 10.0 ** rng.uniform(-5.0, 5.0, n)
        trigger = TriggerConfig(threshold=0.6, transmit_error=1e-4)
        solver = WindowSolver(orthogonal_plant(n, seed=n), trigger,
                              WeightVector(spread / spread.sum()))
        if n <= 12:
            codes, lows = np.arange(2**n), sorted({0, n // 2, n})
        else:
            codes, lows = rng.integers(0, 2**n, 4096), [11]
        flags = (codes[:, None] >> np.arange(n - 1, -1, -1)) & 1
        t0, t1 = solver._trace_terms
        expected = [float(np.sum(np.where(row.astype(bool), t1, t0))) for row in flags]
        for low in lows:
            blocks = list(solver.pattern_trace_blocks(low))
            assert [block.shape for block in blocks] == [(2**low,)] * 2 ** (n - low)
            assert np.concatenate(blocks)[codes].tolist() == expected
        single = solver.pattern_trace(flags[-1])
        assert type(single) is float and single == expected[-1]
        assert type(solver.epsilon) is float

    @pytest.mark.parametrize("n", range(1, 21))
    @pytest.mark.bit_identity
    def test_tree_traces_of_hostile_terms_equal_numpy_sums(self, n):
        # Flag 0 terms of one scale, so that the order of additions shows in
        # the patterns of few events; flag 1 terms of 0.0, subnormals and
        # magnitudes from 1e-300 to 1e300. Blocks of one pattern (the first
        # 4096 beyond n = 12), of half the flags and of all of them; up to
        # 4096 patterns of each are compared.
        rng = np.random.default_rng(100 + n)
        solver = WindowSolver(orthogonal_plant(n, seed=n),
                              TriggerConfig(threshold=0.6, transmit_error=1e-4))
        kind = rng.integers(0, 3, n)
        hostile = np.choose(kind, [np.zeros(n), 5e-324 * rng.integers(1, 2**52, n),
                                   10.0 ** rng.uniform(-300.0, 300.0, n)])
        terms = np.stack((10.0 ** rng.uniform(-1.0, 1.0, n), hostile))
        solver._trace_terms = terms
        for low in sorted({0, n // 2, n}):
            blocks = list(islice(solver.pattern_trace_blocks(low), 2**12))
            count = len(blocks) * 2**low
            codes = np.arange(count) if count <= 2**12 else rng.choice(count, 2**12, False)
            table = np.where((codes[:, None] >> np.arange(n - 1, -1, -1)) & 1, *terms[::-1])
            traces = np.concatenate(blocks)[codes].tolist()
            assert traces == [float(np.sum(row)) for row in table]
            assert traces == table.sum(axis=-1).tolist()
            # Each block is its own array: writing to one changes no other,
            # nor the terms.
            for i, block in enumerate(blocks):
                block[...] = i
            assert all((block == i).all() for i, block in enumerate(blocks))
            assert same_bits(solver._trace_terms, terms)

    @pytest.mark.bit_identity
    def test_pairwise_tree_is_numpy_summation_order(self):
        # The tree's sums against np.sum on terms of mixed scales, across
        # numpy's thresholds of 8 terms, 128 terms and its halving above.
        rng = np.random.default_rng(3)

        def total(tree, terms):
            if isinstance(tree, tuple):
                return total(tree[0], terms) + total(tree[1], terms)
            return terms[tree]

        for n in [*range(1, 40), 127, 128, 129, 135, 256, 300, 1000]:
            terms = 10.0 ** rng.uniform(-3.0, 3.0, n)
            tree = observability_mod._pairwise_tree(range(n))
            assert total(tree, terms.tolist()) == float(np.sum(terms))

    def test_monotone_in_threshold(self, bench_model, bench_weights):
        last = 0.0
        for gamma in np.linspace(0.3, 3.0, 12):
            trigger = TriggerConfig(threshold=float(gamma), transmit_error=1e-4)
            report = epsilon_observability(bench_model, trigger, bench_weights)
            assert report.epsilon >= last - 1e-12
            last = report.epsilon


class TestInitialStateSet:
    # The initial-state set is the window ellipsoid of the first n records.
    def test_zero_references_center_zero(self, bench_model, bench_trigger, bench_weights):
        out = WindowSolver(bench_model, bench_trigger, bench_weights).ellipsoid([0, 0], [0.0, 0.0])
        assert np.allclose(out.center, 0.0)

    def test_shape_trace_matches_pattern_trace(self, bench_model, bench_trigger, bench_weights):
        solver = WindowSolver(bench_model, bench_trigger, bench_weights)
        out = solver.ellipsoid([0, 0], [0.3, -0.1])
        assert np.trace(out.shape) == pytest.approx(bench_window_trace((0, 0)), rel=1e-12)

    def test_contains_consistent_initial_state(self, bench_model, bench_trigger, bench_weights):
        # Closed-loop oracle: simulate the plant, feed the first n records back.
        from setobs import SimConfig, run_closed_loop

        solver = WindowSolver(bench_model, bench_trigger, bench_weights)
        for seed in range(5):
            config = SimConfig(
                model=bench_model, trigger=bench_trigger, x0=[1.0, -2.0], N=5, seed=seed
            )
            trace, _, _ = run_closed_loop(config)
            window = trace.records[:2]
            out = solver.ellipsoid([r.gamma for r in window], [r.y_tau for r in window])
            inside, _ = contains(out, trace.states[0])
            assert inside

    def test_rank_deficient_rejected(self, bench_trigger):
        model = SystemModel(A=np.eye(2), C=[1.0, 0.0], Q=np.eye(2), R=1.0)
        with pytest.raises(NotObservableError):
            WindowSolver(model, bench_trigger, WeightVector.uniform(2))


class TestWindowShapeCache:
    """``WindowSolver.ellipsoid`` computes and PSD-tests its shape at every call;
    the solver holds no shape between calls."""

    @staticmethod
    def random_system(n: int, seed: int):
        rng = np.random.default_rng(seed)
        model = SystemModel(
            A=0.9 * np.linalg.qr(rng.standard_normal((n, n)))[0],
            C=rng.standard_normal(n),
            Q=np.eye(n),
            R=0.5,
        )
        a = rng.uniform(0.5, 1.5, n)
        return model, TriggerConfig(0.6, 1e-4), WeightVector(a / a.sum()), rng

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cached_shape_bit_identical_to_fresh_solver(self, n):
        model, trigger, a, rng = self.random_system(n, 40 + n)
        solver = WindowSolver(model, trigger, a)
        O = observability_matrix(model)
        for flags in product((0, 1), repeat=n):
            refs = rng.standard_normal(n)
            first = solver.ellipsoid(flags, refs)
            second = solver.ellipsoid(flags, rng.standard_normal(n))
            fresh = WindowSolver(model, trigger, a).ellipsoid(flags, refs)
            assert np.array_equal(second.shape, fresh.shape)
            assert np.array_equal(first.center, fresh.center)
            # The window formula of WindowSolver.ellipsoid, written out.
            w = np.array([solver.uncertainty[f, i] for i, f in enumerate(flags)])
            half = np.linalg.solve(O, np.diag(w / a.weights))
            shape = np.linalg.solve(O, half.T).T
            assert np.array_equal(second.shape, (shape + shape.T) / 2.0)

    def test_indefinite_shape_rejected_every_time(self, bench_model, bench_trigger):
        # Weights that skipped validation make the window shape indefinite.
        bad = object.__new__(WeightVector)
        object.__setattr__(bad, "weights", np.array([1.5, -0.5]))
        solver = WindowSolver(bench_model, bench_trigger, bad)
        for _ in range(2):
            with pytest.raises(ValueError, match="eigenvalue"):
                solver.ellipsoid([0, 0], [0.1, 0.2])


class TestWindowShapes:
    """``window_shapes`` makes every pattern's shape in one stacked pair of
    solves, with the bits of that pattern's own pair."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.bit_identity
    def test_window_shapes_equal_per_pattern_solves(self, n):
        model, trigger, a, _ = TestWindowShapeCache.random_system(n, 70 + n)
        solver = WindowSolver(model, trigger, a)
        patterns = np.array(list(product((0, 1), repeat=n)), dtype=bool)
        shapes = solver.window_shapes(patterns)
        assert same_bits(shapes, [window_shape_two_solves(solver, p) for p in patterns])
        assert all(same_bits(solver.window_shape(p), shape) for p, shape in zip(patterns, shapes))

    @pytest.mark.parametrize("pattern, message", [
        ([1], "pattern has length 1, expected 2"),
        ([1, 0, 1], "pattern has length 3, expected 2"),
        ([[1, 0], [0, 1]], "pattern must be one row of flags, got shape (2, 2)"),
    ])
    def test_malformed_pattern_is_refused(self, bench_model, bench_trigger, bench_weights,
                                          pattern, message):
        solver = WindowSolver(bench_model, bench_trigger, bench_weights)
        for call in (solver.pattern_trace, solver.window_shape,
                     lambda p: solver.window_shapes([p])):
            with pytest.raises(ValueError) as err:
                call(pattern)
            assert str(err.value) == message


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_bench_matrix(self, bench_model):
        # Oracle: sqrt of the largest eigenvalue of A^T A.
        expected = float(np.sqrt(np.max(np.linalg.eigvalsh(bench_model.A.T @ bench_model.A))))
        assert spectral_norm(bench_model.A) == pytest.approx(expected, rel=1e-12)
        assert spectral_norm(bench_model.A) == pytest.approx(0.96209, abs=1e-5)

    def test_diagonal_with_negative_entry(self):
        assert spectral_norm(np.diag([0.5, -0.7])) == pytest.approx(0.7)

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError, match=r"^matrix must be square, got \(2, 3\)$"):
            spectral_norm(np.ones((2, 3)))


class TestConvergenceBound:
    def test_bench_value(self, bench_model, bench_trigger, bench_weights):
        bound = convergence_bound(bench_model, bench_trigger, bench_weights)
        assert bound == pytest.approx(557.8243, abs=0.01)

    def test_vanishing_uncertainty_drives_bound_to_zero(self, bench_model):
        scales = [1.0, 1e-2, 1e-4, 1e-6]
        bounds = []
        for s in scales:
            model = SystemModel(
                A=bench_model.A, C=bench_model.C, Q=s * bench_model.Q, R=s * 0.5
            )
            trigger = TriggerConfig(threshold=s * 0.6, transmit_error=s * 1e-4)
            bounds.append(convergence_bound(model, trigger))
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] < 1e-2 * bounds[0]

    def test_zero_dynamics_denominator_one(self):
        # Scalar model: O = [1], a = [1], so epsilon = W = (sqrt(1.0) + sqrt(0.5))^2.
        model = SystemModel(A=[[0.0]], C=[1.0], Q=[[2.0]], R=0.5)
        trigger = TriggerConfig(threshold=1.0, transmit_error=0.1)
        assert epsilon_observability(model, trigger).epsilon == pytest.approx(
            scalar_chain([1.0, 0.5]), rel=1e-12
        )
        expected = float(np.sqrt(scalar_chain([1.0, 0.5])) + np.sqrt(2.0))
        assert convergence_bound(model, trigger) == pytest.approx(expected, rel=1e-12)

    def test_unstable_rejected(self, bench_trigger):
        model = SystemModel(A=[[1.0, 0.0], [0.0, 0.5]], C=[1.0, 1.0], Q=np.eye(2), R=0.5)
        with pytest.raises(UnstableSystemError):
            convergence_bound(model, bench_trigger)

    def test_unstable_reported_before_unobservable(self, bench_trigger):
        model = SystemModel(A=np.eye(2), C=[1.0, 0.0], Q=np.eye(2), R=0.5)
        with pytest.raises(UnstableSystemError):
            convergence_bound(model, bench_trigger)

    def test_norm_computed_once(self, bench_model, bench_trigger, bench_weights, monkeypatch):
        calls = []
        original = observability_mod.spectral_norm
        monkeypatch.setattr(observability_mod, "spectral_norm",
                            lambda A: calls.append(None) or original(A))
        bound = convergence_bound(bench_model, bench_trigger, bench_weights)
        assert len(calls) == 1
        assert bound == WindowSolver(bench_model, bench_trigger, bench_weights).bound()

    def test_bound_dominates_every_pattern(self, bench_model, bench_trigger, bench_weights):
        solver = WindowSolver(bench_model, bench_trigger, bench_weights)
        bound = convergence_bound(bench_model, bench_trigger, bench_weights)
        denom = 1.0 - spectral_norm(bench_model.A)
        for trace in enumerated_traces(solver).values():
            assert bound >= np.sqrt(trace) / denom
