"""Ellipsoid type and calculus primitives."""

from __future__ import annotations

import numpy as np
import pytest

from setobs import (
    DegenerateOperandError,
    Ellipsoid,
    SingularShapeError,
    affine_transform,
    contains,
    minkowski_sum_outer,
    optimal_fusion_matrix,
    optimal_sum_parameter,
    sample_point,
)

from conftest import rand_spd, scalar_chain
from oracles import (
    SumParameterRange,
    intersection_outer,
    minkowski_sum_chain,
    sum_parameter_range,
)


class TestEllipsoidType:
    def test_resymmetrizes_small_asymmetry(self):
        S = np.array([[1.0, 2e-10], [0.0, 1.0]])
        ell = Ellipsoid([0.0, 0.0], S)
        assert np.array_equal(ell.shape, ell.shape.T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetry"):
            Ellipsoid([0.0, 0.0], [[1.0, 0.1], [0.0, 1.0]])

    def test_rejects_indefinite_shape(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            Ellipsoid([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            Ellipsoid([0.0, 0.0, 0.0], np.eye(2))

    def test_rejects_tiny_indefinite_shape(self):
        # Eigenvalue -3e-18 is as negative as the shape is large: the floor is relative.
        with pytest.raises(ValueError, match="eigenvalue"):
            Ellipsoid([0.0, 0.0], np.diag([1e-18, -3e-18]))

    def test_accepts_zero_shape(self):
        assert Ellipsoid([1.0], [[0.0]]).dim == 1


class TestAffineTransform:
    def test_identity_shifts_center_only(self):
        out = affine_transform(Ellipsoid([0.0, 0.0], np.eye(2)), np.eye(2), [1.0, 2.0])
        assert np.allclose(out.center, [1.0, 2.0])
        assert np.allclose(out.shape, np.eye(2))

    def test_bench_matrix_maps_shape(self):
        A = np.array([[0.75, 0.2], [0.5, 0.3]])
        out = affine_transform(Ellipsoid([0.0, 0.0], 5.0 * np.eye(2)), A)
        expected = A @ (5.0 * np.eye(2)) @ A.T  # direct product oracle
        assert np.allclose(out.shape, expected, atol=1e-14)
        assert np.allclose(out.center, 0.0)

    def test_reflection_preserves_shape(self):
        out = affine_transform(Ellipsoid([1.0], [[4.0]]), [[-1.0]], [0.0])
        assert out.center[0] == -1.0
        assert out.shape[0, 0] == 4.0

    def test_rejects_mismatched_matrix(self):
        with pytest.raises(ValueError, match="columns"):
            affine_transform(Ellipsoid([0.0, 0.0], np.eye(2)), np.eye(3))


class TestSumParameterRange:
    def test_proportional_operands_single_root(self):
        r = sum_parameter_range(4.0 * np.eye(2), np.eye(2))
        assert r.lower == pytest.approx(2.0, rel=1e-12)
        assert r.upper == pytest.approx(2.0, rel=1e-12)

    def test_diagonal_roots_are_ratios(self):
        r = sum_parameter_range(np.diag([1.0, 9.0]), np.eye(2))
        assert r.lower == pytest.approx(1.0, rel=1e-12)
        assert r.upper == pytest.approx(3.0, rel=1e-12)

    def test_coupled_operand(self):
        # eigenvalues of [[2,1],[1,2]] are 1 and 3
        r = sum_parameter_range(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2))
        assert r.lower == pytest.approx(1.0, rel=1e-12)
        assert r.upper == pytest.approx(np.sqrt(3.0), rel=1e-12)

    def test_singular_second_operand_rejected(self):
        with pytest.raises(SingularShapeError):
            sum_parameter_range(np.eye(2), np.diag([1.0, 0.0]))

    def test_singular_first_operand_rejected(self):
        with pytest.raises(SingularShapeError):
            sum_parameter_range(np.diag([1.0, 0.0]), np.eye(2))

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            SumParameterRange(2.0, 1.0)
        with pytest.raises(ValueError):
            SumParameterRange(0.0, 1.0)


class TestOptimalSumParameter:
    def test_scalar_trace_ratio(self):
        assert optimal_sum_parameter([[0.6]], [[0.5]]) == pytest.approx(
            np.sqrt(0.6 / 0.5), rel=1e-12
        )

    def test_equal_traces_give_one(self):
        S = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert optimal_sum_parameter(S, np.diag([1.5, 1.5])) == pytest.approx(1.0, rel=1e-12)

    def test_trace_ratio_nine(self):
        assert optimal_sum_parameter(9.0 * np.eye(2), np.eye(2)) == pytest.approx(3.0)

    def test_zero_trace_rejected(self):
        with pytest.raises(DegenerateOperandError):
            optimal_sum_parameter([[1.0]], [[0.0]])
        with pytest.raises(DegenerateOperandError):
            optimal_sum_parameter([[0.0]], [[1.0]])

    def test_clamp_skipped_for_singular_operands(self):
        # Q1 singular: the range is unavailable, the trace ratio is still returned.
        Q1 = np.diag([2.0, 0.0])
        Q2 = np.eye(2)
        assert optimal_sum_parameter(Q1, Q2) == pytest.approx(1.0, rel=1e-12)


class TestMinkowskiSum:
    def test_scalar_closed_form_at_optimal_p(self):
        p = optimal_sum_parameter([[0.6]], [[0.5]])
        out = minkowski_sum_outer(Ellipsoid([0.0], [[0.6]]), Ellipsoid([0.0], [[0.5]]), p)
        assert out.shape[0, 0] == pytest.approx(scalar_chain([0.6, 0.5]), rel=1e-12)

    def test_degenerate_operand_exact_branch(self):
        out = minkowski_sum_outer(
            Ellipsoid([1.0, 2.0], np.zeros((2, 2))), Ellipsoid([3.0, 4.0], np.eye(2)), 1.0
        )
        assert np.allclose(out.center, [4.0, 6.0])
        assert np.allclose(out.shape, np.eye(2))

    def test_tiny_operand_is_kept(self):
        # A point is a zero shape, not a small one: 1e-13 I still widens the sum.
        big = Ellipsoid([0.0, 0.0], np.eye(2))
        tiny = Ellipsoid([1.0, 1.0], 1e-13 * np.eye(2))
        expected = scalar_chain([2.0, 2e-13])
        for operands in ((big, tiny), (tiny, big)):
            out = minkowski_sum_outer(*operands)
            assert np.allclose(out.center, [1.0, 1.0])
            assert np.trace(out.shape) == pytest.approx(expected, rel=1e-12)
            assert np.trace(out.shape) > 2.0 + 1e-6

    def test_equal_shapes_at_unit_p(self):
        out = minkowski_sum_outer(
            Ellipsoid([1.0, 0.0], np.eye(2)), Ellipsoid([0.0, 1.0], np.eye(2)), 1.0
        )
        assert np.allclose(out.center, [1.0, 1.0])
        assert np.allclose(out.shape, 4.0 * np.eye(2))

    def test_nonpositive_p_rejected(self):
        e = Ellipsoid([0.0], [[1.0]])
        with pytest.raises(ValueError, match="positive"):
            minkowski_sum_outer(e, e, 0.0)
        with pytest.raises(ValueError, match="positive"):
            minkowski_sum_outer(e, e, -1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            minkowski_sum_outer(Ellipsoid([0.0], [[1.0]]), Ellipsoid([0.0, 0.0], np.eye(2)))

    def test_sampled_sums_contained_across_admissible_p(self):
        # >= 1000 sampled point pairs per ellipsoid pair, each tested at
        # several p in the admissible interval; membership checked by a
        # direct Cholesky solve independent of contains().
        from scipy.linalg import cho_factor, cho_solve

        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            e1 = Ellipsoid(rng.standard_normal(d), rand_spd(rng, d))
            e2 = Ellipsoid(rng.standard_normal(d), rand_spd(rng, d))
            sums = sample_point(e1, rng, size=1000) + sample_point(e2, rng, size=1000)
            prange = sum_parameter_range(e1.shape, e2.shape)
            for p in np.linspace(prange.lower, prange.upper, 5):
                out = minkowski_sum_outer(e1, e2, float(p))
                residual = sums - out.center
                solved = cho_solve(cho_factor(out.shape), residual.T).T
                dist = np.einsum("ij,ij->i", residual, solved)
                assert np.all(dist <= 1.0 + 1e-9)

    def test_optimal_p_minimizes_trace_over_range(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            Q1, Q2 = rand_spd(rng, d), rand_spd(rng, d)
            p_star = optimal_sum_parameter(Q1, Q2)
            best = np.trace((1 + 1 / p_star) * Q1 + (1 + p_star) * Q2)
            prange = sum_parameter_range(Q1, Q2)
            for p in np.linspace(prange.lower, prange.upper, 50):
                trial = np.trace((1 + 1 / p) * Q1 + (1 + p) * Q2)
                assert best <= trial * (1 + 1e-9)


class TestMinkowskiChain:
    def test_scalar_chain_oracle(self):
        ells = [Ellipsoid([0.0], [[s]]) for s in (0.6, 2.5, 0.5)]
        out = minkowski_sum_chain(ells)
        assert out.shape[0, 0] == pytest.approx(scalar_chain([0.6, 2.5, 0.5]), rel=1e-12)

    def test_single_element_identity(self):
        e = Ellipsoid([1.0, 2.0], np.eye(2))
        out = minkowski_sum_chain([e])
        assert out is e

    def test_zero_operands_absorbed(self):
        S = np.array([[2.0, 0.0], [0.0, 3.0]])
        point = Ellipsoid([0.0, 0.0], np.zeros((2, 2)))
        out = minkowski_sum_outer(minkowski_sum_outer(Ellipsoid([0.0, 0.0], S), point), point)
        assert np.array_equal(out.shape, S)
        assert np.array_equal(minkowski_sum_outer(point, Ellipsoid([0.0, 0.0], S)).shape, S)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            minkowski_sum_chain([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            minkowski_sum_chain([Ellipsoid([0.0], [[1.0]]), Ellipsoid([0.0, 0.0], np.eye(2))])

    def test_scalar_chain_identity_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            values = rng.uniform(0.01, 10.0, size=rng.integers(2, 8))
            out = minkowski_sum_chain([Ellipsoid([0.0], [[v]]) for v in values])
            assert out.shape[0, 0] == pytest.approx(scalar_chain(values), rel=1e-12)


def fusion_objective(M: np.ndarray, Q1: np.ndarray, Q2: np.ndarray) -> float:
    I = np.eye(M.shape[0])
    return float(np.trace(M @ Q1 @ M.T) + np.trace((I - M) @ Q2 @ (I - M).T))


class TestOptimalFusionMatrix:
    def test_symmetric_operands(self):
        assert np.allclose(optimal_fusion_matrix(np.eye(2), np.eye(2)), 0.5 * np.eye(2))

    def test_scalar_ratio(self):
        assert optimal_fusion_matrix([[1.0]], [[3.0]])[0, 0] == pytest.approx(0.75)

    def test_diagonal_solve(self):
        M = optimal_fusion_matrix(np.diag([2.0, 8.0]), np.diag([2.0, 2.0]))
        assert np.allclose(M, np.diag([0.5, 0.2]))

    def test_singular_sum_rejected_with_diagnostic(self):
        with pytest.raises(SingularShapeError, match="eigenvalue"):
            optimal_fusion_matrix(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_minimizes_trace_objective(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            Q1, Q2 = rand_spd(rng, d), rand_spd(rng, d)
            M = optimal_fusion_matrix(Q1, Q2)
            base = fusion_objective(M, Q1, Q2)
            for _ in range(50):
                delta = rng.standard_normal((d, d))
                delta *= 0.1 * rng.random() / max(np.linalg.norm(delta), 1e-12)
                assert base <= fusion_objective(M + delta, Q1, Q2) * (1 + 1e-12)


class TestIntersectionOuter:
    def test_identity_matrix_returns_first(self):
        e1 = Ellipsoid([1.0, 2.0], np.diag([1.0, 2.0]))
        e2 = Ellipsoid([0.0, 0.0], np.eye(2))
        out = intersection_outer(e1, e2, np.eye(2))
        assert np.allclose(out.center, e1.center)
        assert np.allclose(out.shape, e1.shape)

    def test_zero_matrix_returns_second(self):
        e1 = Ellipsoid([1.0, 2.0], np.diag([1.0, 2.0]))
        e2 = Ellipsoid([0.5, 0.5], np.eye(2))
        out = intersection_outer(e1, e2, np.zeros((2, 2)))
        assert np.allclose(out.center, e2.center)
        assert np.allclose(out.shape, e2.shape)

    def test_equal_unit_balls_at_optimal_m(self):
        e = Ellipsoid([0.0, 0.0], np.eye(2))
        M = optimal_fusion_matrix(e.shape, e.shape)
        out = intersection_outer(e, e, M)
        assert np.allclose(out.center, 0.0)
        assert np.allclose(out.shape, np.eye(2))

    def test_wrong_matrix_size_rejected(self):
        e = Ellipsoid([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="fusion matrix"):
            intersection_outer(e, e, np.eye(3))

    def test_sampled_intersection_points_contained(self):
        rng = np.random.default_rng(15)
        checked = 0
        for _ in range(40):
            d = int(rng.integers(1, 4))
            center2 = rng.standard_normal(d) * 0.3
            e1 = Ellipsoid(np.zeros(d), rand_spd(rng, d))
            e2 = Ellipsoid(center2, rand_spd(rng, d))
            m_star = optimal_fusion_matrix(e1.shape, e2.shape)
            candidates = [m_star, rng.standard_normal((d, d)) * 0.5, np.eye(d) * 0.5]
            draws = sample_point(e1, rng, size=1000)
            points = [x for x in draws if contains(e2, x)[0]]
            for M in candidates:
                out = intersection_outer(e1, e2, M)
                for x in points:
                    inside, _ = contains(out, x)
                    assert inside
                    checked += 1
        assert checked > 2000  # the sampling actually produced overlaps


class TestContains:
    def test_center_inside(self):
        inside, dist = contains(Ellipsoid([1.0, -1.0], np.eye(2)), [1.0, -1.0])
        assert inside and dist == pytest.approx(0.0, abs=1e-12)

    def test_boundary(self):
        inside, dist = contains(Ellipsoid([0.0], [[4.0]]), [2.0])
        assert inside
        assert dist == pytest.approx(1.0, rel=1e-9)

    def test_outside_quadratic_form(self):
        inside, dist = contains(Ellipsoid([0.0, 0.0], np.diag([1.0, 4.0])), [1.0, 2.0])
        assert not inside
        assert dist == pytest.approx(2.0, rel=1e-9)

    def test_zero_shape_rejected(self):
        with pytest.raises(SingularShapeError):
            contains(Ellipsoid([0.0], [[0.0]]), [0.0])

    def test_rank_deficient_shape_regularized(self):
        # Positive trace but rank 1: regularization keeps the query total.
        inside, dist = contains(Ellipsoid([0.0, 0.0], np.diag([4.0, 0.0])), [1.0, 0.0])
        assert inside and dist == pytest.approx(0.25, rel=1e-6)


class TestSamplePoint:
    def test_degenerate_returns_center(self):
        rng = np.random.default_rng(0)
        ell = Ellipsoid([2.0, -3.0], np.zeros((2, 2)))
        assert np.array_equal(sample_point(ell, rng), [2.0, -3.0])

    def test_samples_always_contained(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            ell = Ellipsoid(rng.standard_normal(d), rand_spd(rng, d))
            for _ in range(50):
                inside, _ = contains(ell, sample_point(ell, rng))
                assert inside

    def test_empirical_mean_near_center(self):
        rng = np.random.default_rng(17)
        ell = Ellipsoid([0.0], [[1.0]])
        samples = sample_point(ell, rng, size=100_000)[:, 0]
        assert abs(samples.mean()) < 0.02

    def test_batch_matches_scalar_law(self):
        # Same uniform-in-ellipsoid law on both paths: compare moments.
        rng1 = np.random.default_rng(19)
        rng2 = np.random.default_rng(20)
        ell = Ellipsoid([1.0, -1.0], np.diag([4.0, 9.0]))
        scalar = np.array([sample_point(ell, rng1) for _ in range(20_000)])
        batch = sample_point(ell, rng2, size=20_000)
        assert np.allclose(scalar.mean(axis=0), batch.mean(axis=0), atol=0.06)
        assert np.allclose(scalar.var(axis=0), batch.var(axis=0), rtol=0.08)


def unvalidated(center, shape) -> Ellipsoid:
    """An Ellipsoid that skipped validation, to feed the calculus a bad operand."""
    ell = object.__new__(Ellipsoid)
    object.__setattr__(ell, "center", np.asarray(center, dtype=float))
    object.__setattr__(ell, "shape", np.asarray(shape, dtype=float))
    return ell


class TestInternalResults:
    # Calculus results skip the conversions and the symmetry test but keep the
    # PSD test, and each owns its arrays.
    def test_affine_transform_tests_psd(self):
        indefinite = unvalidated([0.0, 0.0], np.diag([3.0, -1.0]))
        with pytest.raises(ValueError, match="eigenvalue"):
            affine_transform(indefinite, np.eye(2))

    @pytest.mark.parametrize("degenerate_first", [False, True])
    def test_minkowski_sum_tests_psd(self, degenerate_first):
        indefinite = unvalidated([0.0, 0.0], np.diag([3.0, -1.0]))
        other = Ellipsoid([0.0, 0.0], np.zeros((2, 2)) if degenerate_first else 1e-3 * np.eye(2))
        operands = (other, indefinite) if degenerate_first else (indefinite, other)
        with pytest.raises(ValueError, match="eigenvalue"):
            minkowski_sum_outer(*operands)

    def test_results_exactly_symmetric_and_own_their_arrays(self):
        rng = np.random.default_rng(23)
        point = Ellipsoid([1.0, 2.0, 3.0], np.zeros((3, 3)))
        for _ in range(50):
            e1 = Ellipsoid(rng.standard_normal(3), rand_spd(rng, 3))
            e2 = Ellipsoid(rng.standard_normal(3), rand_spd(rng, 3))
            results = [
                affine_transform(e1, rng.standard_normal((3, 3))),
                minkowski_sum_outer(e1, e2),
                minkowski_sum_outer(e1, point),
                minkowski_sum_outer(point, e2),
            ]
            for out in results:
                assert np.array_equal(out.shape, out.shape.T)
                for operand in (e1, e2, point):
                    assert not np.shares_memory(out.shape, operand.shape)
                    assert not np.shares_memory(out.center, operand.center)


class TestAffineExactness:
    def test_generalized_distance_preserved_under_invertible_map(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            ell = Ellipsoid(rng.standard_normal(d), rand_spd(rng, d))
            A = rng.standard_normal((d, d)) + 2.0 * np.eye(d)  # keep it invertible
            b = rng.standard_normal(d)
            image = affine_transform(ell, A, b)
            for _ in range(20):
                x = sample_point(ell, rng)
                _, before = contains(ell, x)
                _, after = contains(image, A @ x + b)
                assert after == pytest.approx(before, abs=1e-9, rel=1e-9)
