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
from setobs.ellipsoid import _generalized_distances, _pivots_positive, _require_psd

from conftest import rand_spd, same_bits, scalar_chain
from oracles import (
    SumParameterRange,
    cho_distance,
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

    def test_rejects_three_dimensional_shape(self):
        with pytest.raises(ValueError, match=r"must be square, got \(2, 2, 2\)"):
            Ellipsoid([0.0, 0.0], np.ones((2, 2, 2)))

    def test_rejects_zero_dimensional_shape(self):
        with pytest.raises(ValueError, match="^ellipsoid dimension must be at least 1, "
                                             "got a 0 x 0 shape matrix$"):
            Ellipsoid([], np.empty((0, 0)))

    def test_rejects_tiny_indefinite_shape(self):
        # Eigenvalue -3e-18 is as negative as the shape is large: the floor is relative.
        with pytest.raises(ValueError, match="eigenvalue"):
            Ellipsoid([0.0, 0.0], np.diag([1e-18, -3e-18]))

    def test_accepts_zero_shape(self):
        assert Ellipsoid([1.0], [[0.0]]).dim == 1

    @pytest.mark.parametrize("center, shape, match", [
        ([0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]], "shape matrix must be finite"),
        ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]], "shape matrix must be finite"),
        ([0.0, 0.0], [[1.0, np.inf], [np.inf, 1.0]], "shape matrix must be finite"),
        ([np.nan, 0.0], np.eye(2), "center must be finite"),
    ])
    def test_rejects_non_finite(self, center, shape, match):
        with pytest.raises(ValueError, match=match):
            Ellipsoid(center, shape)


class TestRequirePsd:
    """A failing stack raises the error of its first failing shape alone,
    named by ``where`` when it is given."""

    STACK = np.array([np.eye(2), np.diag([1.0, -1.0]), np.full((2, 2), np.nan)])

    def test_where_names_the_first_failing_shape(self):
        with pytest.raises(ValueError) as alone:
            _require_psd(self.STACK[1])
        with pytest.raises(ValueError) as bare:
            _require_psd(self.STACK)
        assert str(bare.value) == str(alone.value)
        assert str(alone.value).startswith("shape matrix has eigenvalue -1.000e+00 below")
        asked = []
        with pytest.raises(ValueError) as named:
            _require_psd(self.STACK, lambda i: asked.append(i) or f"shape {i}")
        assert str(named.value) == f"{alone.value} (shape 1)" and asked == [1]
        with pytest.raises(ValueError, match=r"^shape matrix has a non-finite entry \(last\)$"):
            _require_psd(self.STACK[2:], lambda i: "last")

    def test_passing_stack_never_asks_where(self):
        stack = self.STACK[:1]
        assert _require_psd(stack, lambda i: pytest.fail("asked")) is stack


def planted_shape(rng: np.random.Generator, d: int, sign: float = 1.0) -> np.ndarray:
    """A d x d shape with largest eigenvalue 1 and a smallest planted at
    sign 10^(-20...-6) (at d = 1, at sign 1), in a random orthonormal basis,
    scaled by 10^(-300...300)."""
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
    smallest = sign * 10.0 ** rng.uniform(-20, -6)
    eigenvalues = (np.array([smallest, *rng.uniform(abs(smallest), 1.0, d - 2), 1.0])
                   if d > 1 else np.array([sign]))
    shape = (basis * eigenvalues) @ basis.T
    return (shape + shape.T) / 2.0 * 10.0 ** rng.integers(-300, 301)


def odd_shape(rng: np.random.Generator, d: int) -> np.ndarray:
    """A zero, NaN or infinite shape, one with a subnormal pivot, or one whose
    off-diagonal over its pivot overflows (and, at d = 3, meets a zero: inf * 0)."""
    shape = np.zeros((d, d))
    kind = rng.integers(6)
    if kind == 1:
        shape[rng.integers(d), rng.integers(d)] = np.nan
    elif kind == 2:
        shape[rng.integers(d), rng.integers(d)] = rng.choice([np.inf, -np.inf])
    elif kind == 3:
        shape[np.diag_indices(d)] = 1.0
        shape[0, 0] = rng.choice([5e-324, 1e-310])
    elif kind >= 4:
        shape[np.diag_indices(d)] = 1.0
        shape[0, 0] = 1e-300
        shape[d - 1, 0] = shape[0, d - 1] = rng.choice([1e-300, 1e10, -1e10])
    return shape


class TestPivotScreen:
    """``_pivots_positive`` clears a stack only if ``_require_psd`` passes it."""

    def test_cleared_stacks_pass_require_psd(self):
        # Stacks of positive planted shapes, half of them with one member that
        # is negative planted or odd. Warnings are errors in this suite, so the
        # screen may raise none.
        rng = np.random.default_rng(20260101)
        cleared = refused = 0
        for _ in range(3000):
            d, k = int(rng.integers(1, 4)), int(rng.integers(1, 41))
            stack = np.array([planted_shape(rng, d) for _ in range(k)])
            if rng.random() < 0.5:
                stack[rng.integers(k)] = (planted_shape(rng, d, -1.0) if rng.random() < 0.7
                                          else odd_shape(rng, d))
            if _pivots_positive(stack):
                cleared += 1
                assert _require_psd(stack) is stack
            else:
                refused += 1
        assert cleared > 500 and refused > 500

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_clears_well_conditioned_shapes_at_any_scale(self, d):
        rng = np.random.default_rng(d)
        for exponent in range(-300, 301, 20):
            stack = np.array([rand_spd(rng, d, 10.0**exponent) for _ in range(20)])
            assert _pivots_positive(stack)

    @pytest.mark.parametrize("shape", [
        [[0.0]], [[-0.0]], [[np.inf]], [[np.nan]],
        [[1.0, 1e10], [1e10, 1e-300]],  # its second pivot is -inf
        [[1e-300, 1e10], [1e10, 1.0]],  # its multiplier overflows
        [[1.0, 1.0], [1.0, 1.0]],  # rank one: its second pivot is 0
    ])
    def test_refuses(self, shape):
        assert not _pivots_positive(np.array([shape]))


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

    def test_non_finite_image_rejected(self):
        # Cholesky passes a NaN shape and NaN compares below no floor.
        with pytest.raises(ValueError, match="non-finite"):
            affine_transform(Ellipsoid([0.0, 0.0], np.eye(2)), [[np.nan, 0.0], [0.0, 1.0]])

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

    def test_regularized_distance_bits(self):
        center, shape, x = np.zeros(2), np.diag([4.0, 0.0]), np.array([1.0, 0.0])
        _, dist = contains(Ellipsoid(center, shape), x)
        assert dist == cho_distance(center, shape, x) == 0.249999999999875

    def test_shape_at_the_psd_floor_gets_a_distance(self):
        # l_min = -2e-10 Tr/n: within the PSD floor of -1e-9 Tr/n, and
        # indefinite after the 1e-12 Tr/n lift; the 2e-9 Tr/n lift factors it.
        inside, dist = contains(Ellipsoid([0.0, 0.0], np.diag([1.0, -1e-10])), [1.0, 0.0])
        assert inside and dist == pytest.approx(1.0, rel=1e-8)

    def test_planted_shape_past_the_first_lift_gets_a_distance(self):
        # A rotated shape with l_min = -3e-12 Tr/n, which the constructor
        # accepts and neither Cholesky nor the 1e-12 Tr/n lift factors.
        U, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
        ell = Ellipsoid(np.zeros(3), (U * [-3e-12, 1.0, 2.0]) @ U.T)
        trace = float(np.trace(ell.shape))
        assert np.linalg.eigvalsh(ell.shape)[0] / (trace / 3) == pytest.approx(-3e-12, rel=1e-3)
        for lift in (0.0, 1e-12 * trace / 3):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(ell.shape + lift * np.eye(3))
        x = U[:, 2]  # the unit axis of eigenvalue 2
        inside, dist = contains(ell, x)
        assert inside and dist == pytest.approx(0.5, rel=1e-8)
        assert dist == pytest.approx(cho_distance(ell.center, ell.shape, x), rel=1e-12)

    def test_shape_below_the_psd_floor_is_beyond_repair(self):
        # l_min = -2e-8 Tr/n: no Ellipsoid holds it, and the last lift leaves it indefinite.
        shape = np.diag([1.0, -1e-8])
        with pytest.raises(SingularShapeError, match="beyond repair"):
            _generalized_distances(np.zeros((1, 2)), shape[None], np.array([[1.0, 0.0]]))

    def test_point_of_other_dimension_rejected(self):
        with pytest.raises(ValueError, match="^point has dimension 3, ellipsoid 2$"):
            contains(Ellipsoid([0.0, 0.0], np.eye(2)), [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_point_rejected(self, entry):
        with pytest.raises(ValueError, match=r"point must be finite, got \[0.0, (nan|inf)\]"):
            contains(Ellipsoid([0.0, 0.0], np.eye(2)), [0.0, entry])


class TestGeneralizedDistances:
    """A stack's distances are those of each member alone, and its error is
    that of the first member that fails alone."""

    @staticmethod
    def stack(middle: list[np.ndarray]):
        rng = np.random.default_rng(21)
        shapes = [rand_spd(rng, 2), *middle, rand_spd(rng, 2)]
        ells = [Ellipsoid(rng.standard_normal(2), shape) for shape in shapes]
        points = rng.standard_normal((len(ells), 2))
        centers = np.array([ell.center for ell in ells])
        return ells, centers, np.array([ell.shape for ell in ells]), points

    def test_member_needing_the_regularized_retry(self):
        ells, centers, shapes, points = self.stack([np.diag([4.0, 0.0])])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(shapes)
        alone = [contains(ell, x)[1] for ell, x in zip(ells, points)]
        assert same_bits(_generalized_distances(centers, shapes, points), alone)

    @pytest.mark.parametrize("middle, message", [
        ([np.diag([1.0, -1e-8])], "beyond repair"),
        ([np.zeros((2, 2)), np.diag([1.0, -1e-8])], "zero trace"),
        ([np.diag([1.0, -1e-8]), np.zeros((2, 2))], "beyond repair"),
    ], ids=["beyond-repair", "zero-trace-first", "beyond-repair-first"])
    def test_first_failing_member_raises(self, middle, message):
        # diag(1, -1e-8) is below the PSD floor, which no Ellipsoid is: it
        # goes into the stack in place of a valid member.
        _, centers, shapes, points = self.stack([np.eye(2)] * len(middle))
        shapes[1:-1] = middle
        with pytest.raises(SingularShapeError, match=message):
            _generalized_distances(centers, shapes, points)


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
