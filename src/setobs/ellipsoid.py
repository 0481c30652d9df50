"""Ellipsoid representation and outer-approximation calculus.

An ellipsoid E(c, S) = {x : (x - c)^T S^-1 (x - c) <= 1} is described by its
center and a symmetric positive-semidefinite shape matrix. Three primitives
cover everything the estimator needs: affine maps (exact), Minkowski sums
(trace-optimal outer approximation), and intersections (trace-optimal outer
approximation). All operations are pure; shape matrices are re-symmetrized
after every arithmetic step because repeated products drift off the symmetric
manifold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

# Tolerances shared by the whole toolkit.
SYMMETRY_TOL = 1e-9
PSD_TOL = 1e-9
CONTAINMENT_TOL = 1e-9
DEGENERATE_TRACE = 1e-12


class SingularShapeError(ValueError):
    """A shape matrix is singular (or too ill-conditioned) for the operation."""


class DegenerateOperandError(ValueError):
    """An operand has zero trace, so a trace-ratio parameter is undefined."""


def _symmetrize(S: np.ndarray) -> np.ndarray:
    return (S + S.T) / 2.0


@dataclass(frozen=True)
class Ellipsoid:
    """Ellipsoid {x : (x - center)^T shape^-1 (x - center) <= 1}.

    The shape matrix must be symmetric within ``SYMMETRY_TOL`` and PSD within
    ``PSD_TOL``; it is stored re-symmetrized. A zero shape matrix describes a
    single point (degenerate ellipsoid).
    """

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float)).ravel()
        shape = np.atleast_2d(np.asarray(self.shape, dtype=float))
        if shape.shape[0] != shape.shape[1]:
            raise ValueError(f"shape matrix must be square, got {shape.shape}")
        if center.size != shape.shape[0]:
            raise ValueError(
                f"center has dimension {center.size} but shape matrix is {shape.shape}"
            )
        asym = np.max(np.abs(shape - shape.T)) if shape.size else 0.0
        if asym > SYMMETRY_TOL:
            raise ValueError(f"shape matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
        shape = _symmetrize(shape)
        # Cholesky of S + tol*I succeeds exactly when min eig > -tol; it is far
        # cheaper than a full eigendecomposition on this hot path.
        try:
            np.linalg.cholesky(shape + PSD_TOL * np.eye(shape.shape[0]))
        except np.linalg.LinAlgError:
            min_eig = float(np.min(np.linalg.eigvalsh(shape)))
            raise ValueError(
                f"shape matrix has eigenvalue {min_eig:.3e} below -{PSD_TOL:.0e}"
            ) from None
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", shape)

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class SumParameterRange:
    """Admissible interval for the Minkowski-sum parameter p.

    Bounds are the square roots of the extreme generalized eigenvalues of
    (Q1, Q2); any p inside keeps the parametric outer sum tight against the
    true Minkowski sum in at least one direction.
    """

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper):
            raise ValueError(f"invalid parameter range [{self.lower}, {self.upper}]")


def affine_transform(ell: Ellipsoid, A: np.ndarray, b: np.ndarray | float = 0.0) -> Ellipsoid:
    """Map an ellipsoid through x -> A x + b (exact image for invertible A)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[1] != ell.dim:
        raise ValueError(f"matrix has {A.shape[1]} columns, ellipsoid has dimension {ell.dim}")
    b = np.broadcast_to(np.atleast_1d(np.asarray(b, dtype=float)).ravel(), (A.shape[0],))
    return Ellipsoid(A @ ell.center + b, _symmetrize(A @ ell.shape @ A.T))


def sum_parameter_range(Q1: np.ndarray, Q2: np.ndarray) -> SumParameterRange:
    """Admissible p interval: square roots of extreme roots of det(Q1 - lam Q2) = 0.

    The estimator never needs it (see ``optimal_sum_parameter``); it is the
    reference the tests check the trace-optimal parameter against.

    Raises:
        SingularShapeError: Q2 is not positive definite (roots unbounded), or
            Q1 is singular (lower bound collapses to zero).
    """
    Q1 = np.atleast_2d(np.asarray(Q1, dtype=float))
    Q2 = np.atleast_2d(np.asarray(Q2, dtype=float))
    if Q1.shape != Q2.shape:
        raise ValueError(f"shape matrices differ in size: {Q1.shape} vs {Q2.shape}")
    if Q1.shape == (1, 1):
        if Q2[0, 0] <= 0.0:
            raise SingularShapeError("second operand not positive definite")
        ratio = Q1[0, 0] / Q2[0, 0]
        if ratio <= 0.0:
            raise SingularShapeError("first operand singular: generalized eigenvalue is zero")
        root = float(np.sqrt(ratio))
        return SumParameterRange(root, root)
    # Whitened form: eigenvalues of L^-1 Q1 L^-T where Q2 = L L^T.
    try:
        L = np.linalg.cholesky(_symmetrize(Q2))
    except np.linalg.LinAlgError as err:
        raise SingularShapeError(f"second operand not positive definite: {err}") from err
    half = np.linalg.solve(L, _symmetrize(Q1))
    lam = np.linalg.eigvalsh(_symmetrize(np.linalg.solve(L, half.T)))
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    if lam_min <= 0.0:
        raise SingularShapeError(
            f"first operand singular: smallest generalized eigenvalue {lam_min:.3e}"
        )
    return SumParameterRange(np.sqrt(lam_min), np.sqrt(lam_max))


def optimal_sum_parameter(Q1: np.ndarray, Q2: np.ndarray) -> float:
    """Trace-minimizing Minkowski-sum parameter p = sqrt(Tr Q1 / Tr Q2).

    p always lies inside the admissible interval of ``sum_parameter_range``:
    Tr Q1 / Tr Q2 is a weighted mean of the generalized eigenvalues of (Q1, Q2).

    Raises:
        DegenerateOperandError: either trace is not positive, in which case
            the sum itself degenerates and the caller should return the other
            operand unchanged.
    """
    t1 = float(np.trace(np.atleast_2d(Q1)))
    t2 = float(np.trace(np.atleast_2d(Q2)))
    if t1 <= 0.0 or t2 <= 0.0:
        raise DegenerateOperandError(f"operand traces {t1:.3e}, {t2:.3e} must be positive")
    return float(np.sqrt(t1 / t2))


def minkowski_sum_outer(e1: Ellipsoid, e2: Ellipsoid, p: float | None = None) -> Ellipsoid:
    """Outer ellipsoid of the Minkowski sum e1 (+) e2.

    Shape is (1 + 1/p) S1 + (1 + p) S2, which contains the exact sum for any
    p > 0 and is trace-minimal at p = sqrt(Tr S1 / Tr S2). If ``p`` is None
    the trace-optimal parameter is used. An operand whose shape trace is below
    ``DEGENERATE_TRACE`` is treated as a point and the sum is exact.
    """
    if e1.dim != e2.dim:
        raise ValueError(f"dimension mismatch: {e1.dim} vs {e2.dim}")
    if p is not None and p <= 0.0:
        raise ValueError(f"sum parameter must be positive, got {p}")
    center = e1.center + e2.center
    t1 = float(np.trace(e1.shape))
    t2 = float(np.trace(e2.shape))
    if t1 <= DEGENERATE_TRACE:
        return Ellipsoid(center, e2.shape)
    if t2 <= DEGENERATE_TRACE:
        return Ellipsoid(center, e1.shape)
    if p is None:
        p = optimal_sum_parameter(e1.shape, e2.shape)
    return Ellipsoid(center, _symmetrize((1.0 + 1.0 / p) * e1.shape + (1.0 + p) * e2.shape))


def minkowski_sum_chain(ellipsoids: list[Ellipsoid]) -> Ellipsoid:
    """Left fold of ``minkowski_sum_outer`` with the optimal p at every step.

    For scalar (1-D) ellipsoids the fold is exact and the resulting shape
    equals (sum_i sqrt(S_i))^2.
    """
    if not ellipsoids:
        raise ValueError("cannot sum an empty list of ellipsoids")
    dims = {e.dim for e in ellipsoids}
    if len(dims) > 1:
        raise ValueError(f"ellipsoids have mixed dimensions {sorted(dims)}")
    acc = ellipsoids[0]
    for ell in ellipsoids[1:]:
        acc = minkowski_sum_outer(acc, ell)
    return acc


def optimal_fusion_matrix(Q1: np.ndarray, Q2: np.ndarray) -> np.ndarray:
    """Matrix minimizing Tr(M Q1 M^T) + Tr((I-M) Q2 (I-M)^T): M = Q2 (Q1+Q2)^-1.

    Computed as a linear solve against Q1+Q2 rather than an explicit inverse.

    Raises:
        SingularShapeError: Q1+Q2 is singular within tolerance; the message
            carries the eigenvalue ratio for diagnosis.
    """
    Q1 = np.atleast_2d(np.asarray(Q1, dtype=float))
    Q2 = np.atleast_2d(np.asarray(Q2, dtype=float))
    total = _symmetrize(Q1 + Q2)
    eigs = np.linalg.eigvalsh(total)
    n = total.shape[0]
    if eigs[-1] <= 0.0 or eigs[0] <= n * 1e-14 * eigs[-1]:
        raise SingularShapeError(
            f"operand sum is singular: eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
        )
    # M (Q1+Q2) = Q2  =>  (Q1+Q2) M^T = Q2 by symmetry.
    return np.linalg.solve(total, Q2).T


def intersection_outer(e1: Ellipsoid, e2: Ellipsoid, M: np.ndarray) -> Ellipsoid:
    """Outer ellipsoid of e1 ^ e2 from the split x = M x + (I - M) x.

    Returns the trace-optimal outer Minkowski sum of E(M c1, M S1 M^T) and
    E((I-M) c2, (I-M) S2 (I-M)^T); contains the intersection for any square M.
    """
    if e1.dim != e2.dim:
        raise ValueError(f"dimension mismatch: {e1.dim} vs {e2.dim}")
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape != (e1.dim, e1.dim):
        raise ValueError(f"fusion matrix must be {e1.dim}x{e1.dim}, got {M.shape}")
    complement = np.eye(e1.dim) - M
    return minkowski_sum_outer(affine_transform(e1, M), affine_transform(e2, complement))


def contains(ell: Ellipsoid, x: np.ndarray) -> tuple[bool, float]:
    """Membership test: returns (inside, d) with d = (x-c)^T S^-1 (x-c).

    The point is inside when d <= 1 + ``CONTAINMENT_TOL``. A near-singular
    shape is regularized by 1e-12 Tr(S)/d on the diagonal so queries stay
    total on strongly flattened ellipsoids.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if x.size != ell.dim:
        raise ValueError(f"point has dimension {x.size}, ellipsoid {ell.dim}")
    trace = float(np.trace(ell.shape))
    if trace <= 0.0:
        raise SingularShapeError("shape matrix has zero trace; membership is undefined")
    residual = x - ell.center
    try:
        factor = cho_factor(ell.shape)
    except LinAlgError:
        regularized = ell.shape + (1e-12 * trace / ell.dim) * np.eye(ell.dim)
        try:
            factor = cho_factor(regularized)
        except LinAlgError as err:
            raise SingularShapeError(f"shape matrix singular beyond repair: {err}") from err
    dist = float(residual @ cho_solve(factor, residual))
    return dist <= 1.0 + CONTAINMENT_TOL, dist


def shape_sqrt(S: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; tiny negative eigenvalues are clipped to zero."""
    eigvals, eigvecs = np.linalg.eigh(np.atleast_2d(np.asarray(S, dtype=float)))
    return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T


def sample_point(
    ell: Ellipsoid, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Draw points uniformly from the ellipsoid (uniform ball through sqrt(S)).

    Samples always satisfy ``contains``; a zero shape returns the center.
    With ``size`` a (size, d) batch is drawn in one vectorized pass.
    """
    d = ell.dim
    if size is None:
        direction = rng.standard_normal(d)
        norm = np.linalg.norm(direction)
        if norm > 0.0:
            direction /= norm
        radius = rng.random() ** (1.0 / d)
        return ell.center + shape_sqrt(ell.shape) @ (radius * direction)
    directions = rng.standard_normal((int(size), d))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    np.divide(directions, norms, out=directions, where=norms > 0.0)
    radii = rng.random((int(size), 1)) ** (1.0 / d)
    return ell.center + (radii * directions) @ shape_sqrt(ell.shape)
