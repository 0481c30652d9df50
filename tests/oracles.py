"""Reference calculus the tests check the library against.

None of it runs in the estimator: the admissible sum-parameter interval bounds
the trace-optimal p, the scalar fold checks ``minkowski_sum_outer`` against
the closed form (sum of sqrts)^2, and ``intersection_outer`` is the split
x = M x + (I - M) x that ``observer.fuse`` must reproduce bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from setobs import Ellipsoid, SingularShapeError, affine_transform, minkowski_sum_outer


def _symmetrize(S: np.ndarray) -> np.ndarray:
    return (S + S.T) / 2.0


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


def sum_parameter_range(Q1: np.ndarray, Q2: np.ndarray) -> SumParameterRange:
    """Admissible p interval: square roots of extreme roots of det(Q1 - lam Q2) = 0.

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
