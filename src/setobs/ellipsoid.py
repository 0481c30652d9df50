"""Ellipsoid representation and outer-approximation calculus.

An ellipsoid E(c, S) = {x : (x - c)^T S^-1 (x - c) <= 1} is described by its
center and a symmetric positive-semidefinite shape matrix. Two primitives
cover everything the estimator needs: affine maps (exact) and Minkowski sums
(trace-optimal outer approximation); the observer's intersection
(``observer.fuse``) is a Minkowski sum of two affine images. All operations
are pure; shape matrices are re-symmetrized after every product, because
repeated products drift off the symmetric manifold (a weighted sum of
exactly symmetric shapes is exactly symmetric already). Every tolerance
is relative to the scale of the matrix it tests, so a result means the same
in any units.

Each set operation is written here once, in one function that takes one
shape or an (S, n, n) stack: one PSD test (``_require_psd``), one outer sum
(``_outer_sum_into``) and one fusion matrix (``optimal_fusion_matrix``), none
of them with work arrays from a caller. The public functions
(``affine_transform``, ``minkowski_sum_outer``, ``optimal_fusion_matrix``)
are the specification of the observer's run kernel (``observer._observe``),
which makes the same IEEE operations inline on its stack, and leaves the rare
members of an outer sum to ``_outer_sum_into``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

try:
    from numpy.linalg import _umath_linalg
except ImportError:  # a numpy that moved it: ``_solve_regular`` takes np.linalg.solve
    _umath_linalg = None

# Tolerances shared by the whole toolkit.
SYMMETRY_TOL = 1e-9
PSD_TOL = 1e-9
CONTAINMENT_TOL = 1e-9


class SingularShapeError(ValueError):
    """A shape matrix is singular (or too ill-conditioned) for the operation."""


class DegenerateOperandError(ValueError):
    """An operand has zero trace, so a trace-ratio parameter is undefined."""


def _symmetrize(S: np.ndarray) -> np.ndarray:
    """(S + S^T) / 2 of one shape or of each shape of a stack."""
    return (S + S.swapaxes(-1, -2)) / 2.0


def _require_symmetric(S: np.ndarray, name: str) -> None:
    """Raise ValueError unless S is symmetric within ``SYMMETRY_TOL`` of its largest entry."""
    # An asymmetry too large for float64 is inf, which the test refuses; a
    # finite S cannot make a NaN here.
    with np.errstate(over="ignore"):
        asym = float(np.max(np.abs(S - S.T)))
    scale = float(np.max(np.abs(S)))
    if asym > SYMMETRY_TOL * scale:
        raise ValueError(
            f"{name} asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e} of its largest "
            f"entry {scale:.3e}"
        )


def _require_psd(shapes: np.ndarray, where=None) -> np.ndarray:
    """Return ``shapes``, one shape or an (m, d, d) stack, if each shape is
    finite and its smallest eigenvalue is at least -``PSD_TOL`` Tr/d.

    The floor scales with the shape, so the test means the same in any units;
    a zero shape passes. Cholesky succeeds exactly on positive-definite
    shapes, so one finiteness test and one stacked Cholesky (the same
    factorization on each member) settle the common case without an
    eigendecomposition. Cholesky alone would not settle a non-finite shape: a
    NaN factorizes without error, and NaN compares below no floor. Otherwise
    the shapes are retested one by one, in order, so the verdict and the
    error raised are those of testing each shape alone. ``where``, if given,
    maps the stack index of the first failing shape to text that names it,
    which the error's message ends with in parentheses.

    This is the one code that words a PSD failure, and the reference of the
    screen ``_pivots_positive``, which clears the observer's blocks of small
    shapes without LAPACK and sends here every block it does not clear.
    """
    if np.isfinite(shapes).all():
        try:
            np.linalg.cholesky(shapes)
            return shapes
        except np.linalg.LinAlgError:
            pass
    for index, shape in enumerate(shapes.reshape(-1, *shapes.shape[-2:])):
        if not np.isfinite(shape).all():
            error = "shape matrix has a non-finite entry"
        else:
            try:
                np.linalg.cholesky(shape)
                continue
            except np.linalg.LinAlgError:
                pass
            floor = -PSD_TOL * max(float(np.trace(shape)) / shape.shape[0], np.finfo(float).tiny)
            min_eig = float(np.linalg.eigvalsh(shape)[0])
            if min_eig >= floor:
                continue
            error = f"shape matrix has eigenvalue {min_eig:.3e} below the floor {floor:.3e}"
        raise ValueError(error if where is None else f"{error} ({where(index)})")
    return shapes


def _pivots_positive(shapes: np.ndarray) -> bool:
    """True if every shape of an (m, d, d) stack is finite and symmetric
    elimination without pivoting (Cholesky without square roots, reading the
    lower triangle as LAPACK does) gives it positive pivots only: a screen
    that clears a block of small shapes for ``_require_psd`` without one
    LAPACK factorization per shape.

    The elimination runs one column at a time over the whole stack, and stops
    at the first column with a pivot that is not positive. The finiteness
    test comes first, as an infinite pivot can survive elimination. False
    only means "not cleared": the caller then runs ``_require_psd``.

    A cleared shape passes ``_require_psd``. When the elimination completes,
    its computed unit lower factor L and pivots D satisfy L D L^T = S + dS
    with dS symmetric and |dS| <= gamma_(d+1) |L| D |L|^T, where
    gamma_k = k u / (1 - k u) and u is the unit roundoff: the backward error
    of elimination (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 9.3) plus the rounding of the multipliers, the bound that Thm 10.3
    gives Cholesky, whose factor is L D^(1/2). With D > 0, S + dS is positive
    definite, and the 2-norm of |L| D |L|^T is at most its trace, which is
    Tr(S + dS). So l_min(S) >= -||dS||_2, about -(d + 1) u Tr S: -4.4e-16 Tr S
    at d = 3, more than five orders of magnitude above the floor
    -``PSD_TOL`` Tr S / d that ``_require_psd`` tests (and that its
    eigenvalues, accurate to a few u ||S||, resolve). Underflow adds at most a
    few 2^-1074 per entry, far below that floor's least magnitude, ``PSD_TOL``
    times the smallest normal. The same bound is why a Cholesky that LAPACK
    completes settles the test.
    """
    if not np.isfinite(shapes).all():
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        rest = shapes
        while True:
            pivots = rest[:, 0, 0]
            if not (pivots > 0.0).all():  # NaN, from inf - inf, is not positive either
                return False
            if rest.shape[-1] == 1:
                return True
            column = rest[:, 1:, 0]
            rest = rest[:, 1:, 1:] - column[:, :, None] * (column / pivots[:, None])[:, None, :]


@dataclass(frozen=True)
class Ellipsoid:
    """Ellipsoid {x : (x - center)^T shape^-1 (x - center) <= 1}.

    The shape matrix must be symmetric within ``SYMMETRY_TOL`` and PSD within
    ``PSD_TOL``, both relative to its own scale; it is stored re-symmetrized.
    A zero shape matrix describes a single point (degenerate ellipsoid).

    ``Ellipsoid(...)`` validates everything. Results of the calculus
    (``affine_transform``, ``minkowski_sum_outer``) and of
    ``WindowSolver.ellipsoid`` are built by ``_trusted`` instead, which skips
    the conversions and the symmetry test: their shapes come out of
    ``_symmetrize`` or are weighted sums of shapes that did, and
    (S + S^T) / 2 is exactly symmetric in IEEE arithmetic because addition
    commutes, so that test could only pass and the stored re-symmetrized copy
    would equal S bit for bit. The PSD test still runs on every such shape.
    Only a repeat on identical bits is skipped: the observer tests each
    distinct window shape of a run once, before its first step, and
    ``SystemModel`` tests Q once per model.
    """

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float)).ravel()
        shape = np.atleast_2d(np.asarray(self.shape, dtype=float))
        if shape.ndim != 2 or shape.shape[0] != shape.shape[1]:
            raise ValueError(f"shape matrix must be square, got {shape.shape}")
        if not shape.size:
            raise ValueError("ellipsoid dimension must be at least 1, got a 0 x 0 shape matrix")
        if center.size != shape.shape[0]:
            raise ValueError(
                f"center has dimension {center.size} but shape matrix is {shape.shape}"
            )
        # Before the symmetry test, whose arithmetic a non-finite entry upsets.
        for name, value in (("center", center), ("shape matrix", shape)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value.tolist()}")
        _require_symmetric(shape, "shape matrix")
        shape = _require_psd(_symmetrize(shape))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", shape)

    @classmethod
    def _trusted(cls, center: np.ndarray, shape: np.ndarray) -> "Ellipsoid":
        """Internal result from a float vector and a float shape of matching size.

        ``shape`` must come out of ``_symmetrize`` and have passed
        ``_require_psd``; nothing is checked or copied.
        """
        ell = object.__new__(cls)
        object.__setattr__(ell, "center", center)
        object.__setattr__(ell, "shape", shape)
        return ell

    @property
    def dim(self) -> int:
        return self.center.size


def affine_transform(ell: Ellipsoid, A: np.ndarray, b: np.ndarray | float = 0.0) -> Ellipsoid:
    """Map an ellipsoid through x -> A x + b (exact image for invertible A)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[1] != ell.dim:
        raise ValueError(f"matrix has {A.shape[1]} columns, ellipsoid has dimension {ell.dim}")
    b = np.broadcast_to(np.atleast_1d(np.asarray(b, dtype=float)).ravel(), (A.shape[0],))
    return Ellipsoid._trusted(A @ ell.center + b, _require_psd(_symmetrize(A @ ell.shape @ A.T)))


def optimal_sum_parameter(Q1: np.ndarray, Q2: np.ndarray) -> float:
    """Trace-minimizing Minkowski-sum parameter p = sqrt(Tr Q1 / Tr Q2).

    p always lies inside the admissible interval, the square roots of the
    extreme generalized eigenvalues of (Q1, Q2): Tr Q1 / Tr Q2 is a weighted
    mean of those eigenvalues.

    Raises:
        DegenerateOperandError: either trace is not positive, in which case
            the sum itself degenerates and the caller should return the other
            operand unchanged.
    """
    t1 = float(np.trace(np.atleast_2d(Q1)))
    t2 = float(np.trace(np.atleast_2d(Q2)))
    if t1 <= 0.0 or t2 <= 0.0:
        raise DegenerateOperandError(f"operand traces {t1:.3e}, {t2:.3e} must be positive")
    return float(_sum_parameter(t1, t2))


def _sum_parameter(t1, t2):
    """p = sqrt(t1 / t2) from two positive traces, or elementwise from two stacks
    of them: the one formula behind ``optimal_sum_parameter``, the outer sum
    (``_outer_sum_into``, from its operands' traces) and ``observer.fuse``,
    which the observer's loop writes inline. np.sqrt is correctly rounded, so
    a stack's members equal the scalar results bit for bit."""
    return np.sqrt(t1 / t2)


def minkowski_sum_outer(e1: Ellipsoid, e2: Ellipsoid, p: float | None = None) -> Ellipsoid:
    """Outer ellipsoid of the Minkowski sum e1 (+) e2.

    Shape is (1 + 1/p) S1 + (1 + p) S2, which contains the exact sum for any
    p > 0 and is trace-minimal at p = sqrt(Tr S1 / Tr S2). If ``p`` is None
    the trace-optimal parameter is used. An operand whose shape has zero trace
    is a point, and the sum is exact. It runs ``_outer_sum_into`` on a stack
    of one, and the observer's loop gives every sum these bits.
    """
    if e1.dim != e2.dim:
        raise ValueError(f"dimension mismatch: {e1.dim} vs {e2.dim}")
    if p is not None and p <= 0.0:
        raise ValueError(f"sum parameter must be positive, got {p}")
    operands = np.stack((e1.shape, e2.shape))[:, None]
    shape = np.empty_like(operands[0])
    _outer_sum_into(shape, operands, None if p is None else np.array([p]))
    return Ellipsoid._trusted(e1.center + e2.center, _require_psd(shape[0]))


def _traces(shapes: np.ndarray) -> np.ndarray:
    """Traces over the last two axes: the reduction ``ndarray.trace`` runs, called
    directly (so with its bits, and without its overhead)."""
    return np.add.reduce(shapes.diagonal(0, -2, -1), -1)


def _outer_sum_into(
    out: np.ndarray, operands: np.ndarray, p: np.ndarray | None = None
) -> np.ndarray:
    """Outer sums (1 + 1/p) X + (1 + p) Y of the pairs of a (2, S, n, n) stack
    [X; Y] into ``out``; returns p.

    p defaults to the trace-optimal sqrt(t_x / t_y) of the operands' traces,
    or 1 where the traces are not both positive. One product scales the stack
    by [1 + 1/p; 1 + p] and one sum adds its halves: the three roundings per
    entry of the formula. Where an operand has zero trace (a point) the sum is
    the other operand. Not PSD-tested; the result is exactly symmetric, as
    (i, j) and (j, i) sum the same products.
    """
    traces = _traces(operands)
    t_x, t_y = traces.tolist()
    if p is None:
        regular = (traces > 0.0).all(axis=0)
        p = np.ones(len(t_x))
        p[regular] = _sum_parameter(traces[0, regular], traces[1, regular])
    products = operands * (np.stack((1.0 / p, p)) + 1.0)[:, :, None, None]
    np.add(products[0], products[1], out=out)
    if 0.0 in t_x or 0.0 in t_y:
        for s, (x, y) in enumerate(zip(t_x, t_y)):
            if x == 0.0:
                out[s] = operands[1, s]
            elif y == 0.0:
                out[s] = operands[0, s]
    return p


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
    if _singular(eigs):
        raise SingularShapeError(
            f"operand sum is singular: eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
        )
    # M (Q1+Q2) = Q2  =>  (Q1+Q2) M^T = Q2 by symmetry.
    return np.linalg.solve(total, Q2).T


def _solve_regular(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) of float64 (S, n, n) stacks, written into ``out``,
    for stacks whose every member is regular.

    It calls the LAPACK gufunc that np.linalg.solve wraps (numpy's private
    ``_umath_linalg.solve``, one gesv per member), so each member gets the same
    bits, without the wrapper's checks, conversions and error-state context,
    which cost three times the solve itself on a stack of one 2 x 2 member.
    The wrapper is also what turns an exactly singular member into
    LinAlgError; here that member comes back NaN with the invalid flag raised
    (a RuntimeWarning under numpy's default error state; the observer's loop
    runs it with that warning silenced, so there a singular member would show
    only as the non-finite shapes it leads to). So the caller must know every
    member is regular: cleared by ``_singular``, or proven so by the step
    before it (the observer's clearance bound, below a quarter of
    ``observer._singularity_skip_level``). Any other solve goes through
    np.linalg.solve, and so does this one, copied into ``out``, on a numpy
    without ``_umath_linalg``.
    """
    if _umath_linalg is None:
        np.copyto(out, np.linalg.solve(a, b))
        return out
    return _umath_linalg.solve(a, b, out=out)


def _singular(eigs: np.ndarray) -> np.ndarray:
    """The fusion's singularity rule, from the ascending eigenvalues of a shape
    sum, or of each sum of a stack (last axis): singular within tolerance when
    l_max <= 0 or l_min <= n 1e-14 l_max."""
    return (eigs[..., -1] <= 0.0) | (eigs[..., 0] <= eigs.shape[-1] * 1e-14 * eigs[..., -1])


def contains(ell: Ellipsoid, x: np.ndarray) -> tuple[bool, float]:
    """Membership test: returns (inside, d) with d = (x-c)^T S^-1 (x-c).

    The point is inside when d <= 1 + ``CONTAINMENT_TOL``. A shape that is not
    positive definite is regularized on the diagonal, by 1e-12 Tr(S)/d and, if
    that is not enough, by 2 ``PSD_TOL`` Tr(S)/d (``_distance_factor``), so
    queries stay total on every ellipsoid the constructor accepts, however
    flat. This is ``_generalized_distances`` on a stack of one.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if x.size != ell.dim:
        raise ValueError(f"point has dimension {x.size}, ellipsoid {ell.dim}")
    if not np.isfinite(x).all():
        raise ValueError(f"point must be finite, got {x.tolist()}")
    dist = float(_generalized_distances(ell.center[None], ell.shape[None], x[None])[0])
    return dist <= 1.0 + CONTAINMENT_TOL, dist


def _generalized_distances(
    centers: np.ndarray, shapes: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """d of ``contains`` for each member of a stack: (K, n) centers and finite
    float points, (K, n, n) shapes.

    d = ||L^-1 (x - c)||^2 with S = L L^T, from one stacked Cholesky and one
    stacked solve; each member gets the bits of a stack of one. If the stacked
    factorization fails, the factors are taken member by member, in order,
    so the error raised is that of the first member that fails alone.
    """
    residuals = (points - centers)[..., None]
    try:
        factors = np.linalg.cholesky(shapes)
    except np.linalg.LinAlgError:
        factors = np.array([_distance_factor(shape) for shape in shapes])
    halves = np.linalg.solve(factors, residuals)
    return (halves.swapaxes(-1, -2) @ halves)[:, 0, 0]


def _distance_factor(shape: np.ndarray) -> np.ndarray:
    """Cholesky factor of one shape for ``_generalized_distances``: a shape that
    is not positive definite is retried with 1e-12 Tr(S)/n, then with
    2 ``PSD_TOL`` Tr(S)/n, on the diagonal. The last lift leaves every shape
    that ``_require_psd`` admits with l_min >= ``PSD_TOL`` Tr(S)/n, far above
    the rounding of its factorization, so only a shape no ``Ellipsoid`` holds
    can fail it."""
    trace = float(shape.trace())
    if trace <= 0.0:
        raise SingularShapeError("shape matrix has zero trace; membership is undefined")
    n = shape.shape[0]
    for lift in (0.0, 1e-12, 2.0 * PSD_TOL):
        try:
            return np.linalg.cholesky(shape + (lift * trace / n) * np.eye(n) if lift else shape)
        except np.linalg.LinAlgError as err:
            failure = err
    raise SingularShapeError(f"shape matrix singular beyond repair: {failure}") from None


def shape_sqrt(S: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of a shape, or of each shape of a stack; tiny
    negative eigenvalues are clipped to zero."""
    eigvals, eigvecs = np.linalg.eigh(np.atleast_2d(np.asarray(S, dtype=float)))
    roots = np.sqrt(np.clip(eigvals, 0.0, None))[..., None, :]
    return (eigvecs * roots) @ eigvecs.swapaxes(-1, -2)


def sample_point(
    ell: Ellipsoid, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Draw points uniformly from the ellipsoid (uniform ball through sqrt(S)).

    Samples always satisfy ``contains``; a zero shape returns the center.
    With ``size`` a (size, d) batch is drawn in one vectorized pass.
    """
    return _draw(ell.center, shape_sqrt(ell.shape), rng, size)


def _draw(
    center: np.ndarray, root: np.ndarray, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """``sample_point`` for E(center, S) given root = shape_sqrt(S), so a caller
    drawing many points from one set computes the root once."""
    d = center.size
    if size is None:
        direction = rng.standard_normal(d)
        norm = np.linalg.norm(direction)
        if norm > 0.0:
            direction /= norm
        radius = rng.random() ** (1.0 / d)
        return center + root @ (radius * direction)
    directions = rng.standard_normal((int(size), d))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    np.divide(directions, norms, out=directions, where=norms > 0.0)
    radii = rng.random((int(size), 1)) ** (1.0 / d)
    return center + (radii * directions) @ root
