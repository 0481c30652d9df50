"""Reference calculus the tests check the library against.

None of it runs in the estimator: the admissible sum-parameter interval bounds
the trace-optimal p, the scalar fold checks ``minkowski_sum_outer`` against
the closed form (sum of sqrts)^2, and ``intersection_outer`` is the split
x = M x + (I - M) x that ``observer.fuse`` must reproduce bit for bit, its
outer sum written out in numpy rather than taken from the library. The
per-set polyline writer is what the CLI's stacked writer must reproduce byte
for byte, the scipy-wrapped generalized distance is what the metrics' stacked
numpy distances must reproduce to rounding, and the per-pattern listing is what
``check``'s blocked listing must print. Each pattern's own pair of solves is
what the stacked window shapes must reproduce bit for bit, and the
eigenvalues of every posterior decide what the screened resolution check must
raise. The per-step plant, trigger and noise
draws are what the simulation's batched plant must reproduce bit for bit. The
``csv.DictReader`` log reader is what ``read_log`` must match, in its results
and in its messages.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from setobs import (
    Ellipsoid,
    SingularShapeError,
    affine_transform,
    epsilon_observability,
    minkowski_sum_outer,
)
from setobs.cli import BOUNDARY_POINTS, PLOT_STEPS, ConfigError
from setobs.ellipsoid import _draw, shape_sqrt
from setobs.observer import RESOLUTION_MARGIN, _require_record
from setobs.observability import SystemModel, TriggerConfig, WindowSolver
from setobs.simulation import _noise_roots


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

    Returns the trace-optimal outer Minkowski sum (1 + 1/p) S1' + (1 + p) S2',
    p = sqrt(Tr S1' / Tr S2'), of E(M c1, S1') and E((I-M) c2, S2') with
    S1' = M S1 M^T and S2' = (I-M) S2 (I-M)^T; contains the intersection for
    any square M. A part of zero trace is a point, and the sum is the other
    part; p = 1 where a trace is negative (within the PSD tolerance).
    """
    if e1.dim != e2.dim:
        raise ValueError(f"dimension mismatch: {e1.dim} vs {e2.dim}")
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape != (e1.dim, e1.dim):
        raise ValueError(f"fusion matrix must be {e1.dim}x{e1.dim}, got {M.shape}")
    part1, part2 = affine_transform(e1, M), affine_transform(e2, np.eye(e1.dim) - M)
    S1, S2 = part1.shape, part2.shape
    t1, t2 = float(np.trace(S1)), float(np.trace(S2))
    if t1 == 0.0:
        shape = S2
    elif t2 == 0.0:
        shape = S1
    else:
        p = float(np.sqrt(t1 / t2)) if t1 > 0.0 and t2 > 0.0 else 1.0
        shape = (1.0 + 1.0 / p) * S1 + (1.0 + p) * S2
    return Ellipsoid(part1.center + part2.center, shape)


def write_polylines(out_dir: Path, estimates, n: int) -> list[str]:
    """The polyline files of ``setobs simulate``, one set and one pair at a time:
    each set is projected by ``affine_transform`` and rooted by ``shape_sqrt``."""
    if n < 2:
        return []
    angles = np.linspace(0.0, 2.0 * np.pi, BOUNDARY_POINTS, endpoint=False)
    circle = np.vstack([np.cos(angles), np.sin(angles)])
    names = []
    for i, j in combinations(range(n), 2):
        name = "ellipsoids.csv" if n == 2 else f"ellipsoids_x{i + 1}x{j + 1}.csv"
        projector = np.zeros((2, n))
        projector[0, i] = 1.0
        projector[1, j] = 1.0
        with open(out_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "set_kind", "x1", "x2"])
            for out in estimates[:PLOT_STEPS]:
                sets = [("measurement", out.measurement_set), ("posterior", out.posterior_set)]
                if out.prior_set is not None:
                    sets.insert(1, ("prior", out.prior_set))
                for kind, ell in sets:
                    shadow = affine_transform(ell, projector)
                    points = (shadow.center[:, None] + shape_sqrt(shadow.shape) @ circle).T
                    for x1, x2 in points:
                        writer.writerow([str(out.k), kind, f"{x1:.17g}", f"{x2:.17g}"])
        names.append(name)
    return names


def cho_distance(center: np.ndarray, shape: np.ndarray, x: np.ndarray) -> float:
    """(x - c)^T S^-1 (x - c) through scipy's ``cho_factor``/``cho_solve``, with
    the regularized retries of ``contains``: 1e-12 Tr(S)/d on the diagonal,
    then 2e-9 Tr(S)/d."""
    residual = x - center
    for lift in (0.0, 1e-12, 2e-9):
        bump = lift * float(np.trace(shape)) / center.size
        try:
            factor = cho_factor(shape + bump * np.eye(center.size) if lift else shape)
        except LinAlgError:
            continue
        return float(residual @ cho_solve(factor, residual))
    raise LinAlgError("shape matrix singular beyond repair")


def list_patterns(model, trigger, weights) -> str:
    """The standard output of ``setobs check`` on an observable system, one
    pattern at a time: bit strings from ``product`` in sorted order, and each
    trace a 1-D sum over the solver's per-flag terms, printed with ``.17g``."""
    report = epsilon_observability(model, trigger, weights)
    terms = WindowSolver(model, trigger, weights)._trace_terms
    lines = [
        f"observability matrix:\n{report.matrix}",
        "full_rank: true",
        f"horizon K: {report.horizon}",
        f"epsilon: {report.epsilon:.17g}",
        f"worst_pattern: {report.worst_pattern}",
    ]
    for bits in product((0, 1), repeat=model.n):
        trace = float(np.sum(np.where(np.asarray(bits, dtype=bool), terms[1], terms[0])))
        lines.append(f"pattern {''.join(map(str, bits))}: {trace:.17g}")
    lines.append("epsilon-observable: yes")
    return "\n".join(lines) + "\n"


def window_shape_two_solves(solver: WindowSolver, pattern) -> np.ndarray:
    """The window shape O^-1 diag(W_i/a_i) O^-T of one event pattern, from
    its own pair of solves against O."""
    w = np.where(pattern, solver.uncertainty[1], solver.uncertainty[0])
    half = np.linalg.solve(solver.matrix, np.diag(w / solver.weights))
    return _symmetrize(np.linalg.solve(solver.matrix, half.T).T)


def resolution_failure(centers, shapes, window_centers, solver: WindowSolver,
                       first_k: int) -> str | None:
    """The message of the first posterior too thin for its center's rounding,
    from the eigenvalues of every posterior, or None if each resolves its
    center: the check of ``_require_resolution`` without its trace screen.
    The arrays are laid out (K, S, ...) as in ``_observe``."""
    n = solver.n
    runs = centers.shape[1]
    centers = centers.reshape(-1, n)
    u = np.finfo(float).eps / 2.0
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(centers, axis=1)
        error = n * u * (solver.cond * np.linalg.norm(window_centers.reshape(-1, n), axis=1)
                         + norms)
    eigs = np.linalg.eigvalsh(shapes.reshape(-1, n, n))
    semi_axis = np.sqrt(np.clip(eigs[:, 0], 0.0, None) + n * u * eigs[:, -1])
    for i in range(len(centers)):
        if not semi_axis[i] >= RESOLUTION_MARGIN * error[i]:
            return (f"posterior at step {first_k + i // runs} has smallest semi-axis "
                    f"{semi_axis[i]:.3e}, below {RESOLUTION_MARGIN:.0f} times the rounding "
                    f"error {error[i]:.3e} of its center (norm {norms[i]:.3e}); the state "
                    f"has outgrown float64 resolution and containment is no longer guaranteed")
    return None


def step_plant(x: np.ndarray, w: np.ndarray, model: SystemModel) -> np.ndarray:
    """One step of x -> A x + w."""
    x = np.asarray(x, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    if x.size != model.n or w.size != model.n:
        raise ValueError(f"state/disturbance must have dimension {model.n}")
    return model.A @ x + w


def evaluate_trigger(
    y: float, y_tau_prev: float, trigger: TriggerConfig
) -> tuple[bool, float]:
    """Send-on-delta decision: transmit iff (y - y_tau)^2 strictly exceeds the threshold.

    Returns (flag, new reference); the reference moves to y only on an event.
    """
    if (y - y_tau_prev) ** 2 > trigger.threshold:
        return True, y
    return False, y_tau_prev


def sample_noise(model: SystemModel, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Draw (w, v) uniformly from their bounded-noise ellipsoids."""
    return _draw_noise(_noise_roots(model), rng)


def _draw_v(roots: tuple[np.ndarray, np.ndarray], rng: np.random.Generator) -> float:
    return float(_draw(np.zeros(1), roots[1], rng)[0])


def _draw_noise(
    roots: tuple[np.ndarray, np.ndarray], rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """``sample_noise`` from precomputed roots: w first, then v."""
    w = _draw(np.zeros(roots[0].shape[0]), roots[0], rng)
    return w, _draw_v(roots, rng)


def read_log_rows(path) -> tuple[int, np.ndarray, np.ndarray]:
    """A channel log read through ``csv.DictReader``, one row dict at a time,
    with the checks and messages of ``read_log``."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ks, flags, references = [], [], []
    for row in rows:
        try:
            gamma = int(row["gamma"])
            if gamma not in (0, 1):
                raise ValueError(f"event flag gamma must be 0 or 1, got {gamma}")
            k, y_tau = int(row["k"]), float(row["y_tau"])
            _require_record(k, y_tau)
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"{path}: malformed log row {row}: {err}") from err
        ks.append(k)
        flags.append(gamma)
        references.append(y_tau)
    if not ks:
        raise ConfigError(f"{path}: log is empty")
    return ks[0], np.array(flags, dtype=bool), np.array(references)
