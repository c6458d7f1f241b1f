"""Rotation-fitting pipelines for discrete maps and immersions.

Everything here is constructive: each estimate is produced by actually
fitting the competitor map (a rotation, a metric-compatible frame, or a
piecewise-constant rotation field) and integrating both sides, so the
reports carry measured empirical constants rather than existence claims.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (
    _RANK_TOL,
    DegenerateFieldError,
    EnergyReport,
    GridDomain,
    GridMap,
    ImmersionField,
    MetricField,
    ReferenceShape,
    energies,
    grid_differential,
    oscillation_and_diameter,
)
from .metric_algebra import OrientedSubspace, isometry_defect, rotation_align, spd_sqrt

RHS_GUARD = 1e-14
CANDIDATE_CAP = 4096
_DESCENT_REL_TOL = 1e-10
# Candidate-pool pairs below which `choose_base_point` scores every candidate:
# the bound's fixed cost exceeds the direct scan there.
_BOUND_MIN_PAIRS = 2**13


def _flat_norms(mats: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(mats * mats, axis=(-2, -1)))


def _guarded_ratio(lhs: float, rhs: float) -> float:
    if lhs < RHS_GUARD and rhs < RHS_GUARD:
        return 0.0
    return float(lhs / max(rhs, RHS_GUARD))


def _as_cell_index(grid: GridDomain, index) -> tuple[int, ...]:
    if np.isscalar(index):
        index = (index,)
    index = tuple(int(i) for i in index)
    if len(index) != grid.dim:
        raise ValueError(f"cell index {index} does not match grid dimension {grid.dim}")
    for i, n in zip(index, grid.cell_shape):
        if not 0 <= i < n:
            raise ValueError(f"cell index {index} outside grid of {grid.cell_shape} cells")
    return index


def _cell_mask(mask: np.ndarray | None, count: int) -> np.ndarray:
    """Flat boolean selection of `count` cells; None selects every cell."""
    mask = np.ones(count, bool) if mask is None else np.asarray(mask, dtype=bool).reshape(-1)
    if mask.shape[0] != count:
        raise ValueError("mask length does not match the number of cells")
    return mask


class EuclideanFit:
    """Best single rotation for a field of square cell differentials.

    `lhs` integrates |Du - R|^p over the fitted cells, `rhs` their oriented
    isometry defect dist^p(Du, SO(d)), and `constant` is the guarded ratio
    lhs / rhs.  Each is integrated on first access: the rotation fit itself
    needs none of them.
    """

    def __init__(self, p: float, rotation: np.ndarray, cells: np.ndarray, cell_volume: float):
        self.p = p
        self.rotation = rotation
        self._cells = cells
        self._cell_volume = cell_volume

    @cached_property
    def lhs(self) -> float:
        return float(self._cell_volume * np.sum(_flat_norms(self._cells - self.rotation) ** self.p))

    @cached_property
    def rhs(self) -> float:
        defect = isometry_defect(self._cells, oriented=True)
        return float(self._cell_volume * np.sum(defect**self.p))

    @cached_property
    def constant(self) -> float:
        return _guarded_ratio(self.lhs, self.rhs)


def _rotation_descent(du: np.ndarray, p: float, start: np.ndarray) -> np.ndarray:
    """Coordinate descent over planar rotation angles, seeded near the optimum.

    The objective sum |Du - R|^p is smooth in the angles, so halving the step
    until the relative improvement drops below 1e-10 is enough here; no
    gradient information is needed.
    """
    d = start.shape[0]
    pairs = list(itertools.combinations(range(d), 2))
    if not pairs:
        return start

    def objective(rot: np.ndarray) -> float:
        return float(np.sum(_flat_norms(du - rot) ** p))

    best_rot = start
    best = objective(start)
    step = np.pi / 8
    while step > 1e-12:
        moved = False
        for i, j in pairs:
            for sign in (1.0, -1.0):
                c, s = np.cos(sign * step), np.sin(sign * step)
                givens = np.eye(d)
                givens[i, i] = c
                givens[j, j] = c
                givens[i, j] = -s
                givens[j, i] = s
                candidate = givens @ best_rot
                value = objective(candidate)
                if value < best * (1.0 - _DESCENT_REL_TOL):
                    best_rot, best, moved = candidate, value, True
        if not moved:
            step *= 0.5
    return best_rot


def euclidean_best_rotation(
    du_cells: np.ndarray,
    cell_volume: float = 1.0,
    p: float = 2.0,
    mask: np.ndarray | None = None,
) -> EuclideanFit:
    """Fit one rotation to per-cell square differentials.

    For p = 2 the cell average's oriented Procrustes factor is the exact
    minimizer of sum |Du - R|^2 over rotations; for other exponents that
    closed form seeds a descent over rotation angles.  `mask` selects the
    cells entering the fit and the integrals (callers exclude flagged
    degenerate cells); the returned fit integrates both sides on demand.
    """
    du = np.asarray(du_cells, dtype=float)
    if du.ndim < 2 or du.shape[-1] != du.shape[-2]:
        raise ValueError("euclidean fitting needs square cell differentials")
    if not p > 1.0:
        raise ValueError("exponent p must exceed 1")
    d = du.shape[-1]
    du = du.reshape(-1, d, d)
    used = du[_cell_mask(mask, du.shape[0])]
    if used.size == 0:
        raise DegenerateFieldError("no cells available for rotation fitting")
    sing = np.linalg.svd(used, compute_uv=False)
    full_rank = sing[..., -1] > _RANK_TOL * np.maximum(sing[..., 0], 1.0)
    if not full_rank.any():
        raise DegenerateFieldError("every cell differential is rank deficient")

    rotation = rotation_align(used.mean(axis=0))
    if p != 2.0:
        rotation = _rotation_descent(used, p, rotation)

    return EuclideanFit(p, rotation, used, cell_volume)


@dataclass(frozen=True, eq=False)
class RigidityReport:
    """One rigidity estimate: the fitted map and both sides of the inequality.

    `rotation` maps the flat cube into the target and satisfies
    rotation.T @ rotation = gram at the base cell.  The equidimensional
    pipeline leaves `bend_scale` and `plane_variation` at zero.
    """

    p: float
    base_index: tuple[int, ...]
    rotation: np.ndarray
    lhs: float
    osc_term: float
    stretch: float
    bend_scale: float
    plane_variation: float
    constant: float


def _metric_frame_fit(
    du: np.ndarray, g: MetricField, base_index: tuple[int, ...], p: float, mask: np.ndarray
) -> np.ndarray:
    """The frame fit of `metric_rigidity` on (N, d, d) cell maps; `local_rigidity` shares it."""
    t_mat = spd_sqrt(g.cell_grams[base_index])
    fit = euclidean_best_rotation(du @ np.linalg.inv(t_mat), g.grid.cell_volume, p, mask)
    return fit.rotation @ t_mat


def _oscillation_term(g: MetricField, p: float) -> float:
    """Domain volume times the p-th power of the metric oscillation over the grid."""
    return g.grid.volume * g._oscillation**p


def metric_rigidity(
    u: GridMap,
    g: MetricField,
    base_index=None,
    p: float = 2.0,
    mask: np.ndarray | None = None,
) -> RigidityReport:
    """Fit a metric-compatible frame R with R.T @ R = gram(base cell).

    The fit runs in flattened coordinates: with T the symmetric square root
    of the base-cell Gram matrix, a plain rotation is fitted to Du T^{-1}
    and pulled back as R = fitted T.  Both sides integrate with Lebesgue
    measure; the deviation norms use the local Gram matrix of each cell.
    """
    grid = u.grid
    if u.ambient_dim != grid.dim:
        raise ValueError("metric rigidity needs an equidimensional map")
    if g.grid != grid:
        raise ValueError("map and metric live on different grids")
    if base_index is None:
        base_index = tuple(c // 2 for c in grid.cell_shape)
    base_index = _as_cell_index(grid, base_index)

    du = u.differential.reshape(-1, grid.dim, grid.dim)
    mask = _cell_mask(mask, du.shape[0])
    rotation = _metric_frame_fit(du, g, base_index, p, mask)

    inv_sqrt = g.cell_inv_sqrt.reshape(-1, grid.dim, grid.dim)[mask]
    deviation = (du[mask] - rotation) @ inv_sqrt
    lhs = float(grid.cell_volume * np.sum(_flat_norms(deviation) ** p))
    stretch = float(
        grid.cell_volume
        * np.sum(isometry_defect(du[mask] @ inv_sqrt, oriented=True) ** p)
    )
    osc_term = _oscillation_term(g, p)
    constant = _guarded_ratio(lhs, osc_term + stretch)
    return RigidityReport(
        p=p,
        base_index=base_index,
        rotation=rotation,
        lhs=lhs,
        osc_term=osc_term,
        stretch=stretch,
        bend_scale=0.0,
        plane_variation=0.0,
        constant=constant,
    )


@dataclass(frozen=True, eq=False)
class PlaneField:
    """Per-cell oriented tangent planes of an immersion and their complements."""

    grid: GridDomain
    frames: np.ndarray
    complements: np.ndarray
    degenerate: np.ndarray

    def plane(self, index) -> OrientedSubspace:
        return OrientedSubspace(self.frames[_as_cell_index(self.grid, index)])

    def complement(self, index) -> OrientedSubspace:
        return OrientedSubspace(self.complements[_as_cell_index(self.grid, index)])


def tangent_plane_field(u: ImmersionField) -> PlaneField:
    """Oriented tangent planes and complements of every cell, as `u` built them.

    The arrays are views shared with `u` (`u.frames`, `u.complements`,
    `u.degenerate`; see `ImmersionField._build_normals`), not copies.
    Degenerate cells carry placeholder coordinate frames so the arrays stay
    rectangular; they remain flagged and every consumer skips them.
    """
    return PlaneField(u.grid, u.frames, u.complements, u.degenerate)


def _oriented_gap_sq(comps: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Squared oriented-subspace distance of each complement frame to `base`.

    Closed forms for the only codimensions the immersion targets produce:
    lines (r = 1) and planes (r = 2), where the optimal aligning rotation
    angle is explicit.
    """
    r = comps.shape[-1]
    if r == 1:
        dots = comps[..., :, 0] @ base[:, 0]
        return np.clip(2.0 - 2.0 * dots, 0.0, None)
    if r == 2:
        spun = np.stack([base[:, 1], -base[:, 0]], axis=-1)
        a = np.einsum("...dk,dk->...", comps, base)
        b = np.einsum("...dk,dk->...", comps, spun)
        return np.clip(4.0 - 2.0 * np.hypot(a, b), 0.0, None)
    raise ValueError("complement codimension above 2 is not supported")


def _gap_scores(rows: np.ndarray, pool: np.ndarray, p: float) -> np.ndarray:
    """Summed oriented-gap p-power of each complement frame in `rows` over `pool`.

    The r = 1 and r = 2 forms are written out here, not taken from
    `_oriented_gap_sq`: mirror-image cells tie in exact arithmetic, so the
    base cell between them is decided by the round-off of these operations.
    """
    r = pool.shape[-1]
    flat_pool = pool.reshape(pool.shape[0], -1)
    if r == 2:
        spun_pool = np.stack([pool[:, :, 1], -pool[:, :, 0]], axis=-1)
        spun_flat = spun_pool.reshape(pool.shape[0], -1)
    scores = np.empty(rows.shape[0])
    for lo in range(0, rows.shape[0], 512):
        block = rows[lo : lo + 512].reshape(-1, flat_pool.shape[1])
        if r == 1:
            gap_sq = np.clip(2.0 - 2.0 * block @ flat_pool.T, 0.0, None)
        else:
            a = block @ flat_pool.T
            b = block @ spun_flat.T
            gap_sq = np.clip(4.0 - 2.0 * np.hypot(a, b), 0.0, None)
        scores[lo : lo + 512] = np.sum(gap_sq ** (p / 2.0), axis=-1)
    return scores


def _gap_directions(comps: np.ndarray) -> np.ndarray | None:
    """Unit vectors w with |w_c - w_y|^2 equal to the oriented gap^2, or None.

    For r = 1 the column itself; for orthonormal 2-frames in R^3 the cross
    product c1 x c2, since hypot(a, b) = 1 + <w_c, w_y> there.  Other shapes
    have no such embedding here.
    """
    if comps.shape[-1] == 1:
        return comps[:, :, 0]
    if comps.shape[-2:] == (3, 2):
        return np.cross(comps[:, :, 0], comps[:, :, 1])
    return None


def _unit(vec: np.ndarray) -> np.ndarray | None:
    norm = np.linalg.norm(vec)
    return vec / norm if np.isfinite(norm) and norm > 0.0 else None


def _score_bounds(w_rows: np.ndarray, w_pool: np.ndarray, p: float):
    """Lower bounds on S(c) = sum_y |w_c - w_y|^p for each row, for p >= 2.

    t -> t^(p/2) is convex, so its tangent at |x0 - w_y|^2, applied to
    |w_c - w_y|^2 = |x0 - w_y|^2 + 2 (x0 - w_y).(w_c - x0) + |w_c - x0|^2,
    gives, with a_y = |x0 - w_y|^(p-2), the bound
        S(c) >= sum a_y |x0 - w_y|^2 + p (w_c - x0).sum a_y (x0 - w_y)
                + (p/2) |w_c - x0|^2 sum a_y,
    exact at p = 2 and O(1) per row once the three sums are taken.  The
    anchor x0 is the normalised mean of the pool.  Returns the bounds and the
    first sum, or None when the mean has no direction.
    """
    anchor = _unit(w_pool.sum(axis=0))
    if anchor is None:
        return None
    diff = anchor - w_pool
    dist_sq = np.einsum("nd,nd->n", diff, diff)
    weights = dist_sq ** (p / 2.0 - 1.0)
    base = float(weights @ dist_sq)
    step = w_rows - anchor
    curvature = 0.5 * p * float(weights.sum())
    bound = base + p * (step @ (weights @ diff)) + curvature * np.einsum("md,md->m", step, step)
    return bound, base


def _bound_slack(best, base: float, n: int, p: float):
    """Round-off allowance of the keep-test `bound <= best + slack`.

    With u = 2^-53 and orthonormal frames: a computed gap^2 is within 64u of
    |w_c - w_y|^2 (dot products of at most 6 terms, hypot, the frames' own
    orthonormality error); raising it to p/2 makes that at most
    32 p u (1 + term), and the pairwise sum adds (log2 N + 2) u S, so a score
    is off by at most 2^6 p u (S + N).  In the bound, a_y carries a relative
    error of about 4 p u; the slope and curvature terms multiply it by up to
    6 p, and sum a_y <= base + N (a_y <= 1 where |x0 - w_y| <= 1,
    a_y <= |x0 - w_y|^p elsewhere), so a bound is off by at most
    2^8 p^2 u (base + N) for N < 2^40.  The cell with the least score in the
    full scan has bound <= best + three score errors + one bound error
    <= best + 2^9 p^2 u (best + base + N); 2^-40 p^2 leaves a factor 16.
    """
    return 2.0**-40 * p * p * (best + base + n)


def _bound_survivors(rows: np.ndarray, pool: np.ndarray, p: float) -> np.ndarray:
    """Mask of the rows whose summed gap p-power can still be the smallest.

    The rows' scores are bounded below through `_gap_directions` and
    `_score_bounds`; one exact score, of the row with the lowest bound, sets
    the threshold.  Every row is kept for p < 2, without an embedding, and
    with an undefined anchor.
    """
    keep = np.ones(rows.shape[0], dtype=bool)
    if not p >= 2.0:
        return keep
    w_pool = _gap_directions(pool)
    bounds = None if w_pool is None else _score_bounds(_gap_directions(rows), w_pool, p)
    if bounds is None:
        return keep
    bound, base = bounds
    first = int(np.argmin(bound))
    best = float(_gap_scores(rows[first : first + 1], pool, p)[0])
    # `not >` keeps a row whose bound is NaN, for instance after overflow
    return ~(bound > best + _bound_slack(best, base, pool.shape[0], p))


def choose_base_point(planes: PlaneField, p: float = 2.0, seed: int = 0) -> tuple[int, ...]:
    """Cell whose complement minimizes the summed oriented-gap p-power.

    The sum always runs over every non-degenerate cell; only the candidate
    set is subsampled (seeded, without replacement) once the grid exceeds
    4096 cells.  Ties among equal computed scores break to the lowest linear
    cell index; mirror-image cells, tied in exact arithmetic, can differ by
    round-off, which then picks one of them.

    For p >= 2, complements that are unit lines or 2-frames in R^3 map to
    unit vectors whose distances are the gaps, and a convexity lower bound
    on each candidate's score (see `_bound_survivors`) discards, before any
    scoring, the candidates that cannot win.  For p < 2, for 2-frames in
    other dimensions, when those unit vectors sum to zero, and on small grids
    every candidate is scored.
    """
    good = ~planes.degenerate.reshape(-1)
    if not good.any():
        raise DegenerateFieldError("no non-degenerate cells to anchor at")
    shape = planes.complements.shape
    comps = planes.complements.reshape(-1, shape[-2], shape[-1])
    good_idx = np.nonzero(good)[0]
    if good_idx.size > CANDIDATE_CAP:
        rng = np.random.default_rng(seed)
        candidates = np.sort(rng.choice(good_idx, CANDIDATE_CAP, replace=False))
    else:
        candidates = good_idx

    pool = comps[good]
    r = shape[-1]
    if r == 1 and p == 2.0:
        # sum |w_c - w_y|^2 = 2 N - 2 <w_c, sum w_y>, so one pass suffices
        total = pool[:, :, 0].sum(axis=0)
        scores = -(comps[candidates][:, :, 0] @ total)
    elif r in (1, 2):
        rows = comps[candidates]
        if candidates.size * pool.shape[0] >= _BOUND_MIN_PAIRS:
            keep = _bound_survivors(rows, pool, p)
            candidates, rows = candidates[keep], rows[keep]
        scores = _gap_scores(rows, pool, p)
    else:
        raise ValueError("complement codimension above 2 is not supported")

    winner = int(candidates[int(np.argmin(scores))])
    return tuple(int(i) for i in np.unravel_index(winner, planes.grid.cell_shape))


def local_rigidity(
    u: ImmersionField,
    g: MetricField,
    p: float = 2.0,
    seed: int = 0,
    base_index=None,
) -> RigidityReport:
    """Full constructive pipeline for an immersed cube patch.

    The per-cell tangent planes the immersion built are read (see
    `tangent_plane_field`), a base cell is chosen by the summed
    oriented-gap criterion, the immersion is flattened through the base
    plane's frame, the frame fit of `metric_rigidity` runs there, and the
    result is pushed back into the target.  The right-hand side carries the
    metric oscillation, the stretch energy, and the diameter-scaled excess
    energy; the plane-variation statistic is reported alongside.  The lhs
    integrates with Lebesgue measure, but the stretch and excess terms use
    Riemannian weights sqrt(det gram); with a flat metric the two coincide.
    """
    if g.grid != u.grid:
        raise ValueError("immersion and metric live on different grids")
    planes = tangent_plane_field(u)
    if base_index is None:
        base_index = choose_base_point(planes, p, seed)
    else:
        base_index = _as_cell_index(u.grid, base_index)
        if planes.degenerate[base_index]:
            raise ValueError("requested base cell is degenerate")

    grid = u.grid
    frame = planes.frames[base_index]
    flat_du = grid_differential(grid, u.values @ frame, u.mode).reshape(-1, grid.dim, grid.dim)
    mask = ~u.degenerate.reshape(-1)
    rotation = frame @ _metric_frame_fit(flat_du, g, base_index, p, mask)

    du = u.differential.reshape(-1, u.target.ambient_dim, grid.dim)
    inv_sqrt = g.cell_inv_sqrt.reshape(-1, grid.dim, grid.dim)
    deviation = (du[mask] - rotation) @ inv_sqrt[mask]
    lhs = float(grid.cell_volume * np.sum(_flat_norms(deviation) ** p))

    report = energies(u, g, p=p)
    bend_scale = grid.diameter**p * report.excess
    comps = planes.complements.reshape(-1, u.target.ambient_dim, u.target.ambient_dim - grid.dim)
    gaps_sq = _oriented_gap_sq(comps[mask], planes.complements[base_index])
    plane_variation = float(grid.cell_volume * np.sum(gaps_sq ** (p / 2.0)))

    osc_term = _oscillation_term(g, p)
    constant = _guarded_ratio(lhs, osc_term + report.stretch + bend_scale)
    return RigidityReport(
        p=p,
        base_index=base_index,
        rotation=rotation,
        lhs=lhs,
        osc_term=osc_term,
        stretch=report.stretch,
        bend_scale=bend_scale,
        plane_variation=plane_variation,
        constant=constant,
    )


@dataclass(frozen=True, eq=False)
class SubcubeFit:
    """One subcube's rigidity report plus the geometry used by the bounds."""

    index: tuple[int, ...]
    corner: tuple[int, ...]
    report: RigidityReport
    oscillation: float
    tripled_oscillation: float
    diameter: float


@dataclass(frozen=True, eq=False)
class RotationField:
    """Piecewise-constant fitted maps on a uniform partition into t^d subcubes."""

    grid: GridDomain
    metric: MetricField
    t: int
    p: float
    fits: tuple[SubcubeFit, ...]
    rotations: np.ndarray
    residual: float


def multiscale_fit(
    u: ImmersionField, g: MetricField, t: int, p: float = 2.0, seed: int = 0
) -> RotationField:
    """Fit every subcube of the t-fold uniform partition independently.

    Each subcube runs the full local pipeline on the restricted fields; the
    per-subcube lhs values integrate over disjoint subcubes, so their sum is
    the global residual of the assembled piecewise-constant field.  The
    subcube fields come from `restrict`, which slices the per-cell data
    (differentials, normals, tangent frames, cell metrics) computed once on
    the whole grid, and each subcube's oscillation is the one its restricted
    metric caches for its oscillation term, so every subcube report equals
    what `local_rigidity` gives on freshly built subcube fields.
    """
    grid = u.grid
    if t < 1 or grid.resolution % t != 0:
        raise ValueError(f"partition parameter {t} does not divide resolution {grid.resolution}")
    block = grid.resolution // t
    d = grid.dim
    diam = float(np.linalg.norm([block * grid.spacing] * d))

    fits = []
    rotations = np.zeros((t,) * d + (u.target.ambient_dim, d))
    for index in itertools.product(range(t), repeat=d):
        corner = tuple(block * i for i in index)
        sub_g = g.restrict(corner, block)
        rep = local_rigidity(u.restrict(corner, block), sub_g, p, seed)
        tripled = tuple(
            (max(0, c - block), min(grid.resolution, c + 2 * block)) for c in corner
        )
        osc3, _ = oscillation_and_diameter(g, tripled)
        fits.append(SubcubeFit(index, corner, rep, sub_g._oscillation, osc3, diam))
        rotations[index] = rep.rotation

    residual = float(sum(f.report.lhs for f in fits))
    return RotationField(grid, g, t, p, tuple(fits), rotations, residual)


@dataclass(frozen=True)
class TranslationModulus:
    """Shifted-difference integral of a rotation field over its safe region."""

    shift: tuple[float, ...]
    value: float
    covered_fraction: float


def translation_modulus(field: RotationField, zeta, p: float | None = None) -> TranslationModulus:
    """Integral of |G(x + zeta) - G(x)|^p over the admissible subcubes.

    A subcube is admissible when its tripled cube and the shifted tripled
    cube both stay inside the closed domain cube; shifts at least as long as
    the domain side leave nothing admissible.
    """
    grid = field.grid
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    if zeta.shape[0] != grid.dim:
        raise ValueError("shift vector dimension does not match the grid")
    if p is None:
        p = field.p
    empty = TranslationModulus(tuple(zeta.tolist()), 0.0, 0.0)
    if np.linalg.norm(zeta) >= grid.length:
        return empty

    t = field.t
    side = grid.length / t
    tol = 1e-9 * grid.length
    per_axis = []
    for a in range(grid.dim):
        j = np.arange(t)
        inner = (j >= 1) & (j <= t - 2)
        shifted = ((j - 1) * side + zeta[a] >= -tol) & ((j + 2) * side + zeta[a] <= grid.length + tol)
        per_axis.append(inner & shifted)
    admissible = per_axis[0]
    for ok in per_axis[1:]:
        admissible = admissible[..., None] & ok
    count = int(admissible.sum())
    if count == 0:
        return empty

    block = grid.resolution // t
    sub_of_cell = np.indices(grid.cell_shape) // block
    cell_ok = admissible[tuple(sub_of_cell)].reshape(-1)
    centers = grid.cell_centers().reshape(-1, grid.dim)[cell_ok]
    from_idx = tuple(ix.reshape(-1)[cell_ok] for ix in sub_of_cell)
    to_idx = tuple(np.clip((centers + zeta) // side, 0, t - 1).astype(int).T)
    diff = field.rotations[to_idx] - field.rotations[from_idx]
    inv_sqrt = field.metric.cell_inv_sqrt.reshape(-1, grid.dim, grid.dim)[cell_ok]
    value = float(grid.cell_volume * np.sum(_flat_norms(diff @ inv_sqrt) ** p))
    return TranslationModulus(tuple(zeta.tolist()), value, count / t**grid.dim)


@dataclass(frozen=True, eq=False)
class AsymptoticReport:
    """Energies and convergence diagnostics along a shrinking-perturbation family."""

    p: float
    epsilons: tuple[float, ...]
    energy_reports: tuple[EnergyReport, ...]
    gaps: tuple[float, ...]
    final_defect: float
    shape_error: float | None

    @property
    def shape_error_norm(self) -> float | None:
        if self.shape_error is None:
            return None
        return self.shape_error ** (1.0 / self.p)


def _lebesgue_isometry_defect(u: ImmersionField, g: MetricField, p: float) -> float:
    """Lebesgue integral of dist^p of Du to the cell metric's isometries, off degenerate cells."""
    grid = u.grid
    mask = ~u.degenerate.reshape(-1)
    du = u.differential.reshape(-1, u.target.ambient_dim, grid.dim)[mask]
    inv_sqrt = g.cell_inv_sqrt.reshape(-1, grid.dim, grid.dim)[mask]
    return float(grid.cell_volume * np.sum(isometry_defect(du @ inv_sqrt, oriented=False) ** p))


def asymptotic_sequence_run(
    specs, ref: ReferenceShape | None = None, p: float | None = None
) -> AsymptoticReport:
    """Run a strictly shrinking perturbation family and measure its limits.

    Members must be the perturbed-inclusion family, identical except for a
    strictly decreasing perturbation size.  Reported per member: the energy
    suite and the W^{1,p} gap of the differential to the final member.  For
    the final member: the distance to metric-compatible frames (Lebesgue
    measure) and, with a reference form, the shape-recovery error.
    """
    from .scenarios import build_scenario

    specs = list(specs)
    if len(specs) < 2:
        raise ValueError("asymptotic runs need at least two family members")
    eps = [s.epsilon for s in specs]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("perturbation sizes must decrease strictly")
    base = specs[0].replace(epsilon=0.0)
    for s in specs:
        if s.family != "perturbed":
            raise ValueError("asymptotic runs cover the perturbed-inclusion family")
        if s.replace(epsilon=0.0) != base:
            raise ValueError("family members may differ only in epsilon")
    if p is None:
        p = specs[0].p

    bundles = [build_scenario(s) for s in specs]
    metric = bundles[0].metric
    members = [b.u for b in bundles]
    grid = members[0].grid

    reports = tuple(energies(m, metric, ref, p=p) for m in members)
    final = members[-1]
    gaps = tuple(
        float(
            (grid.cell_volume * np.sum(_flat_norms(m.differential - final.differential) ** p))
            ** (1.0 / p)
        )
        for m in members
    )
    final_defect = _lebesgue_isometry_defect(final, metric, p)
    shape_error = reports[-1].bending_ref if ref is not None else None
    return AsymptoticReport(
        p=p,
        epsilons=tuple(float(e) for e in eps),
        energy_reports=reports,
        gaps=gaps,
        final_defect=final_defect,
        shape_error=shape_error,
    )
