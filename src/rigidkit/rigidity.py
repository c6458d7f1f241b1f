"""Rotation-fitting pipelines for discrete maps and immersions.

Everything here is constructive: each estimate is produced by actually
fitting the competitor map (a rotation, a metric-compatible frame, or a
piecewise-constant rotation field) and integrating both sides, so the
reports carry measured empirical constants rather than existence claims.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (
    DegenerateFieldError,
    EnergyReport,
    GridDomain,
    GridMap,
    ImmersionField,
    MetricField,
    ReferenceShape,
    _energy_sums,
    _full_rank,
    _normal_differential,
    _square_extremes,
    _subgrid,
    _without_radial_part,
    energies,
    oscillation_and_diameter,
)
from .metric_algebra import (
    _entry_sums,
    _times_inv_sqrt,
    frobenius,
    isometry_defect,
    metric_norm,
    rotation_align,
    sign_fixed_qr,
    spd_inv_sqrt,
    spd_sqrt,
)

RHS_GUARD = 1e-14
_DESCENT_REL_TOL = 1e-10
# Candidate pairs of a patch below which `_base_cells` scores every candidate,
# with no bound filter: the bound's fixed cost exceeds the direct scan there.
_BOUND_MIN_PAIRS = 2**13


def _guarded_ratio(lhs: float, rhs: float) -> float:
    if lhs < RHS_GUARD and rhs < RHS_GUARD:
        return 0.0
    return float(lhs / max(rhs, RHS_GUARD))


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
        return float(self._cell_volume * np.sum(frobenius(self._cells - self.rotation) ** self.p))

    @cached_property
    def rhs(self) -> float:
        defect = isometry_defect(self._cells, oriented=True)
        return float(self._cell_volume * np.sum(defect**self.p))

    @cached_property
    def constant(self) -> float:
        return _guarded_ratio(self.lhs, self.rhs)


def _givens(d: int, i: int, j: int, angle: float) -> np.ndarray:
    """The turn by `angle` in the (i, j) plane, shape (d, d)."""
    turn = np.eye(d)
    c, s = np.cos(angle), np.sin(angle)
    turn[i, i] = turn[j, j] = c
    turn[i, j], turn[j, i] = -s, s
    return turn


class _TurnBounds:
    """Lower bounds on the descent's score of every Givens turn of one rotation.

    Built for the best rotation B of `_rotation_descent`, its computed score
    `best` and the squared distances its scoring computed, on the cells'
    (d^2, N) column layout, for p >= 2.  The turn by an angle t in plane
    (i, j) is the candidate fl(G~ B), where G~ holds the computed cos t and
    sin t.  `floor(i, j, t)` is at most that candidate's computed score V,
    and `excludes(i, j, t)` is True when the floor shows that V cannot pass
    the keep test V < best (1 - _DESCENT_REL_TOL), so the descent need not
    build the candidate.

    The bound.  With G(t) the exact turn, P_k = X_k B^T, a_k = P_ii + P_jj
    and b_k = P_ji - P_ij, each cell's e_k(t) = |X_k - G(t) B|^2 is exactly
    e_k(0) + 4 a_k sin^2(t/2) - 2 b_k sin t, for any B (G is orthogonal, so
    |G B| = |B|).  For q = p/2 >= 1, x^q is convex, so its tangent at any
    x0 >= 0 lies below it: x^q >= x0^q + q x0^(q-1) (x - x0).  With
    x0 = e~_k, the computed e_k(0), and w_k = q e~_k^(q-1),
        F(t) = sum e_k(t)^q >= sum e~_k^q + sum w_k (e_k(0) - e~_k)
                               + 4 A sin^2(t/2) - 2 Bb sin t,
    A = sum w_k a_k, Bb = sum w_k b_k.  Both are read off one weighted
    sum M = sum w_k X_k (a (d^2, N) @ (N,) product): with Q = M B^T,
    A = Q_ii + Q_jj and Bb = Q_ji - Q_ij for every plane at once.  The
    computed bound is L = best + 4 A sin^2(t/2) - 2 Bb sin t.

    The slack.  Let u = 2^-53; cos, sin and pow are taken within 4 ulp
    (8u relative).  Write nB = |B|_F, W = sum w, T = sum w sqrt(e~),
    h = 2 |sin(t/2)| nB >= |(G(t) - I) B|_F, g = 4 sin^2(t/2) + 2 |sin t|,
    Z = nB (T + nB W) and K = p (d^2 + 4) / 2 + log2 N + 33.
    - best against F(B).  A computed score, here the descent's objective,
      has relative error eta_V = K u: e~ is within eta_e = (d^2 + 2) u
      relative (one rounded difference and square per entry, d^2 - 1
      additions of non-negative terms), the square root halves that and
      adds u, the p-th power multiplies by p and adds 8u, and numpy's
      pairwise sum over N adds (log2 N + 25) u.  So F(B) >= best (1 - eta_V).
    - The tangent point being the computed e~.  The tangent inequality
      holds at any x0, and sum e~^q >= (1 - q eta_e) F(B); the term
      sum w (e(0) - e~) >= -q eta_e sum e~^q; so the first two terms are
      >= best (1 - 2 q eta_e - eta_V) >= best - 3 K u best, up to O(u^2).
      The computed weights are off by 9u relative, which moves the bound
      by at most 9u sum w |e(t) - e~| <= 9u (2 h T + h^2 W), since
      |e(t) - e(0)| <= h (2 sqrt(e(0)) + h); the e~ part is O(u^2).
    - The rounded cos, sin and product of the candidate.  The computed G~
      is within 8 sqrt(2) u of G(t) in the Frobenius norm, and the d-term
      products of fl(G~ B) add gamma_d |G~| |B| entrywise, so the candidate
      R~ satisfies |R~ - G(t) B|_F <= delta = sqrt(2) (d + 8) u nB.
      Convexity of x^p gives |X - R~|^p >= r^p - p r^(p-1) delta with
      r = |X - G(t) B|, and r <= sqrt(e~) (1 + eta_e) + h, so
      sum r^(p-1) <= 2^(p-2) (T / q + N h^(p-1)) up to O(u).  So the exact
      score of R~ is >= F(t) - p delta 2^(p-2) (T / q + N h^(p-1)), and its
      computed score V >= (1 - eta_V) times that.
    - The rounding of the sums.  M is N-term sums and Q, A and Bb add d + 1
      more terms, in any order, of the products w_k B_cm X_k,cm, whose
      absolute values sum, per plane, to at most nB sum w |X_k|_F <=
      nB (T + nB W) = Z (|X_k| <= sqrt(e_k) + nB).  So 4 A sin^2(t/2) and
      2 Bb sin t are within (N + d + 1) u g Z of their exact values, and
      forming L (its sines within 8u, three products, two sums) adds
      u (best + |L|) and 21 u g Z.
    So V >= L - slack with
        slack = 2 [3 K u (best + |L|) + (N + d + 22) u g Z
                   + 9u (2 h T + h^2 W)
                   + p sqrt(2) (d + 8) u nB 2^(p-2) (T / q + N h^(p-1))]
                + N 2^(p-1000),
    where the factor 2 covers every O(u^2) term above for N < 2^40 and
    the last term covers results that fall below the normal range, which
    carry an absolute error of 2^-1074 times factors below 2^(p+74).  The
    turn is excluded when L - slack >= best (1 - _DESCENT_REL_TOL).  A NaN
    or overflow anywhere leaves the comparison false, so the turn is scored.
    """

    def __init__(self, columns: np.ndarray, rot: np.ndarray, p: float, best: float, sq_dist: np.ndarray):
        """Bounds for the rotation `rot` (d, d) on the cells' `columns` (d^2, N),
        given its computed score `best` and each cell's computed |X_k - rot|^2,
        `sq_dist` (N,), within (d^2 + 2) u relative."""
        d, n = rot.shape[0], columns.shape[-1]
        q = 0.5 * p
        with np.errstate(all="ignore"):
            w = q * sq_dist ** (q - 1.0)
            tangent = float(w @ np.sqrt(sq_dist))
            weight = float(w.sum())
            self._q = ((columns @ w).reshape(d, d) @ rot.T).tolist()
            norm = float(np.sqrt(np.sum(rot * rot)))
        u = 2.0**-53
        self._best = float(best)
        self._threshold = self._best * (1.0 - _DESCENT_REL_TOL)
        self._p, self._n, self._norm = p, n, norm
        self._tangent, self._weight = tangent, weight
        self._relative = 3.0 * u * (p * (d * d + 4) / 2.0 + math.log2(n) + 33.0)
        self._sums = (n + d + 22) * u * norm * (tangent + norm * weight)
        try:
            self._turn = p * math.sqrt(2.0) * (d + 8) * u * norm * 2.0 ** (p - 2.0)
            self._tiny = n * 2.0 ** (p - 1000.0)
        except OverflowError:
            self._turn = self._tiny = math.inf

    def floor(self, i: int, j: int, angle: float) -> float:
        """L - slack: at most the computed score of the turn by `angle` in
        plane (i, j).  NaN or -inf where a term is not finite."""
        half, sine = math.sin(0.5 * angle), math.sin(angle)
        q = self._q
        curve = 4.0 * half * half
        bound = self._best + curve * (q[i][i] + q[j][j]) - 2.0 * sine * (q[j][i] - q[i][j])
        h = 2.0 * abs(half) * self._norm
        tangent, weight = self._tangent, self._weight
        try:
            reach = self._turn * (tangent / (0.5 * self._p) + self._n * h ** (self._p - 1.0))
        except OverflowError:
            return -math.inf
        slack = (
            2.0
            * (
                self._relative * (self._best + abs(bound))
                + (curve + 2.0 * abs(sine)) * self._sums
                + 9.0 * 2.0**-53 * (2.0 * h * tangent + h * h * weight)
                + reach
            )
            + self._tiny
        )
        return bound - slack

    def excludes(self, i: int, j: int, angle: float) -> bool:
        """True when the turn by `angle` in plane (i, j) certainly fails the keep test."""
        return self.floor(i, j, angle) >= self._threshold


def _rotation_descent(du: np.ndarray, p: float, start: np.ndarray) -> np.ndarray:
    """Coordinate descent over planar rotation angles, seeded near the optimum.

    For each plane (i, j) in turn, the Givens turns by +step and -step are
    tried on the best rotation so far, and each is kept when it lowers
    sum |Du - R|^p by more than a relative 1e-10 (`_DESCENT_REL_TOL`); the
    step halves, from pi/8, after a sweep that keeps none, until it reaches
    1e-12.  So the descent stops on that relative-improvement rule, not at
    the exact minimiser: on a 64 x 64 `perturbed_identity` random-metric fit
    its angle lies 8.7e-7 rad from a golden-section minimiser.

    The cells are transposed once into a (d^2, N) column layout.  The
    squared entries of each cell are added by `metric_algebra._entry_sums`,
    in the order `np.sum` over a cell's d x d entries takes (left to right
    for d <= 2, ((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7)), then + c8,
    for d = 3), followed by the same `sqrt`, `** p` and sum over the N
    cells, so every score, and so every decision, equals the cell-by-cell
    formula's, `frobenius(du - R) ** p` summed, bit for bit.

    For p >= 2 a turn is built and scored only when `_TurnBounds` cannot
    show that it fails the keep test: one pass over the columns, at the
    start and after every kept turn, bounds the score of every turn of every
    plane from below, and most turns of a fit, all of them once the
    rotation has settled, are excluded that way.  Excluded turns would not
    have been kept, so the kept turns, and the returned rotation, are those
    of scoring every turn.  What still costs is a pass per kept turn, the
    turns the bound leaves open, a few of the large early steps and, where
    the cells lie within about 1e-4 of the rotation, the small late steps
    whose candidate round-off the slack must allow for; below p = 2,
    x^(p/2) is concave and every turn is scored, each in its own pass.
    """
    d = start.shape[0]
    pairs = list(itertools.combinations(range(d), 2))
    if not pairs:
        return start
    columns = np.ascontiguousarray(du.reshape(-1, d * d).T)
    squares = np.empty_like(columns)

    def objective(rot: np.ndarray) -> tuple[float, np.ndarray]:
        """sum |Du - R|^p for the rotation `rot` (d, d), and each cell's
        |Du - R|^2, shape (N,)."""
        sq = np.subtract(columns, rot.reshape(-1, 1), out=squares)
        sq *= sq
        sq_dist = _entry_sums(sq)
        total = np.sqrt(sq_dist)
        np.power(total, p, out=total)
        return np.sum(total), sq_dist

    def bounds(sq_dist: np.ndarray) -> _TurnBounds | None:
        return _TurnBounds(columns, best_rot, p, best, sq_dist) if p >= 2.0 else None

    best_rot = start
    best, sq_dist = objective(start)
    turn_bounds = bounds(sq_dist)
    step = np.pi / 8
    while step > 1e-12:
        moved = False
        for i, j in pairs:
            for angle in (step, -step):
                if turn_bounds is not None and turn_bounds.excludes(i, j, angle):
                    continue
                candidate = _givens(d, i, j, angle) @ best_rot
                value, sq_dist = objective(candidate)
                if value < best * (1.0 - _DESCENT_REL_TOL):
                    best_rot, best, moved = candidate, value, True
                    turn_bounds = bounds(sq_dist)
        if not moved:
            step *= 0.5
    return best_rot


def _fit_rotations(du: np.ndarray, p: float) -> np.ndarray:
    """Best rotation for each patch of square cell maps du (S, N, d, d): (S, d, d).

    The oriented Procrustes factor of each patch's cell average, then, for
    p != 2, the descent from it, run patch by patch.  For p > 2 a patch's
    descent scores only the turns its convexity bound leaves open (see
    `_TurnBounds`), a few per fit once the seed is near the minimiser, so
    small patches cost a handful of numpy calls per kept step rather than
    two scored turns per step.  Raises when a patch has
    no cells or no full-rank cell.  One full-rank cell settles a patch, so
    each patch's first cell is tested alone, and every cell only of the
    patches where that one fails.
    """
    if du.shape[-3] == 0:
        raise DegenerateFieldError("no cells available for rotation fitting")
    unsure = ~_full_rank(_square_extremes(du[:, 0]))
    if unsure.any() and not _full_rank(_square_extremes(du[unsure])).any(axis=-1).all():
        raise DegenerateFieldError("every cell differential is rank deficient")
    rotation = rotation_align(du.mean(axis=-3))
    if p != 2.0:
        rotation = np.stack([_rotation_descent(x, p, start) for x, start in zip(du, rotation)])
    return rotation


def euclidean_best_rotation(du_cells: np.ndarray, cell_volume: float = 1.0, p: float = 2.0) -> EuclideanFit:
    """Fit one rotation to per-cell square differentials.

    For p = 2 the cell average's oriented Procrustes factor is the exact
    minimizer of sum |Du - R|^2 over rotations; for other exponents that
    closed form seeds a descent over rotation angles.  The returned fit
    integrates both sides on demand, over a view of `du_cells`.  This is the
    one-patch call of `_fit_rotations`.
    """
    du = np.asarray(du_cells, dtype=float)
    if du.ndim < 2 or du.shape[-1] != du.shape[-2]:
        raise ValueError("euclidean fitting needs square cell differentials")
    if not p > 1.0:
        raise ValueError("exponent p must exceed 1")
    d = du.shape[-1]
    du = du.reshape(-1, d, d)
    rotation = _fit_rotations(du[None], p)[0]
    return EuclideanFit(p, rotation, du, cell_volume)


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


def _metric_frame_fit(du: np.ndarray, gram: np.ndarray, p: float) -> np.ndarray:
    """Frames R (S, d, d) with R.T @ R = gram, fitted to cell maps du (S, N, d, d).

    With T the symmetric square root of each patch's base Gram matrix
    (S, d, d), a rotation is fitted to du T^{-1} and pulled back as R =
    fitted T.  T^{-1} is shared by every cell of a patch, so du T^{-1} is one
    product per patch, over its cells' rows stacked (S, N d, d).
    `metric_rigidity` and the local pipeline share it.
    """
    if not p > 1.0:
        raise ValueError("exponent p must exceed 1")
    flat = (du.reshape(du.shape[0], -1, du.shape[-1]) @ spd_inv_sqrt(gram)).reshape(du.shape)
    return _fit_rotations(flat, p) @ spd_sqrt(gram)


def _oscillation_term(grid: GridDomain, oscillation: float, p: float) -> float:
    """Domain volume times the p-th power of the metric oscillation over the grid."""
    return grid.volume * oscillation**p


def metric_rigidity(u: GridMap, g: MetricField, p: float = 2.0) -> RigidityReport:
    """Fit a metric-compatible frame R with R.T @ R = gram at the centre cell.

    The fit runs in flattened coordinates: with T the symmetric square root
    of that Gram matrix, a plain rotation is fitted to Du T^{-1}
    and pulled back as R = fitted T.  Both sides integrate with Lebesgue
    measure; the deviation norms use the local Gram matrix of each cell.
    """
    grid = u.grid
    if u.ambient_dim != grid.dim:
        raise ValueError("metric rigidity needs an equidimensional map")
    if g.grid != grid:
        raise ValueError("map and metric live on different grids")
    base_index = tuple(c // 2 for c in grid.cell_shape)

    du = u.differential.reshape(-1, grid.dim, grid.dim)
    inv_sqrt = g.cell_inv_sqrt.reshape(-1, grid.dim, grid.dim)
    rotation = _metric_frame_fit(du[None], g.cell_grams[base_index][None], p)[0]

    lhs = float(grid.cell_volume * np.sum(metric_norm(du - rotation, inv_sqrt) ** p))
    defect = isometry_defect(_times_inv_sqrt(du, inv_sqrt), oriented=True)
    stretch = float(grid.cell_volume * np.sum(defect**p))
    osc_term = _oscillation_term(grid, g._oscillation, p)
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


def tangent_plane_field(u: ImmersionField) -> PlaneField:
    """Oriented tangent planes and complements of every cell, as `u` derives them.

    The arrays are `u.frames`, `u.complements` and `u.degenerate` themselves,
    not copies; the first call derives them if nothing has read them yet.
    Degenerate cells carry placeholder coordinate frames so the arrays stay
    rectangular; they remain flagged and every consumer skips them.  The
    fitting pipelines need a frame only at base cells and do not call it.
    """
    return PlaneField(u.grid, u.frames, u.complements, u.degenerate)


def _gap_scores(rows: np.ndarray, pool: np.ndarray, p: float) -> np.ndarray:
    """Summed oriented-gap p-power of each complement frame in `rows`
    (S, M, D, r) over the `pool` (S, N, D, r) of its patch: (S, M); S may be
    absent.

    Closed forms for the only codimensions the immersion targets produce:
    lines (r = 1), gap^2 = 2 - 2 <c, c'>, and planes (r = 2), gap^2 =
    4 - 2 hypot(a, b) with a = <c, c'> and b = <c, c' spun by a right
    angle>, where the optimal aligning rotation angle is explicit.  This is
    the base-cell criterion and, scored for the base cell alone, the plane
    variation.  Mirror-image cells tie in exact arithmetic, so the base cell
    between them is decided by the round-off of these operations.  Rows are
    scored in blocks of at most 512: floor(512 / M) whole patches, or
    512-row slices of one patch when M > 512.  OpenBLAS rounds a row of a
    product differently with its row count, so each patch's rows in a block
    are one product of their one-patch shape, whatever S is.
    """
    lead, m = rows.shape[:-3], rows.shape[-3]
    count, width, r = int(np.prod(lead)), pool.shape[-2] * pool.shape[-1], pool.shape[-1]
    flat_rows = rows.reshape((count, m, width))
    pool_t = np.swapaxes(pool.reshape((count, -1, width)), -1, -2)
    if r == 2:
        spun_pool = np.stack([pool[..., 1], -pool[..., 0]], axis=-1)
        spun_t = np.swapaxes(spun_pool.reshape((count, -1, width)), -1, -2)
    scores = np.empty((count, m))
    per = max(1, 512 // max(m, 1))
    for first in range(0, count, per):
        patch = slice(first, first + per)
        for lo in range(0, m, 512):
            block = flat_rows[patch, lo : lo + 512]
            if r == 1:
                gap_sq = np.clip(2.0 - 2.0 * block @ pool_t[patch], 0.0, None)
            else:
                a = block @ pool_t[patch]
                b = block @ spun_t[patch]
                gap_sq = np.clip(4.0 - 2.0 * np.hypot(a, b), 0.0, None)
            scores[patch, lo : lo + 512] = np.sum(gap_sq ** (p / 2.0), axis=-1)
    return scores.reshape(lead + (m,))


def _line_scores(comps: np.ndarray) -> np.ndarray:
    """`_gap_scores` of lines (S, M, D, 1) over themselves at p = 2 up to a
    shift and scale, for ranking: sum |w_c - w_y|^2 = 2 M - 2 <w_c, sum w_y>,
    so the score is -<w_c, sum w_y>, one pass and one matrix-vector product."""
    total = comps[..., 0].sum(axis=-2)
    return -(comps[..., 0] @ total[..., None])[..., 0]


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


def _score_bounds(w: np.ndarray, p: float):
    """Lower bounds on S(c) = sum_y |w_c - w_y|^p for each of one patch's unit
    vectors w (M, D), the sum running over all of them, for p >= 2.

    t -> t^(p/2) is convex, so its tangent at |x0 - w_y|^2, applied to
    |w_c - w_y|^2 = |x0 - w_y|^2 + 2 (x0 - w_y).(w_c - x0) + |w_c - x0|^2,
    gives, with a_y = |x0 - w_y|^(p-2), the bound
        S(c) >= sum a_y |x0 - w_y|^2 + p (w_c - x0).sum a_y (x0 - w_y)
                + (p/2) |w_c - x0|^2 sum a_y,
    exact at p = 2 and O(1) per cell once the three sums are taken.  The
    anchor x0 is the normalised mean of w; w_c - x0 = -(x0 - w_c) exactly,
    so the slope and curvature terms reuse those differences.  Returns the
    bounds and the first sum, or None when the mean has no direction.
    """
    total = w.sum(axis=0)
    norm = np.linalg.norm(total)
    if not (np.isfinite(norm) and norm > 0.0):
        return None
    diff = total / norm - w
    dist_sq = np.einsum("nd,nd->n", diff, diff)
    weights = dist_sq ** (p / 2.0 - 1.0)
    base = float(weights @ dist_sq)
    curvature = 0.5 * p * float(weights.sum())
    bound = base - p * (diff @ (weights @ diff)) + curvature * dist_sq
    return bound, base


def _bound_slack(best, base: float, n: int, p: float):
    """Round-off allowance of the keep-test `bound <= best + slack`.

    With u = 2^-53, w from `_gap_directions` and delta = |F^T F - I|_F <=
    2^-20 for each frame F, a computed gap^2 is within 72 u + 3.5 (delta_c
    + delta_y) of |w_c - w_y|^2.  For lines the exact part is delta_c +
    delta_y.  For 2-frames, with s1 >= s2 the singular values of
    M = F_c^T F_y and s the sign of det M, hypot(a, b) = s1 + s s2,
    |w|^2 = det F^T F and w_c.w_y = det M, so 4 - 2 hypot - |w_c - w_y|^2 =
    (1 - det F_c^T F_c) + (1 - det F_y^T F_y) + 2 (1 - s1)(1 - s s2), where
    |1 - det F^T F| <= sqrt(2) delta + delta^2 / 2 and a unit vector in both
    planes gives |(1 - s1)(1 - s s2)| <= |1 - s1^2| <= delta_c + delta_y +
    delta_c delta_y.  Rounding adds 46 u through a and b (6-term dot
    products), hypot and 4 - 2 hypot, and 23 u through the cross products.
    The pipeline's 2-frames, (normal, +-radial) on latitude arcs, measure
    delta <= 10 u, so their gap^2 is within 142 u; raising it to p/2 makes
    that at most 71 p u (1 + term), and the pairwise sum adds
    (log2 N + 2) u S, so a score is off by at most 2^7 p u (S + N).  In the
    bound, a_y carries a relative error of about 4 p u; the slope and
    curvature terms multiply it by up to 6 p, and sum a_y <= base + N
    (a_y <= 1 where |x0 - w_y| <= 1, a_y <= |x0 - w_y|^p elsewhere), so a
    bound is off by at most 2^8 p^2 u (base + N) for N < 2^40.  The cell
    with the least score in the full scan has bound <= best + three score
    errors + one bound error <= best + 2^9 p^2 u (best + base + N);
    2^-40 p^2 leaves a factor 16, and covers frames with delta up to 2^-43.
    """
    return 2.0**-40 * p * p * (best + base + n)


def _bound_survivors(comps: np.ndarray, p: float) -> np.ndarray:
    """Mask of one patch's candidates (M, D, r) whose score can still be the smallest.

    The scores are bounded below through one `_gap_directions` and
    `_score_bounds`; one exact score, of the candidate with the lowest bound,
    sets the threshold.  Every candidate is kept for p < 2, without an
    embedding, and with an undefined anchor.
    """
    w = _gap_directions(comps) if p >= 2.0 else None
    bounds = None if w is None else _score_bounds(w, p)
    if bounds is None:
        return np.ones(comps.shape[0], dtype=bool)
    bound, base = bounds
    first = int(np.argmin(bound))
    best = float(_gap_scores(comps[first : first + 1], comps, p)[0])
    # `not >` keeps a candidate whose bound is NaN, for instance after overflow
    return ~(bound > best + _bound_slack(best, base, comps.shape[0], p))


def _base_cells(comps: np.ndarray, p: float) -> np.ndarray:
    """Index of each patch's base cell among its candidates (S, M, D, r),
    every cell a candidate (callers drop degenerate cells); see
    `choose_base_point`.  Lines at p = 2 (`_line_scores`) and patches below
    `_BOUND_MIN_PAIRS` (`_gap_scores`) are scored as one stack, larger
    patches one by one after the bound filter.  Scored rows and pool are
    separate buffers: numpy runs A @ A.T on one buffer as a symmetric
    product, which rounds differently."""
    if comps.shape[-1] not in (1, 2):
        raise ValueError("complement codimension above 2 is not supported")
    if comps.shape[-1] == 1 and p == 2.0:
        return np.argmin(_line_scores(comps), axis=-1)
    if comps.shape[-3] ** 2 < _BOUND_MIN_PAIRS:
        return np.argmin(_gap_scores(comps, comps.copy(), p), axis=-1)
    survivors = [np.flatnonzero(_bound_survivors(patch, p)) for patch in comps]
    return np.array([kept[np.argmin(_gap_scores(patch[kept], patch, p))] for patch, kept in zip(comps, survivors)])


def choose_base_point(planes: PlaneField, p: float = 2.0) -> tuple[int, ...]:
    """Cell whose complement minimizes the summed oriented-gap p-power.

    Every non-degenerate cell is a candidate, and each sum runs over all of
    them, at every grid size (`DegenerateFieldError` when there is none).
    Ties among equal computed scores break to the lowest linear cell index;
    mirror-image cells, tied in exact arithmetic, can differ by round-off,
    which then picks one of them.

    For p >= 2, complements that are unit lines or 2-frames in R^3 map to
    unit vectors whose distances are the gaps, and a convexity lower bound
    on each candidate's score (see `_bound_survivors`) discards, before any
    scoring, the candidates that cannot win.  For p < 2, for 2-frames in
    other dimensions, when those unit vectors sum to zero, and on small grids
    every candidate is scored.

    The pipelines call `_base_cells` directly, in `_local_fits`, on one patch
    or on all subcubes of a partition, each without its degenerate cells.
    """
    keep = ~planes.degenerate.reshape(-1)
    if not keep.any():
        raise DegenerateFieldError("no non-degenerate cells to anchor at")
    comps = planes.complements.reshape((-1,) + planes.complements.shape[-2:])[keep]
    cell = np.flatnonzero(keep)[_base_cells(comps[None], p)[0]]
    return tuple(int(i) for i in np.unravel_index(cell, planes.grid.cell_shape))


# (name, read from the metric) for every per-cell array of the immersion and
# the metric that the local pipeline reads at every cell.
_PATCH_DATA = (
    *((name, False) for name in ("differential", "degenerate", "normal", "complements")),
    *((name, True) for name in ("cell_inv_sqrt", "cell_sqrt_det")),
)


def _subcube_major(cells: np.ndarray, t: int, dim: int) -> np.ndarray:
    """Per-cell data (*cell_shape, ...) of the t-fold partition's subcubes, as
    (subcubes, *block_shape, ...): the subcubes in C order, each with its
    cells in C order.  A view in dimension 1, at t = 1 or on data that
    repeat one entry over the cells (a constant metric's, whose zero strides
    survive any regrouping), one transposing copy otherwise."""
    block = cells.shape[0] // t
    rest = cells.shape[dim:]
    split = cells.reshape((t, block) * dim + rest)
    order = [*range(0, 2 * dim, 2), *range(1, 2 * dim, 2), *range(2 * dim, split.ndim)]
    return split.transpose(order).reshape((-1,) + (block,) * dim + rest)


def _corners(t: int, dim: int, block: int) -> np.ndarray:
    """First cell of each subcube of the t-fold partition, (t**dim, dim), in C order."""
    return block * np.indices((t,) * dim).reshape(dim, -1).T


class _Patches:
    """Equal patches of one immersion and its metric, stacked on a leading axis.

    `grid` is each patch's own grid.  Every array of `_PATCH_DATA` is an
    attribute holding cell data (S, *cell_shape, ...), one patch per leading
    index; the pipeline flattens by Fᵀ·du on it (`_flatten`).  So is
    `corner`, each patch's first cell in the parent grid: the local pipeline
    reads the parent metric's `grams` (*cell_shape, d, d) from it at base
    cells only, and `RotationField.fits` starts each subcube's oscillation box
    at the same `_corners`.
    """

    def __init__(self, grid: GridDomain, target, grams: np.ndarray, arrays: dict):
        self.grid = grid
        self.target = target
        self.grams = grams
        self.arrays = arrays
        vars(self).update(arrays)

    @classmethod
    def subcubes(cls, u: ImmersionField, g: MetricField, t: int) -> "_Patches":
        """The subcubes of the t-fold partition of `u` and `g`, in C order.

        This is the one way a subcube is cut: `_subcube_major` regroups each
        parent per-cell array subcube by subcube, on a sub-grid with the
        parent's spacing, so each subcube's data equals, bit for bit, that of
        a fresh `ImmersionField` and `MetricField` built on the sliced nodes
        over the sub-grid.  No patch factorises or differentiates anything:
        the parents' arrays are read (derived first if nothing has read them
        yet), and flattening is Fᵀ·du on the sliced differential.  At t = 1
        the one patch views `u`'s and `g`'s arrays on `u.grid`.
        """
        d = u.grid.dim
        block = u.grid.resolution // t
        arrays = {
            name: _subcube_major(getattr(g if from_metric else u, name), t, d)
            for name, from_metric in _PATCH_DATA
        }
        arrays["corner"] = _corners(t, d, block)
        return cls(_subgrid(u.grid, block), u.target, g.cell_grams, arrays)

    def take(self, rows) -> "_Patches":
        arrays = {k: v[rows] for k, v in self.arrays.items()}
        return _Patches(self.grid, self.target, self.grams, arrays)


def _flatten(du: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Fᵀ·du for the cell maps du (S, N, D, d) of each patch and its frame F
    (S, D, d): (S, N, d, d).

    F is shared by every cell of a patch, so for d >= 2 this is one product
    per patch: the rows of every cell's du^T, stacked (S, N d, D), times F,
    then transposed back, which equals the per-cell product bit for bit.  At
    d = 1 numpy runs that product as one matrix-vector product, which rounds
    unlike each cell's dot product, so curves keep the per-cell product.
    """
    if du.shape[-1] == 1:
        return np.swapaxes(frame, -1, -2)[:, None] @ du
    rows = np.swapaxes(du, -1, -2).reshape(du.shape[0], -1, du.shape[-2])
    return np.swapaxes((rows @ frame).reshape(du.shape[:-2] + du.shape[-1:] * 2), -1, -2)


# The terms of `_LocalFits` computed on their first read, in this order.
_DEFERRED_TERMS = ("stretch", "bend_scale", "plane_variation")


class _LocalFits:
    """The terms of `_local_fits`, one row per patch.

    `base_index` (S, d), `rotation` (S, D, d) and `lhs` (S,) come with the
    fit.  `stretch`, `bend_scale` and `plane_variation` (S,) are computed on
    the first read of any of them, by `terms`, a callable returning the three
    in that order; it holds only the patch arrays those terms read, and is
    dropped once it has run.  A `multiscale` run reads none of them.  None of
    the terms depends on the metric oscillation, which only `osc_term` and
    `constant` of a report carry."""

    def __init__(self, base_index: np.ndarray, rotation: np.ndarray, lhs: np.ndarray, terms):
        self.base_index = base_index
        self.rotation = rotation
        self.lhs = lhs
        self._terms = terms

    @cached_property
    def _deferred(self) -> dict[str, np.ndarray]:
        terms = dict(zip(_DEFERRED_TERMS, self._terms()))
        del self._terms
        return terms

    stretch = property(lambda self: self._deferred["stretch"])
    bend_scale = property(lambda self: self._deferred["bend_scale"])
    plane_variation = property(lambda self: self._deferred["plane_variation"])

    def reports(self, grid: GridDomain, osc, p: float) -> list[RigidityReport]:
        """One report per row, on the patch grid `grid`, `osc` holding each
        patch's metric oscillation."""
        rows = zip(
            self.base_index.tolist(),
            self.rotation,
            self.lhs.tolist(),
            self.stretch.tolist(),
            self.bend_scale.tolist(),
            self.plane_variation.tolist(),
            osc,
        )
        reports = []
        for base_index, rotation, lhs, stretch, bend_scale, plane_variation, patch_osc in rows:
            osc_term = _oscillation_term(grid, patch_osc, p)
            reports.append(
                RigidityReport(
                    p=p,
                    base_index=tuple(base_index),
                    rotation=rotation,
                    lhs=lhs,
                    osc_term=osc_term,
                    stretch=stretch,
                    bend_scale=bend_scale,
                    plane_variation=plane_variation,
                    constant=_guarded_ratio(lhs, osc_term + stretch + bend_scale),
                )
            )
        return reports


def _local_fits(patches: _Patches, p: float) -> _LocalFits:
    """The local pipeline of `local_rigidity` on every patch, as arrays with
    one row per patch.

    A fit integrates over a patch's non-degenerate cells only, so a patch
    that keeps fewer than half of its cells would report on a different
    domain than the one it names: that raises `DegenerateFieldError`.

    Every stage, the base-cell choice too, reads only the kept cells
    (`cells`).  One `_base_cells` call chooses the base cells, and the frame
    the pipeline flattens through is factored from each base cell's
    differential alone.
    Every stage is one array computation over the patch axis, with each
    patch's products and sums shaped as for that patch alone, so each row
    equals the one-patch run bit for bit.  The factors shared by every cell
    of a patch, its frame F in Fᵀ·du and T^{-1} in `_metric_frame_fit`, are
    applied as one product per patch, over its cells' rows stacked; on a
    constant metric every cell's g^{-1/2} is one matrix, and the lhs and
    energy terms apply it as one product over all patches (see
    `metric_algebra.metric_norm`), unless a mask below gathers it.  Patches
    with degenerate cells are fitted one by one, and their rows scattered
    into the arrays (the deferred terms when they are read); so is the
    p != 2 rotation descent.  The stretch, bending, Dirichlet and
    plane-variation terms run on their first read (see `_LocalFits`), and
    the metric oscillation is not read here: `_LocalFits.reports` takes it.
    """
    grid, count = patches.grid, patches.degenerate.shape[0]
    d, big, n = grid.dim, patches.target.ambient_dim, grid.cell_count
    good = ~patches.degenerate.reshape(count, n)
    fitted = good.sum(axis=-1)
    if (2 * fitted < n).any():
        raise DegenerateFieldError(
            f"a patch keeps {fitted.min()} of its {n} cells; a fit needs at least half of them non-degenerate"
        )
    ragged = fitted < n
    if count > 1 and ragged.any():
        parts = [
            (rows, _local_fits(patches.take(rows), p))
            for rows in [np.flatnonzero(~ragged), *([s] for s in np.flatnonzero(ragged))]
            if len(rows)
        ]

        def scatter(name: str) -> np.ndarray:
            first = getattr(parts[0][1], name)
            column = np.empty((count,) + first.shape[1:], dtype=first.dtype)
            for rows, part in parts:
                column[rows] = getattr(part, name)
            return column

        return _LocalFits(
            scatter("base_index"),
            scatter("rotation"),
            scatter("lhs"),
            lambda: tuple(scatter(name) for name in _DEFERRED_TERMS),
        )
    # Past the split above, only a lone patch can have degenerate cells.
    keep = good[0] if ragged.any() else slice(None)

    def cells(x: np.ndarray) -> np.ndarray:
        """(S, *cell_shape, ...) as (S, fitted cells, ...)."""
        return x.reshape((count, n) + x.shape[d + 1 :])[:, keep]

    comps = cells(patches.complements)
    chosen = _base_cells(comps, p)
    base = np.arange(n)[keep][chosen]
    at_base = (np.arange(count), base)
    base_index = np.transpose(np.unravel_index(base, grid.cell_shape))
    du = cells(patches.differential)
    frame = sign_fixed_qr(patches.differential.reshape(count, n, big, d)[at_base])[0]
    gram = patches.grams[tuple((patches.corner + base_index).T)]
    rotation = frame @ _metric_frame_fit(_flatten(du, frame), gram, p)

    inv_sqrt = cells(patches.cell_inv_sqrt)
    lhs = grid.cell_volume * np.sum(metric_norm(du - rotation[:, None], inv_sqrt) ** p, axis=-1)

    # On spheres the complements' second column is the radial direction up to
    # sign, and the projection is even in it.
    normal, sqrt_det = patches.normal, patches.cell_sqrt_det
    radial = patches.complements[..., 1] if patches.target.kind == "sphere" else None

    def terms() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        normal_diff = _normal_differential(grid, normal)
        if radial is not None:
            normal_diff = _without_radial_part(normal_diff, radial)
        weights = grid.cell_volume * cells(sqrt_det)
        stretch, bending, dirichlet = _energy_sums(du, cells(normal_diff), inv_sqrt, weights, p)
        # The base cell's own score in the criterion that chose it.
        plane_variation = grid.cell_volume * _gap_scores(comps[np.arange(count), chosen][:, None], comps, p)[:, 0]
        return stretch, grid.diameter**p * (bending + dirichlet), plane_variation

    return _LocalFits(base_index, rotation, lhs, terms)


def local_rigidity(u: ImmersionField, g: MetricField, p: float = 2.0) -> RigidityReport:
    """Full constructive pipeline for an immersed cube patch.

    A base cell is chosen from the oriented complements by the summed
    oriented-gap criterion of `choose_base_point`, the immersion is
    flattened through that one cell's tangent frame F (its `u.frames` entry,
    factored alone) as Fᵀ·du on every cell, the frame fit of
    `metric_rigidity` runs there, and the result is pushed back into the
    target.  The right-hand side carries the metric oscillation, the stretch
    energy, and the diameter-scaled excess energy; the plane-variation
    statistic, the base cell's own score in that criterion, is reported
    alongside.  The lhs integrates with Lebesgue measure, but the stretch
    and excess terms use Riemannian weights sqrt(det gram); with a flat
    metric the two coincide.

    This is row 0 of the stacked pipeline `_local_fits` on one patch, which
    `multiscale_fit` runs on all subcubes of a partition at once.
    """
    if g.grid != u.grid:
        raise ValueError("immersion and metric live on different grids")
    fits = _local_fits(_Patches.subcubes(u, g, 1), p)
    return fits.reports(u.grid, [g._oscillation], p)[0]


@dataclass(frozen=True, eq=False)
class RotationField:
    """Piecewise-constant fitted maps on a uniform partition into t^d subcubes.

    `local` holds the stacked fit's terms, one row per subcube in the C
    order of `_Patches.subcubes`; `rotations` views its fitted maps on a
    (t,) * d grid, and `residual` is the sum of its `lhs`.  `fits`, one
    rigidity report per subcube in the same order, is built on its first
    read: only then do each subcube's deferred energy terms and metric
    oscillation search run, for the reports' `stretch`, `bend_scale`,
    `plane_variation`, `osc_term` and `constant`.
    """

    grid: GridDomain
    metric: MetricField
    t: int
    p: float
    rotations: np.ndarray
    residual: float
    local: _LocalFits

    @cached_property
    def fits(self) -> tuple[RigidityReport, ...]:
        """The subcube reports; the first read runs one oscillation search
        per subcube box, none on a constant metric."""
        g = self.metric
        block = self.grid.resolution // self.t
        corners = _corners(self.t, self.grid.dim, block)
        if g._oscillation == 0.0:
            osc = [0.0] * len(corners)
        else:
            boxes = [tuple((c, c + block) for c in corner) for corner in corners.tolist()]
            osc = [oscillation_and_diameter(g, box)[0] for box in boxes]
        return tuple(self.local.reports(_subgrid(self.grid, block), osc, self.p))


def multiscale_fit(u: ImmersionField, g: MetricField, t: int, p: float = 2.0) -> RotationField:
    """Fit every subcube of the t-fold uniform partition independently.

    Each subcube runs the full local pipeline of `local_rigidity`; the
    per-subcube lhs values integrate over disjoint subcubes, so their sum is
    the global residual of the assembled piecewise-constant field.  The
    pipeline runs once over a leading axis of all t^d subcubes: the subcube
    data are the parent's per-cell arrays (differentials, normals,
    complements, cell metrics) regrouped subcube by subcube (see
    `_Patches.subcubes`), flattening is Fᵀ·du on that cell data, each
    subcube's products and sums keep their one-subcube shapes (the factors
    F and T^{-1} that all of a subcube's cells share are one product per
    subcube, equal to the per-cell products), and so every subcube report
    equals, bit for bit, what `local_rigidity` gives on a fresh
    `ImmersionField`/`MetricField` built on the sliced nodes over the
    sub-grid (at t = 1, on `u` and `g` themselves).  Work runs per subcube
    only where it is ragged or sequential: subcubes with degenerate cells,
    the bound filter of the base-cell choice, and the p != 2 rotation
    descent.

    The fit's terms stay arrays.  The fit computes each subcube's base
    cell, rotation and lhs, which `rotations`, `residual` and
    `translation_modulus` read; the stretch, bending, Dirichlet and
    plane-variation terms run on their first read (see `_LocalFits`).  The
    subcube reports, those terms and the metric oscillation over each
    subcube's cell box, which their `osc_term` carries, are computed on the
    first read of `fits` (a constant metric has zero oscillation on every
    box and runs no search).  `rigidkit multiscale` reads none of them.
    """
    grid = u.grid
    if t < 1 or grid.resolution % t != 0:
        raise ValueError(f"partition parameter {t} does not divide resolution {grid.resolution}")
    local = _local_fits(_Patches.subcubes(u, g, t), p)
    rotations = local.rotation.reshape((t,) * grid.dim + local.rotation.shape[1:])
    # Python's sum, left to right in C order: np.sum adds pairwise.
    residual = float(sum(local.lhs.tolist()))
    return RotationField(grid, g, t, p, rotations, residual, local)


@dataclass(frozen=True)
class TranslationModulus:
    """Shifted-difference integral of a rotation field over its safe region."""

    shift: tuple[float, ...]
    value: float
    covered_fraction: float


def admissible_subcubes(length: float, t: int, zeta) -> list[range] | None:
    """Per axis, the admissible subcube indices of the t-fold partition of
    [0, length]^d for the shift `zeta` (d,), or None when there is none.

    A subcube is admissible when its tripled cube and the shifted tripled
    cube both stay inside the closed domain cube, up to 1e-9 length, and the
    shift is shorter than the domain side.  Each condition bounds the index
    on one axis from one side, so each axis holds one index interval.
    """
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    if np.linalg.norm(zeta) >= length:
        return None
    side, tol = length / t, 1e-9 * length
    axes = []
    for s in zeta.tolist():
        inside = [j for j in range(1, t - 1) if (j - 1) * side + s >= -tol and (j + 2) * side + s <= length + tol]
        if not inside:
            return None
        axes.append(range(inside[0], inside[-1] + 1))
    return axes


def translation_modulus(field: RotationField, zeta) -> TranslationModulus:
    """Integral of |G(x + zeta) - G(x)|^p, p the field's, over the admissible subcubes.

    The admissible subcubes (see `admissible_subcubes`) are one index
    interval per axis, so their cells are one box of the grid.  The integral
    runs over that box in C order: each cell's subcube and the
    subcube its shifted centre lands in are read per axis, and both fitted
    maps are taken by linear subcube index.
    """
    grid = field.grid
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    if zeta.shape[0] != grid.dim:
        raise ValueError("shift vector dimension does not match the grid")
    t = field.t
    axes = admissible_subcubes(grid.length, t, zeta)
    if axes is None:
        return TranslationModulus(tuple(zeta.tolist()), 0.0, 0.0)
    block, side = grid.resolution // t, grid.length / t
    box, source, target = [], np.zeros((), dtype=int), np.zeros((), dtype=int)
    for shift, admissible in zip(zeta.tolist(), axes):
        cell = np.arange(admissible[0] * block, (admissible[-1] + 1) * block)
        # the cell centres along this axis, as `GridDomain.cell_centers` has them
        landing = np.clip(((cell + 0.5) * grid.spacing + shift) // side, 0, t - 1).astype(int)
        box.append(slice(cell[0], cell[-1] + 1))
        source = source[..., None] * t + cell // block
        target = target[..., None] * t + landing
    rotations = field.rotations.reshape((t**grid.dim,) + field.rotations.shape[grid.dim :])
    diff = rotations.take(target.reshape(-1), axis=0) - rotations.take(source.reshape(-1), axis=0)
    inv_sqrt = field.metric.cell_inv_sqrt[tuple(box)].reshape(-1, grid.dim, grid.dim)
    value = float(grid.cell_volume * np.sum(metric_norm(diff, inv_sqrt) ** field.p))
    return TranslationModulus(tuple(zeta.tolist()), value, math.prod(map(len, axes)) / t**grid.dim)


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
    defect = isometry_defect(_times_inv_sqrt(du, inv_sqrt), oriented=False)
    return float(grid.cell_volume * np.sum(defect**p))


def asymptotic_sequence_run(
    final, earlier=(), ref: ReferenceShape | None = None, p: float | None = None
) -> AsymptoticReport:
    """Run a strictly shrinking perturbation family and measure its limits.

    `final` is the built last member (a `ScenarioBundle`, the smallest ε)
    of the perturbed-inclusion family, and `earlier` yields the members
    before it in schedule order, possibly none.  Members are identical
    except for a strictly decreasing perturbation size.  Each earlier member
    is measured as it is yielded and dropped before the next one is asked
    for, so a generator that builds them keeps at most two members alive:
    the final one and the current one.  Reported per member: the energy
    suite and the W^{1,p} gap of the differential to the final member.  For
    the final member: the distance to metric-compatible frames (Lebesgue
    measure) and, with a reference form, the shape-recovery error.
    """
    base = final.spec.replace(epsilon=0.0)
    if p is None:
        p = base.p
    metric = final.metric
    grid = final.u.grid

    def check(spec) -> None:
        if spec.family != "perturbed":
            raise ValueError("asymptotic runs cover the perturbed-inclusion family")
        if spec.replace(epsilon=0.0) != base:
            raise ValueError("family members may differ only in epsilon")

    check(final.spec)
    epsilons, reports, gaps = [], [], []
    for bundle in earlier:
        eps = bundle.spec.epsilon
        if not final.spec.epsilon < eps < (epsilons[-1] if epsilons else np.inf):
            raise ValueError("perturbation sizes must decrease strictly")
        check(bundle.spec)
        epsilons.append(eps)
        reports.append(energies(bundle.u, metric, ref, p=p))
        diff = bundle.u.differential - final.u.differential
        gaps.append(float((grid.cell_volume * np.sum(frobenius(diff) ** p)) ** (1.0 / p)))
        # drop the member before `earlier` builds the next one
        del bundle, diff
    final_report = energies(final.u, metric, ref, p=p)
    return AsymptoticReport(
        p=p,
        epsilons=tuple(float(e) for e in [*epsilons, final.spec.epsilon]),
        energy_reports=(*reports, final_report),
        gaps=(*gaps, 0.0),
        final_defect=_lebesgue_isometry_defect(final.u, metric, p),
        shape_error=final_report.bending_ref if ref is not None else None,
    )
