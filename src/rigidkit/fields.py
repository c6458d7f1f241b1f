"""Discrete immersions of grid cubes, their curvature fields and energies.

Maps are stored as node values over a regular grid on the cube (0, l)^d and
differentiated per cell.  Targets are either the full Euclidean space R^(d+1)
or the round sphere of dimension d+1 sitting in R^(d+2); in both cases the
immersed cube has codimension one inside the target manifold, so each
non-degenerate cell carries a single unit normal inside the tangent space of
the target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .metric_algebra import (
    _EIGENVALUE_FLOOR,
    _SYMMETRY_TOL,
    _repeats_one,
    _times_inv_sqrt,
    frobenius,
    isometry_defect,
    metric_norm,
    sign_fixed_qr,
    spd_extremes,
    spd_inv_sqrt,
)

_RANK_TOL = 1e-12
_ON_MANIFOLD_TOL = 1e-8
# Diameter pruning: the lower bound comes from at most this many
# farthest-point sweeps, and the filter compares with this much relative
# slack, which covers the round-off of the computed distances for up to
# about thirty coordinates per point.
_FARTHEST_POINT_SWEEPS = 4
_PRUNE_SLACK = 64 * np.finfo(float).eps

DIFF_MODES = ("forward", "central")


class DegenerateFieldError(RuntimeError):
    """Raised when a fitting pipeline finds no usable (full-rank) cells."""


def config_number(value, name: str, kind=float):
    """Config entry `name` as a finite float, or for kind int as an int of integral value.

    Booleans and strings are rejected, although Python counts booleans as
    integers and `float` parses numeric strings.  Anything else that does
    not fit raises a ValueError naming `name`.
    """
    if not isinstance(value, (bool, str, bytes)):
        if kind is int and isinstance(value, (int, np.integer)):
            return int(value)
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = np.nan
        if np.isfinite(number) and (kind is float or number.is_integer()):
            return int(number) if kind is int else number
    kinds = "an integer" if kind is int else "a finite number"
    raise ValueError(f"{name} must be {kinds}, got {value!r}")


def _power(base: float, dim: int) -> float:
    """base**dim, or inf where Python's float power overflows."""
    try:
        return base**dim
    except OverflowError:
        return float("inf")


def _full_rank(sing: np.ndarray) -> np.ndarray:
    """The rank test on singular values (..., k) in descending order: the
    least must exceed 1e-12 times max(1, the largest)."""
    return sing[..., -1] > _RANK_TOL * np.maximum(sing[..., 0], 1.0)


def _square_extremes(x: np.ndarray) -> np.ndarray:
    """The singular values `_full_rank` reads, (..., k) in descending order,
    of square maps x (..., d, d): |x| for d = 1, (s_max, s_min) for d = 2,
    and a value-only SVD for d >= 3.

    For d = 2, s_max = c + a from the conformal split of `isometry_defect`
    (c = hypot(x00 + x11, x10 - x01) / 2, a = hypot(x00 - x11, x10 + x01) / 2)
    and s_min = |det x| / s_max, with no square of an entry to overflow or
    a Gram to square the condition number.  The determinant is taken with
    the first column scaled by 2^-e, e the `frexp` exponent of its largest
    |entry|, and divided by 2^-e s_max >= 1/2: exact scalings, so s_min
    neither overflows nor loses bits to them.  Both values are within a few
    u s_max of the SVD's, so the verdicts agree except within a relative
    1e-3 of the 1e-12 threshold, where the SVD's own rounding decides.
    """
    dim = x.shape[-1]
    if dim == 1:
        return np.abs(x[..., 0])
    if dim > 2:
        return np.linalg.svd(x, compute_uv=False)
    x00, x01, x10, x11 = x[..., 0, 0], x[..., 0, 1], x[..., 1, 0], x[..., 1, 1]
    s_max = 0.5 * (np.hypot(x00 + x11, x10 - x01) + np.hypot(x00 - x11, x10 + x01))
    shift = -np.frexp(np.maximum(np.abs(x00), np.abs(x10)))[1]
    det = np.ldexp(x00, shift) * x11 - np.ldexp(x10, shift) * x01
    scaled = np.ldexp(s_max, shift)
    s_min = np.divide(np.abs(det), scaled, out=np.zeros_like(scaled), where=scaled > 0.0)
    return np.stack([s_max, s_min], axis=-1)


@dataclass(frozen=True)
class GridDomain:
    """Regular grid on the open cube (0, length)^dim with `resolution` cells per axis.

    Nodes sit at integer multiples of the spacing; cells are indexed by their
    lower corner.  The spacing is stored, as `length / resolution` when the
    grid is constructed.  A sub-grid (see `_subgrid`) keeps its parent's
    spacing instead; its `length` is that spacing times its resolution, and
    its `volume` and `diameter` follow.  Single-cell grids (resolution 1)
    only arise as leaves of the multiscale splitter; scenario builders and
    snapshots require at least two cells per axis.
    """

    dim: int
    length: float
    resolution: int
    spacing: float = dataclass_field(init=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("grid dimension must be at least 1")
        if not self.length > 0.0:
            raise ValueError("grid side length must be positive")
        if self.resolution < 1:
            raise ValueError("grid resolution must be at least 1")
        object.__setattr__(self, "spacing", self.length / self.resolution)
        if not 0.0 < self.spacing < np.inf:
            raise ValueError(f"grid spacing {self.spacing!r} is not positive and finite")

    @property
    def node_shape(self) -> tuple[int, ...]:
        return (self.resolution + 1,) * self.dim

    @property
    def cell_shape(self) -> tuple[int, ...]:
        return (self.resolution,) * self.dim

    @property
    def cell_count(self) -> int:
        return self.resolution**self.dim

    @property
    def cell_volume(self) -> float:
        return _power(self.spacing, self.dim)

    @property
    def volume(self) -> float:
        return _power(self.length, self.dim)

    @property
    def diameter(self) -> float:
        return self.length * np.sqrt(self.dim)

    def node_axis(self) -> np.ndarray:
        return np.arange(self.resolution + 1) * self.spacing

    def node_coordinates(self) -> np.ndarray:
        """Array of shape (*node_shape, dim) with the node positions."""
        axes = np.meshgrid(*([self.node_axis()] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)

    def cell_centers(self) -> np.ndarray:
        axis = (np.arange(self.resolution) + 0.5) * self.spacing
        axes = np.meshgrid(*([axis] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)


def _subgrid(grid: GridDomain, resolution: int) -> GridDomain:
    """Grid of a subcube of `resolution` cells cut from `grid`.

    At full resolution it is `grid` itself; otherwise it keeps `grid`'s
    spacing exactly, so every difference quotient over the subcube's nodes
    equals the parent's.  `GridDomain(dim, spacing * resolution, resolution)`
    can miss that spacing by an ulp.
    """
    if resolution == grid.resolution:
        return grid
    sub = GridDomain(grid.dim, grid.spacing * resolution, resolution)
    object.__setattr__(sub, "spacing", grid.spacing)
    return sub


def grid_differential(grid: GridDomain, values: np.ndarray, mode: str = "forward") -> np.ndarray:
    """Per-cell differential of node values, shape (..., *cell_shape, D, dim).

    "forward" divides the forward difference along each axis by the spacing
    and reads the remaining axes at the cell's lower corner (first order at
    the cell center).  "central" instead averages that difference over the
    2^(dim-1) corner pairs of the cell, which is second order at the center.
    Both are exact on affine data.
    """
    if mode not in DIFF_MODES:
        raise ValueError(f"unknown difference mode {mode!r}")
    values = np.asarray(values, dtype=float)
    n = grid.resolution
    grid_axes = range(-grid.dim - 1, -1)
    cols = []
    for axis in grid_axes:
        diff = (_cut(values, axis, 1, n + 1) - _cut(values, axis, 0, n)) / grid.spacing
        for other in grid_axes:
            if other == axis:
                continue
            if mode == "forward":
                diff = _cut(diff, other, 0, n)
            else:
                diff = 0.5 * (_cut(diff, other, 1, n + 1) + _cut(diff, other, 0, n))
        cols.append(diff)
    return np.stack(cols, axis=-1)


def _cut(x: np.ndarray, axis: int, lo: int, hi: int) -> np.ndarray:
    """The view x[lo:hi] along `axis` (a basic slice, not a gather)."""
    index = [slice(None)] * x.ndim
    index[axis] = slice(lo, hi)
    return x[tuple(index)]


def corner_average(values: np.ndarray, dim: int) -> np.ndarray:
    """Average node data over the 2^dim corners of every cell."""
    out = np.asarray(values, dtype=float)
    for axis in range(dim):
        n = out.shape[axis] - 1
        out = 0.5 * (_cut(out, axis, 1, n + 1) + _cut(out, axis, 0, n))
    return out


def _point_norms(points: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, kept as a unit axis, without
    overflow.  Each point is scaled by 2^-e, e the `frexp` exponent of its
    largest |entry|, and its norm is scaled back by 2^e.  Power-of-two
    scaling is exact and commutes with each rounding of the norm (squares
    and sums scale by 2^-2e, and sqrt(2^-2e y) = 2^-e sqrt(y)), so where the
    plain norm neither overflows nor underflows this is its value bit for
    bit, and so is `points / norm`.  A square that underflows is below
    2^-1022 against a sum of at least 1/4, and cannot move it.
    """
    exponent = np.frexp(np.abs(points).max(axis=-1, keepdims=True))[1]
    with np.errstate(under="ignore"):
        scaled = np.ldexp(points, -exponent)
        return np.ldexp(np.linalg.norm(scaled, axis=-1, keepdims=True), exponent)


def _sq_distances(points: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from each row of `points` to `origin`."""
    diff = points - origin
    return np.einsum("...i,...i->...", diff, diff)


def _max_pairwise_distance(points: np.ndarray) -> float:
    """Exact maximum pairwise Euclidean distance (the diameter of a point set).

    Farthest-point sweeps give a lower bound L attained by an actual pair.
    With c the bounding-box centre and R = max |x - c|, any pair x, y with
    |x - y| >= L satisfies |x - c| + R >= |x - c| + |y - c| >= |x - y| >= L,
    so dropping every point with |x - c| + R < L keeps both ends of every
    diametral pair (the exact filtering of Malandain & Boissonnat, "Computing
    the diameter of a point set", 2002).  The comparison carries a few ulps
    of slack, so rounding in |x - c|, R and L cannot drop an endpoint.

    The distinct survivors are compared pairwise, in memory-bounded chunks,
    from direct differences x - y, never from |x|^2 + |y|^2 - 2 x.y, which
    cancels when the points lie close together.  The value is therefore
    exact to round-off at any spread.  On grid-sampled metrics only a handful
    of points survive, so the cost is linear in the point count.
    """
    pts = points.reshape(points.shape[0], -1)
    if pts.shape[0] <= 1:
        return 0.0
    # min and max along each row of one contiguous copy of the coordinates,
    # far cheaper than along axis 0; both are exact in any order
    coords = np.ascontiguousarray(pts.T)
    lo, hi = coords.min(axis=1), coords.max(axis=1)
    if (lo == hi).all():
        return 0.0
    centre = 0.5 * (lo + hi)
    radial = np.sqrt(_sq_distances(pts, centre))
    reach = float(radial.max())
    far = int(np.argmax(radial))
    bound_sq = 0.0
    for _ in range(_FARTHEST_POINT_SWEEPS):
        d2 = _sq_distances(pts, pts[far])
        far = int(np.argmax(d2))
        if d2[far] <= bound_sq:
            break
        bound_sq = float(d2[far])

    keep = radial + reach >= np.sqrt(bound_sq) * (1.0 - _PRUNE_SLACK)
    pts = np.unique(pts[keep], axis=0)
    m = pts.shape[0]
    chunk = max(1, (1 << 20) // (m * pts.shape[1]))
    best = bound_sq
    for start in range(0, m, chunk):
        block = pts[start : start + chunk]
        d2 = _sq_distances(block[:, None, :], pts[None, start:, :])
        best = max(best, float(d2.max()))
    return float(np.sqrt(best))


class MetricField:
    """Node-sampled SPD metric on a grid, with its sandwich constant.

    The constructor checks that the Gram entries are finite, symmetric and
    positive definite at every node.  `lam` is the smallest constant with
    I/lam <= gram <= lam*I at every node.  The cell data are derived on
    first read.

    A constant metric (`constant`, and so the flat one of `build_metric`) is
    stored once: `gram` is a read-only broadcast view of one Gram matrix,
    with zero strides on the node axes, and that is how the constructor
    tells it apart, without a flag of its own.  It validates that one
    matrix, and `cell_grams`, `cell_inv_sqrt` and `cell_sqrt_det` run their
    kernels on one cell and are read-only broadcast views of it, zero
    strides on the cell axes.  The kernels work matrix by matrix, so each
    entry has the bits the kernel gives on the materialised arrays.
    `constant` copies its (d, d) input, so the metric owns its one matrix.
    Callers may not write into these arrays, and should not copy or
    reshape them whole where a view will do: a 1024^2 grid would
    materialise 33 MB per array.  Slices and `_subcube_major` keep them
    views, while a boolean or integer index gathers a per-cell copy, and
    `metric_algebra._times_inv_sqrt` (so `metric_norm`) multiplies by a view
    that repeats one factor as one matrix.
    """

    def __init__(self, grid: GridDomain, gram: np.ndarray):
        gram = np.asarray(gram, dtype=float)
        expected = grid.node_shape + (grid.dim, grid.dim)
        if gram.shape != expected:
            raise ValueError(f"gram field shape {gram.shape}, expected {expected}")
        self.grid = grid
        self.gram = gram
        # A constant metric's one matrix gives the extremes every node would.
        checked = gram[(0,) * grid.dim] if self._constant else gram
        # Written as `not ... <=` so that a NaN or infinite entry, which makes
        # the symmetry defect NaN, fails the test instead of slipping past it.
        with np.errstate(invalid="ignore"):
            sym_defect = np.abs(checked - np.swapaxes(checked, -1, -2)).max()
        if not sym_defect <= _SYMMETRY_TOL:
            raise ValueError("gram field is not finite and symmetric at every node")
        lam_min, lam_max, _ = spd_extremes(checked)
        lam_min, lam_max = lam_min.min(), lam_max.max()
        if not lam_min >= _EIGENVALUE_FLOOR:
            raise ValueError("gram field is not positive definite at every node")
        self.lam = float(max(lam_max, 1.0 / lam_min, 1.0))

    @classmethod
    def constant(cls, grid: GridDomain, gram: np.ndarray) -> "MetricField":
        """The metric equal to `gram` (d, d) at every node, stored once."""
        gram = np.array(gram, dtype=float)
        return cls(grid, np.broadcast_to(gram, grid.node_shape + gram.shape))

    @property
    def _constant(self) -> bool:
        """Whether `gram` is one matrix repeated: zero strides on every node axis."""
        return _repeats_one(self.gram, self.grid.dim)

    def _per_cell(self, kernel, data: np.ndarray, width: int) -> np.ndarray:
        """Cell data kernel(data) from node or cell data `data`.  On a constant
        metric the kernel runs on the first `width` entries per axis only
        (2 node entries, or 1 cell entry, make the first cell's data), and
        its value is broadcast to every cell, read-only."""
        if not self._constant:
            return kernel(data)
        dim = self.grid.dim
        first = kernel(data[(slice(0, width),) * dim])
        return np.broadcast_to(first, self.grid.cell_shape + first.shape[dim:])

    @cached_property
    def cell_grams(self) -> np.ndarray:
        """Cell-centered metric: arithmetic average of the corner Gram matrices."""
        return self._per_cell(lambda nodes: corner_average(nodes, self.grid.dim), self.gram, 2)

    @cached_property
    def cell_inv_sqrt(self) -> np.ndarray:
        return self._per_cell(spd_inv_sqrt, self.cell_grams, 1)

    @cached_property
    def cell_sqrt_det(self) -> np.ndarray:
        return self._per_cell(lambda grams: spd_extremes(grams)[2], self.cell_grams, 1)

    @cached_property
    def _oscillation(self) -> float:
        """Metric oscillation over the whole grid (see `oscillation_and_diameter`)."""
        return oscillation_and_diameter(self, tuple((0, n) for n in self.grid.cell_shape))[0]


def oscillation_and_diameter(
    g: MetricField, cell_box: tuple[tuple[int, int], ...]
) -> tuple[float, float]:
    """Metric oscillation over a cell box and the box's Euclidean diameter.

    `cell_box` is one (lo, hi) half-open cell range per axis; the oscillation
    is the maximum Frobenius distance between Gram matrices over the nodes
    the box touches (lo..hi inclusive per axis).  It is exact to round-off:
    `_max_pairwise_distance` prunes the nodes with a bound that provably
    keeps both Gram matrices of every farthest pair, then compares the rest
    by direct differences.  A constant metric returns 0 before any search.
    """
    grid = g.grid
    if len(cell_box) != grid.dim:
        raise ValueError("cell box must give one range per axis")
    widths = []
    slices = []
    for lo, hi in cell_box:
        if not 0 <= lo < hi <= grid.resolution:
            raise ValueError(f"cell range ({lo}, {hi}) outside grid of {grid.resolution} cells")
        widths.append((hi - lo) * grid.spacing)
        slices.append(slice(lo, hi + 1))
    grams = g.gram[tuple(slices)].reshape(-1, grid.dim * grid.dim)
    return _max_pairwise_distance(grams), float(np.linalg.norm(widths))


@dataclass(frozen=True)
class TargetSpace:
    """Codimension-one target: all of R^(d+1), or the round sphere in R^(d+2)."""

    kind: str
    base_dim: int
    radius: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("euclidean", "sphere"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.base_dim < 1:
            raise ValueError("base dimension must be at least 1")
        if self.kind == "sphere":
            if self.radius is None or not self.radius > 0.0:
                raise ValueError("sphere target needs a positive radius")
        elif self.radius is not None:
            raise ValueError("euclidean target takes no radius")

    @property
    def ambient_dim(self) -> int:
        return self.base_dim + (1 if self.kind == "euclidean" else 2)

    @classmethod
    def euclidean(cls, base_dim: int) -> "TargetSpace":
        return cls("euclidean", base_dim)

    @classmethod
    def sphere(cls, base_dim: int, radius: float) -> "TargetSpace":
        return cls("sphere", base_dim, radius)


@dataclass(frozen=True)
class GridMap:
    """Plain node-sampled map from the grid cube into R^D (no target structure)."""

    grid: GridDomain
    values: np.ndarray
    mode: str = "forward"

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != self.grid.dim + 1 or values.shape[:-1] != self.grid.node_shape:
            raise ValueError(
                f"value field shape {values.shape} does not match grid nodes {self.grid.node_shape}"
            )
        object.__setattr__(self, "values", values)

    @property
    def ambient_dim(self) -> int:
        return self.values.shape[-1]

    @cached_property
    def differential(self) -> np.ndarray:
        return grid_differential(self.grid, self.values, self.mode)


def _normal_differential(grid: GridDomain, normal: np.ndarray) -> np.ndarray:
    """Forward differences of per-cell normals (..., *cell_shape, D) over the
    spacing, repeating the last difference at the trailing cell of each axis;
    single-cell axes contribute zero.  Shape (..., *cell_shape, D, dim); the
    grid axes count from the end, like `grid_differential`'s."""
    cols = []
    for axis in range(-grid.dim - 1, -1):
        if normal.shape[axis] == 1:
            cols.append(np.zeros_like(normal))
            continue
        diff = np.diff(normal, axis=axis) / grid.spacing
        last = np.take(diff, [-1], axis=axis)
        cols.append(np.concatenate([diff, last], axis=axis))
    return np.stack(cols, axis=-1)


def _without_radial_part(normal_diff: np.ndarray, radial: np.ndarray) -> np.ndarray:
    """A normal differential (..., D, dim) with its part along the unit radial
    direction (..., D) removed: the projection onto the sphere's tangent space."""
    coeff = np.einsum("...i,...ij->...j", radial, normal_diff)
    return normal_diff - radial[..., :, None] * coeff[..., None, :]


class ImmersionField:
    """Discrete immersion of the grid cube into a codimension-one target.

    The constructor checks the node values (finite, of the target's shape,
    on the sphere for sphere targets) and computes the differential, which
    must be finite too.  Every other cell quantity is derived on first read
    and then kept: the cell points, the rank test and oriented unit normal
    (from one complete QR per cell, which for the 2 x 1 and 3 x 2 windows
    of d <= 2 is the full SVD's normal bit for bit, by the LAPACK path
    argument in `_degenerate_and_normal`; no SVD and no determinant runs
    there), the oriented complements (in closed form from the normal), the tangent
    frames, the normal's difference field, and the shape operator solving
    differential @ S = P (normal differential)  in least squares.  The
    rigidity pipelines read no per-cell frame: they factor the differential
    at their base cells only.  Cells where the differential drops rank get a
    zero normal and placeholder frames and are flagged degenerate; energies
    skip them and report the count.
    """

    def __init__(self, grid: GridDomain, target: TargetSpace, values: np.ndarray, mode: str = "forward"):
        values = np.asarray(values, dtype=float)
        if target.base_dim != grid.dim:
            raise ValueError("target base dimension does not match the grid")
        expected = grid.node_shape + (target.ambient_dim,)
        if values.shape != expected:
            raise ValueError(f"value field shape {values.shape}, expected {expected}")
        if not np.isfinite(values).all():
            raise ValueError("node values are not finite at every node")
        if target.kind == "sphere":
            off = np.abs(_point_norms(values) - target.radius).max()
            if off > _ON_MANIFOLD_TOL * max(1.0, target.radius):
                raise ValueError(f"node values leave the sphere by up to {off:.3e}")
        with np.errstate(over="ignore"):
            differential = grid_differential(grid, values, mode)
        if not np.isfinite(differential).all():
            raise ValueError("differential is not finite at every cell: node differences overflow")
        self.grid = grid
        self.target = target
        self.values = values
        self.mode = mode
        self.differential = differential

    @cached_property
    def cell_points(self) -> np.ndarray:
        """Each cell's point: the average of its corner values."""
        return corner_average(self.values, self.grid.dim)

    @cached_property
    def radial(self) -> np.ndarray:
        """Outward unit radial direction at every cell point (sphere targets),
        zero where the cell point has zero norm (such cells are degenerate)."""
        points = self.cell_points
        norm = _point_norms(points)
        return np.divide(points, norm, out=np.zeros_like(points), where=norm > 0.0)

    @cached_property
    def _degenerate_and_normal(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell rank test and oriented unit normal, from one complete QR
        of the window: the differential, with the outward radial direction
        appended on spheres.  The window is D x (D - 1), so its normal is Q's
        last column.

        That column is the normal a full SVD of the window returns, bit for
        bit, on the 2 x 1 and 3 x 2 windows of every scenario: LAPACK's
        dgesdd with JOBZ='A' factors an M x N matrix with M >= int(11N/6) as
        QR first (dgeqrf, Q formed by dorgqr) and leaves U's trailing M - N
        columns as those Q columns (its Path 4; LAPACK Users' Guide, Anderson
        et al. 1999), the same calls np.linalg.qr makes.  It does so unless
        dgesdd rescales the window, which it does when the largest |entry|
        lies outside about [6.7e-139, 1.5e138].  4 x 3 windows (d = 3, or
        d = 2 on S^3) take another dgesdd path and agree to round-off.

        A cell is degenerate when the window's least singular value is at
        most 1e-12 times max(1, its largest), or on spheres when its cell
        point has zero norm.  The values are R's: |r00| for one column; for
        R = [[a, b], [0, c]], s_max = (hypot(a + c, b) + hypot(a - c, b))/2
        and s_min = |a| (|c| / s_max), with no square or determinant to
        cancel near rank loss or to overflow; larger R (D >= 4) take a
        value-only SVD.  On spheres the window's test covers the test on the
        differential alone: appending a column interlaces the singular
        values, so the window's least one is at most the differential's and
        its largest at least theirs.

        Sign convention: the normal completes the differential's columns to
        a positively oriented frame of the target's tangent space, the sign
        of det [du | n], or of det [r | du | n] on spheres (outward radial
        first).  For D <= 3 that determinant is a closed form: du x n for
        curves in R^2, n . (du0 x du1) for surfaces in R^3 and n . (r x du)
        for arcs on S^2.  On every non-degenerate cell it has det's sign, so
        every flip is the one a `det` pass makes.  With k <= 2 window
        columns and u = 2^-53: the computed n is a unit vector orthogonal to
        the columns up to O(u) |window|, so its part inside their span, which
        adds nothing to det, has length O(u s_max / s_min), and the rank test
        gives s_min > 1e-12 max(s_max, 1), so s_max / s_min < 1e12.  Hence
        |det| >= (1 - 1e-3) s_min s_max^(k - 1).  A closed form errs by at
        most about 5u s_max^k (r is a unit vector, and du0 enters scaled by a
        power of two, which is exact and keeps du0 x du1 from overflowing),
        below 5u 1e12 |det| < 1e-3 |det|.  LU's det errs by O(u) times the
        condition number of [window | n] with unit columns, which the same
        ratio keeps below about 1e12.  Both signs are therefore exact.
        D >= 4 keeps det.
        """
        du = self.differential
        big = self.target.ambient_dim
        sphere = self.target.kind == "sphere"
        window = np.concatenate([du, self.radial[..., :, None]], axis=-1) if sphere else du
        q, r = np.linalg.qr(window, mode="complete")
        normal = q[..., -1].copy()
        del q
        if big == 2:
            extremes = np.abs(r[..., :1, 0])
            orient = du[..., 0, 0] * normal[..., 1] - du[..., 1, 0] * normal[..., 0]
        elif big == 3:
            a, b, c = r[..., 0, 0], r[..., 0, 1], r[..., 1, 1]
            s_max = 0.5 * (np.hypot(a + c, b) + np.hypot(a - c, b))
            ratio = np.divide(np.abs(c), s_max, out=np.zeros_like(s_max), where=s_max > 0.0)
            extremes = np.stack([s_max, np.abs(a) * ratio], axis=-1)
            if sphere:
                first, second = self.radial, du[..., 0]
            else:
                first, second = np.ldexp(du[..., 0], -np.frexp(a)[1][..., None]), du[..., 1]
            orient = np.einsum("...i,...i->...", normal, np.cross(first, second))
        else:
            extremes = np.linalg.svd(r[..., : big - 1, :], compute_uv=False)
            radial = [self.radial[..., :, None]] if sphere else []
            orient = np.linalg.det(np.concatenate([*radial, du, normal[..., :, None]], axis=-1))
        del r
        degenerate = ~_full_rank(extremes)
        if sphere:
            degenerate |= ~self.radial.any(axis=-1)
        flip = orient < 0
        normal[flip] = -normal[flip]
        normal[degenerate] = 0.0
        return degenerate, normal

    @cached_property
    def degenerate(self) -> np.ndarray:
        """Cells where the window drops rank, or on spheres whose cell point
        is the centre (see `_degenerate_and_normal`)."""
        return self._degenerate_and_normal[0]

    @cached_property
    def normal(self) -> np.ndarray:
        """Oriented unit normal per cell, zero on degenerate cells."""
        return self._degenerate_and_normal[1]

    @cached_property
    def frames(self) -> np.ndarray:
        """Orthonormal basis of each tangent plane: the differential's QR
        factor, signs fixed so that R has a nonnegative diagonal.  Degenerate
        cells get coordinate placeholders, so the array stays rectangular;
        they remain flagged and every consumer skips them."""
        frames = sign_fixed_qr(self.differential)[0]
        frames[self.degenerate] = np.eye(self.target.ambient_dim)[:, : self.grid.dim]
        return frames

    @cached_property
    def complements(self) -> np.ndarray:
        """Oriented complement of each tangent frame: the normal, or on
        spheres (normal, +-radial), the radial column negated exactly when d
        is even.  Degenerate cells get coordinate placeholders, like `frames`.

        That makes [frame | complement] positive with no determinant taken:
        du = frame @ R with det R > 0, so [frame | n (| r)] has the sign of
        [du | n (| r)].  The normal makes [du | n], or [r | du | n], positive,
        and moving r from first to last column is d + 1 transpositions.
        """
        if self.target.kind == "euclidean":
            comp = self.normal[..., :, None].copy()
        else:
            radial = -self.radial if self.grid.dim % 2 == 0 else self.radial
            comp = np.stack([self.normal, radial], axis=-1)
        comp[self.degenerate] = np.eye(self.target.ambient_dim)[:, self.grid.dim :]
        return comp

    @cached_property
    def normal_differential(self) -> np.ndarray:
        """Forward differences of the normal (see `_normal_differential`)."""
        return _normal_differential(self.grid, self.normal)

    @cached_property
    def projected_normal_differential(self) -> np.ndarray:
        """The normal differential with its radial part removed on spheres."""
        if self.target.kind == "euclidean":
            return self.normal_differential
        return _without_radial_part(self.normal_differential, self.radial)

    @cached_property
    def shape_operator(self) -> np.ndarray:
        """Least-squares S with differential @ S = projected normal differential."""
        du = self.differential
        degenerate = self.degenerate
        gram = np.swapaxes(du, -1, -2) @ du
        rhs = np.swapaxes(du, -1, -2) @ self.projected_normal_differential
        safe = np.where(degenerate[..., None, None], np.eye(self.grid.dim), gram)
        shape = np.linalg.solve(safe, rhs)
        shape[degenerate] = 0.0
        return shape

    @cached_property
    def shape_residual(self) -> np.ndarray:
        """Frobenius residual of the shape solve, zero on degenerate cells."""
        misfit = self.differential @ self.shape_operator - self.projected_normal_differential
        residual = frobenius(misfit)
        residual[self.degenerate] = 0.0
        return residual

    @property
    def degenerate_count(self) -> int:
        return int(self.degenerate.sum())


@dataclass(frozen=True)
class ReferenceShape:
    """Node-sampled symmetric form prescribing a target second fundamental form."""

    grid: GridDomain
    form: np.ndarray

    def __post_init__(self) -> None:
        form = np.asarray(self.form, dtype=float)
        expected = self.grid.node_shape + (self.grid.dim, self.grid.dim)
        if form.shape != expected:
            raise ValueError(f"form field shape {form.shape}, expected {expected}")
        if np.abs(form - np.swapaxes(form, -1, -2)).max() > _SYMMETRY_TOL:
            raise ValueError("reference form must be symmetric at every node")
        object.__setattr__(self, "form", form)


@dataclass(frozen=True)
class EnergyReport:
    """Cell-midpoint quadrature of the immersion energies at exponent p.

    `excess` is bending + dirichlet by construction.  Cells are weighted
    with the metric volume sqrt(det gram).
    """

    p: float
    stretch: float
    bending: float
    bending_ref: float | None
    dirichlet: float
    excess: float
    degenerate_cells: int


def _energy_sums(
    du: np.ndarray, normal_diff: np.ndarray, inv_sqrt: np.ndarray, weights: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stretch, bending and Dirichlet integrals of cells stacked along axis -1.

    Takes per-cell differentials (..., N, D, d), tangential normal
    differentials (..., N, D, d), metric factors g^(-1/2) (..., N, d, d) and
    quadrature weights (..., N); each leading index is one patch and gets one
    sum of each kind, taken along the contiguous cell axis.  The densities
    are `metric_algebra`'s norm kernels, under their rounding contract.
    """
    x = _times_inv_sqrt(du, inv_sqrt)
    stretch = np.sum(isometry_defect(x) ** p * weights, axis=-1)
    bending = np.sum(metric_norm(normal_diff, inv_sqrt) ** p * weights, axis=-1)
    dirichlet = np.sum(frobenius(x) ** p * weights, axis=-1)
    return stretch, bending, dirichlet


def energies(
    u: ImmersionField,
    g: MetricField,
    ref: ReferenceShape | None = None,
    p: float = 2.0,
) -> EnergyReport:
    """Stretching, bending and Dirichlet content of a discrete immersion.

    Stretching integrates dist^p to the (not necessarily oriented) isometries
    of the cell metric; bending integrates the tangential part of the normal's
    variation; with a reference form the misfit |du (S_u - S_ref)|^p is also
    integrated.  Degenerate cells are skipped and counted.  The first three
    sums are the one-patch call of `_energy_sums`, which the local rigidity
    pipeline runs over a stack of subcubes.
    """
    if u.grid != g.grid:
        raise ValueError("immersion and metric live on different grids")
    if not p >= 1.0:
        raise ValueError("exponent p must be at least 1")

    good = ~u.degenerate
    w = (u.grid.cell_volume * g.cell_sqrt_det)[good]

    inv_sqrt = g.cell_inv_sqrt[good]
    du = u.differential[good]
    stretch, bending, dirichlet = (
        float(total)
        for total in _energy_sums(du, u.projected_normal_differential[good], inv_sqrt, w, p)
    )

    bending_ref = None
    if ref is not None:
        if ref.grid != u.grid:
            raise ValueError("reference form lives on a different grid")
        cell_forms = corner_average(ref.form, u.grid.dim)
        ref_shape = np.linalg.solve(g.cell_grams, cell_forms)[good]
        misfit = du @ (u.shape_operator[good] - ref_shape)
        # a misfit past 1e154 squares to inf, which the report's finite check stops
        with np.errstate(over="ignore"):
            ref_density = metric_norm(misfit, inv_sqrt)
        bending_ref = float(np.sum(ref_density**p * w))

    return EnergyReport(
        p=float(p),
        stretch=stretch,
        bending=bending,
        bending_ref=bending_ref,
        dirichlet=dirichlet,
        excess=bending + dirichlet,
        degenerate_cells=u.degenerate_count,
    )


def snapshot_save(path, u: ImmersionField, g: MetricField) -> None:
    """Write an immersion and its metric as a single JSON document."""
    if u.grid != g.grid:
        raise ValueError("immersion and metric live on different grids")
    target: dict = {"kind": u.target.kind, "D": u.target.ambient_dim}
    if u.target.kind == "sphere":
        target["rho"] = u.target.radius
    doc = {
        "grid": {"d": u.grid.dim, "l": u.grid.length, "n": u.grid.resolution},
        "target": target,
        "mode": u.mode,
        "values": u.values.reshape(-1, u.target.ambient_dim).tolist(),
        "gram": g.gram.reshape(-1, u.grid.dim, u.grid.dim).tolist(),
    }
    with open(path, "w") as handle:
        json.dump(doc, handle, sort_keys=True)
        handle.write("\n")


def snapshot_load(path) -> tuple[ImmersionField, MetricField]:
    """Read back a snapshot written by `snapshot_save`; d, n and D must be
    integers.  One without a mode, written before modes were saved, reads as forward."""
    with open(path) as handle:
        doc = json.load(handle)
    try:
        gd = doc["grid"]
        grid = GridDomain(
            config_number(gd["d"], "snapshot field d", int),
            config_number(gd["l"], "snapshot field l"),
            config_number(gd["n"], "snapshot field n", int),
        )
        td = doc["target"]
        if td["kind"] == "sphere":
            target = TargetSpace.sphere(grid.dim, config_number(td["rho"], "snapshot field rho"))
        else:
            target = TargetSpace.euclidean(grid.dim)
        if config_number(td["D"], "snapshot field D", int) != target.ambient_dim:
            raise ValueError(f"snapshot ambient dimension {td['D']} is inconsistent")
        values = np.array(doc["values"], dtype=float).reshape(
            grid.node_shape + (target.ambient_dim,)
        )
        gram = np.array(doc["gram"], dtype=float).reshape(grid.node_shape + (grid.dim, grid.dim))
        mode = doc.get("mode", "forward")
    except KeyError as missing:
        raise ValueError(f"snapshot is missing field {missing}") from None
    except TypeError:
        raise ValueError("snapshot must be a JSON object in the snapshot_save layout") from None
    if grid.resolution < 2:
        raise ValueError("snapshot grids need at least two cells per axis")
    if mode not in DIFF_MODES:
        raise ValueError(f"snapshot field mode must be one of {', '.join(DIFF_MODES)}, got {mode!r}")
    return ImmersionField(grid, target, values, mode), MetricField(grid, gram)
