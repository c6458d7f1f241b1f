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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .metric_algebra import _EIGENVALUE_FLOOR, _SYMMETRY_TOL, isometry_defect, spd_inv_sqrt

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


@dataclass(frozen=True)
class GridDomain:
    """Regular grid on the open cube (0, length)^dim with `resolution` cells per axis.

    Nodes sit at integer multiples of the spacing; cells are indexed by their
    lower corner.  Single-cell grids (resolution 1) only arise as leaves of
    the multiscale splitter; scenario builders and snapshots require at least
    two cells per axis.
    """

    dim: int
    length: float
    resolution: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("grid dimension must be at least 1")
        if not self.length > 0.0:
            raise ValueError("grid side length must be positive")
        if self.resolution < 1:
            raise ValueError("grid resolution must be at least 1")

    @property
    def spacing(self) -> float:
        return self.length / self.resolution

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
        return self.spacing**self.dim

    @property
    def volume(self) -> float:
        return self.length**self.dim

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


def _subcube(
    grid: GridDomain, corner: tuple[int, ...], resolution: int
) -> tuple[GridDomain, tuple[slice, ...], tuple[slice, ...]]:
    """Sub-grid of `resolution` cells at node `corner`, and the node and cell slices it covers.

    Raises ValueError unless the subcube lies inside the grid: a slice past
    the grid's edge would silently come back short.
    """
    corner = tuple(corner)
    if (
        len(corner) != grid.dim
        or resolution < 1
        or not all(0 <= c <= grid.resolution - resolution for c in corner)
    ):
        raise ValueError(
            f"subcube of {resolution} cells at node {corner} lies outside the grid of "
            f"{grid.resolution} cells per axis in dimension {grid.dim}"
        )
    nodes = tuple(slice(c, c + resolution + 1) for c in corner)
    cells = tuple(slice(c, c + resolution) for c in corner)
    return GridDomain(grid.dim, grid.spacing * resolution, resolution), nodes, cells


def grid_differential(grid: GridDomain, values: np.ndarray, mode: str = "forward") -> np.ndarray:
    """Per-cell differential of node values, shape (*cell_shape, D, dim).

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
    cols = []
    for axis in range(grid.dim):
        upper = np.take(values, range(1, n + 1), axis=axis)
        lower = np.take(values, range(0, n), axis=axis)
        diff = (upper - lower) / grid.spacing
        for other in range(grid.dim):
            if other == axis:
                continue
            if mode == "forward":
                diff = np.take(diff, range(0, n), axis=other)
            else:
                diff = 0.5 * (
                    np.take(diff, range(1, n + 1), axis=other)
                    + np.take(diff, range(0, n), axis=other)
                )
        cols.append(diff)
    return np.stack(cols, axis=-1)


def corner_average(values: np.ndarray, dim: int) -> np.ndarray:
    """Average node data over the 2^dim corners of every cell."""
    out = np.asarray(values, dtype=float)
    for axis in range(dim):
        n = out.shape[axis] - 1
        out = 0.5 * (np.take(out, range(1, n + 1), axis=axis) + np.take(out, range(0, n), axis=axis))
    return out


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
    n = pts.shape[0]
    if n <= 1 or (np.ptp(pts, axis=0) == 0.0).all():
        return 0.0
    centre = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
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
    """Node-sampled SPD metric on a grid, with sandwich and Lipschitz data.

    `lam` is the smallest constant with I/lam <= gram <= lam*I at every node;
    `lipschitz` is the discrete Lipschitz quotient measured over axis-adjacent
    node pairs.  Either can be passed in as a certified bound, in which case
    it must not undercut the measured value.  The Gram entries must be
    finite, symmetric and positive definite at every node.
    """

    def __init__(
        self,
        grid: GridDomain,
        gram: np.ndarray,
        lam: float | None = None,
        lipschitz: float | None = None,
    ):
        gram = np.asarray(gram, dtype=float)
        expected = grid.node_shape + (grid.dim, grid.dim)
        if gram.shape != expected:
            raise ValueError(f"gram field shape {gram.shape}, expected {expected}")
        # Written as `not ... <=` so that a NaN or infinite entry, which makes
        # the symmetry defect NaN, fails the test instead of slipping past it.
        with np.errstate(invalid="ignore"):
            sym_defect = np.abs(gram - np.swapaxes(gram, -1, -2)).max()
        if not sym_defect <= _SYMMETRY_TOL:
            raise ValueError("gram field is not finite and symmetric at every node")
        eigs = np.linalg.eigvalsh(gram)
        if not eigs.min() >= _EIGENVALUE_FLOOR:
            raise ValueError("gram field is not positive definite at every node")
        self.grid = grid
        self.gram = gram
        measured_lam = float(max(eigs.max(), 1.0 / eigs.min(), 1.0))
        if lam is None:
            self.lam = measured_lam
        else:
            if lam < measured_lam * (1.0 - 1e-12):
                raise ValueError(
                    f"declared sandwich constant {lam} is below the measured {measured_lam}"
                )
            self.lam = float(lam)
        measured_lip = self._discrete_lipschitz()
        if lipschitz is None:
            self.lipschitz = measured_lip
        else:
            if measured_lip > lipschitz * (1.0 + 1e-6) + 1e-15:
                raise ValueError(
                    f"measured Lipschitz quotient {measured_lip} exceeds declared {lipschitz}"
                )
            self.lipschitz = float(lipschitz)

    def _discrete_lipschitz(self) -> float:
        worst = 0.0
        for axis in range(self.grid.dim):
            step = np.diff(self.gram, axis=axis)
            if step.size:
                jumps = np.sqrt(np.sum(step**2, axis=(-2, -1)))
                worst = max(worst, float(jumps.max()) / self.grid.spacing)
        return worst

    @classmethod
    def constant(cls, grid: GridDomain, gram: np.ndarray) -> "MetricField":
        gram = np.asarray(gram, dtype=float)
        field = np.broadcast_to(gram, grid.node_shape + gram.shape).copy()
        return cls(grid, field)

    @cached_property
    def cell_grams(self) -> np.ndarray:
        """Cell-centered metric: arithmetic average of the corner Gram matrices."""
        return corner_average(self.gram, self.grid.dim)

    @cached_property
    def cell_inv_sqrt(self) -> np.ndarray:
        return spd_inv_sqrt(self.cell_grams)

    @cached_property
    def cell_sqrt_det(self) -> np.ndarray:
        return np.sqrt(np.linalg.det(self.cell_grams))

    @cached_property
    def _oscillation(self) -> float:
        """Metric oscillation over the whole grid (see `oscillation_and_diameter`)."""
        return oscillation_and_diameter(self, tuple((0, n) for n in self.grid.cell_shape))[0]

    def restrict(self, corner: tuple[int, ...], resolution: int) -> "MetricField":
        """Sub-field on the subcube of `resolution` cells at node `corner`.

        The node Gram matrices and the cell data (`cell_grams`,
        `cell_inv_sqrt`, `cell_sqrt_det`) are views of this field's, which
        computes its own first if it has not yet; every entry equals what a
        fresh field on the sliced nodes would compute.  The nodes were
        validated here, so they are not checked again.  `lam` is kept and
        `lipschitz` is measured on the sub-grid.
        """
        sub, nodes, cells = _subcube(self.grid, corner, resolution)
        field = MetricField.__new__(MetricField)
        field.grid = sub
        field.gram = self.gram[nodes]
        field.lam = self.lam
        field.lipschitz = field._discrete_lipschitz()
        field.cell_grams = self.cell_grams[cells]
        field.cell_inv_sqrt = self.cell_inv_sqrt[cells]
        field.cell_sqrt_det = self.cell_sqrt_det[cells]
        return field


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

    def restrict(self, corner: tuple[int, ...], resolution: int) -> "GridMap":
        sub, nodes, _ = _subcube(self.grid, corner, resolution)
        return GridMap(sub, self.values[nodes], self.mode)


class ImmersionField:
    """Discrete immersion of the grid cube into a codimension-one target.

    A field built from node values computes all derived cell data at
    construction: the differential, the rank test, the oriented unit normal,
    the tangent frame and its oriented complement (see `_build_normals`),
    the normal's difference field, and the shape operator solving
    differential @ S = P (normal differential)  in least squares.  A field
    made by `restrict` takes the per-cell part of that data from its parent
    instead.  Cells where the differential drops rank get a zero normal and
    placeholder frames and are flagged degenerate; energies skip them and
    report the count.
    """

    def __init__(
        self,
        grid: GridDomain,
        target: TargetSpace,
        values: np.ndarray,
        mode: str = "forward",
    ):
        values = np.asarray(values, dtype=float)
        if target.base_dim != grid.dim:
            raise ValueError("target base dimension does not match the grid")
        expected = grid.node_shape + (target.ambient_dim,)
        if values.shape != expected:
            raise ValueError(f"value field shape {values.shape}, expected {expected}")
        if target.kind == "sphere":
            off = np.abs(np.linalg.norm(values, axis=-1) - target.radius).max()
            if off > _ON_MANIFOLD_TOL * max(1.0, target.radius):
                raise ValueError(f"node values leave the sphere by up to {off:.3e}")
        self.grid = grid
        self.target = target
        self.values = values
        self.mode = mode
        self.differential = grid_differential(grid, values, mode)
        self.cell_points = corner_average(values, grid.dim)
        self._build_normals()
        self._build_shape_data()

    def _radial(self) -> np.ndarray:
        """Outward unit radial direction at every cell point (sphere targets)."""
        return self.cell_points / np.linalg.norm(self.cell_points, axis=-1, keepdims=True)

    def _build_normals(self) -> None:
        """Per-cell rank test, oriented unit normal, tangent frame and complement.

        One full SVD per cell of the window (the differential, with the
        outward radial direction appended on spheres) gives both the rank
        test and the normal: a cell is degenerate when the window's least
        singular value is at most 1e-12 times max(1, its largest).  On
        spheres that covers the test on the differential alone: appending a
        column interlaces the singular values, so the window's least one is
        at most the differential's and its largest at least theirs.

        `frames` is the differential's QR factor with the signs fixed so
        that R has a nonnegative diagonal, an orthonormal basis of the
        tangent plane.  `complements` completes it to the target: the normal,
        or (normal, radial) on spheres, with its last column flipped where
        [frame | complement] would have negative determinant.  Degenerate
        cells get a zero normal and coordinate placeholder frames, so the
        arrays stay rectangular; they remain flagged and every consumer
        skips them.  Each cell reads only its own data.
        """
        du = self.differential
        d = self.grid.dim
        big = self.target.ambient_dim

        if self.target.kind == "euclidean":
            window = du
        else:
            radial = self._radial()
            window = np.concatenate([du, radial[..., :, None]], axis=-1)
        left, sing, _ = np.linalg.svd(window, full_matrices=True)
        degenerate = sing[..., -1] <= _RANK_TOL * np.maximum(sing[..., 0], 1.0)
        normal = left[..., :, big - 1].copy()

        # Sign convention: the normal completes the differential's columns to a
        # positively oriented frame of the target's tangent space.  On spheres
        # the tangent orientation itself is taken outward-radial-first.
        if self.target.kind == "euclidean":
            stacked = np.concatenate([du, normal[..., :, None]], axis=-1)
        else:
            stacked = np.concatenate(
                [radial[..., :, None], du, normal[..., :, None]], axis=-1
            )
        flip = np.linalg.det(stacked) < 0
        normal[flip] = -normal[flip]
        normal[degenerate] = 0.0

        q, r = np.linalg.qr(du)
        signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
        signs = np.where(signs == 0.0, 1.0, signs)
        frames = q * signs[..., None, :]

        if self.target.kind == "euclidean":
            comp = normal[..., :, None].copy()
        else:
            comp = np.stack([normal, radial], axis=-1)
        flip = np.linalg.det(np.concatenate([frames, comp], axis=-1)) < 0
        comp[flip, :, -1] = -comp[flip, :, -1]

        frames[degenerate] = np.eye(big)[:, :d]
        comp[degenerate] = np.eye(big)[:, d:]

        self.degenerate = degenerate
        self.normal = normal
        self.frames = frames
        self.complements = comp

    def _build_shape_data(self) -> None:
        """Normal differential, its tangential projection and the shape solve.

        The normal differential differences neighbouring cells and repeats
        the last difference at the trailing face, so this part depends on
        where the grid ends; `restrict` recomputes it, and only it.
        """
        du = self.differential
        d = self.grid.dim
        degenerate = self.degenerate
        self.normal_differential = self._cell_gradient(self.normal, self.grid.spacing)

        if self.target.kind == "euclidean":
            projected = self.normal_differential
        else:
            radial = self._radial()
            coeff = np.einsum("...i,...ij->...j", radial, self.normal_differential)
            projected = self.normal_differential - radial[..., :, None] * coeff[..., None, :]
        self.projected_normal_differential = projected

        gram = np.swapaxes(du, -1, -2) @ du
        rhs = np.swapaxes(du, -1, -2) @ projected
        safe = np.where(degenerate[..., None, None], np.eye(d), gram)
        shape = np.linalg.solve(safe, rhs)
        shape[degenerate] = 0.0
        self.shape_operator = shape
        self.shape_residual = np.linalg.norm(du @ shape - projected, axis=(-2, -1))
        self.shape_residual[degenerate] = 0.0

    @staticmethod
    def _cell_gradient(field: np.ndarray, h: float) -> np.ndarray:
        """Forward differences of a cell field, repeating the last difference
        at the trailing cell of each axis; single-cell axes contribute zero."""
        d = field.ndim - 1
        cols = []
        for axis in range(d):
            if field.shape[axis] == 1:
                cols.append(np.zeros_like(field))
                continue
            diff = np.diff(field, axis=axis) / h
            last = np.take(diff, [-1], axis=axis)
            cols.append(np.concatenate([diff, last], axis=axis))
        return np.stack(cols, axis=-1)

    @property
    def degenerate_count(self) -> int:
        return int(self.degenerate.sum())

    def restrict(self, corner: tuple[int, ...], resolution: int) -> "ImmersionField":
        """Sub-immersion on the subcube of `resolution` cells at node `corner`.

        The node values, differential, cell points, normals, degenerate
        flags, tangent frames and complements are views of this field's;
        only the data `_build_shape_data` derives across the subcube's
        trailing face is recomputed.  Every attribute equals, bit for bit,
        what a fresh field on the sliced nodes would compute.  That needs the
        sub-grid's spacing (its length over its resolution) to round to this
        grid's; where it does not, the differential would differ in the last
        bit, so the subcube is built afresh instead.
        """
        sub, nodes, cells = _subcube(self.grid, corner, resolution)
        values = self.values[nodes]
        if sub.spacing != self.grid.spacing:
            return ImmersionField(sub, self.target, values, self.mode)
        field = ImmersionField.__new__(ImmersionField)
        field.grid = sub
        field.target = self.target
        field.values = values
        field.mode = self.mode
        field.differential = self.differential[cells]
        field.cell_points = self.cell_points[cells]
        field.normal = self.normal[cells]
        field.degenerate = self.degenerate[cells]
        field.frames = self.frames[cells]
        field.complements = self.complements[cells]
        field._build_shape_data()
        return field


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

    `excess` is bending + dirichlet by construction.  `measure` records
    whether cells were weighted with the metric volume sqrt(det gram) or with
    plain Lebesgue measure.
    """

    p: float
    stretch: float
    bending: float
    bending_ref: float | None
    dirichlet: float
    excess: float
    measure: str
    degenerate_cells: int


def energies(
    u: ImmersionField,
    g: MetricField,
    ref: ReferenceShape | None = None,
    p: float = 2.0,
    measure: str = "riemannian",
) -> EnergyReport:
    """Stretching, bending and Dirichlet content of a discrete immersion.

    Stretching integrates dist^p to the (not necessarily oriented) isometries
    of the cell metric; bending integrates the tangential part of the normal's
    variation; with a reference form the misfit |du (S_u - S_ref)|^p is also
    integrated.  Degenerate cells are skipped and counted.
    """
    if u.grid != g.grid:
        raise ValueError("immersion and metric live on different grids")
    if measure not in ("riemannian", "lebesgue"):
        raise ValueError(f"unknown measure {measure!r}")
    if not p >= 1.0:
        raise ValueError("exponent p must be at least 1")

    good = ~u.degenerate
    weights = np.full(u.grid.cell_shape, u.grid.cell_volume)
    if measure == "riemannian":
        weights = weights * g.cell_sqrt_det
    w = weights[good]

    inv_sqrt = g.cell_inv_sqrt[good]
    du = u.differential[good]

    stretch_density = isometry_defect(du @ inv_sqrt)
    stretch = float(np.sum(stretch_density**p * w))

    bend_density = np.linalg.norm(u.projected_normal_differential[good] @ inv_sqrt, axis=(-2, -1))
    bending = float(np.sum(bend_density**p * w))

    dirichlet_density = np.linalg.norm(du @ inv_sqrt, axis=(-2, -1))
    dirichlet = float(np.sum(dirichlet_density**p * w))

    bending_ref = None
    if ref is not None:
        if ref.grid != u.grid:
            raise ValueError("reference form lives on a different grid")
        cell_forms = corner_average(ref.form, u.grid.dim)
        ref_shape = np.linalg.solve(g.cell_grams, cell_forms)[good]
        misfit = du @ (u.shape_operator[good] - ref_shape)
        ref_density = np.linalg.norm(misfit @ inv_sqrt, axis=(-2, -1))
        bending_ref = float(np.sum(ref_density**p * w))

    return EnergyReport(
        p=float(p),
        stretch=stretch,
        bending=bending,
        bending_ref=bending_ref,
        dirichlet=dirichlet,
        excess=bending + dirichlet,
        measure=measure,
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
        "values": u.values.reshape(-1, u.target.ambient_dim).tolist(),
        "gram": g.gram.reshape(-1, u.grid.dim, u.grid.dim).tolist(),
    }
    with open(path, "w") as handle:
        json.dump(doc, handle, sort_keys=True)
        handle.write("\n")


def snapshot_load(path) -> tuple[ImmersionField, MetricField]:
    """Read back a snapshot written by `snapshot_save`."""
    with open(path) as handle:
        doc = json.load(handle)
    try:
        gd = doc["grid"]
        grid = GridDomain(int(gd["d"]), float(gd["l"]), int(gd["n"]))
        td = doc["target"]
        if td["kind"] == "sphere":
            target = TargetSpace.sphere(grid.dim, float(td["rho"]))
        else:
            target = TargetSpace.euclidean(grid.dim)
        if int(td["D"]) != target.ambient_dim:
            raise ValueError(f"snapshot ambient dimension {td['D']} is inconsistent")
        values = np.array(doc["values"], dtype=float).reshape(
            grid.node_shape + (target.ambient_dim,)
        )
        gram = np.array(doc["gram"], dtype=float).reshape(grid.node_shape + (grid.dim, grid.dim))
    except KeyError as missing:
        raise ValueError(f"snapshot is missing field {missing}") from None
    except TypeError:
        raise ValueError("snapshot must be a JSON object in the snapshot_save layout") from None
    if grid.resolution < 2:
        raise ValueError("snapshot grids need at least two cells per axis")
    return ImmersionField(grid, target, values), MetricField(grid, gram)
