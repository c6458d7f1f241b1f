"""Randomized property suite for the pointwise lemmas.

Each runner draws seeded random instances, evaluates one inequality (or
equality) and reports the worst slack seen.  Slack is always oriented so
that the statement under test reads ``slack >= -tolerance``: for a bound
``lhs <= rhs`` the slack is ``rhs - lhs``, for an equality it is minus the
absolute difference.  ``run_all`` returns one result per property in a
fixed order so the JSON summary is stable.

Draw, then evaluate.  The sampled runners make their generator calls one
instance at a time, in the order of a loop that evaluates each instance
before drawing the next, so a seed names the same instances (and leaves
the generator at the same position) whether instances are evaluated one
by one or together.  Each runner's `_*_draws` function holds its loop:
the bound generator methods are looked up once, two back-to-back normal
draws are one `standard_normal(out=...)` call of their total size into a
flat buffer, a uniform draw is a `random` draw scaled after the loop
(`_log_spectra`), and each buffer is scattered into its zero-padded array
in one step (`_scatter`).  These are the same bits: Generator draws do
not depend on how a run of them is split into calls or where they are
written, and `uniform(lo, hi)` is lo + (hi - lo) u on the same u, which
`tests/test_lemma_suite.py` pins along with the per-instance loops.  The
padded arrays are grouped by dimension,
lower ambient dimensions embedded by zero rows, and each group is one
call per stacked kernel, with every check of the one-instance path.  The
embedding changes no number a property reads: QR of [A; 0] is [Q; 0] with
the same R, and products F^T t, F0^T F, F c and Frobenius norms of padded
frames and maps equal the unpadded ones.

`run_orientation_stability` keeps the stop rule of its sequential loop:
attempt after attempt until ``samples`` pairs are kept or ``20 * samples``
attempts are made.  It draws attempts in chunks a little larger than the
number of pairs still needed (never past the attempt budget), evaluates a
chunk at once, and counts its attempts only up to the one where the kept
count reaches ``samples``.  Draws past that attempt come from the runner's
own stream and are discarded, so its generator, unlike the others', may end
further along than the sequential loop's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .fields import GridDomain, config_number
from .metric_algebra import (
    OrientedSubspace,
    checked_grams,
    checked_spanning_frames,
    determinant,
    frame_distance,
    frames_orthonormal,
    frobenius,
    isometry_defect,
    metric_norm,
    plane_coordinates,
    projection_keeps_orientation,
    projection_terms,
    rotation_set_distance,
    sign_fixed_qr,
    spanning_frames,
    spd_inv_sqrt,
    spd_sqrt,
)
from .scenarios import latitude_arc_fits, latitude_circle

DEFAULT_TOLERANCE = 1e-10
NORMAL_BOUND_TOLERANCE = 1e-8
_ARC_LENGTH = 1.0  # of the latitude arc in the sphere check
_MOST_CELLS = 32  # per volume-comparison instance
# Size caps (see `LemmaConfig`)
_MOST_SAMPLES = 100_000
_MOST_DRAWN = 1_000_000  # samples * max_ambient * max_dim
_MOST_CURVE_CELLS = 500_000

@dataclass(frozen=True)
class LemmaConfig:
    """Knobs for the property suite.

    `samples` is the instance count per property; zero is allowed and makes
    every property vacuously pass.  The sphere check ignores `samples` and
    instead visits every cell of a unit-length latitude arc at
    `curve_resolution`, so the arc must fit on its circle of latitude.
    Counts and the seed must be integers (an integral float is taken as
    one, a boolean is not), the other knobs finite numbers, and
    `max_ambient` must exceed `max_dim`.

    `lam_max` lies in [1, 1e6]: a Gram matrix Q diag(w) Q^T built from a
    spectrum in [1/lam_max, lam_max] has its least eigenvalue, as small as
    1/lam_max, moved by rounding of about u * lam_max (u = 2^-53), so it
    keeps its sign only while u * lam_max^2 << 1; that is about 1e-4 at
    1e6, and from about 1e8 on a draw can fail the positive-definite check.

    The sizes are capped so that a run's arrays fit in memory, and an
    absurd config fails here, before anything is allocated: `samples` is
    at most 1e5 and, with the draws zero-padded to (max_ambient, max_dim),
    samples * max_ambient * max_dim at most 1e6; `curve_resolution` is at
    most 5e5.  Runs at those caps peaked at 85-215 MB of resident memory,
    the interpreter's 30 MB included (see the README).
    """

    samples: int = 10_000
    max_dim: int = 3
    max_ambient: int = 6
    lam_max: float = 10.0
    seed: int = 42
    tolerance: float = DEFAULT_TOLERANCE
    normal_tolerance: float = NORMAL_BOUND_TOLERANCE
    curve_resolution: int = 1024
    sphere_radius: float = 1.0
    polar_angle: float = np.pi / 3.0

    def __post_init__(self) -> None:
        for name in ("samples", "max_dim", "max_ambient", "seed", "curve_resolution"):
            object.__setattr__(self, name, config_number(getattr(self, name), name, int))
        for name in ("lam_max", "tolerance", "normal_tolerance", "sphere_radius", "polar_angle"):
            config_number(getattr(self, name), name)
        if not 0 <= self.samples <= _MOST_SAMPLES:
            raise ValueError(f"sample count must lie in [0, {_MOST_SAMPLES}], got {self.samples}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # The planar properties draw an ambient dimension above dim.
        if not 1 <= self.max_dim < self.max_ambient:
            raise ValueError("need 1 <= max_dim < max_ambient")
        if self.samples * self.max_ambient * self.max_dim > _MOST_DRAWN:
            raise ValueError(f"samples * max_ambient * max_dim must be at most {_MOST_DRAWN}")
        if not 1.0 <= self.lam_max <= 1e6:
            raise ValueError(f"lam_max must lie in [1, 1e6], got {self.lam_max!r}")
        if self.tolerance <= 0.0 or self.normal_tolerance <= 0.0:
            raise ValueError("tolerances must be positive")
        if not 2 <= self.curve_resolution <= _MOST_CURVE_CELLS:
            raise ValueError(f"curve resolution must lie in [2, {_MOST_CURVE_CELLS}], got {self.curve_resolution}")
        if self.sphere_radius <= 0.0 or not 0.0 < self.polar_angle < np.pi:
            raise ValueError("sphere scenario parameters out of range")
        if not latitude_arc_fits(_ARC_LENGTH, self.sphere_radius, self.polar_angle):
            raise ValueError("the latitude arc is longer than its circle of latitude")


@dataclass(frozen=True)
class PropertyResult:
    name: str
    samples: int
    min_slack: float
    tolerance: float
    passed: bool
    note: str = ""

    def __post_init__(self) -> None:
        # Keep the report JSON-clean regardless of what numpy scalar types
        # the runners hand over.
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "min_slack", float(self.min_slack))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", bool(self.passed))

    def to_dict(self) -> dict:
        return asdict(self)


def _checked(name: str, config: LemmaConfig, worst: float, note: str) -> PropertyResult:
    """The result of a property sampled `config.samples` times: it passes
    when the least slack `worst` is at least -`config.tolerance`."""
    return PropertyResult(
        name=name,
        samples=config.samples,
        min_slack=worst,
        tolerance=config.tolerance,
        passed=worst >= -config.tolerance,
        note=note,
    )


def _vacuous(name: str, tolerance: float) -> PropertyResult:
    return PropertyResult(
        name=name,
        samples=0,
        min_slack=0.0,
        tolerance=tolerance,
        passed=True,
        note="vacuous: no samples drawn",
    )


def _rng(config: LemmaConfig, stream: int) -> np.random.Generator:
    # One independent stream per property so reordering runners never
    # perturbs another property's draws.
    return np.random.default_rng([stream, config.seed])


def _log_spectra(unit: np.ndarray, lam_max: float) -> np.ndarray:
    """Log-spectra uniform on [-log lam_max, log lam_max) from draws of
    `random()`: lo + (hi - lo) u, the bits `uniform(lo, hi)` gives for the
    same draws."""
    lo, hi = -np.log(lam_max), np.log(lam_max)
    return lo + (hi - lo) * unit


def _rotations(normals: np.ndarray) -> np.ndarray:
    """Rotations (..., d, d) from standard normal draws of the same shape."""
    q = sign_fixed_qr(normals)[0]
    q[determinant(q) < 0, :, 0] *= -1.0
    return q


def _grams(log_spectra: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SPD Gram matrices Q diag(exp(log_spectra)) Q^T, Q the `_rotations` of
    `normals`, plus each exact sandwich constant.  A Gram matrix is drawn as
    its log-spectrum (d `random()` draws, see `_log_spectra`), then its
    normals (d * d standard normal draws)."""
    w = np.exp(log_spectra)
    q = _rotations(normals)
    gram = (q * w[..., None, :]) @ np.swapaxes(q, -1, -2)
    lam = np.maximum(np.maximum(w.max(axis=-1), 1.0 / w.min(axis=-1)), 1.0)
    return checked_grams(0.5 * (gram + np.swapaxes(gram, -1, -2))), lam


def _by_dim(dims: np.ndarray):
    """(dim, rows) per dimension drawn, rows the indices of its draws in draw order."""
    for dim in np.unique(dims):
        yield int(dim), np.flatnonzero(dims == dim)


def _corners(rows, cols: np.ndarray, shape: tuple) -> np.ndarray:
    """Mask of shape (n, ..., R, C) selecting, in every block of instance k,
    its leading rows[k] x cols[k] corner (rows may be one count for all)."""
    n, height, width = len(cols), shape[-2], shape[-1]
    inside = (np.arange(height)[:, None] < np.reshape(rows, (-1, 1, 1))) & (np.arange(width) < cols[:, None, None])
    return np.broadcast_to(inside.reshape((n,) + (1,) * (len(shape) - 3) + (height, width)), shape)


def _scatter(flat: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Zeros shaped like `inside`, with the leading entries of `flat` at its
    True places in C order: draws made instance by instance, block by block
    and row by row land in their zero-padded slots."""
    out = np.zeros(inside.shape)
    out[inside] = flat[: np.count_nonzero(inside)]
    return out


def run_norm_equivalence(config: LemmaConfig) -> PropertyResult:
    """`|T| / sqrt(lam) <= |T|  and  |T| <= sqrt(lam) |T|_g` in both orders.

    The Euclidean Frobenius norm must sit inside the sandwich
    [fn_g / sqrt(lam), sqrt(lam) * fn_g] built from the metric norm.
    """
    if config.samples == 0:
        return _vacuous("norm_equivalence", config.tolerance)
    rng = _rng(config, 1)
    worst = np.inf
    for dim in range(1, config.max_dim + 1):
        count = config.samples // config.max_dim + (dim == 1) * (config.samples % config.max_dim)
        w = np.exp(_log_spectra(rng.random((count, dim)), config.lam_max))
        q = _rotations(rng.standard_normal((count, dim, dim)))
        inv_sqrt = (q / np.sqrt(w)[:, None, :]) @ np.swapaxes(q, -1, -2)
        lam = np.maximum(w.max(axis=-1), 1.0 / w.min(axis=-1))
        lam = np.maximum(lam, 1.0)
        # Varying target dimension D <= max_ambient is realized by zeroing
        # trailing rows; the lemma only sees the map's image.
        t = rng.standard_normal((count, config.max_ambient, dim))
        rows = rng.integers(dim, config.max_ambient, endpoint=True, size=count)
        t[np.arange(config.max_ambient)[None, :] >= rows[:, None]] = 0.0
        fn_g = metric_norm(t, inv_sqrt)
        eu = frobenius(t)
        root = np.sqrt(lam)
        slack = np.minimum(eu - fn_g / root, root * fn_g - eu)
        # (a dimension gets no instance when samples < max_dim)
        worst = min(worst, float(slack.min(initial=np.inf)))
    return _checked("norm_equivalence", config, worst, "")


def _so_set_draws(config: LemmaConfig, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Per instance: its dimension, then two Gram matrices (see `_grams`).

    Returns dims (n,), log_spectra (n, 2, max_dim) and normals
    (n, 2, max_dim, max_dim), zero-padded.
    """
    n, wide = config.samples, config.max_dim
    integers, random, normal = rng.integers, rng.random, rng.standard_normal
    dims = np.empty(n, dtype=int)
    logs, squares = np.empty(2 * n * wide), np.empty(2 * n * wide * wide)
    at = square_at = 0
    for i in range(n):
        dim = dims[i] = int(integers(1, wide, endpoint=True))
        for _ in range(2):
            random(out=logs[at : at + dim])
            normal(out=squares[square_at : square_at + dim * dim])
            at, square_at = at + dim, square_at + dim * dim
    logs = _log_spectra(logs[:at], config.lam_max)
    log_spectra = _scatter(logs, _corners(1, dims, (n, 2, 1, wide)))[:, :, 0]
    return dims, log_spectra, _scatter(squares, _corners(dims, dims, (n, 2, wide, wide)))


def run_so_set_distance_bound(config: LemmaConfig) -> PropertyResult:
    """Distance between rotation sets <= (sqrt(lam)/2) * Gram distance."""
    if config.samples == 0:
        return _vacuous("so_set_distance_bound", config.tolerance)
    dims, log_spectra, normals = _so_set_draws(config, _rng(config, 2))
    worst = np.inf
    for dim, rows in _by_dim(dims):
        gram, lam = _grams(log_spectra[rows, :, :dim], normals[rows, :, :dim, :dim])
        bound = 0.5 * np.sqrt(lam.max(axis=-1)) * frobenius(gram[:, 0] - gram[:, 1])
        root = spd_sqrt(gram)
        slack = bound - rotation_set_distance(root[:, 0], root[:, 1])
        worst = min(worst, float(slack.min()))
    return _checked("so_set_distance_bound", config, worst, "")


def _projection_draws(config: LemmaConfig, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Per instance: its dimension d, an ambient dimension above d, the
    spanning vectors of the base plane and of the plane, one Gram matrix
    (see `_grams`), and the map's coordinates in the plane.  Each pair of
    back-to-back normal draws is one generator call.

    Returns dims (n,), planes (n, 2, max_ambient, max_dim) (base, plane),
    log_spectra (n, max_dim) and squares (n, 2, max_dim, max_dim) (the Gram
    matrix's normals, the coordinates), zero-padded.
    """
    n, top, wide = config.samples, config.max_ambient, config.max_dim
    integers, random, normal = rng.integers, rng.random, rng.standard_normal
    dims, ambients = np.empty(n, dtype=int), np.empty(n, dtype=int)
    vectors, logs, squares = np.empty(2 * n * top * wide), np.empty(n * wide), np.empty(2 * n * wide * wide)
    at = log_at = square_at = 0
    for i in range(n):
        dim = dims[i] = int(integers(1, wide, endpoint=True))
        ambient = ambients[i] = int(integers(dim + 1, top, endpoint=True))
        normal(out=vectors[at : at + 2 * ambient * dim])
        random(out=logs[log_at : log_at + dim])
        normal(out=squares[square_at : square_at + 2 * dim * dim])
        at, log_at, square_at = at + 2 * ambient * dim, log_at + dim, square_at + 2 * dim * dim
    planes = _scatter(vectors, _corners(ambients, dims, (n, 2, top, wide)))
    logs = _log_spectra(logs[:log_at], config.lam_max)
    log_spectra = _scatter(logs, _corners(1, dims, (n, 1, wide)))[:, 0]
    return dims, planes, log_spectra, _scatter(squares, _corners(dims, dims, (n, 2, wide, wide)))


def run_projection_error_bound(config: LemmaConfig) -> PropertyResult:
    """|P0 T - T|_g <= |T|_g * (complement gap), for T with image in the plane.

    The companion oriented bound has an uncalibrated constant, so it is
    measured here (worst observed ratio) and carried in the note instead of
    being asserted.

    Padded, the planes are [F0; 0], [F; 0] and T = [F c; 0], so P0 T - T,
    the metric norms, the gap min_q |F0 - F q|, F0^T P0 T and the singular
    values of T g^(-1/2) are those of R^D.
    """
    if config.samples == 0:
        return _vacuous("projection_error_bound", config.tolerance)
    dims, planes, log_spectra, squares = _projection_draws(config, _rng(config, 3))
    worst = np.inf
    ratio = 0.0
    for dim, rows in _by_dim(dims):
        frames0, frames = np.moveaxis(checked_spanning_frames(planes[rows, :, :, :dim]), 1, 0)
        normals, coeffs = np.moveaxis(squares[rows, :, :dim, :dim], 1, 0)
        inv_sqrt = spd_inv_sqrt(_grams(log_spectra[rows, :dim], normals)[0])
        lhs, rhs, oriented_lhs, unoriented, gap = projection_terms(frames @ coeffs, inv_sqrt, frames0, frames)
        worst = min(worst, float((rhs - lhs).min()))
        wide_gap = gap > 1e-8
        over = (oriented_lhs[wide_gap] - unoriented[wide_gap]) / gap[wide_gap]
        ratio = max(ratio, float(over.max(initial=0.0)))
    note = f"oriented-bound constant observed <= {ratio:.3f} (reported, not asserted)"
    return _checked("projection_error_bound", config, worst, note)


def _volume_draws(config: LemmaConfig, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Per instance: its dimension d, a cell count, a weight in [0, 1) per
    cell (`random`, the bits of `uniform(0.0, 1.0)`), then a log-spectrum of
    d entries per cell (see `_log_spectra`).

    Returns dims (n,), cells (n,), and the weights and log-spectra of all
    instances, each one flat run in draw order.
    """
    n, wide = config.samples, config.max_dim
    integers, random = rng.integers, rng.random
    dims, cells = np.empty(n, dtype=int), np.empty(n, dtype=int)
    weights, logs = np.empty(n * _MOST_CELLS), np.empty(n * _MOST_CELLS * wide)
    at = log_at = 0
    for i in range(n):
        dim = dims[i] = int(integers(1, wide, endpoint=True))
        count = cells[i] = int(integers(2, _MOST_CELLS, endpoint=True))
        random(out=weights[at : at + count])
        random(out=logs[log_at : log_at + count * dim])
        at, log_at = at + count, log_at + count * dim
    return dims, cells, weights[:at], _log_spectra(logs[:log_at], config.lam_max)


def run_volume_comparison(config: LemmaConfig) -> PropertyResult:
    """Weighted sums against sqrt(det g) stay inside the lam^(d/2) sandwich."""
    if config.samples == 0:
        return _vacuous("volume_comparison", config.tolerance)
    dims, cells, weights, logs = _volume_draws(config, _rng(config, 4))
    cell_dims = np.repeat(dims, cells)
    worst = np.inf
    for dim, rows in _by_dim(dims):
        # A dimension's instances are one flat run of cells, in draw order,
        # cut at `starts`.
        counts = cells[rows]
        starts = np.cumsum(counts) - counts
        spectra = np.exp(logs[np.repeat(cell_dims == dim, cell_dims)].reshape(-1, dim))
        mine = weights[cell_dims == dim]
        top = np.maximum.reduceat(spectra.max(axis=-1), starts)
        bottom = np.minimum.reduceat(spectra.min(axis=-1), starts)
        lam = np.maximum(np.maximum(top, 1.0 / bottom), 1.0)
        sqrt_det = np.sqrt(np.prod(spectra, axis=-1))
        flat = np.add.reduceat(mine, starts)
        weighted = np.add.reduceat(mine * sqrt_det, starts)
        scale = lam ** (dim / 2.0)
        slack = np.minimum(scale * flat - weighted, weighted - flat / scale)
        worst = min(worst, float(slack.min()))
    return _checked("volume_comparison", config, worst, "")


def _in_plane_draws(config: LemmaConfig, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Per instance: its dimension d, an ambient dimension of at least d,
    the plane's spanning vectors and the map's coordinates in it (one
    generator call), then one Gram matrix (see `_grams`).

    Returns dims (n,), plane (n, max_ambient, max_dim), coords
    (n, max_dim, max_dim), log_spectra (n, max_dim) and normals
    (n, max_dim, max_dim), zero-padded.
    """
    n, top, wide = config.samples, config.max_ambient, config.max_dim
    integers, random, normal = rng.integers, rng.random, rng.standard_normal
    dims, ambients = np.empty(n, dtype=int), np.empty(n, dtype=int)
    # Each instance's plane rows and coordinate rows are one block of rows:
    # [vectors; coords], (ambient + d) x d, in C order.
    stacked, logs, squares = np.empty(n * (top + wide) * wide), np.empty(n * wide), np.empty(n * wide * wide)
    at = log_at = square_at = 0
    for i in range(n):
        dim = dims[i] = int(integers(1, wide, endpoint=True))
        ambient = ambients[i] = int(integers(dim, top, endpoint=True))
        normal(out=stacked[at : at + (ambient + dim) * dim])
        random(out=logs[log_at : log_at + dim])
        normal(out=squares[square_at : square_at + dim * dim])
        at, log_at, square_at = at + (ambient + dim) * dim, log_at + dim, square_at + dim * dim
    row = np.arange(top + wide)
    used = (row < ambients[:, None]) | ((row >= top) & (row < top + dims[:, None]))
    stacked = _scatter(stacked, used[:, :, None] & (np.arange(wide) < dims[:, None, None]))
    logs = _log_spectra(logs[:log_at], config.lam_max)
    log_spectra = _scatter(logs, _corners(1, dims, (n, 1, wide)))[:, 0]
    normals = _scatter(squares, _corners(dims, dims, (n, wide, wide)))
    return dims, stacked[:, :top], stacked[:, top:], log_spectra, normals


def run_in_plane_equality(config: LemmaConfig) -> PropertyResult:
    """Full-space unoriented distance equals the in-plane oriented one.

    Holds whenever T maps into the plane and preserves orientation as a map
    into it, so the sampler forces det > 0 on the plane coordinates.

    Padded, the plane is [F; 0] and T = [F c; 0], so the leak check, F^T T
    and the singular values of T g^(-1/2) are those of R^D.
    """
    if config.samples == 0:
        return _vacuous("in_plane_equality", config.tolerance)
    dims, plane, coords, log_spectra, normals = _in_plane_draws(config, _rng(config, 5))
    worst = np.inf
    for dim, rows in _by_dim(dims):
        frames = checked_spanning_frames(plane[rows, :, :dim])
        c = coords[rows, :dim, :dim]
        c[determinant(c) < 0.0, :, 0] *= -1.0
        inv_sqrt = spd_inv_sqrt(_grams(log_spectra[rows, :dim], normals[rows, :dim, :dim])[0])
        t = frames @ c
        full = isometry_defect(t @ inv_sqrt)
        planar = isometry_defect(plane_coordinates(t, frames) @ inv_sqrt, oriented=True)
        worst = min(worst, float((-np.abs(full - planar)).min()))
    return _checked("in_plane_equality", config, worst, "")


def run_normal_derivative_bound(config: LemmaConfig) -> PropertyResult:
    """|d nu|^2 <= |P d nu|^2 + C |d u|^2 at every cell, C = 1/radius^2.

    Exercised on the latitude-circle scenario, where the target projection
    is genuinely nontrivial; the cell count stands in for the sample count.
    """
    grid = GridDomain(1, _ARC_LENGTH, config.curve_resolution)
    u = latitude_circle(grid, config.sphere_radius, config.polar_angle)
    dnu = np.linalg.norm(u.normal_differential, axis=-2) ** 2
    proj = np.linalg.norm(u.projected_normal_differential, axis=-2) ** 2
    du = np.linalg.norm(u.differential, axis=-2) ** 2
    # a radius past 1e154 squares to inf (C = 0) instead of raising OverflowError
    with np.errstate(over="ignore"):
        slack = proj + du / np.float64(config.sphere_radius) ** 2 - dnu
    per_cell = slack.min()
    return PropertyResult(
        name="normal_derivative_bound",
        samples=int(slack.size),
        min_slack=float(per_cell),
        tolerance=config.normal_tolerance,
        passed=bool(per_cell >= -config.normal_tolerance),
        note=f"latitude arc, n={config.curve_resolution}, C=1/rho^2",
    )


def _gap_threshold(dim: int) -> float:
    """Complement gap below which a pair counts as nearby: the heuristic 0.5/(2d)."""
    return 0.5 / (2.0 * dim)


def _orientation_attempts(dims, vectors, wiggles, noise) -> tuple[np.ndarray, np.ndarray, dict]:
    """Per attempt, in draw order: pair kept, orientation flipped; and the failed bases.

    Attempt k reads the first dims[k] columns of its zero-padded draws.  The
    last value is {attempt: spanning vectors} for attempts whose base plane
    cannot be built, which the sequential loop would have raised on.
    """
    kept, flipped = np.zeros(dims.size, dtype=bool), np.zeros(dims.size, dtype=bool)
    failed = {}
    for dim, attempt in _by_dim(dims):
        spanning = vectors[attempt, :, :dim]
        base, independent = spanning_frames(spanning)
        base_ok = independent & frames_orthonormal(base)
        failed.update(zip(attempt[~base_ok].tolist(), spanning[~base_ok]))
        plane, independent = spanning_frames(base + wiggles[attempt, None, None] * noise[attempt, :, :dim])
        # An attempt whose plane does not span, or whose frame fails the
        # orthonormality check, is skipped, as the sequential loop skipped it.
        valid = base_ok & independent & frames_orthonormal(plane)
        base, plane, attempt = base[valid], plane[valid], attempt[valid]
        gap = frame_distance(base, plane)
        kept[attempt] = ~(gap >= _gap_threshold(dim))
        flipped[attempt] = kept[attempt] & ~projection_keeps_orientation(base, plane)
    return kept, flipped, failed


def _orientation_draws(config: LemmaConfig, rng: np.random.Generator, chunk: int) -> tuple[np.ndarray, ...]:
    """Per attempt: its dimension d, an ambient dimension above d, the base
    plane's spanning vectors, a wiggle in [0, 0.4 * 0.5/(2d)), and the
    noise that moves the base.

    Returns dims (chunk,), vectors (chunk, max_ambient, max_dim), wiggles
    (chunk,) and noise (chunk, max_ambient, max_dim), zero-padded.
    """
    top, wide = config.max_ambient, config.max_dim
    integers, random, normal = rng.integers, rng.random, rng.standard_normal
    dims, ambients, wiggles = np.empty(chunk, dtype=int), np.empty(chunk, dtype=int), np.empty(chunk)
    vectors, noise = np.empty((2, chunk * top * wide))
    at = 0
    for attempt in range(chunk):
        dim = dims[attempt] = int(integers(1, wide, endpoint=True))
        ambient = ambients[attempt] = int(integers(dim + 1, top, endpoint=True))
        normal(out=vectors[at : at + ambient * dim])
        wiggles[attempt] = random()
        normal(out=noise[at : at + ambient * dim])
        at += ambient * dim
    # reach * u, the bits of uniform(0.0, reach)
    wiggles *= 0.4 * _gap_threshold(dims)
    inside = _corners(ambients, dims, (chunk, top, wide))
    return dims, _scatter(vectors, inside), wiggles, _scatter(noise, inside)


def run_orientation_stability(config: LemmaConfig) -> PropertyResult:
    """Sample nearby planes and count orientation flips under projection.

    The underlying lemma guarantees some threshold exists but gives no
    usable value, so this property is observational: it always passes and
    the note records the flip count below the heuristic gap 0.5/(2d).

    Padded, the base and the plane spanned by [F0 + wiggle N; 0] are [F0; 0]
    and [F; 0], so the frame checks, min_q |F0 - F q| and det(F0^T F) are
    those of R^D.
    """
    if config.samples == 0:
        return _vacuous("orientation_stability", config.tolerance)
    rng = _rng(config, 6)
    budget = 20 * config.samples
    kept = flips = attempts = 0
    while kept < config.samples and attempts < budget:
        need = config.samples - kept
        # About nine attempts in ten are kept, so a chunk of need * 9/8 + 2
        # usually ends the loop in one round.
        chunk = min(need + need // 8 + 2, budget - attempts)
        draws = _orientation_draws(config, rng, chunk)
        accepted, flipped, failed = _orientation_attempts(*draws)
        hits = np.flatnonzero(accepted)
        cut = hits[need - 1] + 1 if hits.size >= need else chunk
        bad = [attempt for attempt in failed if attempt < cut]
        if bad:
            OrientedSubspace.from_spanning(failed[min(bad)])  # raises that attempt's error
        kept += int(accepted[:cut].sum())
        flips += int(flipped[:cut].sum())
        attempts += cut
    return PropertyResult(
        name="orientation_stability",
        samples=kept,
        min_slack=0.0,
        tolerance=config.tolerance,
        passed=True,
        note=f"{flips} orientation flips in {kept} pairs below gap 0.5/(2d); observational only",
    )


_RUNNERS = {
    "norm_equivalence": run_norm_equivalence,
    "so_set_distance_bound": run_so_set_distance_bound,
    "projection_error_bound": run_projection_error_bound,
    "volume_comparison": run_volume_comparison,
    "in_plane_equality": run_in_plane_equality,
    "normal_derivative_bound": run_normal_derivative_bound,
    "orientation_stability": run_orientation_stability,
}


PROPERTY_ORDER = tuple(_RUNNERS)


def run_all(config: LemmaConfig) -> list[PropertyResult]:
    return [_RUNNERS[name](config) for name in PROPERTY_ORDER]
