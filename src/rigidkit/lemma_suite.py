"""Randomized property suite for the pointwise lemmas.

Each runner draws seeded random instances, evaluates one inequality (or
equality) and reports the worst slack seen.  Slack is always oriented so
that the statement under test reads ``slack >= -tolerance``: for a bound
``lhs <= rhs`` the slack is ``rhs - lhs``, for an equality it is minus the
absolute difference.  ``run_all`` returns one result per property in a
fixed order so the JSON summary is stable.

Draw, then evaluate.  The sampled runners make their generator calls one
instance at a time, with the same sizes and in the same order as a loop
that evaluates each instance before drawing the next, so a seed names the
same instances (and leaves the generator at the same position) whether
instances are evaluated one by one or together.  The draws fill zeroed
arrays, grouped by dimension, lower ambient dimensions embedded by zero
rows, and each group is one call per stacked kernel, with every check of
the one-instance path.  The embedding changes no number a property reads:
QR of [A; 0] is [Q; 0] with the same R, and products F^T t, F0^T F, F c
and Frobenius norms of padded frames and maps equal the unpadded ones.

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

from array import array
from dataclasses import asdict, dataclass

import numpy as np

from .fields import GridDomain
from .metric_algebra import (
    OrientedSubspace,
    checked_grams,
    checked_spanning_frames,
    frame_distance,
    frames_orthonormal,
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
from .scenarios import config_field, latitude_arc_fits, latitude_circle

DEFAULT_TOLERANCE = 1e-10
NORMAL_BOUND_TOLERANCE = 1e-8
_ARC_LENGTH = 1.0  # of the latitude arc in the sphere check

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
            object.__setattr__(self, name, config_field(self, name, int))
        for name in ("lam_max", "tolerance", "normal_tolerance", "sphere_radius", "polar_angle"):
            config_field(self, name, float)
        if self.samples < 0:
            raise ValueError("sample count must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # The planar properties draw an ambient dimension above dim.
        if not 1 <= self.max_dim < self.max_ambient:
            raise ValueError("need 1 <= max_dim < max_ambient")
        if not 1.0 <= self.lam_max <= 1e6:
            raise ValueError(f"lam_max must lie in [1, 1e6], got {self.lam_max!r}")
        if self.tolerance <= 0.0 or self.normal_tolerance <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.curve_resolution < 2:
            raise ValueError("curve resolution must be at least 2")
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


def _log_spectrum_range(lam_max: float) -> tuple[float, float]:
    return -np.log(lam_max), np.log(lam_max)


def _rotations(normals: np.ndarray) -> np.ndarray:
    """Rotations (..., d, d) from standard normal draws of the same shape."""
    q = sign_fixed_qr(normals)[0]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def _draw_gram(rng, dim: int, lam_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Raw draws of one random Gram matrix: log-spectrum, then rotation normals."""
    return rng.uniform(*_log_spectrum_range(lam_max), size=dim), rng.standard_normal((dim, dim))


def _grams(log_spectra: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SPD Gram matrices from stacked `_draw_gram` draws, plus each exact sandwich constant."""
    w = np.exp(log_spectra)
    q = _rotations(normals)
    gram = (q * w[..., None, :]) @ np.swapaxes(q, -1, -2)
    lam = np.maximum(np.maximum(w.max(axis=-1), 1.0 / w.min(axis=-1)), 1.0)
    return checked_grams(0.5 * (gram + np.swapaxes(gram, -1, -2))), lam


def _by_dim(dims: np.ndarray):
    """(dim, rows) per dimension drawn, rows the indices of its draws in draw order."""
    for dim in np.unique(dims):
        yield int(dim), np.flatnonzero(dims == dim)


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
        w = np.exp(rng.uniform(*_log_spectrum_range(config.lam_max), size=(count, dim)))
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
        eu = np.linalg.norm(t, axis=(-2, -1))
        root = np.sqrt(lam)
        slack = np.minimum(eu - fn_g / root, root * fn_g - eu)
        worst = min(worst, float(slack.min()))
    return _checked("norm_equivalence", config, worst, "")


def run_so_set_distance_bound(config: LemmaConfig) -> PropertyResult:
    """Distance between rotation sets <= (sqrt(lam)/2) * Gram distance."""
    if config.samples == 0:
        return _vacuous("so_set_distance_bound", config.tolerance)
    rng = _rng(config, 2)
    n, wide = config.samples, config.max_dim
    dims, log_spectra, normals = np.empty(n, dtype=int), np.zeros((n, 2, wide)), np.zeros((n, 2, wide, wide))
    for i in range(n):
        dim = dims[i] = int(rng.integers(1, config.max_dim, endpoint=True))
        for pair in (0, 1):
            log_spectra[i, pair, :dim], normals[i, pair, :dim, :dim] = _draw_gram(rng, dim, config.lam_max)
    worst = np.inf
    for dim, rows in _by_dim(dims):
        gram, lam = _grams(log_spectra[rows, :, :dim], normals[rows, :, :dim, :dim])
        bound = 0.5 * np.sqrt(lam.max(axis=-1)) * np.linalg.norm(gram[:, 0] - gram[:, 1], axis=(-2, -1))
        root = spd_sqrt(gram)
        slack = bound - rotation_set_distance(root[:, 0], root[:, 1])
        worst = min(worst, float(slack.min()))
    return _checked("so_set_distance_bound", config, worst, "")


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
    rng = _rng(config, 3)
    n, top, wide = config.samples, config.max_ambient, config.max_dim
    dims, log_spectra, planes = np.empty(n, dtype=int), np.zeros((n, wide)), np.zeros((2, n, top, wide))
    (base, plane), (normals, coeffs) = planes, np.zeros((2, n, wide, wide))
    for i in range(n):
        dim = dims[i] = int(rng.integers(1, config.max_dim, endpoint=True))
        ambient = int(rng.integers(dim + 1, config.max_ambient, endpoint=True))
        base[i, :ambient, :dim] = rng.standard_normal((ambient, dim))
        plane[i, :ambient, :dim] = rng.standard_normal((ambient, dim))
        log_spectra[i, :dim], normals[i, :dim, :dim] = _draw_gram(rng, dim, config.lam_max)
        coeffs[i, :dim, :dim] = rng.standard_normal((dim, dim))
    worst = np.inf
    ratio = 0.0
    for dim, rows in _by_dim(dims):
        frames0, frames = checked_spanning_frames(planes[:, rows, :, :dim])
        inv_sqrt = spd_inv_sqrt(_grams(log_spectra[rows, :dim], normals[rows, :dim, :dim])[0])
        t = frames @ coeffs[rows, :dim, :dim]
        lhs, rhs, oriented_lhs, unoriented, gap = projection_terms(t, inv_sqrt, frames0, frames)
        worst = min(worst, float((rhs - lhs).min()))
        wide_gap = gap > 1e-8
        over = (oriented_lhs[wide_gap] - unoriented[wide_gap]) / gap[wide_gap]
        ratio = max(ratio, float(over.max(initial=0.0)))
    note = f"oriented-bound constant observed <= {ratio:.3f} (reported, not asserted)"
    return _checked("projection_error_bound", config, worst, note)


def run_volume_comparison(config: LemmaConfig) -> PropertyResult:
    """Weighted sums against sqrt(det g) stay inside the lam^(d/2) sandwich."""
    if config.samples == 0:
        return _vacuous("volume_comparison", config.tolerance)
    rng = _rng(config, 4)
    lo, hi = _log_spectrum_range(config.lam_max)
    # Instances have different cell counts, so a dimension's instances are
    # one flat run of cells, in draw order, cut at `starts` below.
    runs = {}
    for _ in range(config.samples):
        dim = int(rng.integers(1, config.max_dim, endpoint=True))
        cells = int(rng.integers(2, 32, endpoint=True))
        counts, weights, log_spectra = runs.setdefault(dim, ([], array("d"), array("d")))
        counts.append(cells)
        weights.frombytes(rng.uniform(0.0, 1.0, size=cells).tobytes())
        log_spectra.frombytes(rng.uniform(lo, hi, size=(cells, dim)).tobytes())
    worst = np.inf
    for dim, (counts, weights, log_spectra) in runs.items():
        starts = np.cumsum([0, *counts[:-1]])
        spectra = np.exp(np.frombuffer(log_spectra).reshape(-1, dim))
        weights = np.frombuffer(weights)
        top = np.maximum.reduceat(spectra.max(axis=-1), starts)
        bottom = np.minimum.reduceat(spectra.min(axis=-1), starts)
        lam = np.maximum(np.maximum(top, 1.0 / bottom), 1.0)
        sqrt_det = np.sqrt(np.prod(spectra, axis=-1))
        flat = np.add.reduceat(weights, starts)
        weighted = np.add.reduceat(weights * sqrt_det, starts)
        scale = lam ** (dim / 2.0)
        slack = np.minimum(scale * flat - weighted, weighted - flat / scale)
        worst = min(worst, float(slack.min()))
    return _checked("volume_comparison", config, worst, "")


def run_in_plane_equality(config: LemmaConfig) -> PropertyResult:
    """Full-space unoriented distance equals the in-plane oriented one.

    Holds whenever T maps into the plane and preserves orientation as a map
    into it, so the sampler forces det > 0 on the plane coordinates.

    Padded, the plane is [F; 0] and T = [F c; 0], so the leak check, F^T T
    and the singular values of T g^(-1/2) are those of R^D.
    """
    if config.samples == 0:
        return _vacuous("in_plane_equality", config.tolerance)
    rng = _rng(config, 5)
    n, top, wide = config.samples, config.max_ambient, config.max_dim
    dims, log_spectra, plane = np.empty(n, dtype=int), np.zeros((n, wide)), np.zeros((n, top, wide))
    coords, normals = np.zeros((2, n, wide, wide))
    for i in range(n):
        dim = dims[i] = int(rng.integers(1, config.max_dim, endpoint=True))
        ambient = int(rng.integers(dim, config.max_ambient, endpoint=True))
        plane[i, :ambient, :dim] = rng.standard_normal((ambient, dim))
        coords[i, :dim, :dim] = rng.standard_normal((dim, dim))
        log_spectra[i, :dim], normals[i, :dim, :dim] = _draw_gram(rng, dim, config.lam_max)
    worst = np.inf
    for dim, rows in _by_dim(dims):
        frames = checked_spanning_frames(plane[rows, :, :dim])
        c = coords[rows, :dim, :dim]
        c[np.linalg.det(c) < 0.0, :, 0] *= -1.0
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
    slack = proj + du / config.sphere_radius**2 - dnu
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
        dims, wiggles = np.empty(chunk, dtype=int), np.empty(chunk)
        vectors, noise = np.zeros((2, chunk, config.max_ambient, config.max_dim))
        for attempt in range(chunk):
            dim = dims[attempt] = int(rng.integers(1, config.max_dim, endpoint=True))
            ambient = int(rng.integers(dim + 1, config.max_ambient, endpoint=True))
            vectors[attempt, :ambient, :dim] = rng.standard_normal((ambient, dim))
            wiggles[attempt] = rng.uniform(0.0, 0.4 * _gap_threshold(dim))
            noise[attempt, :ambient, :dim] = rng.standard_normal((ambient, dim))
        accepted, flipped, failed = _orientation_attempts(dims, vectors, wiggles, noise)
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
