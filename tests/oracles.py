"""Brute-force minimizers used as oracles for the closed-form kernels, and
per-call references for results that the library caches.

Everything here deliberately avoids the eigendecomposition/SVD route the
library takes: metric norms go through a Cholesky-built orthonormal basis,
isometry families are sampled as Q @ L^T with L the Cholesky factor (so that
R^T R = L L^T = gram), and minimizations walk a dense rotation-angle grid.

The grid is evaluated per entry: each matrix entry of every grid member is
one (K,) array, and the fixed matrices (Cholesky factors, `t`, frames, the
metric basis) enter as scalars.  This walks exactly the members a (K, 2, 2)
stack would, without building stacks of K small matrices.  Differences are
formed directly (never through |a - b|^2 = |a|^2 - 2 a.b + |b|^2), and no
SVD, eigh or polar step enters.
"""

import itertools

import numpy as np

ANGLE_STEP = 1e-4


def rotation_grid(step: float = ANGLE_STEP) -> np.ndarray:
    """All 2x2 rotations with angles spaced `step` apart, shape (K, 2, 2)."""
    angles = np.arange(0.0, 2.0 * np.pi, step)
    c, s = np.cos(angles), np.sin(angles)
    qs = np.empty((angles.size, 2, 2))
    qs[:, 0, 0] = c
    qs[:, 0, 1] = -s
    qs[:, 1, 0] = s
    qs[:, 1, 1] = c
    return qs


def metric_basis(gram: np.ndarray) -> np.ndarray:
    """Columns form a gram-orthonormal basis (inverse transpose of Cholesky)."""
    return np.linalg.inv(np.linalg.cholesky(gram)).T


def metric_frobenius(t: np.ndarray, gram: np.ndarray) -> float:
    return float(np.linalg.norm(t @ metric_basis(gram)))


def _grid_entries(qs: np.ndarray) -> np.ndarray:
    """The grid members of `qs` (K, 2, 2) as per-entry arrays, shape (2, 2, K)."""
    return np.ascontiguousarray(np.moveaxis(qs, 0, -1))


def _times_fixed(entries: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """member @ mat for every member and a fixed (2, n) matrix, shape (r, n, K).

    Row i of every member is the (2, K) slab entries[i], so one product
    mat^T @ entries[i] gives all entries member[i, :] @ mat at once.
    """
    return np.matmul(mat.T, entries)


def _fixed_times(mat: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """mat @ member for a fixed (D, 2) matrix and every member, shape (D, n, K)."""
    return (mat @ entries.reshape(2, -1)).reshape(mat.shape[0], *entries.shape[1:])


def _frobenius(entries: np.ndarray) -> np.ndarray:
    """Frobenius norm of every member of a per-entry stack, shape (K,)."""
    return np.sqrt(np.sum(entries * entries, axis=(0, 1)))


def isometry_samples(gram: np.ndarray, oriented: bool, qs: np.ndarray) -> np.ndarray:
    """Dense sample of the (oriented) isometries from (R^2, gram) to R^2.

    Per-entry layout, shape (2, 2, K) or (2, 2, 2K): the members Q @ L^T for
    every grid rotation Q, followed, when unoriented, by (Q @ diag(1, -1)) @ L^T.
    """
    lt = np.linalg.cholesky(gram).T
    grid = _grid_entries(qs)
    if not oriented:
        grid = np.concatenate([grid, grid * np.array([1.0, -1.0])[:, None]], axis=-1)
    return _times_fixed(grid, lt)


def brute_nearest_isometry(
    t: np.ndarray, gram: np.ndarray, oriented: bool, qs: np.ndarray
) -> tuple[np.ndarray, float]:
    members = isometry_samples(gram, oriented, qs)
    vals = _frobenius(_times_fixed(t[:, :, None] - members, metric_basis(gram)))
    k = int(np.argmin(vals))
    return members[:, :, k].copy(), float(vals[k])


def brute_so_set_distance(gram_x: np.ndarray, gram_y: np.ndarray, qs: np.ndarray) -> float:
    # min over Q1, Q2 of |Q1 Lx^T - Q2 Ly^T| collapses to a single grid because
    # multiplying both members by Q2^T on the left keeps the norm.
    lx = np.linalg.cholesky(gram_x).T
    ly = np.linalg.cholesky(gram_y).T
    vals = _frobenius(_times_fixed(_grid_entries(qs), lx) - ly[:, :, None])
    return float(vals.min())


def brute_subspace_distance(frame_a: np.ndarray, frame_b: np.ndarray, qs: np.ndarray) -> float:
    vals = _frobenius(frame_a[:, :, None] - _fixed_times(frame_b, _grid_entries(qs)))
    return float(vals.min())


# One constant Gram matrix per dimension that is not the identity: SPD, with
# off-diagonal entries, and none of its roots a short binary fraction.
SPD_GRAMS = {
    1: [[2.25]],
    2: [[2.0, 0.5], [0.5, 1.0]],
    3: [[2.0, 0.3, -0.2], [0.3, 1.5, 0.4], [-0.2, 0.4, 0.8]],
}


def random_spd(rng: np.random.Generator, dim: int, lam_max: float = 10.0) -> np.ndarray:
    """Random SPD matrix with eigenvalues inside [1/lam_max, lam_max]."""
    eigs = rng.uniform(1.0 / lam_max, lam_max, size=dim)
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return (q * eigs) @ q.T


def random_frame(rng: np.random.Generator, ambient: int, dim: int) -> np.ndarray:
    """Random orthonormal frame with positively oriented QR convention."""
    mat = rng.standard_normal((ambient, dim))
    q, r = np.linalg.qr(mat)
    return q * np.sign(np.diagonal(r))


def translation_modulus_per_call(field, zeta) -> tuple[tuple[float, ...], float, float]:
    """(shift, value, covered fraction) of `rigidity.translation_modulus`,
    computed over the whole grid: a boolean mask of the admissible subcubes,
    one of the cells in them, and fancy gathers of each cell's subcube, its
    centre, its target subcube and its metric factor.  The reference for
    the admissible box the library reads, equal bit for bit."""
    grid = field.grid
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    if np.linalg.norm(zeta) >= grid.length:
        return tuple(zeta.tolist()), 0.0, 0.0
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
        return tuple(zeta.tolist()), 0.0, 0.0

    block = grid.resolution // t
    sub_of_cell = np.indices(grid.cell_shape) // block
    cell_ok = admissible[tuple(sub_of_cell)].reshape(-1)
    centers = grid.cell_centers().reshape(-1, grid.dim)[cell_ok]
    from_idx = tuple(ix.reshape(-1)[cell_ok] for ix in sub_of_cell)
    to_idx = tuple(np.clip((centers + zeta) // side, 0, t - 1).astype(int).T)
    diff = field.rotations[to_idx] - field.rotations[from_idx]
    inv_sqrt = field.metric.cell_inv_sqrt.reshape(-1, grid.dim, grid.dim)[cell_ok]
    deviation = diff @ inv_sqrt
    norms = np.sqrt(np.sum(deviation * deviation, axis=(-2, -1)))
    value = float(grid.cell_volume * np.sum(norms**field.p))
    return tuple(zeta.tolist()), value, count / t**grid.dim


def rotation_descent_per_candidate(
    du: np.ndarray, p: float, start: np.ndarray, accepted: list | None = None, visit=None
) -> np.ndarray:
    """`rigidity._rotation_descent` as it was written before the column
    layout: each candidate built and scored on its own, as sum |Du - R|^p
    over the (N, d, d) cells.  The reference its rotation must equal bit for
    bit.  The sign of every step it keeps is appended to `accepted`, and
    `visit(best_rot, best, i, j, angle, value)` sees every candidate, the
    turn of `best_rot` by `angle` in plane (i, j), before it is tested."""
    d = start.shape[0]
    pairs = list(itertools.combinations(range(d), 2))
    if not pairs:
        return start

    def objective(rot: np.ndarray) -> float:
        diff = du - rot
        return float(np.sum(np.sqrt(np.sum(diff * diff, axis=(-2, -1))) ** p))

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
                if visit is not None:
                    visit(best_rot, best, i, j, sign * step, value)
                if value < best * (1.0 - 1e-10):
                    best_rot, best, moved = candidate, value, True
                    if accepted is not None:
                        accepted.append(sign)
        if not moved:
            step *= 0.5
    return best_rot


def max_pairwise_distance_axis0(points: np.ndarray) -> float:
    """`fields._max_pairwise_distance` as it took its constant test and its
    bounding box from `ptp`, `min` and `max` along axis 0 of the points."""
    from rigidkit.fields import _FARTHEST_POINT_SWEEPS, _PRUNE_SLACK, _sq_distances

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


def perturbation_sums_stacked(dim: int, out_dim: int, length: float, seed: int) -> np.ndarray:
    """The summed squared gradients `scenarios.perturbation_field` probes, on
    every node of its fixed lattice, as the field's general formula gives
    them: the field evaluated at every node, its gradients stacked
    (..., out_dim, dim), and their squares added to zeros one at a time in
    (component, axis) order.  (`np.sum` over the last two axes adds nine
    terms, at d = 3, in another order.)"""
    from rigidkit.fields import GridDomain
    from rigidkit.scenarios import smooth_bump

    rng = np.random.default_rng(seed)
    waves = 3
    coeffs = rng.uniform(-1.0, 1.0, size=(out_dim, waves))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(out_dim, waves))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(out_dim, waves))
    probe = GridDomain(dim, length, 2048 if dim == 1 else 128)
    points = probe.node_coordinates()
    envelope = np.ones(points.shape[:-1])
    for axis in range(dim):
        envelope = envelope * smooth_bump(2.0 * points[..., axis] / length - 1.0)
    comps = []
    for i in range(out_dim):
        acc = np.zeros(points.shape[:-1])
        for k in range(waves):
            if dim == 1:
                ray = points[..., 0]
            else:
                direction = np.zeros(dim)
                direction[0] = np.cos(angles[i, k])
                direction[1] = np.sin(angles[i, k])
                ray = points @ direction
            acc += coeffs[i, k] * np.sin(np.pi * (k + 1) * ray / length + phases[i, k])
        comps.append(envelope * acc)
    samples = np.stack(comps, axis=-1)
    grads = np.gradient(samples, probe.spacing, axis=tuple(range(dim)))
    grads = np.stack([grads] if dim == 1 else list(grads), axis=-1)
    terms = (grads**2).reshape(grads.shape[:-2] + (-1,))
    total = np.zeros(terms.shape[:-1])
    for j in range(terms.shape[-1]):
        total += terms[..., j]
    return total


def perturbation_scale_stacked(dim: int, out_dim: int, length: float, seed: int) -> float:
    """The normalisation `scenarios.perturbation_field` divides by: the
    largest root of `perturbation_sums_stacked`, the full-lattice probe its
    scale must equal bit for bit."""
    return float(np.sqrt(perturbation_sums_stacked(dim, out_dim, length, seed)).max())


# --- the lemma suite's draws, one instance at a time -------------------------
#
# The sampled runners' draw loops as they were written before the draws went
# into flat buffers: every array an instance reads is filled by its own
# generator call, straight into the zero-padded slots.  Each returns the
# arrays of the runner's `lemma_suite._*_draws` function, in its layout, for
# an `np.array_equal` comparison.


def _draw_gram(rng, dim: int, lam_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Raw draws of one random Gram matrix: log-spectrum, then rotation normals."""
    return rng.uniform(-np.log(lam_max), np.log(lam_max), size=dim), rng.standard_normal((dim, dim))


def so_set_draws(config, rng) -> tuple[np.ndarray, ...]:
    n, wide = config.samples, config.max_dim
    dims, log_spectra, normals = np.empty(n, dtype=int), np.zeros((n, 2, wide)), np.zeros((n, 2, wide, wide))
    for i in range(n):
        dim = dims[i] = int(rng.integers(1, config.max_dim, endpoint=True))
        for pair in (0, 1):
            log_spectra[i, pair, :dim], normals[i, pair, :dim, :dim] = _draw_gram(rng, dim, config.lam_max)
    return dims, log_spectra, normals


def projection_draws(config, rng) -> tuple[np.ndarray, ...]:
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
    return dims, np.stack([base, plane], axis=1), log_spectra, np.stack([normals, coeffs], axis=1)


def volume_draws(config, rng) -> tuple[np.ndarray, ...]:
    lo, hi = -np.log(config.lam_max), np.log(config.lam_max)
    dims, cells, weights, log_spectra = [], [], [], []
    for _ in range(config.samples):
        dims.append(int(rng.integers(1, config.max_dim, endpoint=True)))
        cells.append(int(rng.integers(2, 32, endpoint=True)))
        weights.append(rng.uniform(0.0, 1.0, size=cells[-1]))
        log_spectra.append(rng.uniform(lo, hi, size=(cells[-1], dims[-1])).ravel())
    return np.array(dims), np.array(cells), np.concatenate(weights), np.concatenate(log_spectra)


def in_plane_draws(config, rng) -> tuple[np.ndarray, ...]:
    n, top, wide = config.samples, config.max_ambient, config.max_dim
    dims, log_spectra, plane = np.empty(n, dtype=int), np.zeros((n, wide)), np.zeros((n, top, wide))
    coords, normals = np.zeros((2, n, wide, wide))
    for i in range(n):
        dim = dims[i] = int(rng.integers(1, config.max_dim, endpoint=True))
        ambient = int(rng.integers(dim, config.max_ambient, endpoint=True))
        plane[i, :ambient, :dim] = rng.standard_normal((ambient, dim))
        coords[i, :dim, :dim] = rng.standard_normal((dim, dim))
        log_spectra[i, :dim], normals[i, :dim, :dim] = _draw_gram(rng, dim, config.lam_max)
    return dims, plane, coords, log_spectra, normals


def orientation_draws(config, rng, chunk: int) -> tuple[np.ndarray, ...]:
    dims, wiggles = np.empty(chunk, dtype=int), np.empty(chunk)
    vectors, noise = np.zeros((2, chunk, config.max_ambient, config.max_dim))
    for attempt in range(chunk):
        dim = dims[attempt] = int(rng.integers(1, config.max_dim, endpoint=True))
        ambient = int(rng.integers(dim + 1, config.max_ambient, endpoint=True))
        vectors[attempt, :ambient, :dim] = rng.standard_normal((ambient, dim))
        wiggles[attempt] = rng.uniform(0.0, 0.4 * (0.5 / (2.0 * dim)))
        noise[attempt, :ambient, :dim] = rng.standard_normal((ambient, dim))
    return dims, vectors, wiggles, noise
