"""Kernels for metric norms, nearest isometries and oriented subspaces.

Linear maps are plain float arrays of shape (rows, cols).  A map T from
(R^d, g) into (R^D, euclidean) is measured in the metric Frobenius norm,
which equals the Euclidean Frobenius norm of T @ g^(-1/2).  Every such norm
of a stack in the package is `metric_norm(T, g^(-1/2))`, and every other
two-axis Frobenius norm `frobenius`, under one rounding contract: both equal
`np.linalg.norm(..., axis=(-2, -1))` of their matrices bit for bit, and on a
constant metric the product is one (M, d) x (d, d).  A map has full rank
when its least singular value exceeds 1e-12 max(1, its largest); every rank
test in the package is `_full_rank(_square_extremes(x))` on a square map x.
Isometries from (R^d, g) are the matrices R with R^T R = gram(g); the
orientation-preserving ones additionally have positive determinant in any
positively oriented frame of their image.

Every formula is written once, as an array kernel over leading axes: it
takes stacks (..., r, c) of maps, Gram matrices or frames and returns one
value (or matrix) per stacked matrix.  The functions that take `SpdMetric`
and `OrientedSubspace` objects are the N = 1 calls of these kernels.  A
validating kernel raises on a stack as soon as any one matrix fails, with
the same `ValueError` the object path raises for that matrix alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

ABS_TOL = 1e-10
REL_TOL = 1e-8

_SYMMETRY_TOL = 1e-12
_EIGENVALUE_FLOOR = 1e-14
_FRAME_TOL = 1e-10
_RANK_TOL = 1e-12


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _require(ok, message: str) -> None:
    if not np.all(ok):
        raise ValueError(message)


# --- array kernels over leading axes ----------------------------------------


_NOT_POSITIVE_DEFINITE = "matrix is not positive definite (eigenvalue below 1e-14)"


def spd_extremes(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam_min, lam_max, sqrt(det)) of each stacked symmetric matrix (..., d, d).

    For d <= 2 these are closed forms read from the lower triangle, the
    entries a = g00, b = g10, c = g11:

        lam_max = (a + c + hypot(a - c, 2b)) / 2,
        lam_min = min((ac - b^2) / lam_max, (a + c) / 2),
        sqrt(det) = sqrt(ac - b^2),

    and for d = 1 all three are read off g00.  lam_max is a sum of
    nonnegative terms whenever a + c > 0, so it carries a few ulps of
    relative error; lam_min = det / lam_max inherits det's, about
    u * lam_max / lam_min relative, the error bound `eigvalsh` also has.
    Every SPD matrix has lam_min <= (a + c) / 2, and the cap makes input
    with a + c <= 0 fail a `not lam_min >= floor` test whatever the
    rounding of lam_max.  NaN entries give NaN, which fails such a test
    too.  Non-SPD input returns without warnings.  For d >= 3 the values
    come from `eigvalsh` and `det`.

    For d = 2 the closed form runs on the 4^k g of `_quarter_scaled`, where
    no SPD matrix's steps over- or underflow, as ac - b^2 would once the
    entries pass about 1e154, and the three values are scaled back by
    4^-k.  Scaling by a power of two is exact and commutes with every
    rounding above, so an SPD matrix whose steps stay in range unscaled
    gets the same bits either way.  Only a non-SPD matrix whose b dwarfs
    its diagonal can overflow after scaling alone, reading lam_min = -inf
    where the unscaled form gives a finite negative value; both fail a
    floor test.
    """
    gram = np.asarray(gram, dtype=float)
    dim = gram.shape[-1]
    if dim == 1:
        g = gram[..., 0, 0]
        with np.errstate(invalid="ignore"):
            return g, g, np.sqrt(g)
    if dim == 2:
        k, scaled = _quarter_scaled(gram)
        with np.errstate(over="ignore", under="ignore"):
            return tuple(np.ldexp(value, -2 * k) for value in _closed_extremes(scaled))
    w = np.linalg.eigvalsh(gram)
    with np.errstate(invalid="ignore"):
        return w[..., 0], w[..., -1], np.sqrt(np.linalg.det(gram))


def _quarter_scaled(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, 4^k g) for stacked 2 x 2 matrices, k chosen from the exponents of
    the diagonal so that ac lies in [1/4, 16): there the closed forms'
    products of entries cannot overflow, as they do once the entries pass
    about 1e154."""
    k = -((np.frexp(gram[..., 0, 0])[1] + np.frexp(gram[..., 1, 1])[1]) // 4)
    return k, np.ldexp(gram, 2 * k[..., None, None])


def _closed_extremes(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`spd_extremes`' closed form on stacked 2 x 2 matrices, as given."""
    a, b, c = gram[..., 0, 0], gram[..., 1, 0], gram[..., 1, 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        det = a * c - b * b
        lam_max = 0.5 * (a + c + np.hypot(a - c, 2.0 * b))
        lam_min = np.minimum(det / lam_max, 0.5 * (a + c))
        return lam_min, lam_max, np.sqrt(det)


def _full_rank(sing: np.ndarray) -> np.ndarray:
    """The rank test on singular values (..., k) in descending order."""
    return sing[..., -1] > _RANK_TOL * np.maximum(sing[..., 0], 1.0)


def _square_extremes(x: np.ndarray) -> np.ndarray:
    """The singular values `_full_rank` reads, (..., k) in descending order,
    of square maps x (..., d, d): |x| for d = 1, (s_max, s_min) for d = 2,
    and a value-only SVD for d >= 3.

    For d = 2, s_max = c + a from the conformal split of `isometry_defect`
    and s_min = |det x| / s_max, with no square of an entry to overflow or
    a Gram to square the condition number.  The determinant is taken with
    the first column scaled by 2^-e, e the `frexp` exponent of its largest
    |entry|, and divided by 2^-e s_max >= 1/2: exact scalings, so s_min
    neither overflows nor loses bits to them.  Both values are within a few
    u s_max of the SVD's, so the verdicts agree except within a relative
    1e-3 of the threshold, where the SVD's own rounding decides.
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


def checked_grams(gram: np.ndarray) -> np.ndarray:
    """Symmetrized copy of a stack of Gram matrices (..., d, d), checked SPD.

    Raises when some matrix is not symmetric to 1e-12 or, after
    symmetrizing, has an eigenvalue below 1e-14 (see `spd_extremes`).
    """
    gram = np.asarray(gram, dtype=float)
    _require(np.abs(gram - _swap(gram)) <= _SYMMETRY_TOL, "Gram matrix must be symmetric (tolerance 1e-12)")
    gram = 0.5 * (gram + _swap(gram))
    _require(spd_extremes(gram)[0] >= _EIGENVALUE_FLOOR, "Gram matrix is not positive definite")
    return gram


def _spd_root(gram: np.ndarray, inverse: bool) -> np.ndarray:
    """g^(1/2) or g^(-1/2) of each stacked SPD matrix (..., d, d).

    For d <= 2 a closed form: with s = sqrt(det g) and
    t = sqrt(tr g + 2s) = sqrt(lam_1) + sqrt(lam_2),

        g^(1/2) = (g + s I) / t,    g^(-1/2) = (adj g + s I) / (s t),

    since (g + s I)^2 = (tr g + 2s) g by Cayley-Hamilton; for d = 1 these
    are sqrt(g) and 1 / sqrt(g).  Every entry is a sum of nonnegative terms
    or an off-diagonal +-b over a positive scale, so the roots are exact to
    a few ulps in their entries when g is well conditioned; for
    ill-conditioned g, s carries det's relative error u * lam_max / lam_min,
    the same order as the small eigenvalue of `eigh`, which computes the
    roots for d >= 3.  The floor test runs before any root is taken.

    For d = 2 the closed form runs on the 4^k g of `_quarter_scaled`, where
    det cannot overflow.  The root of g is then 2^-k (2^k for the inverse)
    times that root.  Scaling by a power of two is exact, so wherever
    nothing over- or underflows without it, every root keeps its bits.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.shape[-1] > 2:
        w, v = np.linalg.eigh(gram)
        _require(w[..., 0] >= _EIGENVALUE_FLOOR, _NOT_POSITIVE_DEFINITE)
        root = np.sqrt(w)[..., None, :]
        return (v / root if inverse else v * root) @ _swap(v)
    if gram.shape[-1] == 1:
        lam_min, _, s = spd_extremes(gram)
        _require(lam_min >= _EIGENVALUE_FLOOR, _NOT_POSITIVE_DEFINITE)
        return 1.0 / s[..., None, None] if inverse else s[..., None, None]
    k, gram = _quarter_scaled(gram)
    lam_min, _, s = _closed_extremes(gram)
    _require(np.ldexp(lam_min, -2 * k) >= _EIGENVALUE_FLOOR, _NOT_POSITIVE_DEFINITE)
    a, b, c = gram[..., 0, 0], gram[..., 1, 0], gram[..., 1, 1]
    t = np.sqrt(a + c + 2.0 * s)
    scale = t
    if inverse:  # adj g = [[c, -b], [-b, a]]
        a, b, c, scale = c, -b, a, s * t
    root = np.empty(gram.shape)
    root[..., 0, 0] = (a + s) / scale
    root[..., 1, 1] = (c + s) / scale
    root[..., 0, 1] = root[..., 1, 0] = b / scale
    return np.ldexp(root, (k if inverse else -k)[..., None, None])


def spd_sqrt(gram: np.ndarray) -> np.ndarray:
    """Positive square root of an SPD matrix (stacked input allowed).

    Closed form for d <= 2, `eigh` otherwise (see `_spd_root`).
    Eigenvalues below 1e-14, and NaN entries, are rejected rather than
    clamped, so near-singular input fails loudly instead of silently
    flattening a direction.
    """
    return _spd_root(gram, inverse=False)


def spd_inv_sqrt(gram: np.ndarray) -> np.ndarray:
    """Inverse positive square root of an SPD matrix (stacked input allowed);
    rejects what `spd_sqrt` rejects."""
    return _spd_root(gram, inverse=True)


def _repeats_one(x: np.ndarray, lead: int) -> bool:
    """Whether `x` holds one entry repeated over its first `lead` axes: it is
    nonempty, and its stride is zero on each of those axes longer than 1."""
    return x.size > 0 and all(s == 0 or n == 1 for n, s in zip(x.shape[:lead], x.strides[:lead]))


def _times_inv_sqrt(x: np.ndarray, inv_sqrt: np.ndarray) -> np.ndarray:
    """x @ inv_sqrt for cell maps x (..., D, d) and metric factors g^(-1/2)
    (..., d, d), where x carries every leading axis of the factors.

    When the factors repeat one matrix (zero strides on every leading axis,
    as a constant metric's `cell_inv_sqrt`, its slices and its subcube
    regroupings have), this is one product: the rows of every x stacked
    (M, d), times that (d, d) matrix.  Each entry is the same d-term dot
    product as in numpy's one small gemm per cell, with the same bits: at
    d = 1 neither runs through BLAS, and for d = 2, 3 both are OpenBLAS gemm
    calls with k = d, whose kernels accumulate an entry alike at any row
    count.  That is a property of the kernels, not of the arithmetic, so
    `tests/test_fields.py` and `tests/test_metric_algebra.py` check it.
    """
    if inv_sqrt.ndim > 2 and _repeats_one(inv_sqrt, inv_sqrt.ndim - 2):
        one = inv_sqrt[(0,) * (inv_sqrt.ndim - 2)]
        rows = np.reshape(x, (-1, x.shape[-1])) @ one
        return rows.reshape(x.shape[:-1] + one.shape[-1:])
    return x @ inv_sqrt


def _entry_sums(sq: np.ndarray) -> np.ndarray:
    """Sums over the leading axis of `sq` (m >= 2, ...), added in the order
    `np.sum` adds m contiguous numbers (numpy's pairwise summation).

    That is left to right below 8; up to 128, eight running lanes combined
    as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest left
    to right; above that, the sum of two halves split at a multiple of 8.
    """
    m = len(sq)
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _entry_sums(sq[:half]) + _entry_sums(sq[half:])
    if m < 8:
        total, rest = sq[0] + sq[1], range(2, m)
    else:
        r = sq[:8]
        for k in range(8, m - m % 8, 8):
            r = r + sq[k : k + 8]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = range(m - m % 8, m)
    for k in rest:
        total += sq[k]
    return total


def frobenius(mats: np.ndarray) -> np.ndarray:
    """Frobenius norms of stacked matrices (..., a, b), bit for bit those of
    `np.linalg.norm(mats, axis=(-2, -1))`, sqrt(np.sum(mats * mats, ...)).

    On a C-contiguous stack np.sum adds each matrix's entries as one
    contiguous run, so 2 to 7 entries are added by `_entry_sums` on the
    transposed (a b, M) view, one array addition per entry: about 3x faster
    on (4096, 3, 2).  Below 128 matrices one reduction costs less than that
    addition per entry, and other layouts and sizes keep it too.
    """
    sq = mats * mats
    count = sq.shape[-2] * sq.shape[-1]
    if not 2 <= count < 8 or sq.size < 128 * count or not sq.flags.c_contiguous:
        return np.sqrt(np.add.reduce(sq, axis=(-2, -1)))
    return np.sqrt(_entry_sums(sq.reshape(-1, count).T).reshape(sq.shape[:-2]))


def metric_norm(t: np.ndarray, inv_sqrt: np.ndarray) -> np.ndarray:
    """Metric Frobenius norm |t g^(-1/2)|_F of maps t (..., D, d), given the
    factors g^(-1/2) (..., d, d) that t's leading axes carry."""
    return frobenius(_times_inv_sqrt(t, inv_sqrt))


def determinant(m: np.ndarray) -> np.ndarray:
    """Determinant of each stacked square matrix (..., d, d).

    Closed forms for d <= 3: the entry, ad - bc, and the triple product
    r0 . (r1 x r2) of the rows.  Each errs by at most a few ulps of the
    product of the row lengths, which bounds |det| (Hadamard), so its sign
    is exact on every matrix whose |det| is not that small: on every
    rotation, and on every well-conditioned matrix.  d >= 4 runs LU
    (`np.linalg.det`).
    """
    m = np.asarray(m, dtype=float)
    dim = m.shape[-1]
    if dim == 1:
        return m[..., 0, 0].copy()
    if dim == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if dim == 3:
        (a, b, c), (d, e, f), (g, h, k) = [[m[..., i, j] for j in range(3)] for i in range(3)]
        return a * (e * k - f * h) + b * (f * g - d * k) + c * (d * h - e * g)
    return np.linalg.det(m)


def rotation_align(m: np.ndarray) -> np.ndarray:
    """Rotation Q maximizing tr(Q^T m), with the usual determinant sign fix.

    Accepts stacked input (..., d, d).  d <= 2 are closed forms:

    - d = 1: Q = 1, exactly what the SVD route gives for every finite m;
    - d = 2: tr(Q^T m) = c (m00 + m11) + s (m10 - m01) for Q = [[c, -s], [s, c]],
      so (c, s) is that pair divided by its `hypot`.  When both are zero
      every rotation ties and Q is the identity.

    For d >= 3 the factor comes from an SVD u s v^T: when the optimum is
    not unique (tied smallest singular value, or rank-deficient m) the last
    singular direction is flipped, which picks one maximizer
    deterministically.
    """
    m = np.asarray(m, dtype=float)
    dim = m.shape[-1]
    if dim == 1:
        return np.ones(m.shape)
    if dim == 2:
        cos, sin = m[..., 0, 0] + m[..., 1, 1], m[..., 1, 0] - m[..., 0, 1]
        size = np.hypot(cos, sin)
        tie = size == 0.0
        size = np.where(tie, 1.0, size)
        cos, sin = np.where(tie, 1.0, cos / size), sin / size
        q = np.empty(m.shape)
        q[..., 0, 0] = q[..., 1, 1] = cos
        q[..., 1, 0] = sin
        q[..., 0, 1] = -sin
        return q
    u, _, vt = np.linalg.svd(m)
    neg = determinant(u) * determinant(vt) < 0
    u = u.copy()
    u[..., :, -1] = np.where(neg[..., None], -u[..., :, -1], u[..., :, -1])
    return u @ vt


# The pairs i < j < _WEDGE_ROWS: those of R^3 in the order of the cross
# product's components, then j = 3, 4, ... with i descending, so the pairs
# of i < j < D are the first D(D - 1)/2 for every D up to _WEDGE_ROWS.
_WEDGE_ROWS = 9
_WEDGE_I, _WEDGE_J = np.array(
    [(1, 2), (0, 2), (0, 1)] + [(i, j) for j in range(3, _WEDGE_ROWS) for i in reversed(range(j))]
).T


def isometry_defect(x: np.ndarray, oriented: bool = False) -> np.ndarray:
    """Frobenius distance of x (..., D, d) to matrices with orthonormal columns.

    With oriented=True (square x only) the competitors are restricted to
    rotations; a negative determinant then costs (s_min + 1)^2 instead of
    (s_min - 1)^2 through the sign flip on the smallest singular value.

    The value is sqrt(sum (s_i - 1)^2) over the (signed) singular values.
    The shapes the pipelines run have closed forms:

    - d = 1: | |x| - 1 |, and |x - 1| for oriented 1 x 1 input;
    - D = d = 2: with the conformal and anticonformal parts
      c = hypot(x00 + x11, x10 - x01) / 2 and a = hypot(x00 - x11, x10 + x01) / 2,
      the singular values are c + a and |c - a| and det x = c^2 - a^2, so
      the oriented defect is sqrt(2) hypot(c - 1, a), and the unoriented
      one the same with (max, min) of (c, a) in place of (c, a);
    - 3 <= D <= 9, d = 2: with columns x0, x1 and the norm of their wedge
      |x0 ^ x1| = sqrt(sum_{i<j} (x0_i x1_j - x0_j x1_i)^2) = s_1 s_2,
      S = s_1 + s_2 = sqrt(|x0|^2 + |x1|^2 + 2 |x0 ^ x1|) and
      Delta = s_1 - s_2 = hypot(|x0|^2 - |x1|^2, 2 x0.x1) / S (0 when S = 0),
      the defect is hypot(S - 2, Delta) / sqrt(2).  The wedge sums the
      pairs (1, 2), (0, 2), (0, 1) first, the components of x0 x x1, so at
      D = 3 every sum adds the terms the cross-product form added, in its
      order, and zero rows appended below x add exact zeros.  The wedge
      has D(D - 1)/2 terms, so wider input goes to the SVD, whose cost
      grows with D only.

    None of these subtracts nearly equal squares of singular values, and
    each stays within 16 u (1 + |x|_F) of the SVD value (u the unit
    round-off; `tests/test_metric_algebra.py` checks the bound on
    reflections, rank-deficient input and scales 1e-6 to 1e6).  Every
    other shape runs an SVD.
    """
    x = np.asarray(x, dtype=float)
    rows, cols = x.shape[-2:]
    if oriented and rows != cols:
        raise ValueError("oriented defect requires square maps")
    if cols == 1:
        size = x[..., 0, 0] if oriented else np.linalg.norm(x[..., 0], axis=-1)
        return np.abs(size - 1.0)
    if cols == 2 and rows == 2:
        x00, x01, x10, x11 = x[..., 0, 0], x[..., 0, 1], x[..., 1, 0], x[..., 1, 1]
        conformal = 0.5 * np.hypot(x00 + x11, x10 - x01)
        anti = 0.5 * np.hypot(x00 - x11, x10 + x01)
        if not oriented:
            conformal, anti = np.maximum(conformal, anti), np.minimum(conformal, anti)
        return np.sqrt(2.0) * np.hypot(conformal - 1.0, anti)
    if cols == 2 and 3 <= rows <= _WEDGE_ROWS:
        a, b = x[..., 0], x[..., 1]
        i, j = _WEDGE_I[: rows * (rows - 1) // 2], _WEDGE_J[: rows * (rows - 1) // 2]
        wedge = a[..., i] * b[..., j] - a[..., j] * b[..., i]
        sq0, sq1 = np.sum(a * a, axis=-1), np.sum(b * b, axis=-1)
        total = np.sqrt(sq0 + sq1 + 2.0 * np.sqrt(np.sum(wedge * wedge, axis=-1)))
        # total rounds to 0 only when every product underflows, the spread too
        gap = np.hypot(sq0 - sq1, 2.0 * np.sum(a * b, axis=-1)) / np.where(total > 0.0, total, 1.0)
        return np.hypot(total - 2.0, gap) / np.sqrt(2.0)
    s = np.linalg.svd(x, compute_uv=False)
    if oriented:
        s = s.copy()
        s[..., -1] = np.where(determinant(x) < 0, -s[..., -1], s[..., -1])
    return np.sqrt(np.sum((s - 1.0) ** 2, axis=-1))


def rotation_set_distance(root_x: np.ndarray, root_y: np.ndarray) -> np.ndarray:
    """Distance between the rotation sets {Q sqrt(gx)} and {Q sqrt(gy)}, per stacked pair.

    Takes the positive square roots (..., d, d); the set distance reduces to
    one orientation-constrained Procrustes problem between them.
    """
    q = rotation_align(root_y @ root_x)
    return frobenius(q @ root_x - root_y)


def frames_orthonormal(frames: np.ndarray) -> np.ndarray:
    """Per stacked frame (..., D, d), whether its columns are orthonormal to 1e-10."""
    frames = np.asarray(frames, dtype=float)
    gram = _swap(frames) @ frames
    return np.abs(gram - np.eye(frames.shape[-1])).max(axis=(-2, -1)) <= _FRAME_TOL


def checked_frames(frames: np.ndarray) -> np.ndarray:
    """The stack of frames (..., D, d), checked to have orthonormal columns."""
    frames = np.asarray(frames, dtype=float)
    _require(frames_orthonormal(frames), "frame columns are not orthonormal (tolerance 1e-10)")
    return frames


def sign_fixed_qr(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR factor Q of each stacked matrix (..., D, d), its columns signed so
    that R has a nonnegative diagonal, and that diagonal.  Full-rank input
    gets the one orthonormal frame of its column span and orientation.

    Up to 3 columns (D >= d) run classical Gram-Schmidt with each
    projection applied twice, which leaves the columns orthonormal to
    working precision whenever u times the condition number stays well
    below 1 (Giraud, Langou & Rozloznik 2005); the rank tests of
    `spanning_frames` and of the pipelines pass only frames inside that
    range.  Each column is first scaled by the power of two that brings the
    sum of its |entries| into [1/2, 1), which changes neither Q nor, after
    scaling back, R, and keeps every square from overflowing or
    underflowing (for entries below about 1e307).  A column with nothing
    left after its projections, such as a zero column, has R_ii = 0, and Q
    is NaN from that column on (R too, after it).  Wider input runs
    LAPACK's Householder QR.
    """
    mats = np.asarray(mats, dtype=float)
    rows, cols = mats.shape[-2:]
    if not 1 <= cols <= min(rows, 3):
        q, r = np.linalg.qr(mats)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        return q * np.where(diag < 0.0, -1.0, 1.0)[..., None, :], np.abs(diag)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # (subnormal columns keep a finite scale 2^1021, enough to lift them)
        exponents = np.maximum(np.frexp(np.ones(rows) @ np.abs(mats))[1], -1021)
        vectors = _swap(mats) * np.ldexp(1.0, -exponents)[..., None]
        q, norms = np.empty(vectors.shape), np.empty(vectors.shape[:-1])
        for k in range(cols):
            # rows (..., 1, D): the column, and its coefficients on the columns done
            v, done = vectors[..., k, None, :], q[..., :k, :]
            for _ in range(2 if k else 0):
                v = v - (v @ _swap(done)) @ done
            norm = np.sqrt(v @ _swap(v))
            norms[..., k] = norm[..., 0, 0]
            np.divide(v, norm, out=q[..., k, None, :])
        return _swap(q), np.ldexp(norms, exponents)


def spanning_frames(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize the columns of each stacked matrix (..., D, d), keeping orientation.

    Returns (frames, independent): the `sign_fixed_qr` factor, and per matrix
    whether every |R_ii| exceeds 1e-14 * max(1, max |entry|).
    """
    mat = np.asarray(vectors, dtype=float)
    frames, diag = sign_fixed_qr(mat)
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
    independent = diag.min(axis=-1) > _EIGENVALUE_FLOOR * scale
    return frames, independent


def checked_spanning_frames(vectors: np.ndarray) -> np.ndarray:
    """`spanning_frames`, raising unless every stacked matrix gave a valid frame."""
    frames, independent = spanning_frames(vectors)
    _require(independent, "spanning columns are linearly dependent")
    return checked_frames(frames)


def complement_frames(frames: np.ndarray) -> np.ndarray:
    """Orthogonal complements of stacked frames, oriented so [frame | complement] is positive.

    The concatenated determinant does not depend on which positively
    oriented frame carries the plane, so the orientation is well defined.
    """
    frames = np.asarray(frames, dtype=float)
    big, small = frames.shape[-2:]
    if small == big:
        raise ValueError("the full space has a trivial complement")
    w = np.linalg.svd(frames, full_matrices=True)[0][..., small:].copy()
    neg = determinant(np.concatenate([frames, w], axis=-1)) < 0
    w[..., -1] = np.where(neg[..., None], -w[..., -1], w[..., -1])
    return checked_frames(w)


def frame_distance(frames_a: np.ndarray, frames_b: np.ndarray) -> np.ndarray:
    """Min over rotations q of |frame_a - frame_b @ q|, per stacked pair of frames."""
    q = rotation_align(_swap(frames_b) @ frames_a)
    return frobenius(frames_a - frames_b @ q)


def projection_keeps_orientation(frames0: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Per stacked pair, whether projecting onto frames0 keeps the orientation of frames.

    Reads off the sign of det(frame0^T frame); a rank-deficient projection
    gives False.
    """
    return determinant(_swap(frames0) @ frames) > 0.0


def plane_coordinates(t: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Frame coordinates of maps t (..., D, d), checked to stay in their planes.

    Raises when some map leaves its plane by more than
    max(ABS_TOL, REL_TOL * |t|) in the Frobenius norm.
    """
    coords = _swap(frames) @ t
    leak = frobenius(t - frames @ coords)
    bad = leak > np.maximum(ABS_TOL, REL_TOL * frobenius(t))
    if np.any(bad):
        raise ValueError(f"map image leaves the plane by {np.extract(bad, leak)[0]:.3e}")
    return coords


def projection_terms(
    t: np.ndarray, inv_sqrt: np.ndarray, frames0: np.ndarray, frames: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Both sides of the projection inequalities, per stacked instance.

    t (..., D, d) maps into the planes `frames`; inv_sqrt is g^(-1/2).
    Returns (projection_lhs, projection_rhs, oriented_lhs, unoriented_dist,
    complement_gap), each of shape (...); see `ProjectionBoundReport`.

    The complement gap is `frame_distance(frames0, frames)`, equal to that
    of the oriented complements W0, W: min_q |F0 - F q|^2 = 2 sum (1 - s_i)
    over the singular values of F^T F0, the least negated if det < 0.
    Jacobi's complementary-minor identity for M = [F | W]^T [F0 | W0] in
    SO(D) gives det(W^T W0) = det(F^T F0), and both blocks' singular values
    are the cosines of the planes' nonzero principal angles, padded with 1.
    """
    plane_coordinates(t, frames)
    projected = frames0 @ (_swap(frames0) @ t)
    gap = frame_distance(frames0, frames)
    lhs = metric_norm(projected - t, inv_sqrt)
    rhs = metric_norm(t, inv_sqrt) * gap
    in_plane = plane_coordinates(projected, frames0)
    oriented_lhs = isometry_defect(in_plane @ inv_sqrt, oriented=True)
    unoriented = isometry_defect(t @ inv_sqrt)
    return lhs, rhs, oriented_lhs, unoriented, gap


# --- objects and their N = 1 forms -------------------------------------------


@dataclass(frozen=True)
class SpdMetric:
    """Inner product on R^d given by a symmetric positive definite Gram matrix."""

    gram: np.ndarray

    def __post_init__(self) -> None:
        gram = np.asarray(self.gram, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {gram.shape}")
        gram = checked_grams(gram)
        gram.flags.writeable = False
        object.__setattr__(self, "gram", gram)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    @classmethod
    def euclidean(cls, dim: int) -> "SpdMetric":
        return cls(np.eye(dim))

    @cached_property
    def sqrt(self) -> np.ndarray:
        """Positive square root of the Gram matrix."""
        return spd_sqrt(self.gram)

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        """Inverse of the positive square root of the Gram matrix."""
        return spd_inv_sqrt(self.gram)


@dataclass(frozen=True)
class OrientedSubspace:
    """Oriented d-plane in R^D, carried by a positively oriented orthonormal frame.

    The frame columns are the chosen orthonormal basis; every other positively
    oriented orthonormal frame of the same plane is frame @ Q with Q a rotation.
    """

    frame: np.ndarray

    def __post_init__(self) -> None:
        frame = np.asarray(self.frame, dtype=float)
        if frame.ndim != 2:
            raise ValueError("frame must be a (D, d) array")
        big, small = frame.shape
        if not 1 <= small <= big:
            raise ValueError(f"frame shape {frame.shape} is not a d-plane in R^D")
        frame = checked_frames(frame).copy()
        frame.flags.writeable = False
        object.__setattr__(self, "frame", frame)

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @classmethod
    def from_spanning(cls, vectors: np.ndarray) -> "OrientedSubspace":
        """Orthonormalize the columns of `vectors`, keeping their orientation."""
        return cls(checked_spanning_frames(vectors))


def so_set_distance(gx: SpdMetric, gy: SpdMetric) -> float:
    """Frobenius distance between the rotation sets of two metrics.

    The isometries from (R^d, gx) to Euclidean space are Q @ sqrt(gx) with Q a
    rotation, so the set distance reduces to a single orientation-constrained
    Procrustes problem between the two square roots.
    """
    if gx.dim != gy.dim:
        raise ValueError("metrics live on spaces of different dimension")
    return float(rotation_set_distance(gx.sqrt, gy.sqrt))


def nearest_isometry(
    t: np.ndarray, g: SpdMetric, oriented: bool = False
) -> tuple[np.ndarray, float]:
    """Closest isometry from (R^d, g) into (R^D, euclidean) to the map t.

    Returns (r, distance) where r has r^T r = gram(g) and distance is measured
    in the metric Frobenius norm.  Writing x = t @ g^(-1/2) with thin SVD
    u s v^T, the minimizer is u v^T @ sqrt(g) and the distance is the l2 norm
    of (s - 1), i.e. `isometry_defect(x)`.  With oriented=True (square maps
    only) the competitor set is restricted to orientation-preserving
    isometries, and the factor is `rotation_align(x)`: if det(u v^T) < 0 the
    last singular direction is flipped, a deterministic choice among ties.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[1] != g.dim:
        raise ValueError(f"map shape {t.shape} does not match metric dimension {g.dim}")
    rows, cols = t.shape
    if rows < cols:
        raise ValueError("map must not decrease dimension")
    if oriented and rows != cols:
        raise ValueError("oriented fit requires a square map; use a plane frame first")
    x = t @ g.inv_sqrt
    if oriented:
        factor = rotation_align(x)
    else:
        u, _, vt = np.linalg.svd(x, full_matrices=False)
        factor = u @ vt
    return factor @ g.sqrt, float(isometry_defect(x, oriented=oriented))


def _check_map_into_plane(t: np.ndarray, plane: OrientedSubspace, g: SpdMetric) -> None:
    if plane.dim != g.dim:
        raise ValueError("plane dimension does not match metric dimension")
    if t.shape != (plane.ambient_dim, g.dim):
        raise ValueError(f"map shape {t.shape} does not match plane/metric dimensions")


def nearest_isometry_into_plane(
    t: np.ndarray, g: SpdMetric, plane: OrientedSubspace, oriented: bool = False
) -> tuple[np.ndarray, float]:
    """Closest isometry from (R^d, g) onto the oriented plane, among maps into it.

    The input must already map into the plane (checked up to tolerance).  The
    problem is solved in plane coordinates, where the frame is an isometry, so
    the returned distance equals the in-plane one.  With oriented=True the
    orientation is the one carried by the plane's frame.
    """
    t = np.asarray(t, dtype=float)
    _check_map_into_plane(t, plane, g)
    coords = plane_coordinates(t, plane.frame)
    r_plane, dist = nearest_isometry(coords, g, oriented=oriented)
    return plane.frame @ r_plane, dist


def subspace_distance(a: OrientedSubspace, b: OrientedSubspace) -> float:
    """Frame distance between two oriented planes of equal dimension.

    Minimizes the Frobenius norm of (frame_a - frame_b @ q) over rotations q,
    i.e. over all positively oriented orthonormal frames of b against the
    frame of a; the value does not depend on which frames carry the planes.
    """
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        raise ValueError("planes must share ambient space and dimension")
    return float(frame_distance(a.frame, b.frame))


def oriented_complement(a: OrientedSubspace) -> OrientedSubspace:
    """Orthogonal complement, oriented so [frame_a | frame_perp] is positive."""
    return OrientedSubspace(complement_frames(a.frame))


@dataclass(frozen=True)
class ProjectionBoundReport:
    """Both sides of the projection-error and oriented-distance inequalities.

    projection_lhs / projection_rhs compare |P0 t - t| against |t| times the
    gap between the complements; oriented_lhs is the distance of the projected
    map to rotations onto the base plane, to be bounded by unoriented_dist
    plus a constant times complement_gap.
    """

    projection_lhs: float
    projection_rhs: float
    projection_slack: float
    oriented_lhs: float
    unoriented_dist: float
    complement_gap: float


def projection_error_bound_check(
    t: np.ndarray, g: SpdMetric, p0: OrientedSubspace, p: OrientedSubspace
) -> ProjectionBoundReport:
    """Evaluate the projection inequalities for a map t with image in p.

    The oriented inequality is only meaningful when t preserves orientation as
    a map into p; the caller controls that, this routine just measures.
    """
    t = np.asarray(t, dtype=float)
    if p0.ambient_dim != p.ambient_dim or p0.dim != p.dim:
        raise ValueError("planes must share ambient space and dimension")
    _check_map_into_plane(t, p, g)
    lhs, rhs, oriented_lhs, unoriented, gap = (
        float(v) for v in projection_terms(t, g.inv_sqrt, p0.frame, p.frame)
    )
    return ProjectionBoundReport(
        projection_lhs=lhs,
        projection_rhs=rhs,
        projection_slack=rhs - lhs,
        oriented_lhs=oriented_lhs,
        unoriented_dist=unoriented,
        complement_gap=gap,
    )
