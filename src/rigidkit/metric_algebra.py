"""Kernels for metric norms, nearest isometries and oriented subspaces.

Linear maps are plain float arrays of shape (rows, cols).  A map T from
(R^d, g) into (R^D, euclidean) is measured in the metric Frobenius norm,
which equals the Euclidean Frobenius norm of T @ g^(-1/2).  Isometries from
(R^d, g) are the matrices R with R^T R = gram(g); the orientation-preserving
ones additionally have positive determinant in any positively oriented frame
of their image.

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


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _require(ok, message: str) -> None:
    if not np.all(ok):
        raise ValueError(message)


# --- array kernels over leading axes ----------------------------------------


def checked_grams(gram: np.ndarray) -> np.ndarray:
    """Symmetrized copy of a stack of Gram matrices (..., d, d), checked SPD.

    Raises when some matrix is not symmetric to 1e-12 or, after
    symmetrizing, has an eigenvalue below 1e-14.
    """
    gram = np.asarray(gram, dtype=float)
    _require(np.abs(gram - _swap(gram)) <= _SYMMETRY_TOL, "Gram matrix must be symmetric (tolerance 1e-12)")
    gram = 0.5 * (gram + _swap(gram))
    _require(np.linalg.eigvalsh(gram)[..., 0] >= _EIGENVALUE_FLOOR, "Gram matrix is not positive definite")
    return gram


def spd_sqrt(gram: np.ndarray) -> np.ndarray:
    """Positive square root of an SPD matrix (stacked input allowed).

    Eigenvalues below 1e-14 are rejected rather than clamped, so near-singular
    input fails loudly instead of silently flattening a direction.
    """
    gram = np.asarray(gram, dtype=float)
    w, v = np.linalg.eigh(gram)
    if w.min() < _EIGENVALUE_FLOOR:
        raise ValueError("matrix is not positive definite (eigenvalue below 1e-14)")
    return (v * np.sqrt(w)[..., None, :]) @ _swap(v)


def spd_inv_sqrt(gram: np.ndarray) -> np.ndarray:
    """Inverse positive square root of an SPD matrix (stacked input allowed)."""
    gram = np.asarray(gram, dtype=float)
    w, v = np.linalg.eigh(gram)
    if w.min() < _EIGENVALUE_FLOOR:
        raise ValueError("matrix is not positive definite (eigenvalue below 1e-14)")
    return (v / np.sqrt(w)[..., None, :]) @ _swap(v)


def metric_norm(t: np.ndarray, inv_sqrt: np.ndarray) -> np.ndarray:
    """Metric Frobenius norm of maps t (..., D, d) given g^(-1/2) (..., d, d)."""
    return np.linalg.norm(t @ inv_sqrt, axis=(-2, -1))


def rotation_align(m: np.ndarray) -> np.ndarray:
    """Rotation Q maximizing tr(Q^T m), with the usual determinant sign fix.

    Accepts stacked input (..., d, d).  When the optimum is not unique (tied
    smallest singular value, or rank-deficient m) the last singular direction
    is flipped, which picks one maximizer deterministically.
    """
    m = np.asarray(m, dtype=float)
    u, _, vt = np.linalg.svd(m)
    neg = np.linalg.det(u) * np.linalg.det(vt) < 0
    u = u.copy()
    u[..., :, -1] = np.where(neg[..., None], -u[..., :, -1], u[..., :, -1])
    return u @ vt


def isometry_defect(x: np.ndarray, oriented: bool = False) -> np.ndarray:
    """Frobenius distance of x (..., D, d) to matrices with orthonormal columns.

    With oriented=True (square x only) the competitors are restricted to
    rotations; a negative determinant then costs (s_min + 1)^2 instead of
    (s_min - 1)^2 through the sign flip on the smallest singular value.
    """
    x = np.asarray(x, dtype=float)
    s = np.linalg.svd(x, compute_uv=False)
    if oriented:
        if x.shape[-2] != x.shape[-1]:
            raise ValueError("oriented defect requires square maps")
        s = s.copy()
        s[..., -1] = np.where(np.linalg.det(x) < 0, -s[..., -1], s[..., -1])
    return np.sqrt(np.sum((s - 1.0) ** 2, axis=-1))


def rotation_set_distance(root_x: np.ndarray, root_y: np.ndarray) -> np.ndarray:
    """Distance between the rotation sets {Q sqrt(gx)} and {Q sqrt(gy)}, per stacked pair.

    Takes the positive square roots (..., d, d); the set distance reduces to
    one orientation-constrained Procrustes problem between them.
    """
    q = rotation_align(root_y @ root_x)
    return np.linalg.norm(q @ root_x - root_y, axis=(-2, -1))


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


def spanning_frames(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize the columns of each stacked matrix (..., D, d), keeping orientation.

    Returns (frames, independent): the QR factor Q with its columns signed so
    that R has a positive diagonal, and per matrix whether every |R_ii|
    exceeds 1e-14 * max(1, max |entry|).
    """
    mat = np.asarray(vectors, dtype=float)
    q, r = np.linalg.qr(mat)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
    independent = np.abs(diag).min(axis=-1) > _EIGENVALUE_FLOOR * scale
    return q * np.sign(diag)[..., None, :], independent


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
    neg = np.linalg.det(np.concatenate([frames, w], axis=-1)) < 0
    w[..., -1] = np.where(neg[..., None], -w[..., -1], w[..., -1])
    return checked_frames(w)


def frame_distance(frames_a: np.ndarray, frames_b: np.ndarray) -> np.ndarray:
    """Min over rotations q of |frame_a - frame_b @ q|, per stacked pair of frames."""
    q = rotation_align(_swap(frames_b) @ frames_a)
    return np.linalg.norm(frames_a - frames_b @ q, axis=(-2, -1))


def projection_keeps_orientation(frames0: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Per stacked pair, whether projecting onto frames0 keeps the orientation of frames.

    Reads off the sign of det(frame0^T frame); a rank-deficient projection
    gives False.
    """
    return np.linalg.det(_swap(frames0) @ frames) > 0.0


def plane_coordinates(
    t: np.ndarray, frames: np.ndarray, abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL
) -> np.ndarray:
    """Frame coordinates of maps t (..., D, d), checked to stay in their planes.

    Raises when some map leaves its plane by more than
    max(abs_tol, rel_tol * |t|) in the Frobenius norm.
    """
    coords = _swap(frames) @ t
    leak = np.linalg.norm(t - frames @ coords, axis=(-2, -1))
    bad = leak > np.maximum(abs_tol, rel_tol * np.linalg.norm(t, axis=(-2, -1)))
    if np.any(bad):
        raise ValueError(f"map image leaves the plane by {np.extract(bad, leak)[0]:.3e}")
    return coords


def projection_terms(
    t: np.ndarray,
    inv_sqrt: np.ndarray,
    frames0: np.ndarray,
    frames: np.ndarray,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
) -> tuple[np.ndarray, ...]:
    """Both sides of the projection inequalities, per stacked instance.

    t (..., D, d) maps into the planes `frames`; inv_sqrt is g^(-1/2).
    Returns (projection_lhs, projection_rhs, oriented_lhs, unoriented_dist,
    complement_gap), each of shape (...); see `ProjectionBoundReport`.
    """
    plane_coordinates(t, frames, abs_tol, rel_tol)
    projected = frames0 @ (_swap(frames0) @ t)
    gap = frame_distance(complement_frames(frames0), complement_frames(frames))
    lhs = metric_norm(projected - t, inv_sqrt)
    rhs = metric_norm(t, inv_sqrt) * gap
    in_plane = plane_coordinates(projected, frames0, abs_tol, rel_tol)
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

    def sandwich_bound(self) -> float:
        """Smallest lam >= 1 with I/lam <= gram <= lam*I in the quadratic-form order."""
        w = np.linalg.eigvalsh(self.gram)
        return float(max(w[-1], 1.0 / w[0], 1.0))


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

    @classmethod
    def coordinate(cls, ambient_dim: int, axes: tuple[int, ...]) -> "OrientedSubspace":
        frame = np.zeros((ambient_dim, len(axes)))
        for col, axis in enumerate(axes):
            frame[axis, col] = 1.0
        return cls(frame)


def frobenius_norm(t: np.ndarray, g: SpdMetric) -> float:
    """Frobenius norm of t as a map from (R^d, g) into Euclidean space."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[1] != g.dim:
        raise ValueError(f"map shape {t.shape} does not match metric dimension {g.dim}")
    return float(metric_norm(t, g.inv_sqrt))


def metric_distance(g: SpdMetric, g2: SpdMetric) -> float:
    """Euclidean Frobenius distance between two Gram matrices."""
    if g.dim != g2.dim:
        raise ValueError("metrics live on spaces of different dimension")
    return float(np.linalg.norm(g.gram - g2.gram, axis=(-2, -1)))


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
    t: np.ndarray,
    g: SpdMetric,
    plane: OrientedSubspace,
    oriented: bool = False,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
) -> tuple[np.ndarray, float]:
    """Closest isometry from (R^d, g) onto the oriented plane, among maps into it.

    The input must already map into the plane (checked up to tolerance).  The
    problem is solved in plane coordinates, where the frame is an isometry, so
    the returned distance equals the in-plane one.  With oriented=True the
    orientation is the one carried by the plane's frame.
    """
    t = np.asarray(t, dtype=float)
    _check_map_into_plane(t, plane, g)
    coords = plane_coordinates(t, plane.frame, abs_tol, rel_tol)
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


def project_onto(a: OrientedSubspace, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a vector (or of each column of a map) onto a."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != a.ambient_dim:
        raise ValueError(f"vector lives in R^{v.shape[0]}, plane in R^{a.ambient_dim}")
    return a.frame @ (a.frame.T @ v)


def orientation_preserved_under_projection(p0: OrientedSubspace, p: OrientedSubspace) -> bool:
    """Whether projecting p onto p0 maps positive frames to positive frames.

    Reads off the sign of det(frame_p0^T frame_p); a rank-deficient projection
    returns False.
    """
    if p0.ambient_dim != p.ambient_dim or p0.dim != p.dim:
        raise ValueError("planes must share ambient space and dimension")
    return bool(projection_keeps_orientation(p0.frame, p.frame))


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
    t: np.ndarray,
    g: SpdMetric,
    p0: OrientedSubspace,
    p: OrientedSubspace,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
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
        float(v) for v in projection_terms(t, g.inv_sqrt, p0.frame, p.frame, abs_tol, rel_tol)
    )
    return ProjectionBoundReport(
        projection_lhs=lhs,
        projection_rhs=rhs,
        projection_slack=rhs - lhs,
        oriented_lhs=oriented_lhs,
        unoriented_dist=unoriented,
        complement_gap=gap,
    )
