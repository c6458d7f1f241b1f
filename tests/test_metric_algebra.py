import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidkit import cli
from rigidkit.metric_algebra import (
    OrientedSubspace,
    SpdMetric,
    checked_frames,
    checked_grams,
    checked_spanning_frames,
    complement_frames,
    determinant,
    frame_distance,
    frames_orthonormal,
    frobenius,
    isometry_defect,
    metric_norm,
    nearest_isometry,
    nearest_isometry_into_plane,
    oriented_complement,
    plane_coordinates,
    projection_error_bound_check,
    projection_keeps_orientation,
    projection_terms,
    rotation_align,
    rotation_set_distance,
    sign_fixed_qr,
    so_set_distance,
    spanning_frames,
    spd_extremes,
    spd_inv_sqrt,
    spd_sqrt,
    subspace_distance,
    _closed_extremes,
)

import oracles

E2 = SpdMetric.euclidean(2)


def rotation2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestSpdMetric:
    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            SpdMetric(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SpdMetric(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            SpdMetric(np.diag([1.0, -1.0]))

    def test_sqrt_roundtrip(self):
        rng = np.random.default_rng(7)
        g = SpdMetric(oracles.random_spd(rng, 3))
        np.testing.assert_allclose(g.sqrt @ g.sqrt, g.gram, atol=1e-12)
        np.testing.assert_allclose(g.sqrt @ g.inv_sqrt, np.eye(3), atol=1e-12)


class TestFrobeniusNorm:
    """The Frobenius norm `frobenius(x)` and the metric one, `metric_norm(t, g^(-1/2))`."""

    # 2 to 7 entries take `_entry_sums`' left-to-right sum, 1 and 8 to 15
    # keep np.sum; `metric_norm` first multiplies (S, N, D, d) stacks,
    # D = d to d + 2 among them, by per-cell factors or by one repeated matrix
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("cols", [1, 2, 3])
    def test_equals_the_summed_squares(self, rows, cols):
        rng = np.random.default_rng(10 * rows + cols)
        x = rng.standard_normal((4, 300, rows, cols)) * 10.0 ** rng.uniform(-200, 200, size=(4, 300, 1, 1))
        x[0, :7].flat[:7] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, 1e200]
        one = rng.standard_normal((cols, cols))
        for mats in (x, x[1], x[2, 5], x[..., ::-1, :], np.asfortranarray(x[3]), x.transpose(1, 0, 2, 3)):
            shape = mats.shape[:-2] + (cols, cols)
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                expected = np.sqrt(np.sum(mats * mats, axis=(-2, -1)))
                np.testing.assert_array_equal(np.linalg.norm(mats, axis=(-2, -1)), expected)
                np.testing.assert_array_equal(frobenius(mats), expected)
                for w in (rng.standard_normal(shape), np.broadcast_to(one, shape)):
                    product = np.linalg.norm(mats @ w.copy(), axis=(-2, -1))
                    np.testing.assert_array_equal(metric_norm(mats, w), product)

    def test_identity_euclidean(self):
        assert metric_norm(np.eye(2), E2.inv_sqrt) == pytest.approx(np.sqrt(2.0))

    def test_identity_scaled_metric(self):
        g = SpdMetric(4.0 * np.eye(2))
        assert metric_norm(np.eye(2), g.inv_sqrt) == pytest.approx(1.0 / np.sqrt(2.0))

    def test_rank_one(self):
        assert metric_norm(np.diag([3.0, 0.0]), E2.inv_sqrt) == pytest.approx(3.0)

    def test_matches_cholesky_basis_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            gram = oracles.random_spd(rng, 3)
            t = rng.standard_normal((5, 3))
            assert metric_norm(t, spd_inv_sqrt(gram)) == pytest.approx(
                oracles.metric_frobenius(t, gram), rel=1e-10
            )

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6),
        eig_lo=st.floats(0.11, 1.0),
        eig_hi=st.floats(1.0, 9.9),
        theta=st.floats(0.0, 2 * np.pi),
    )
    def test_norm_equivalence(self, entries, eig_lo, eig_hi, theta):
        # 1/sqrt(lam) * |T|_g <= |T|_F <= sqrt(lam) * |T|_g under the sandwich
        # I/lam <= gram <= lam*I.
        t = np.array(entries).reshape(3, 2)
        q = rotation2(theta)
        g = SpdMetric((q * [eig_lo, eig_hi]) @ q.T)
        lam_min, lam_max, _ = spd_extremes(g.gram)
        lam = max(lam_max, 1.0 / lam_min, 1.0)
        metric = metric_norm(t, g.inv_sqrt)
        euclid = float(np.linalg.norm(t))
        assert euclid - metric / np.sqrt(lam) >= -1e-10
        assert np.sqrt(lam) * metric - euclid >= -1e-10


class TestSpdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            spd_sqrt(np.diag([1.0, -2.0]))

    def test_rejects_near_singular(self):
        with pytest.raises(ValueError, match="positive definite"):
            spd_sqrt(np.diag([1.0, 1e-15]))

    def test_stacked_input(self):
        rng = np.random.default_rng(3)
        grams = np.stack([oracles.random_spd(rng, 2) for _ in range(4)])
        roots = spd_sqrt(grams)
        np.testing.assert_allclose(roots @ roots, grams, atol=1e-12)


class TestSoSetDistance:
    def test_same_metric(self):
        g = SpdMetric(np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert so_set_distance(g, g) <= 1e-12

    def test_scaled_identity(self):
        assert so_set_distance(E2, SpdMetric(4.0 * np.eye(2))) == pytest.approx(np.sqrt(2.0))

    def test_square_root_bound(self):
        # distance between the rotation sets <= sqrt(lam)/2 * |gx - gy|
        rng = np.random.default_rng(23)
        for _ in range(300):
            gx = SpdMetric(oracles.random_spd(rng, rng.integers(1, 4)))
            gy = SpdMetric(oracles.random_spd(rng, gx.dim))
            lam_min, lam_max, _ = spd_extremes(np.stack([gx.gram, gy.gram]))
            lam = max(lam_max.max(), 1.0 / lam_min.min(), 1.0)
            bound = 0.5 * np.sqrt(lam) * np.linalg.norm(gx.gram - gy.gram)
            assert bound - so_set_distance(gx, gy) >= -1e-10

    def test_against_angle_grid(self):
        rng = np.random.default_rng(5)
        qs = oracles.rotation_grid(1e-3)
        for _ in range(20):
            gx, gy = oracles.random_spd(rng, 2), oracles.random_spd(rng, 2)
            got = so_set_distance(SpdMetric(gx), SpdMetric(gy))
            assert got == pytest.approx(oracles.brute_so_set_distance(gx, gy, qs), abs=1e-3)
            assert got <= oracles.brute_so_set_distance(gx, gy, qs) + 1e-9


class TestNearestIsometry:
    def test_diagonal_stretch(self):
        r, dist = nearest_isometry(np.diag([2.0, 1.0]), E2)
        np.testing.assert_allclose(r, np.eye(2), atol=1e-12)
        assert dist == pytest.approx(1.0, abs=1e-12)

    def test_isometry_is_fixed_point(self):
        rng = np.random.default_rng(9)
        g = SpdMetric(oracles.random_spd(rng, 2))
        t = rotation2(0.7) @ g.sqrt
        r, dist = nearest_isometry(t, g, oriented=True)
        assert dist <= 1e-12
        np.testing.assert_allclose(r, t, atol=1e-10)

    def test_oriented_reflection_costs_two(self):
        r, dist = nearest_isometry(np.diag([1.0, -1.0]), E2, oriented=True)
        assert dist == pytest.approx(2.0)
        np.testing.assert_allclose(r.T @ r, np.eye(2), atol=1e-12)
        assert np.linalg.det(r) > 0

    def test_returned_map_is_isometry(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            g = SpdMetric(oracles.random_spd(rng, 2))
            r, _ = nearest_isometry(rng.standard_normal((4, 2)), g)
            np.testing.assert_allclose(r.T @ r, g.gram, atol=1e-10)

    def test_against_angle_grid(self):
        rng = np.random.default_rng(13)
        qs = oracles.rotation_grid(1e-3)
        for oriented in (False, True):
            for _ in range(20):
                gram = oracles.random_spd(rng, 2)
                t = rng.uniform(-2.0, 2.0, size=(2, 2))
                _, dist = nearest_isometry(t, SpdMetric(gram), oriented=oriented)
                brute = oracles.brute_nearest_isometry(t, gram, oriented, qs)[1]
                assert dist == pytest.approx(brute, abs=1e-3)
                assert dist <= brute + 1e-9

    def test_shape_contract(self):
        with pytest.raises(ValueError, match="decrease dimension"):
            nearest_isometry(np.ones((1, 2)), E2)
        with pytest.raises(ValueError, match="square"):
            nearest_isometry(np.ones((3, 2)), E2, oriented=True)


class TestNearestIsometryIntoPlane:
    def test_embedded_diagonal_stretch(self):
        plane = OrientedSubspace(np.eye(3)[:, [0, 1]])
        t = plane.frame @ np.diag([2.0, 1.0])
        r, dist = nearest_isometry_into_plane(t, E2, plane, oriented=True)
        assert dist == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(r, plane.frame, atol=1e-12)

    def test_leak_rejected(self):
        plane = OrientedSubspace(np.eye(3)[:, [0, 1]])
        t = plane.frame @ np.eye(2)
        t[2, 0] = 1e-6
        with pytest.raises(ValueError, match="leaves the plane"):
            nearest_isometry_into_plane(t, E2, plane)

    def test_oriented_in_plane_equality(self):
        # For an orientation-preserving map into the plane, the unoriented
        # distance over all of R^D equals the oriented in-plane distance.
        rng = np.random.default_rng(41)
        for _ in range(100):
            g = SpdMetric(oracles.random_spd(rng, 2))
            plane = OrientedSubspace(oracles.random_frame(rng, 4, 2))
            a = rng.uniform(-2.0, 2.0, size=(2, 2))
            if np.linalg.det(a) < 0:
                a = a[:, ::-1].copy()
            t = plane.frame @ a
            _, full = nearest_isometry(t, g, oriented=False)
            _, in_plane = nearest_isometry_into_plane(t, g, plane, oriented=True)
            assert abs(full - in_plane) <= 1e-10


class TestSubspaceDistance:
    def test_same_plane_different_frames(self):
        frame = oracles.random_frame(np.random.default_rng(2), 4, 2)
        a = OrientedSubspace(frame)
        b = OrientedSubspace(frame @ rotation2(1.2))
        assert subspace_distance(a, b) <= 1e-12

    def test_orthogonal_lines(self):
        a = OrientedSubspace(np.eye(2)[:, [0]])
        b = OrientedSubspace(np.eye(2)[:, [1]])
        assert subspace_distance(a, b) == pytest.approx(np.sqrt(2.0))

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            planes = [OrientedSubspace(oracles.random_frame(rng, 4, 2)) for _ in range(3)]
            a, b, c = planes
            assert subspace_distance(a, b) == pytest.approx(subspace_distance(b, a), abs=1e-12)
            slack = subspace_distance(a, b) + subspace_distance(b, c) - subspace_distance(a, c)
            assert slack >= -1e-10

    def test_against_angle_grid(self):
        rng = np.random.default_rng(19)
        qs = oracles.rotation_grid(1e-3)
        for _ in range(20):
            fa = oracles.random_frame(rng, 3, 2)
            fb = oracles.random_frame(rng, 3, 2)
            got = subspace_distance(OrientedSubspace(fa), OrientedSubspace(fb))
            assert got == pytest.approx(oracles.brute_subspace_distance(fa, fb, qs), abs=1e-3)


class TestOrientedComplement:
    def test_coordinate_plane(self):
        comp = oriented_complement(OrientedSubspace(np.eye(3)[:, [0, 1]]))
        np.testing.assert_allclose(comp.frame[:, 0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_line_in_plane(self):
        comp = oriented_complement(OrientedSubspace(np.eye(2)[:, [0]]))
        np.testing.assert_allclose(comp.frame[:, 0], [0.0, 1.0], atol=1e-12)
        comp2 = oriented_complement(OrientedSubspace(np.array([[0.0], [1.0]])))
        np.testing.assert_allclose(comp2.frame[:, 0], [-1.0, 0.0], atol=1e-12)

    def test_concatenation_is_positive(self):
        rng = np.random.default_rng(29)
        for ambient, dim in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)]:
            a = OrientedSubspace(oracles.random_frame(rng, ambient, dim))
            w = oriented_complement(a)
            assert np.linalg.det(np.concatenate([a.frame, w.frame], axis=1)) > 0

    def test_double_complement_orientation_sign(self):
        # The double complement spans the original plane again; its orientation
        # relative to the original is (-1)^(d*(D-d)) by block column swaps.
        rng = np.random.default_rng(37)
        for ambient, dim in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)]:
            a = OrientedSubspace(oracles.random_frame(rng, ambient, dim))
            back = oriented_complement(oriented_complement(a))
            proj_a = a.frame @ a.frame.T
            proj_b = back.frame @ back.frame.T
            np.testing.assert_allclose(proj_a, proj_b, atol=1e-10)
            sign = np.sign(np.linalg.det(a.frame.T @ back.frame))
            assert sign == (-1.0) ** (dim * (ambient - dim))

    def test_full_space_rejected(self):
        with pytest.raises(ValueError, match="complement"):
            oriented_complement(OrientedSubspace(np.eye(2)[:, [0, 1]]))


class TestOrientationUnderProjection:
    """`projection_keeps_orientation` on one pair of frames."""

    def test_same_plane(self):
        a = OrientedSubspace(np.eye(3)[:, [0, 1]])
        assert projection_keeps_orientation(a.frame, a.frame)

    def test_reversed_line(self):
        a = OrientedSubspace(np.array([[1.0], [0.0]]))
        b = OrientedSubspace(np.array([[-1.0], [0.0]]))
        assert not projection_keeps_orientation(a.frame, b.frame)

    def test_orthogonal_line_degenerate(self):
        a = OrientedSubspace(np.eye(2)[:, [0]])
        b = OrientedSubspace(np.eye(2)[:, [1]])
        assert not projection_keeps_orientation(a.frame, b.frame)

    def test_small_tilt_preserves(self):
        # Perturbations well below the 1/(2d) independence threshold kept the
        # orientation in every sampled pair; this documents that observation.
        rng = np.random.default_rng(47)
        violations = 0
        tested = 0
        for _ in range(300):
            dim = int(rng.integers(1, 4))
            ambient = dim + int(rng.integers(1, 4))
            f0 = oracles.random_frame(rng, ambient, dim)
            tilt = f0 + 0.05 / dim * rng.standard_normal(f0.shape)
            p0 = OrientedSubspace(f0)
            p = OrientedSubspace.from_spanning(tilt)
            gap = subspace_distance(oriented_complement(p0), oriented_complement(p))
            if gap >= 0.5 / (2 * dim):
                continue
            tested += 1
            violations += not projection_keeps_orientation(p0.frame, p.frame)
        assert tested > 200
        assert violations == 0


class TestProjectionErrorBound:
    def test_identical_planes(self):
        plane = OrientedSubspace(np.eye(4)[:, [0, 1]])
        t = plane.frame @ np.array([[1.2, 0.3], [-0.1, 0.9]])
        report = projection_error_bound_check(t, E2, plane, plane)
        assert report.projection_lhs == pytest.approx(0.0, abs=1e-12)
        assert report.complement_gap == pytest.approx(0.0, abs=1e-12)
        # with zero gap the oriented distance collapses to the unoriented one
        assert report.oriented_lhs == pytest.approx(report.unoriented_dist, abs=1e-10)

    def test_random_instances_stay_nonnegative(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            ambient = dim + int(rng.integers(1, 4))
            g = SpdMetric(oracles.random_spd(rng, dim))
            p0 = OrientedSubspace(oracles.random_frame(rng, ambient, dim))
            p = OrientedSubspace(oracles.random_frame(rng, ambient, dim))
            a = rng.uniform(-2.0, 2.0, size=(dim, dim))
            report = projection_error_bound_check(p.frame @ a, g, p0, p)
            assert report.projection_slack >= -1e-10

    def test_mismatched_planes_rejected(self):
        p0 = OrientedSubspace(np.eye(4)[:, [0, 1]])
        p = OrientedSubspace(np.eye(4)[:, [0]])
        with pytest.raises(ValueError, match="dimension"):
            projection_error_bound_check(np.zeros((4, 2)), E2, p0, p)


class TestHelpers:
    def test_rotation_align_identity(self):
        np.testing.assert_allclose(rotation_align(np.eye(3)), np.eye(3), atol=1e-12)

    def test_rotation_align_beats_random_rotations(self):
        rng = np.random.default_rng(59)
        m = rng.standard_normal((3, 3))
        best = np.trace(rotation_align(m).T @ m)
        for _ in range(100):
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            assert best >= np.trace(q.T @ m) - 1e-10

    def test_isometry_defect_matches_nearest(self):
        rng = np.random.default_rng(61)
        ts = rng.standard_normal((20, 3, 2))
        defects = isometry_defect(ts)
        for t, defect in zip(ts, defects):
            assert defect == pytest.approx(nearest_isometry(t, E2)[1], rel=1e-12)

    def test_isometry_defect_oriented_flip(self):
        assert isometry_defect(np.diag([1.0, -1.0]), oriented=True) == pytest.approx(2.0)
        reflection = rotation2(0.3) @ np.diag([1.0, -1.0])
        assert isometry_defect(reflection, oriented=True) == pytest.approx(2.0, rel=1e-15)
        assert isometry_defect(reflection) <= 1e-15
        assert isometry_defect(np.array([[-1.0]]), oriented=True) == 2.0
        assert isometry_defect(np.array([[-1.0]])) == 0.0


# --- stacked kernels against loops over their one-instance forms -----------

SHAPES = [(2, 1), (3, 1), (3, 2), (4, 2), (6, 3), (3, 3)]  # (ambient, dim)


def _grams(rng, count, dim):
    return np.stack([oracles.random_spd(rng, dim) for _ in range(count)])


def _frames(rng, count, ambient, dim):
    return np.stack([oracles.random_frame(rng, ambient, dim) for _ in range(count)])


class TestStackedKernels:
    COUNT = 7

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_metric_kernels_equal_loops(self, dim):
        rng = np.random.default_rng(71 + dim)
        grams, others = _grams(rng, self.COUNT, dim), _grams(rng, self.COUNT, dim)
        ts = rng.standard_normal((self.COUNT, dim + 2, dim))
        metrics = [SpdMetric(g) for g in grams]
        np.testing.assert_allclose(checked_grams(grams), [g.gram for g in metrics], rtol=0, atol=1e-14)
        np.testing.assert_allclose(spd_sqrt(grams), [g.sqrt for g in metrics], rtol=0, atol=1e-14)
        np.testing.assert_allclose(spd_inv_sqrt(grams), [g.inv_sqrt for g in metrics], rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            metric_norm(ts, spd_inv_sqrt(grams)),
            [metric_norm(t, g.inv_sqrt) for t, g in zip(ts, metrics)],
            rtol=1e-14,
        )
        np.testing.assert_allclose(
            rotation_set_distance(spd_sqrt(grams), spd_sqrt(others)),
            [so_set_distance(g, SpdMetric(h)) for g, h in zip(metrics, others)],
            rtol=1e-14,
            atol=1e-14,
        )
        squares = rng.standard_normal((self.COUNT, dim, dim))
        np.testing.assert_allclose(rotation_align(squares), [rotation_align(m) for m in squares], atol=1e-14)
        for oriented in (False, True):
            x = (squares if oriented else ts) @ spd_inv_sqrt(grams)
            maps = squares if oriented else ts
            np.testing.assert_allclose(
                isometry_defect(x, oriented=oriented),
                [nearest_isometry(t, g, oriented=oriented)[1] for t, g in zip(maps, metrics)],
                rtol=1e-14,
                atol=1e-14,
            )

    @pytest.mark.parametrize("ambient, dim", SHAPES)
    def test_frame_kernels_equal_loops(self, ambient, dim):
        rng = np.random.default_rng(89 + 7 * ambient + dim)
        vectors = rng.standard_normal((self.COUNT, ambient, dim))
        frames, independent = spanning_frames(vectors)
        assert independent.shape == (self.COUNT,) and independent.all()
        singles = [OrientedSubspace.from_spanning(v) for v in vectors]
        np.testing.assert_allclose(frames, [p.frame for p in singles], rtol=0, atol=1e-14)
        np.testing.assert_array_equal(checked_spanning_frames(vectors), frames)
        assert frames_orthonormal(frames).all()
        np.testing.assert_array_equal(checked_frames(frames), frames)
        others = _frames(rng, self.COUNT, ambient, dim)
        pairs = list(zip(singles, [OrientedSubspace(f) for f in others]))
        np.testing.assert_allclose(
            frame_distance(frames, others),
            [subspace_distance(a, b) for a, b in pairs],
            rtol=1e-14,
            atol=1e-14,
        )
        np.testing.assert_array_equal(
            projection_keeps_orientation(frames, others),
            [projection_keeps_orientation(a.frame, b.frame) for a, b in pairs],
        )
        coeffs = rng.standard_normal((self.COUNT, dim, dim))
        np.testing.assert_allclose(
            plane_coordinates(frames @ coeffs, frames),
            [plane_coordinates(f @ c, f) for f, c in zip(frames, coeffs)],
            rtol=0,
            atol=1e-14,
        )
        if ambient == dim:
            return
        np.testing.assert_allclose(
            complement_frames(frames), [oriented_complement(p).frame for p in singles], rtol=0, atol=1e-14
        )
        grams = _grams(rng, self.COUNT, dim)
        t = others @ coeffs
        terms = projection_terms(t, spd_inv_sqrt(grams), frames, others)
        for k, (p0, p) in enumerate(pairs):
            report = projection_error_bound_check(t[k], SpdMetric(grams[k]), p0, p)
            single = (
                report.projection_lhs,
                report.projection_rhs,
                report.oriented_lhs,
                report.unoriented_dist,
                report.complement_gap,
            )
            np.testing.assert_allclose([term[k] for term in terms], single, rtol=1e-14, atol=1e-14)


# --- the identities the lemma suite's stacked evaluation rests on -----------

# Every (dim, ambient) the lemma suite draws at its defaults, max_dim = 3 and
# max_ambient = 6; the in-plane equality also draws ambient == dim.
LEMMA_SHAPES = [(dim, ambient) for dim in (1, 2, 3) for ambient in range(dim, 7)]


def _padded(x, rows):
    """Stacked maps x (..., D, d) embedded in R^rows by zero rows."""
    out = np.zeros((*x.shape[:-2], rows, x.shape[-1]))
    out[..., : x.shape[-2], :] = x
    return out


class TestLemmaIdentities:
    COUNT = 50

    @pytest.mark.parametrize("dim, ambient", LEMMA_SHAPES)
    def test_zero_row_embedding_keeps_every_value(self, dim, ambient):
        rng = np.random.default_rng(131 + 7 * ambient + dim)
        vectors, others = rng.standard_normal((2, self.COUNT, ambient, dim))
        frames, independent = spanning_frames(vectors)
        wide_frames, wide_independent = spanning_frames(_padded(vectors, 6))
        np.testing.assert_array_equal(wide_independent, independent)
        np.testing.assert_allclose(wide_frames, _padded(frames, 6), rtol=0, atol=1e-13)
        planes, wide_planes = spanning_frames(others)[0], spanning_frames(_padded(others, 6))[0]
        inv_sqrt = spd_inv_sqrt(_grams(rng, self.COUNT, dim))
        coeffs = rng.standard_normal((self.COUNT, dim, dim))
        t, wide_t = planes @ coeffs, wide_planes @ coeffs
        close = {"rtol": 1e-13, "atol": 1e-13}
        np.testing.assert_allclose(plane_coordinates(wide_t, wide_planes), plane_coordinates(t, planes), **close)
        np.testing.assert_allclose(isometry_defect(wide_t @ inv_sqrt), isometry_defect(t @ inv_sqrt), **close)
        np.testing.assert_array_equal(
            projection_keeps_orientation(wide_frames, wide_planes), projection_keeps_orientation(frames, planes)
        )
        wide_terms = projection_terms(wide_t, inv_sqrt, wide_frames, wide_planes)
        for wide_term, term in zip(wide_terms, projection_terms(t, inv_sqrt, frames, planes)):
            np.testing.assert_allclose(wide_term, term, **close)

    @pytest.mark.parametrize("dim, ambient", [(dim, ambient) for ambient in range(2, 7) for dim in range(1, ambient)])
    def test_complement_gap_is_the_plane_gap(self, dim, ambient):
        rng = np.random.default_rng(137 + 7 * ambient + dim)
        a = spanning_frames(rng.standard_normal((self.COUNT, ambient, dim)))[0]
        reversed_a = a.copy()
        reversed_a[..., 0] *= -1.0
        # The first min(d, D - d) columns turned onto the complement: as many
        # principal angles of about 90 degrees.
        turned = a.copy()
        span = min(dim, ambient - dim)
        turned[..., :span] = complement_frames(a)[..., :span]
        partners = {
            "random": spanning_frames(rng.standard_normal((self.COUNT, ambient, dim)))[0],
            "same plane, reversed": reversed_a,
            "near, reversed": spanning_frames(reversed_a + 1e-3 * rng.standard_normal(a.shape))[0],
            "near-orthogonal": spanning_frames(turned + 1e-7 * rng.standard_normal(a.shape))[0],
            "near": spanning_frames(a + 1e-6 * rng.standard_normal(a.shape))[0],
        }
        for kind, b in partners.items():
            np.testing.assert_allclose(
                frame_distance(complement_frames(a), complement_frames(b)),
                frame_distance(a, b),
                rtol=0,
                atol=1e-14,
                err_msg=kind,
            )


def _raises_alike(scalar_call, stacked_call):
    with pytest.raises(ValueError) as scalar:
        scalar_call()
    with pytest.raises(ValueError) as stacked:
        stacked_call()
    assert str(stacked.value) == str(scalar.value)


class TestStackedValidation:
    """One bad matrix in the middle of a stack raises what the one-instance path raises."""

    def _stack_with(self, good, bad):
        return np.concatenate([good[:3], bad[None], good[3:]])

    def test_asymmetric_gram(self):
        grams = _grams(np.random.default_rng(97), 6, 2)
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        _raises_alike(lambda: SpdMetric(bad), lambda: checked_grams(self._stack_with(grams, bad)))

    def test_non_positive_definite_gram(self):
        grams = _grams(np.random.default_rng(101), 6, 2)
        bad = np.diag([1.0, -1e-3])
        _raises_alike(lambda: SpdMetric(bad), lambda: checked_grams(self._stack_with(grams, bad)))

    def test_non_orthonormal_frame(self):
        frames = _frames(np.random.default_rng(103), 6, 4, 2)
        bad = frames[0] * (1.0 + 1e-6)
        stack = self._stack_with(frames, bad)
        _raises_alike(lambda: OrientedSubspace(bad), lambda: checked_frames(stack))
        assert frames_orthonormal(stack).tolist() == [True] * 3 + [False] + [True] * 3

    def test_dependent_spanning_columns(self):
        vectors = np.random.default_rng(107).standard_normal((6, 4, 2))
        bad = np.stack([vectors[0, :, 0], 2.0 * vectors[0, :, 0]], axis=-1)
        stack = self._stack_with(vectors, bad)
        _raises_alike(lambda: OrientedSubspace.from_spanning(bad), lambda: checked_spanning_frames(stack))
        assert spanning_frames(stack)[1].tolist() == [True] * 3 + [False] + [True] * 3

    def test_leaking_map(self):
        rng = np.random.default_rng(109)
        frames = _frames(rng, 6, 3, 2)
        maps = frames @ rng.standard_normal((6, 2, 2))
        plane = OrientedSubspace(np.eye(3)[:, [0, 1]])
        bad = plane.frame @ np.eye(2)
        bad[2, 0] = 1e-6
        _raises_alike(
            lambda: nearest_isometry_into_plane(bad, E2, plane),
            lambda: plane_coordinates(self._stack_with(maps, bad), self._stack_with(frames, plane.frame)),
        )


# --- closed-form d <= 2 kernels against LAPACK oracles ----------------------

UNIT_ROUNDOFF = np.finfo(float).eps / 2
# (rows, cols), oriented: the shapes `isometry_defect` answers in closed form
CLOSED_FORM_SHAPES = [((1, 1), False), ((1, 1), True), ((2, 1), False), ((3, 1), False)]
CLOSED_FORM_SHAPES += [((2, 2), False), ((2, 2), True), ((3, 2), False)]
CLOSED_FORM_SHAPES += [((4, 2), False), ((6, 2), False), ((9, 2), False)]  # the wedge form past R^3


def _svd_defect(x, oriented):
    sing = np.linalg.svd(x, compute_uv=False)
    if oriented:
        sing[..., -1] = np.where(np.linalg.det(x) < 0, -sing[..., -1], sing[..., -1])
    return np.sqrt(np.sum((sing - 1.0) ** 2, axis=-1))


@st.composite
def _defect_cases(draw):
    (rows, cols), oriented = draw(st.sampled_from(CLOSED_FORM_SHAPES))
    kind = draw(st.sampled_from(["generic", "reflection", "rank_deficient", "zero", "near_isometry"]))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    square = np.array(draw(st.lists(entries, min_size=rows * rows, max_size=rows * rows))).reshape(rows, rows)
    if kind == "generic":
        return scale * square[:, :cols], oriented
    if kind == "zero":
        return np.zeros((rows, cols)), oriented
    if kind == "rank_deficient":  # rank one, or zero for a single column
        return scale * np.outer(square[:, 0], square[0, :cols]) * (cols > 1), oriented
    q = np.linalg.qr(square + 3.0 * np.eye(rows))[0]
    if kind == "reflection":  # orthonormal columns, det -1 when square
        q[:, 0] *= -np.sign(np.linalg.det(q))
        return q[:, :cols], oriented
    return q[:, :cols] + scale * 1e-15 * square[:, :cols], oriented


class TestClosedFormKernels:
    @settings(max_examples=400, deadline=None)
    @given(_defect_cases())
    def test_isometry_defect_equals_the_svd_oracle(self, case):
        x, oriented = case
        bound = 16.0 * UNIT_ROUNDOFF * (1.0 + np.linalg.norm(x))
        assert abs(isometry_defect(x, oriented=oriented) - _svd_defect(x, oriented)) <= bound
        stacked = np.stack([x, -x, 2.0 * x])
        gap = np.abs(isometry_defect(stacked, oriented=oriented) - _svd_defect(stacked, oriented))
        assert (gap <= 16.0 * UNIT_ROUNDOFF * (1.0 + np.linalg.norm(stacked, axis=(-2, -1)))).all()

    @staticmethod
    def _ill_conditioned_grams(kappa, count=500):
        rng = np.random.default_rng(int(np.log10(kappa)) + 211)
        spectra = np.exp(rng.uniform(-3.0, 3.0, (count, 1))) * np.array([1.0, 1.0 / kappa])
        q = np.stack([rotation2(a) for a in rng.uniform(0.0, np.pi, count)])
        gram = (q * spectra[:, None, :]) @ np.swapaxes(q, -1, -2)
        return 0.5 * (gram + np.swapaxes(gram, -1, -2))

    @pytest.mark.parametrize("kappa", [1.0, 1e3, 1e6, 1e9, 1e12])
    def test_two_by_two_roots_against_eigh(self, kappa):
        gram = self._ill_conditioned_grams(kappa)
        root, inv_root = spd_sqrt(gram), spd_inv_sqrt(gram)
        np.testing.assert_array_equal(root, np.swapaxes(root, -1, -2))
        np.testing.assert_array_equal(inv_root, np.swapaxes(inv_root, -1, -2))
        # the product's error grows like u sqrt(kappa): entries of size
        # sqrt(lam_max) meet entries of size 1 / sqrt(lam_min)
        product_gap = np.abs(root @ inv_root - np.eye(2)).max()
        assert product_gap <= 16.0 * UNIT_ROUNDOFF * np.sqrt(kappa)
        w, v = np.linalg.eigh(gram)
        eigh_inv_root = (v / np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)

        def residual(t):
            return np.linalg.norm(t @ gram @ t - np.eye(2), axis=(-2, -1)).max()

        assert residual(inv_root) <= 2.0 * residual(eigh_inv_root) + 16.0 * UNIT_ROUNDOFF
        assert np.abs(root @ root - gram).max() <= 16.0 * UNIT_ROUNDOFF * np.abs(gram).max()

    @pytest.mark.parametrize("k", [500, -500])
    def test_two_by_two_roots_scale_exactly_by_powers_of_four(self, k):
        # 2^1000 g has entries near 1e301, where det = ac - b^2 overflows
        # unless the closed form rescales; at k < 0 the large Gram is the base
        gram = self._ill_conditioned_grams(1e6, count=200)
        if k < 0:
            gram = np.ldexp(gram, 1000)
        scaled = np.ldexp(gram, 2 * k)
        np.testing.assert_array_equal(spd_sqrt(scaled), np.ldexp(spd_sqrt(gram), k))
        np.testing.assert_array_equal(spd_inv_sqrt(scaled), np.ldexp(spd_inv_sqrt(gram), -k))
        assert np.isfinite(spd_sqrt(scaled)).all() and np.isfinite(spd_inv_sqrt(scaled)).all()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_spd_extremes_equal_eigvalsh(self, dim):
        grams = _grams(np.random.default_rng(223 + dim), 50, dim)
        lam_min, lam_max, sqrt_det = spd_extremes(grams)
        w = np.linalg.eigvalsh(grams)
        np.testing.assert_allclose(lam_min, w[:, 0], rtol=1e-14)
        np.testing.assert_allclose(lam_max, w[:, -1], rtol=1e-14)
        np.testing.assert_allclose(sqrt_det, np.sqrt(np.linalg.det(grams)), rtol=1e-14)

    @pytest.mark.parametrize("k", [-500, -250, 250, 500])
    def test_spd_extremes_scale_exactly_by_powers_of_four(self, k):
        # 4^500 g has entries near 1e301, where ac - b^2 overflows unless
        # the closed form rescales, and 4^-500 g entries near 1e-301
        grams = _grams(np.random.default_rng(227), 50, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = spd_extremes(np.ldexp(grams, 2 * k))
            for value, base in zip(scaled, spd_extremes(grams)):
                np.testing.assert_array_equal(value, np.ldexp(base, 2 * k))

    def test_spd_extremes_of_a_gram_near_the_overflow(self):
        gram = np.array([[4e300, 1e150], [1e150, 1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam_min, lam_max, sqrt_det = spd_extremes(gram)
        w = np.linalg.eigvalsh(gram)
        assert lam_min == pytest.approx(w[0], rel=1e-14) and lam_max == pytest.approx(w[1], rel=1e-14)
        assert sqrt_det == pytest.approx(np.sqrt(w[0]) * np.sqrt(w[1]), rel=1e-14)

    def test_spd_extremes_equal_the_unscaled_closed_form_where_it_stays_in_range(self):
        # The closed form always runs rescaled; where the unscaled one
        # neither over- nor underflows, no bit differs.
        grams = np.concatenate([np.ldexp(_grams(np.random.default_rng(229), 20, 2), 2 * k) for k in (-200, 0, 200)])
        with np.errstate(over="raise", under="raise"):
            unscaled = _closed_extremes(grams)
        for value, base in zip(spd_extremes(grams), unscaled):
            np.testing.assert_array_equal(value, base)

    @pytest.mark.parametrize("kernel", [spd_sqrt, spd_inv_sqrt, checked_grams])
    @pytest.mark.parametrize(
        "gram",
        [
            np.diag([1.0, 1e-15]),
            np.diag([1.0, -2.0]),
            -np.eye(2),
            # negative definite, eigenvalues -1e6 and -1.1e-11: its computed
            # lam_max rounds to +5.8e-11, and det / lam_max to +1.6e5
            np.array([[-989081.591704284, -103919.18329165169], [-103919.18329165169, -10918.408295715868]]),
            np.zeros((2, 2)),
            np.array([[-1e-300]]),
            np.array([[0.0]]),
        ],
    )
    def test_floor_rejects_without_warnings(self, kernel, gram):
        gram = 0.5 * (gram + gram.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive definite"):
                kernel(gram)
            with pytest.raises(ValueError, match="positive definite"):
                kernel(np.stack([np.eye(gram.shape[0]), gram]))

    @pytest.mark.parametrize("kernel", [spd_sqrt, spd_inv_sqrt])
    @pytest.mark.parametrize("gram", [np.array([[np.nan]]), np.array([[np.nan, 0.0], [0.0, 1.0]])])
    def test_nan_gram_raises(self, kernel, gram):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"matrix is not positive definite \(eigenvalue below 1e-14\)"):
                kernel(gram)

    def test_fit_paths_stay_off_lapack_for_small_cells(self, tmp_path, monkeypatch, capsys):
        calls = []

        def spy(name, real):
            def call(*args, **kwargs):
                calls.append((name, sys._getframe(1).f_code.co_name))
                return real(*args, **kwargs)

            return call

        for name in ("svd", "eigh", "eigvalsh", "qr", "det"):
            monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
        monkeypatch.setenv("RIGIDITY_CLOCK", "1970-01-01T00:00:00+00:00")
        scenarios = [
            {"family": "perturbed_identity", "dim": 2, "resolution": 8, "p": 3.0, "metric_kind": "random"},
            {"family": "graph", "dim": 2, "resolution": 8, "metric_kind": "random"},
            {"family": "curve", "dim": 1, "resolution": 32, "metric_kind": "linear"},
            {"family": "latitude", "dim": 1, "resolution": 32, "p": 3.0, "metric_kind": "random"},
        ]
        runs = [("rigidity", {"scenario": s}) for s in scenarios]
        runs.append(("multiscale", {"scenario": {"family": "graph", "dim": 2, "resolution": 16}, "t_values": [2, 4]}))
        for k, (command, config) in enumerate(runs):
            path = tmp_path / f"cfg{k}.json"
            path.write_text(json.dumps(config))
            assert cli.main([command, "--config", str(path), "--out", str(tmp_path / f"out{k}")]) in (0, 1)
        capsys.readouterr()
        # The spies see one pipeline call: the normals' complete QR.  The
        # fit's rank test, the Procrustes factor, the base frame, the defects
        # and every determinant sign are closed forms at d <= 2.
        assert ("qr", "_degenerate_and_normal") in calls
        assert not [call for call in calls if call != ("qr", "_degenerate_and_normal")]


# --- closed-form frames, Procrustes factors and signs against LAPACK --------


def _lapack_qr(mats):
    """numpy's Householder QR with the sign rule of `sign_fixed_qr`."""
    q, r = np.linalg.qr(mats)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.where(diag < 0.0, -1.0, 1.0)[..., None, :], np.abs(diag)


def _svd_rotation_align(m):
    """The SVD route of `rotation_align` (every d before d <= 2 had closed forms)."""
    u, _, vt = np.linalg.svd(m)
    neg = np.linalg.det(u) * np.linalg.det(vt) < 0
    u = u.copy()
    u[..., :, -1] = np.where(neg[..., None], -u[..., :, -1], u[..., :, -1])
    return u @ vt


# (ambient, dim) with dim <= 3: the Gram-Schmidt shapes
QR_SHAPES = [(ambient, dim) for dim in (1, 2, 3) for ambient in range(dim, 10)]


class TestClosedFormFrames:
    COUNT = 40

    @pytest.mark.parametrize("ambient, dim", QR_SHAPES)
    def test_sign_fixed_qr_equals_lapack_across_scales(self, ambient, dim):
        rng = np.random.default_rng(307 + 11 * ambient + dim)
        mats = rng.standard_normal((self.COUNT, ambient, dim))
        # every column at its own scale, from 1e-150 to 1e160
        mats *= 10.0 ** rng.uniform(-150.0, 160.0, size=(self.COUNT, 1, dim))
        q, diag = sign_fixed_qr(mats)
        q_ref, diag_ref = _lapack_qr(mats)
        np.testing.assert_allclose(diag, diag_ref, rtol=1e-13, atol=0.0)
        # the same frame: same span and orientation, Q^T Q_ref = I
        eye = np.broadcast_to(np.eye(dim), (self.COUNT, dim, dim))
        np.testing.assert_allclose(np.swapaxes(q, -1, -2) @ q_ref, eye, rtol=0, atol=1e-12)
        assert frames_orthonormal(q).all()
        scale = np.maximum(1.0, np.abs(mats).max(axis=(-2, -1)))
        np.testing.assert_array_equal(spanning_frames(mats)[1], diag_ref.min(axis=-1) > 1e-14 * scale)

    @pytest.mark.parametrize("ambient, dim", [s for s in QR_SHAPES if s[1] > 1])
    def test_dependent_and_nearly_parallel_columns_get_lapacks_verdicts(self, ambient, dim):
        rng = np.random.default_rng(311 + 11 * ambient + dim)
        mats = rng.standard_normal((6, self.COUNT, ambient, dim))
        mats[0, :, :, -1] = 0.0  # one zero column
        mats[1, :, :, 0] = 0.0
        mats[2, :, :, -1] = 3.0 * mats[2, :, :, 0]  # parallel to the last bit or so
        for k, gap in ((3, 1e-6), (4, 1e-12), (5, 1e-17)):  # nearly parallel
            mats[k, :, :, -1] = mats[k, :, :, 0] + gap * rng.standard_normal((self.COUNT, ambient))
        independent = spanning_frames(mats)[1]
        frames, diag = _lapack_qr(mats)
        scale = np.maximum(1.0, np.abs(mats).max(axis=(-2, -1)))
        np.testing.assert_array_equal(independent, diag.min(axis=-1) > 1e-14 * scale)
        assert not independent[:3].any() and independent[3].all() and not independent[5].any()
        # What the rank test lets through is orthonormal, with R to round-off
        # of the columns' size; at condition number 1e6 the frame is LAPACK's
        # to about u * 1e6.
        q, ours = sign_fixed_qr(mats[3:5])
        assert frames_orthonormal(q).all()
        size = np.abs(mats[3:5]).max(axis=-2)
        assert (np.abs(ours - diag[3:5]) <= 64.0 * UNIT_ROUNDOFF * size).all()
        eye = np.broadcast_to(np.eye(dim), (self.COUNT, dim, dim))
        np.testing.assert_allclose(np.swapaxes(q[0], -1, -2) @ frames[3], eye, rtol=0, atol=1e-8)

    def test_zero_column_gives_a_zero_diagonal_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, diag = sign_fixed_qr(np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 0.0]]))
            assert diag[0] == 0.0 and np.isnan(q).all()
            assert not spanning_frames(np.zeros((4, 3, 2)))[1].any()

    @pytest.mark.parametrize("value", [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, -5e-324, 1.0, -1.0])
    def test_one_dimensional_rotation_is_the_svd_routes_bit_for_bit(self, value):
        m = np.full((3, 1, 1), value)
        np.testing.assert_array_equal(rotation_align(m), _svd_rotation_align(m))
        assert rotation_align(np.array([[value]])).tolist() == [[1.0]]

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_two_dimensional_rotation_is_the_svd_routes_and_maximal(self, scale):
        rng = np.random.default_rng(313)
        m = scale * rng.standard_normal((600, 2, 2))
        m[:50, 1] = 2.0 * m[:50, 0]  # rank one
        # near ties: a reflection's shape, whose rotation part is 1e-9 of it
        angles = rng.uniform(0.0, 2.0 * np.pi, 100)
        c, s = np.cos(angles), np.sin(angles)
        m[500:] = scale * (np.stack([np.stack([c, s], -1), np.stack([s, -c], -1)], -2) + 1e-9 * m[500:] / scale)
        q = rotation_align(m)
        np.testing.assert_allclose(q[:500], _svd_rotation_align(m[:500]), rtol=0, atol=1e-14)
        np.testing.assert_allclose(determinant(q), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.swapaxes(q, -1, -2) @ q, np.broadcast_to(np.eye(2), q.shape), atol=1e-15)
        best = np.trace(np.swapaxes(q, -1, -2) @ m, axis1=-2, axis2=-1)
        others = np.stack([rotation2(a) for a in np.linspace(0.0, 2.0 * np.pi, 721)])
        traces = np.trace(np.swapaxes(others, -1, -2)[None] @ m[:, None], axis1=-2, axis2=-1)
        assert (best[:, None] >= traces - 1e-14 * np.abs(m).sum(axis=(-2, -1))[:, None]).all()

    def test_two_dimensional_tie_is_the_identity(self):
        # m00 + m11 = m10 - m01 = 0: tr(Q^T m) = 0 for every rotation
        ties = np.array([[[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, -1.0]], [[-3.0, 0.5], [0.5, 3.0]]])
        np.testing.assert_array_equal(rotation_align(ties), np.broadcast_to(np.eye(2), ties.shape))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_determinant_signs_equal_lu(self, dim):
        rng = np.random.default_rng(317 + dim)
        m = rng.standard_normal((2000, dim, dim))
        np.testing.assert_allclose(determinant(m), np.linalg.det(m), rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(determinant(m) > 0.0, np.linalg.det(m) > 0.0)
        rotations = _lapack_qr(m)[0]
        np.testing.assert_array_equal(determinant(rotations) > 0.0, np.linalg.det(rotations) > 0.0)

    @pytest.mark.parametrize("rows", [3, 4, 6, 9])
    def test_two_column_defect_keeps_the_three_row_bits(self, rows):
        # At D = 3 the wedge form adds the cross product's terms in its
        # order; zero rows below add exact zeros.
        rng = np.random.default_rng(331 + rows)
        x = rng.standard_normal((500, 3, 2)) * 10.0 ** rng.integers(-3, 4, size=(500, 1, 2))
        a0, a1, a2 = x[..., 0, 0], x[..., 1, 0], x[..., 2, 0]
        b0, b1, b2 = x[..., 0, 1], x[..., 1, 1], x[..., 2, 1]
        sq0, sq1 = a0 * a0 + a1 * a1 + a2 * a2, b0 * b0 + b1 * b1 + b2 * b2
        cross = np.sqrt((a1 * b2 - a2 * b1) ** 2 + (a2 * b0 - a0 * b2) ** 2 + (a0 * b1 - a1 * b0) ** 2)
        total = np.sqrt(sq0 + sq1 + 2.0 * cross)
        gap = np.hypot(sq0 - sq1, 2.0 * (a0 * b0 + a1 * b1 + a2 * b2)) / np.where(total > 0.0, total, 1.0)
        cross_form = np.hypot(total - 2.0, gap) / np.sqrt(2.0)
        np.testing.assert_array_equal(isometry_defect(_padded(x, rows)), cross_form)

    @pytest.mark.parametrize("rows", [10, 200_000])
    def test_wide_two_column_defect_runs_the_svd(self, rows, monkeypatch):
        # The wedge has D(D - 1)/2 terms; past nine rows the SVD, linear in
        # D, answers instead, as a zero-padded lemma run in a wide R^D needs.
        calls = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or real(*a, **k))
        x = _padded(np.random.default_rng(337).standard_normal((3, 9, 2)), rows)
        expected = _svd_defect(x, False)
        calls.clear()
        np.testing.assert_allclose(isometry_defect(x), expected, rtol=1e-13, atol=1e-15)
        assert calls == [(3, rows, 2)]
