import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidkit.metric_algebra import (
    OrientedSubspace,
    SpdMetric,
    checked_frames,
    checked_grams,
    checked_spanning_frames,
    complement_frames,
    frame_distance,
    frames_orthonormal,
    frobenius_norm,
    isometry_defect,
    metric_distance,
    metric_norm,
    nearest_isometry,
    nearest_isometry_into_plane,
    oriented_complement,
    orientation_preserved_under_projection,
    plane_coordinates,
    project_onto,
    projection_error_bound_check,
    projection_keeps_orientation,
    projection_terms,
    rotation_align,
    rotation_set_distance,
    so_set_distance,
    spanning_frames,
    spd_inv_sqrt,
    spd_sqrt,
    subspace_distance,
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

    def test_sandwich_bound(self):
        g = SpdMetric(np.diag([0.25, 3.0]))
        assert g.sandwich_bound() == pytest.approx(4.0)
        assert SpdMetric.euclidean(3).sandwich_bound() == pytest.approx(1.0)

    def test_sqrt_roundtrip(self):
        rng = np.random.default_rng(7)
        g = SpdMetric(oracles.random_spd(rng, 3))
        np.testing.assert_allclose(g.sqrt @ g.sqrt, g.gram, atol=1e-12)
        np.testing.assert_allclose(g.sqrt @ g.inv_sqrt, np.eye(3), atol=1e-12)


class TestFrobeniusNorm:
    def test_identity_euclidean(self):
        assert frobenius_norm(np.eye(2), E2) == pytest.approx(np.sqrt(2.0))

    def test_identity_scaled_metric(self):
        g = SpdMetric(4.0 * np.eye(2))
        assert frobenius_norm(np.eye(2), g) == pytest.approx(1.0 / np.sqrt(2.0))

    def test_rank_one(self):
        assert frobenius_norm(np.diag([3.0, 0.0]), E2) == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            frobenius_norm(np.eye(3), E2)

    def test_matches_cholesky_basis_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            gram = oracles.random_spd(rng, 3)
            t = rng.standard_normal((5, 3))
            assert frobenius_norm(t, SpdMetric(gram)) == pytest.approx(
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
        lam = g.sandwich_bound()
        metric = frobenius_norm(t, g)
        euclid = float(np.linalg.norm(t))
        assert euclid - metric / np.sqrt(lam) >= -1e-10
        assert np.sqrt(lam) * metric - euclid >= -1e-10


class TestMetricDistance:
    def test_zero(self):
        assert metric_distance(E2, SpdMetric(np.eye(2))) == 0.0

    def test_scaled(self):
        assert metric_distance(E2, SpdMetric(4.0 * np.eye(2))) == pytest.approx(
            3.0 * np.sqrt(2.0)
        )

    def test_off_diagonal(self):
        g2 = SpdMetric(np.array([[1.0, 0.1], [0.1, 1.0]]))
        assert metric_distance(E2, g2) == pytest.approx(0.1 * np.sqrt(2.0))


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
            lam = max(gx.sandwich_bound(), gy.sandwich_bound())
            bound = 0.5 * np.sqrt(lam) * metric_distance(gx, gy)
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
        plane = OrientedSubspace.coordinate(3, (0, 1))
        t = plane.frame @ np.diag([2.0, 1.0])
        r, dist = nearest_isometry_into_plane(t, E2, plane, oriented=True)
        assert dist == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(r, plane.frame, atol=1e-12)

    def test_leak_rejected(self):
        plane = OrientedSubspace.coordinate(3, (0, 1))
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
        a = OrientedSubspace.coordinate(2, (0,))
        b = OrientedSubspace.coordinate(2, (1,))
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
        comp = oriented_complement(OrientedSubspace.coordinate(3, (0, 1)))
        np.testing.assert_allclose(comp.frame[:, 0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_line_in_plane(self):
        comp = oriented_complement(OrientedSubspace.coordinate(2, (0,)))
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
            oriented_complement(OrientedSubspace.coordinate(2, (0, 1)))


class TestProjection:
    def test_in_span_fixed(self):
        a = OrientedSubspace.coordinate(3, (0, 1))
        v = np.array([1.0, -2.0, 0.0])
        np.testing.assert_allclose(project_onto(a, v), v)

    def test_orthogonal_killed(self):
        a = OrientedSubspace.coordinate(3, (0, 1))
        np.testing.assert_allclose(project_onto(a, np.array([0.0, 0.0, 5.0])), 0.0, atol=1e-15)

    def test_pythagoras(self):
        rng = np.random.default_rng(43)
        a = OrientedSubspace(oracles.random_frame(rng, 5, 2))
        v = rng.standard_normal(5)
        pv = project_onto(a, v)
        assert np.dot(pv, pv) + np.dot(v - pv, v - pv) == pytest.approx(np.dot(v, v), rel=1e-12)
        np.testing.assert_allclose(project_onto(a, pv), pv, atol=1e-12)


class TestOrientationUnderProjection:
    def test_same_plane(self):
        a = OrientedSubspace.coordinate(3, (0, 1))
        assert orientation_preserved_under_projection(a, a)

    def test_reversed_line(self):
        a = OrientedSubspace(np.array([[1.0], [0.0]]))
        b = OrientedSubspace(np.array([[-1.0], [0.0]]))
        assert not orientation_preserved_under_projection(a, b)

    def test_orthogonal_line_degenerate(self):
        a = OrientedSubspace.coordinate(2, (0,))
        b = OrientedSubspace.coordinate(2, (1,))
        assert not orientation_preserved_under_projection(a, b)

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
            violations += not orientation_preserved_under_projection(p0, p)
        assert tested > 200
        assert violations == 0


class TestProjectionErrorBound:
    def test_identical_planes(self):
        plane = OrientedSubspace.coordinate(4, (0, 1))
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
        p0 = OrientedSubspace.coordinate(4, (0, 1))
        p = OrientedSubspace.coordinate(4, (0,))
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
            [frobenius_norm(t, g) for t, g in zip(ts, metrics)],
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
            [orientation_preserved_under_projection(a, b) for a, b in pairs],
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
        plane = OrientedSubspace.coordinate(3, (0, 1))
        bad = plane.frame @ np.eye(2)
        bad[2, 0] = 1e-6
        _raises_alike(
            lambda: nearest_isometry_into_plane(bad, E2, plane),
            lambda: plane_coordinates(self._stack_with(maps, bad), self._stack_with(frames, plane.frame)),
        )
