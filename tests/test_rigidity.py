import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidkit import rigidity
from rigidkit.fields import (
    DegenerateFieldError,
    GridDomain,
    GridMap,
    ImmersionField,
    MetricField,
    TargetSpace,
    energies,
    oscillation_and_diameter,
)
from rigidkit.metric_algebra import OrientedSubspace, subspace_distance
from rigidkit.rigidity import (
    _bound_slack,
    _bound_survivors,
    _gap_directions,
    _gap_scores,
    _oriented_gap_sq,
    _score_bounds,
    asymptotic_sequence_run,
    choose_base_point,
    euclidean_best_rotation,
    local_rigidity,
    metric_rigidity,
    multiscale_fit,
    tangent_plane_field,
    translation_modulus,
)
from rigidkit.scenarios import (
    ScenarioSpec,
    build_metric,
    build_scenario,
    curvature_curve,
    graph_surface,
    latitude_circle,
    perturbed_identity,
    perturbed_inclusion,
)

from oracles import random_frame


def rotation2(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def flat_inclusion(n=8, length=1.0):
    grid = GridDomain(2, length, n)
    coords = grid.node_coordinates()
    values = np.concatenate([coords, np.zeros(grid.node_shape + (1,))], axis=-1)
    return ImmersionField(grid, TargetSpace.euclidean(2), values)


def unfiltered_base_point(planes, p, seed=0):
    """The base-point scan with no bound filter: every candidate scored against
    the whole pool in 512-row blocks, argmin taking the lowest index on ties."""
    good = ~planes.degenerate.reshape(-1)
    shape = planes.complements.shape
    comps = planes.complements.reshape(-1, shape[-2], shape[-1])
    good_idx = np.nonzero(good)[0]
    if good_idx.size > 4096:
        rng = np.random.default_rng(seed)
        candidates = np.sort(rng.choice(good_idx, 4096, replace=False))
    else:
        candidates = good_idx
    pool = comps[good]
    r = shape[-1]
    if r == 1 and p == 2.0:
        scores = -(comps[candidates][:, :, 0] @ pool[:, :, 0].sum(axis=0))
    else:
        scores = np.empty(candidates.size)
        flat_pool = pool.reshape(pool.shape[0], -1)
        if r == 2:
            spun_flat = np.stack([pool[:, :, 1], -pool[:, :, 0]], axis=-1).reshape(pool.shape[0], -1)
        for lo in range(0, candidates.size, 512):
            block = comps[candidates[lo : lo + 512]].reshape(-1, shape[-2] * shape[-1])
            if r == 1:
                gap_sq = np.clip(2.0 - 2.0 * block @ flat_pool.T, 0.0, None)
            else:
                a = block @ flat_pool.T
                b = block @ spun_flat.T
                gap_sq = np.clip(4.0 - 2.0 * np.hypot(a, b), 0.0, None)
            scores[lo : lo + 512] = np.sum(gap_sq ** (p / 2.0), axis=-1)
    winner = int(candidates[int(np.argmin(scores))])
    return tuple(int(i) for i in np.unravel_index(winner, planes.grid.cell_shape))


def clifford_patch(n):
    """Patch of the Clifford torus in the unit 3-sphere: complements are 2-frames in R^4."""
    grid = GridDomain(2, 1.0, n)
    x = grid.node_coordinates() * 1.5
    values = np.stack(
        [np.cos(x[..., 0]), np.sin(x[..., 0]), np.cos(x[..., 1]), np.sin(x[..., 1])], axis=-1
    ) / np.sqrt(2.0)
    return ImmersionField(grid, TargetSpace.sphere(2, 1.0), values)


def family_field(family):
    if family == "graph":
        u = graph_surface(GridDomain(2, 1.0, 24), 0.08)
    elif family == "curve_constant":
        u = curvature_curve(GridDomain(1, 1.0, 300), kappa=1.7)
    elif family == "curve_wave":
        u = curvature_curve(GridDomain(1, 1.0, 300), kappa=1.3, profile="wave")
    elif family == "latitude":
        u = latitude_circle(GridDomain(1, 1.5, 300), 1.0, 1.1)
    elif family == "perturbed_sheet":
        u = perturbed_inclusion(GridDomain(2, 1.0, 24), 0.05, seed=3)
    else:
        u = perturbed_inclusion(GridDomain(1, 1.0, 300), 0.05, kappa=1.0, seed=4)
    return u


def family_planes(family):
    return tangent_plane_field(family_field(family))


def pinned_fields(name):
    """The immersions the plane and rank-test formulas are pinned on: a
    `family_field` family, the Clifford patch, or (for "rank_deficient") a
    sheet whose row of cells at 3 loses a column, a latitude arc with a
    zero-length cell, and a segment whose cells 2 and 5 have differentials of
    length 0.75e-12 and 1.5e-12, either side of the rank tolerance."""
    if name == "clifford":
        return [clifford_patch(12)]
    if name != "rank_deficient":
        return [family_field(name)]
    sheet = flat_inclusion(8)
    values = sheet.values.copy()
    values[4, :, 0] = values[3, :, 0]
    arc = latitude_circle(GridDomain(1, 1.2, 32), 1.0, 1.0)
    arc_values = arc.values.copy()
    arc_values[17] = arc_values[16]
    grid = GridDomain(1, 1.0, 8)
    steps = np.full(8, grid.spacing)
    steps[[2, 5]] = [0.75e-12 * grid.spacing, 1.5e-12 * grid.spacing]
    x = np.concatenate([[0.0], np.cumsum(steps)])
    return [
        ImmersionField(sheet.grid, sheet.target, values),
        ImmersionField(arc.grid, arc.target, arc_values),
        ImmersionField(grid, TargetSpace.euclidean(1), np.stack([x, np.zeros(9)], axis=-1)),
    ]


def singular_value_degenerate(u):
    """The rank test as two value-only SVDs: of the differential and, on
    spheres, of the differential with the radial direction appended."""
    du = u.differential
    sing = np.linalg.svd(du, compute_uv=False)
    degenerate = sing[..., -1] <= 1e-12 * np.maximum(sing[..., 0], 1.0)
    if u.target.kind == "sphere":
        radial = u.cell_points / np.linalg.norm(u.cell_points, axis=-1, keepdims=True)
        window = np.concatenate([du, radial[..., :, None]], axis=-1)
        win_sing = np.linalg.svd(window, compute_uv=False)
        degenerate = degenerate | (win_sing[..., -1] <= 1e-12 * np.maximum(win_sing[..., 0], 1.0))
    return degenerate


def qr_tangent_planes(u):
    """Sign-fixed QR frames of the differential and the normal (radial) complement,
    its last column flipped to a positive [frame | complement] determinant."""
    d, big = u.grid.dim, u.target.ambient_dim
    q, r = np.linalg.qr(u.differential)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs = np.where(signs == 0.0, 1.0, signs)
    frames = q * signs[..., None, :]
    if u.target.kind == "euclidean":
        comp = u.normal[..., :, None]
    else:
        radial = u.cell_points / np.linalg.norm(u.cell_points, axis=-1, keepdims=True)
        comp = np.stack([u.normal, radial], axis=-1)
    comp = comp.copy()
    flip = np.linalg.det(np.concatenate([frames, comp], axis=-1)) < 0
    comp[flip, :, -1] = -comp[flip, :, -1]
    frames[u.degenerate] = np.eye(big)[:, :d]
    comp[u.degenerate] = np.eye(big)[:, d:]
    return frames, comp, flip


@st.composite
def complement_clouds(draw):
    """Complement frames for the bound: unit lines in R^2..R^4 or orthonormal
    2-frames in R^3, spread over the sphere or bunched near one direction,
    optionally with duplicated rows, antipodal partners, or a single row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 24))
    spread = draw(st.sampled_from([1e-6, 1e-3, 0.3, 10.0]))
    if draw(st.booleans()):
        dim = rng.integers(2, 5)
        vecs = rng.normal(size=dim) + spread * rng.normal(size=(n, dim))
        frames = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True))[:, :, None]
        flipped = -frames
    else:
        mats = rng.normal(size=(3, 2)) + spread * rng.normal(size=(n, 3, 2))
        q, r = np.linalg.qr(mats)
        frames = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
        flipped = frames[:, :, ::-1]
    if draw(st.booleans()):
        frames = np.concatenate([frames, frames[rng.integers(0, n, size=n)]])
    if draw(st.booleans()):
        frames = np.concatenate([frames, flipped[: draw(st.integers(1, n))]])
    return np.ascontiguousarray(frames)


class TestEuclideanBestRotation:
    def test_constant_rotation_recovered(self):
        r0 = rotation2(0.7)
        du = np.broadcast_to(r0, (40, 2, 2))
        fit = euclidean_best_rotation(du, cell_volume=0.1)
        np.testing.assert_allclose(fit.rotation, r0, atol=1e-12)
        assert fit.lhs <= 1e-24
        assert fit.constant == 0.0

    def test_conformal_map_has_constant_one(self):
        du = np.broadcast_to(1.3 * np.eye(2), (25, 2, 2))
        fit = euclidean_best_rotation(du, cell_volume=1.0 / 25)
        np.testing.assert_allclose(fit.rotation, np.eye(2), atol=1e-12)
        assert fit.lhs == pytest.approx(fit.rhs, rel=1e-12)
        assert fit.constant == pytest.approx(1.0, rel=1e-12)

    def test_p3_descent_improves_on_seed(self):
        rng = np.random.default_rng(0)
        du = np.stack([rotation2(a) for a in rng.uniform(-0.6, 0.6, 30)])
        du += 0.2 * rng.standard_normal(du.shape)
        seed_fit = euclidean_best_rotation(du, p=2.0)

        def objective(rot, p):
            return np.sum(np.linalg.norm(du - rot, axis=(1, 2)) ** p)

        fit = euclidean_best_rotation(du, p=3.0)
        assert objective(fit.rotation, 3.0) <= objective(seed_fit.rotation, 3.0) + 1e-12
        np.testing.assert_allclose(fit.rotation.T @ fit.rotation, np.eye(2), atol=1e-10)
        assert np.linalg.det(fit.rotation) == pytest.approx(1.0, abs=1e-10)

    def test_bump_sweep_constant_bounded(self):
        grid = GridDomain(2, 1.0, 32)
        constants = []
        for eps in (1e-1, 1e-2, 1e-3):
            u = perturbed_identity(grid, eps, rotation=0.4, seed=3)
            du = u.differential.reshape(-1, 2, 2)
            constants.append(euclidean_best_rotation(du, grid.cell_volume).constant)
        assert max(constants) <= 10.0

    def test_scaling_invariance(self):
        grid = GridDomain(2, 1.0, 16)
        u = perturbed_identity(grid, 0.05, seed=1)
        base = euclidean_best_rotation(u.differential.reshape(-1, 2, 2), grid.cell_volume)
        s = 3.7
        scaled_grid = GridDomain(2, s * 1.0, 16)
        scaled = GridMap(scaled_grid, s * u.values)
        other = euclidean_best_rotation(
            scaled.differential.reshape(-1, 2, 2), scaled_grid.cell_volume
        )
        assert other.constant == pytest.approx(base.constant, rel=1e-8)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_lazy_integrals_equal_eager_formulas(self, p):
        rng = np.random.default_rng(5)
        du = np.stack([rotation2(a) for a in rng.uniform(-0.6, 0.6, 40)])
        du += 0.2 * rng.standard_normal(du.shape)
        du[3] = np.diag([1.0, -1.0])  # a reflected cell, where the oriented defect differs
        mask = np.ones(40, dtype=bool)
        mask[7] = False
        with mock.patch.object(rigidity, "isometry_defect", wraps=rigidity.isometry_defect) as spy:
            fit = euclidean_best_rotation(du, cell_volume=0.025, p=p, mask=mask)
            assert spy.call_count == 0
            used = du[mask]
            diff = used - fit.rotation
            lhs = float(0.025 * np.sum(np.sqrt(np.sum(diff * diff, axis=(-2, -1))) ** p))
            sing = np.linalg.svd(used, compute_uv=False)
            sing[:, -1] = np.where(np.linalg.det(used) < 0, -sing[:, -1], sing[:, -1])
            rhs = float(0.025 * np.sum(np.sqrt(np.sum((sing - 1.0) ** 2, axis=-1)) ** p))
            assert fit.constant == lhs / rhs
            assert (fit.lhs, fit.rhs) == (lhs, rhs)
            assert spy.call_count == 1

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateFieldError):
            euclidean_best_rotation(np.zeros((10, 2, 2)))
        du = np.broadcast_to(np.eye(2), (10, 2, 2))
        with pytest.raises(DegenerateFieldError):
            euclidean_best_rotation(du, mask=np.zeros(10, dtype=bool))
        with pytest.raises(ValueError):
            euclidean_best_rotation(du, p=1.0)
        with pytest.raises(ValueError):
            euclidean_best_rotation(np.zeros((10, 3, 2)))


class TestMetricRigidity:
    def test_flat_metric_reduces_to_euclidean(self):
        grid = GridDomain(2, 1.0, 16)
        u = perturbed_identity(grid, 0.08, rotation=0.3, seed=5)
        g = build_metric(grid, "flat")
        report = metric_rigidity(u, g, p=2.0)
        fit = euclidean_best_rotation(u.differential.reshape(-1, 2, 2), grid.cell_volume)
        np.testing.assert_allclose(report.rotation, fit.rotation, atol=1e-12)
        assert report.lhs == pytest.approx(fit.lhs, rel=1e-12)
        assert report.stretch == pytest.approx(fit.rhs, rel=1e-12)
        assert report.osc_term == 0.0

    def test_exact_metric_isometry_has_zero_lhs(self):
        grid = GridDomain(2, 1.0, 12)
        gram = np.array([[4.0, 0.0], [0.0, 1.0]])
        g = MetricField.constant(grid, gram)
        stretch_map = rotation2(0.9) @ np.array([[2.0, 0.0], [0.0, 1.0]])
        u = GridMap(grid, grid.node_coordinates() @ stretch_map.T)
        report = metric_rigidity(u, g)
        assert report.lhs <= 1e-22
        assert report.constant == 0.0
        np.testing.assert_allclose(report.rotation, stretch_map, atol=1e-10)

    def test_rotation_satisfies_metric_constraint(self):
        grid = GridDomain(2, 1.0, 16)
        g = build_metric(grid, "linear", slope=0.4)
        u = perturbed_identity(grid, 0.05, seed=2)
        report = metric_rigidity(u, g, base_index=(3, 9))
        base_gram = g.cell_grams[3, 9]
        np.testing.assert_allclose(report.rotation.T @ report.rotation, base_gram, atol=1e-10)
        assert report.base_index == (3, 9)

    def test_constant_stability_across_grids_and_sizes(self):
        constants = []
        for n in (16, 32):
            grid = GridDomain(2, 1.0, n)
            g = build_metric(grid, "linear", slope=0.2)
            for eps in (1e-1, 1e-2):
                u = perturbed_identity(grid, eps, seed=4)
                constants.append(metric_rigidity(u, g).constant)
        assert max(constants) / min(constants) <= 2.0

    def test_input_contracts(self):
        grid = GridDomain(2, 1.0, 8)
        g = build_metric(grid, "flat")
        curve = GridMap(GridDomain(1, 1.0, 8), np.zeros((9, 3)))
        with pytest.raises(ValueError):
            metric_rigidity(curve, g)
        u = perturbed_identity(grid, 0.01)
        with pytest.raises(ValueError):
            metric_rigidity(u, build_metric(GridDomain(2, 1.0, 4), "flat"))
        with pytest.raises(ValueError):
            metric_rigidity(u, g, base_index=(8, 0))


class TestTangentPlaneField:
    def test_flat_inclusion_planes(self):
        u = flat_inclusion(6)
        planes = tangent_plane_field(u)
        expected = np.broadcast_to(np.eye(3)[:, :2], planes.frames.shape)
        np.testing.assert_allclose(planes.frames, expected, atol=1e-14)
        comp = np.broadcast_to([0.0, 0.0, 1.0], planes.complements[..., 0].shape)
        np.testing.assert_allclose(planes.complements[..., 0], comp, atol=1e-14)
        assert planes.plane((0, 0)).dim == 2

    def test_circle_complement_is_the_normal_line(self):
        grid = GridDomain(1, np.pi / 2, 64)
        u = curvature_curve(grid, kappa=1.0)
        planes = tangent_plane_field(u)
        np.testing.assert_allclose(planes.complements[..., 0], u.normal, atol=1e-12)

    def test_sphere_curve_complement_frames(self):
        u = latitude_circle(GridDomain(1, 1.0, 64), rho=1.0, polar=np.pi / 3)
        planes = tangent_plane_field(u)
        comp = planes.complements
        gram = np.einsum("...ij,...ik->...jk", comp, comp)
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), gram.shape), atol=1e-10)
        stacked = np.concatenate([planes.frames, comp], axis=-1)
        assert (np.linalg.det(stacked) > 0).all()
        for c in (3, 17, 40):
            gap = subspace_distance(
                OrientedSubspace(comp[c]), OrientedSubspace(comp[c + 1])
            )
            frame_step = np.sqrt(
                np.sum((u.normal[c + 1] - u.normal[c]) ** 2)
                + np.sum((comp[c + 1, :, 1] - comp[c, :, 1]) ** 2)
            )
            assert gap <= frame_step + 1e-10

    def test_degenerate_cells_get_placeholders(self):
        grid = GridDomain(1, 1.0, 8)
        values = np.stack([grid.node_axis(), np.zeros(9)], axis=-1)
        values[4] = values[3]
        u = ImmersionField(grid, TargetSpace.euclidean(1), values)
        planes = tangent_plane_field(u)
        assert planes.degenerate[3]
        np.testing.assert_allclose(planes.frames[3], [[1.0], [0.0]])
        np.testing.assert_allclose(planes.complements[3], [[0.0], [1.0]])

    @pytest.mark.parametrize(
        "name", ["curve_wave", "latitude", "graph", "perturbed_sheet", "clifford", "rank_deficient"]
    )
    def test_planes_equal_the_qr_formula(self, name):
        for u in pinned_fields(name):
            planes = tangent_plane_field(u)
            frames, comp, flip = qr_tangent_planes(u)
            np.testing.assert_array_equal(planes.frames, frames)
            np.testing.assert_array_equal(planes.complements, comp)
            np.testing.assert_array_equal(planes.degenerate, u.degenerate)
            assert planes.frames is u.frames and planes.complements is u.complements
            if name == "clifford":
                # the determinant fix turns the radial column inward on every cell
                assert flip.all()

    @pytest.mark.parametrize(
        "name",
        ["graph", "curve_constant", "curve_wave", "latitude", "perturbed_sheet", "perturbed_curve",
         "rank_deficient"],
    )
    def test_degenerate_equals_the_singular_value_rule(self, name):
        for u in pinned_fields(name):
            np.testing.assert_array_equal(u.degenerate, singular_value_degenerate(u))
        if name == "rank_deficient":
            sheet, arc, segment = pinned_fields(name)
            assert sheet.degenerate.sum() == 8 and sheet.degenerate[3].all()
            assert arc.degenerate_count == 1 and arc.degenerate[16]
            assert segment.degenerate.tolist() == [i == 2 for i in range(8)]


class TestOrientedGapClosedForm:
    @pytest.mark.parametrize("ambient,r", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_matches_generic_subspace_distance(self, ambient, r):
        rng = np.random.default_rng(17)
        base = random_frame(rng, ambient, r)
        frames = np.stack([random_frame(rng, ambient, r) for _ in range(200)])
        fast = np.sqrt(_oriented_gap_sq(frames, base))
        for k in range(0, 200, 7):
            slow = subspace_distance(OrientedSubspace(frames[k]), OrientedSubspace(base))
            assert fast[k] == pytest.approx(slow, abs=1e-10)


class TestChooseBasePoint:
    def test_constant_field_ties_to_first_cell(self):
        planes = tangent_plane_field(flat_inclusion(5))
        assert choose_base_point(planes) == (0, 0)

    def test_circle_arc_matches_exhaustive_search(self):
        grid = GridDomain(1, np.pi / 2, 24)
        planes = tangent_plane_field(curvature_curve(grid, kappa=1.0))
        for p in (2.0, 4.0):
            chosen = choose_base_point(planes, p=p)
            objective = []
            for c in range(24):
                total = 0.0
                for y in range(24):
                    total += (
                        subspace_distance(planes.complement((y,)), planes.complement((c,)))
                        ** p
                    )
                objective.append(total)
            # the arc is symmetric, so the two middle cells tie up to rounding
            assert objective[chosen[0]] <= min(objective) + 1e-9
            assert 8 <= chosen[0] < 16
            assert objective[chosen[0]] <= np.mean(objective) + 1e-12

    def test_subsampled_candidates_are_deterministic(self):
        grid = GridDomain(1, 1.0, 5000)
        planes = tangent_plane_field(curvature_curve(grid, kappa=1.0))
        first = choose_base_point(planes, seed=11)
        second = choose_base_point(planes, seed=11)
        assert first == second

    def test_all_degenerate_rejected(self):
        grid = GridDomain(1, 1.0, 4)
        u = ImmersionField(grid, TargetSpace.euclidean(1), np.zeros((5, 2)))
        with pytest.raises(DegenerateFieldError):
            choose_base_point(tangent_plane_field(u))

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 8.0])
    @pytest.mark.parametrize(
        "family",
        ["graph", "curve_constant", "curve_wave", "latitude", "perturbed_sheet", "perturbed_curve"],
    )
    def test_filter_matches_unfiltered_scan(self, family, p):
        planes = family_planes(family)
        assert choose_base_point(planes, p) == unfiltered_base_point(planes, p)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("kind", ["latitude", "constant_curve"])
    def test_mirror_twins_resolve_as_in_unfiltered_scan(self, kind, p):
        # Even cell counts on symmetric arcs: the two middle cells tie in exact
        # arithmetic and round-off picks the winner.
        if kind == "latitude":
            planes = tangent_plane_field(latitude_circle(GridDomain(1, 1.2, 512), 1.0, 1.0))
        else:
            planes = tangent_plane_field(curvature_curve(GridDomain(1, 1.0, 512), kappa=1.4))
        comps = planes.complements.reshape(-1, *planes.complements.shape[-2:])
        twins = _gap_scores(comps[255:257], comps, p)
        assert twins[0] == pytest.approx(twins[1], rel=1e-13)
        expected = unfiltered_base_point(planes, p)
        assert expected in ((255,), (256,))
        assert choose_base_point(planes, p) == expected

    def test_full_circle_normals_summing_to_zero(self):
        planes = tangent_plane_field(curvature_curve(GridDomain(1, 2.0 * np.pi, 400), kappa=1.0))
        comps = planes.complements.reshape(-1, 2, 1)
        assert np.linalg.norm(comps[:, :, 0].sum(axis=0)) < 1e-9
        for p in (2.5, 3.0):
            assert choose_base_point(planes, p) == unfiltered_base_point(planes, p)
        # an exactly cancelling pool has no anchor direction: every row is kept
        ring = np.concatenate([comps[:100], -comps[:100]])
        assert _bound_survivors(ring, ring, 3.0).all()

    def test_keep_everything_cases(self):
        r4 = tangent_plane_field(clifford_patch(12))
        comps = r4.complements.reshape(-1, 4, 2)
        assert comps.shape[0] ** 2 >= rigidity._BOUND_MIN_PAIRS
        assert _gap_directions(comps) is None
        assert _bound_survivors(comps, comps, 3.0).all()
        assert choose_base_point(r4, 3.0) == unfiltered_base_point(r4, 3.0)
        planes = family_planes("latitude")
        comps = planes.complements.reshape(-1, 3, 2)
        assert _bound_survivors(comps, comps, 1.5).all()
        assert choose_base_point(planes, 1.5) == unfiltered_base_point(planes, 1.5)
        assert not _bound_survivors(comps, comps, 3.0).all()
        small = tangent_plane_field(latitude_circle(GridDomain(1, 0.3, 64), 1.0, 1.1))
        assert 64**2 < rigidity._BOUND_MIN_PAIRS
        with mock.patch.object(rigidity, "_bound_survivors", side_effect=AssertionError):
            assert choose_base_point(small, 3.0) == unfiltered_base_point(small, 3.0)

    def test_subsampled_candidates_match_unfiltered_scan(self):
        planes = tangent_plane_field(curvature_curve(GridDomain(1, 1.0, 5000), kappa=1.2))
        assert choose_base_point(planes, 3.0, seed=11) == unfiltered_base_point(planes, 3.0, seed=11)

    @settings(max_examples=300, deadline=None)
    @given(frames=complement_clouds(), p=st.one_of(st.just(2.0), st.floats(2.0, 12.0)))
    def test_bound_stays_below_score(self, frames, p):
        w = _gap_directions(frames)
        # the embedding the bound rests on: |w_c - w_y|^2 is the oriented gap^2
        gap_sq = _oriented_gap_sq(frames, frames[0])
        assert np.abs(gap_sq - np.sum((w - w[0]) ** 2, axis=1)).max() <= 64 * 2.0**-53
        scores = _gap_scores(frames, frames, p)
        keep = _bound_survivors(frames, frames, p)
        assert keep[scores == scores.min()].all()
        bounds = _score_bounds(w, w, p)
        if bounds is None:
            assert keep.all()
            return
        bound, base = bounds
        assert np.all(bound <= scores + _bound_slack(scores, base, frames.shape[0], p))


class TestLocalRigidity:
    def test_flat_inclusion_is_exactly_rigid(self):
        u = flat_inclusion(8)
        g = build_metric(u.grid, "flat")
        report = local_rigidity(u, g)
        assert report.lhs <= 1e-24
        assert report.constant == 0.0
        assert report.plane_variation == pytest.approx(0.0, abs=1e-20)

    def test_rotation_constraint_with_varying_metric(self):
        grid = GridDomain(2, 1.0, 16)
        g = build_metric(grid, "linear", slope=0.3)
        u = graph_surface(grid, 0.05)
        report = local_rigidity(u, g)
        base_gram = g.cell_grams[report.base_index]
        np.testing.assert_allclose(report.rotation.T @ report.rotation, base_gram, atol=1e-10)

    def test_graph_sweep_lhs_decreases_and_constant_stable(self):
        grid = GridDomain(2, 1.0, 32)
        g = build_metric(grid, "flat")
        lhs = []
        constants = []
        for eps in (1e-1, 3e-2, 1e-2):
            u = graph_surface(grid, eps)
            report = local_rigidity(u, g)
            lhs.append(report.lhs)
            # The map-Dirichlet part of the excess stays near 2|Q| on this
            # family while every deformation-driven quantity shrinks, so the
            # reported lhs/rhs ratio decays trivially.  Stability is measured
            # against the deformation-scaled remainder of the right side.
            bend = grid.diameter**2 * energies(u, g).bending
            constants.append(report.lhs / (report.osc_term + report.stretch + bend))
        assert lhs[0] > lhs[1] > lhs[2]
        assert max(constants) / min(constants) <= 4.0

    def test_shallow_arc_bend_term_dominates(self):
        reports = {}
        for arc in (0.2, 0.1):
            grid = GridDomain(1, arc, 64)
            u = curvature_curve(grid, kappa=1.0)
            reports[arc] = local_rigidity(u, build_metric(grid, "flat"))
        for rep in reports.values():
            assert rep.bend_scale > 10 * (rep.osc_term + rep.stretch)
        assert reports[0.2].constant <= reports[0.1].constant

    def test_explicit_base_point_and_validation(self):
        grid = GridDomain(1, np.pi / 2, 32)
        u = curvature_curve(grid, kappa=1.0)
        g = build_metric(grid, "flat")
        report = local_rigidity(u, g, base_index=5)
        assert report.base_index == (5,)
        with pytest.raises(ValueError):
            local_rigidity(u, build_metric(GridDomain(1, 1.0, 32), "flat"))


def family_case(family, metric_kind):
    """An immersion of one scenario family and a metric on its grid.

    In d = 1 the rotation group is trivial, and the graph surface's flattened
    differentials are nearly symmetric, so the p = 3 descent stays at the
    Procrustes seed; the seeded perturbed sheet moves it.
    """
    if family == "curve":
        grid = GridDomain(1, 1.0, 96)
        u = curvature_curve(grid, kappa=1.5, profile="wave")
    elif family == "graph":
        grid = GridDomain(2, 1.0, 12)
        u = graph_surface(grid, 0.05)
    elif family == "perturbed":
        grid = GridDomain(2, 1.0, 12)
        u = perturbed_inclusion(grid, 0.1, seed=3)
    else:
        grid = GridDomain(1, 1.0, 96)
        u = latitude_circle(grid, rho=1.0, polar=1.1)
    return u, build_metric(grid, metric_kind, seed=4)


FAMILIES_AND_EXPONENTS = [
    (f, p) for f in ("curve", "graph", "latitude", "perturbed") for p in (2.0, 3.0)
]


class TestLocalRigidityReduction:
    """The local pipeline is the metric-frame fit of the flattened immersion."""

    @pytest.mark.parametrize("family,p", FAMILIES_AND_EXPONENTS)
    def test_matches_metric_rigidity_of_flattened_map(self, family, p):
        u, g = family_case(family, "random")
        report = local_rigidity(u, g, p=p)
        frame = tangent_plane_field(u).frames[report.base_index]
        flattened = GridMap(u.grid, u.values @ frame, u.mode)
        mask = ~u.degenerate.reshape(-1)
        inner = metric_rigidity(flattened, g, report.base_index, p, mask)
        np.testing.assert_allclose(report.rotation, frame @ inner.rotation, rtol=0.0, atol=1e-12)
        assert report.osc_term == pytest.approx(inner.osc_term, rel=1e-12, abs=1e-12)
        assert report.osc_term > 0.0

    @pytest.mark.parametrize("family,p", FAMILIES_AND_EXPONENTS)
    def test_flat_metric_stretch_is_lebesgue_stretch(self, family, p):
        u, g = family_case(family, "flat")
        report = local_rigidity(u, g, p=p)
        lebesgue = energies(u, g, p=p, measure="lebesgue").stretch
        assert report.stretch > 0.0
        assert report.stretch == pytest.approx(lebesgue, rel=1e-12, abs=1e-12)


class TestMultiscaleFit:
    def test_affine_isometry_has_zero_residual(self):
        u = flat_inclusion(8)
        g = build_metric(u.grid, "flat")
        for t in (1, 2, 4):
            field = multiscale_fit(u, g, t)
            assert field.residual <= 1e-22
            first = np.broadcast_to(field.rotations[0, 0], field.rotations.shape)
            np.testing.assert_allclose(field.rotations, first, atol=1e-10)

    def test_circle_residual_decreases_in_t(self):
        grid = GridDomain(1, np.pi / 2, 64)
        u = curvature_curve(grid, kappa=1.0)
        g = build_metric(grid, "flat")
        residuals = [multiscale_fit(u, g, t).residual for t in (1, 2, 4, 8)]
        assert residuals[0] > residuals[1] > residuals[2] > residuals[3]
        finest = multiscale_fit(u, g, 64)
        assert 0.0 < finest.residual < residuals[0]

    def test_each_subcube_runs_the_public_pipeline(self):
        u = graph_surface(GridDomain(2, 1.0, 12), 0.08)
        g = build_metric(u.grid, "flat")
        with mock.patch.object(rigidity, "local_rigidity", wraps=rigidity.local_rigidity) as spy:
            field = multiscale_fit(u, g, 3)
        assert spy.call_count == len(field.fits) == 9
        for call in spy.call_args_list:
            sub_u, sub_g = call.args[:2]
            assert sub_u.grid == sub_g.grid == GridDomain(2, u.grid.spacing * 4, 4)
            # the subcube's tangent frames are sliced from the parent's, not rebuilt
            assert np.shares_memory(sub_u.frames, u.frames)

    def test_partition_parameter_must_divide(self):
        u = flat_inclusion(8)
        with pytest.raises(ValueError):
            multiscale_fit(u, build_metric(u.grid, "flat"), 3)

    def test_tripled_oscillation_bound_for_linear_metric(self):
        grid = GridDomain(1, 1.0, 32)
        u = curvature_curve(grid, kappa=0.5)
        slope = 0.4
        g = build_metric(grid, "linear", slope=slope)
        field = multiscale_fit(u, g, 4)
        for fit in field.fits:
            assert fit.tripled_oscillation <= slope * 3.0 * (1.0 / 4) + 1e-12
            assert fit.oscillation <= fit.tripled_oscillation + 1e-15
            assert fit.diameter == pytest.approx(1.0 / 4)


    @pytest.mark.parametrize(
        "family, dim, length, n, t, p, mode",
        [
            ("curve", 1, 1.0, 48, 4, 2.0, "forward"),
            ("curve", 1, 1.3, 48, 6, 3.0, "central"),
            ("latitude", 1, 0.7, 96, 8, 2.0, "forward"),
            ("latitude", 1, 1.0, 96, 3, 3.0, "central"),
            ("graph", 2, 1.0, 24, 3, 2.0, "forward"),
            ("graph", 2, 0.7, 24, 2, 3.0, "central"),
            ("perturbed", 2, 1.3, 18, 3, 2.0, "forward"),
            # 0.5056... / 18 * 3 / 3 rounds away from 0.5056... / 18: the
            # subcubes are built afresh instead of sliced
            ("curve", 1, 0.5056378869683275, 18, 6, 2.0, "forward"),
        ],
    )
    def test_equals_a_loop_over_rebuilt_subcubes(self, family, dim, length, n, t, p, mode):
        spec = ScenarioSpec(
            family, dim, length, n, p=p, mode=mode, seed=9, metric_kind="random", epsilon=0.05,
            kappa=0.0 if family == "perturbed" else 1.2,
        )
        bundle = build_scenario(spec)
        u, g = bundle.u, bundle.metric
        field = multiscale_fit(u, g, t, p=p, seed=4)

        block = n // t
        assert len(field.fits) == t**dim
        residual = 0.0
        for fit, index in zip(field.fits, itertools.product(range(t), repeat=dim)):
            corner = tuple(block * i for i in index)
            nodes = tuple(slice(c, c + block + 1) for c in corner)
            sub = GridDomain(dim, u.grid.spacing * block, block)
            sub_u = ImmersionField(sub, u.target, u.values[nodes], u.mode)
            sub_g = MetricField(sub, g.gram[nodes], lam=g.lam)
            report = local_rigidity(sub_u, sub_g, p, 4)
            box = tuple((c, c + block) for c in corner)
            osc, diam = oscillation_and_diameter(g, box)
            tripled = tuple((max(0, c - block), min(n, c + 2 * block)) for c in corner)
            osc3, _ = oscillation_and_diameter(g, tripled)

            assert (fit.index, fit.corner) == (index, corner)
            assert (fit.oscillation, fit.tripled_oscillation, fit.diameter) == (osc, osc3, diam)
            assert fit.report.base_index == report.base_index
            np.testing.assert_array_equal(fit.report.rotation, report.rotation)
            np.testing.assert_array_equal(field.rotations[index], report.rotation)
            for name in ("p", "lhs", "osc_term", "stretch", "bend_scale", "plane_variation", "constant"):
                assert getattr(fit.report, name) == getattr(report, name), name
            residual += report.lhs
        assert max(fit.oscillation for fit in field.fits) > 0.0
        assert field.residual == residual


class TestTranslationModulus:
    def circle_field(self, t=8, n=64):
        grid = GridDomain(1, 1.0, n)
        u = curvature_curve(grid, kappa=1.0)
        return multiscale_fit(u, build_metric(grid, "flat"), t)

    def test_zero_shift_is_exactly_zero(self):
        field = self.circle_field()
        mod = translation_modulus(field, [0.0])
        assert mod.value == 0.0
        assert mod.covered_fraction == 0.75

    def test_frozen_covered_fractions(self):
        field = self.circle_field()
        fractions = [
            translation_modulus(field, [z]).covered_fraction
            for z in (0.25, 0.125, 0.0625)
        ]
        assert fractions == [0.5, 0.625, 0.625]

    def test_values_decrease_with_shift(self):
        field = self.circle_field()
        values = [translation_modulus(field, [z]).value for z in (0.25, 0.125, 0.0625)]
        assert values[0] > values[1] > values[2] > 0.0

    def test_constant_field_has_zero_value(self):
        u = flat_inclusion(16)
        field = multiscale_fit(u, build_metric(u.grid, "flat"), 4)
        for zeta in ([0.2, 0.0], [0.1, 0.1]):
            assert translation_modulus(field, zeta).value <= 1e-24

    def test_long_shifts_cover_nothing(self):
        field = self.circle_field()
        mod = translation_modulus(field, [1.0])
        assert (mod.value, mod.covered_fraction) == (0.0, 0.0)

    def test_two_dimensional_region_count(self):
        grid = GridDomain(2, 1.0, 16)
        u = graph_surface(grid, 0.05)
        field = multiscale_fit(u, build_metric(grid, "flat"), 4)
        mod = translation_modulus(field, [0.125, 0.0])
        assert mod.covered_fraction == 0.125


class TestAsymptoticRun:
    def family(self, count, n=128, p=2.0):
        return [
            ScenarioSpec(
                family="perturbed",
                dim=1,
                resolution=n,
                epsilon=2.0**-k,
                kappa=1.0,
                p=p,
                seed=6,
            )
            for k in range(count)
        ]

    def test_monotone_requirements(self):
        specs = self.family(3)
        with pytest.raises(ValueError):
            asymptotic_sequence_run(list(reversed(specs)))
        with pytest.raises(ValueError):
            asymptotic_sequence_run(specs[:1])
        mixed = [specs[0], specs[1].replace(kappa=2.0)]
        with pytest.raises(ValueError):
            asymptotic_sequence_run(mixed)
        graphs = [
            ScenarioSpec(family="graph", dim=2, resolution=8, epsilon=e) for e in (0.1, 0.05)
        ]
        with pytest.raises(ValueError):
            asymptotic_sequence_run(graphs)

    def test_shrinking_family_converges(self):
        specs = self.family(5)
        grid = GridDomain(1, 1.0, 128)
        metric = build_metric(grid, "flat")
        from rigidkit.fields import ReferenceShape

        ref = ReferenceShape(grid, 1.0 * metric.gram)
        report = asymptotic_sequence_run(specs, ref=ref)
        stretch = [r.stretch for r in report.energy_reports]
        assert all(a > b for a, b in zip(stretch, stretch[1:]))
        assert all(a > b for a, b in zip(report.gaps, report.gaps[1:]))
        assert report.gaps[-1] == 0.0
        assert report.final_defect < 1e-3
        assert report.shape_error is not None
        assert report.shape_error_norm < 0.5

    def test_reference_is_optional(self):
        report = asymptotic_sequence_run(self.family(2, n=32))
        assert report.shape_error is None
        assert report.shape_error_norm is None
