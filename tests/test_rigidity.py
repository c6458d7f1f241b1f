import numpy as np
import pytest

from rigidkit.fields import (
    DegenerateFieldError,
    GridDomain,
    GridMap,
    ImmersionField,
    MetricField,
    TargetSpace,
    energies,
)
from rigidkit.metric_algebra import OrientedSubspace, subspace_distance
from rigidkit.rigidity import (
    _oriented_gap_sq,
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
