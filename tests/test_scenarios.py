import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidkit.fields import GridDomain, GridMap, ImmersionField, energies
from rigidkit.scenarios import (
    ScenarioSpec,
    _perturbation_draw,
    _probe_estimate,
    build_metric,
    build_scenario,
    curvature_curve,
    graph_surface,
    latitude_circle,
    perturbation_field,
    perturbed_identity,
    perturbed_inclusion,
    smooth_bump,
)

from oracles import perturbation_scale_stacked, perturbation_sums_stacked


def probe_scale(phi):
    """The scale a perturbation field divides by, read off its closure."""
    return dict(zip(phi.__code__.co_freevars, (c.cell_contents for c in phi.__closure__)))["scale"]


# a probe: d, out_dim = d + extra, a length over six decades and a seed
PROBE_DRAWS = {
    "dim": st.sampled_from([1, 2]),
    "extra": st.sampled_from([0, 1]),
    "length": st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    "seed": st.integers(0, 2**31 - 2),
}


def probe_estimate(dim, out_dim, length, seed):
    probe = GridDomain(dim, length, 2048 if dim == 1 else 128)
    return _probe_estimate(probe, *_perturbation_draw(out_dim, seed))


def flat_metric(grid):
    return build_metric(grid, "flat")


def log_slope(xs, ys):
    return np.polyfit(np.log(xs), np.log(ys), 1)[0]


class TestBumpAndPerturbation:
    def test_bump_values(self):
        assert smooth_bump(np.array(0.0)) == pytest.approx(1.0)
        assert smooth_bump(np.array([-1.0, 1.0, 2.0])).tolist() == [0.0, 0.0, 0.0]
        s = np.linspace(-0.9, 0.9, 7)
        np.testing.assert_allclose(smooth_bump(s), smooth_bump(-s))

    def test_field_is_seeded_and_grid_independent(self):
        phi_a = perturbation_field(1, 2, 1.0, seed=7)
        phi_b = perturbation_field(1, 2, 1.0, seed=7)
        pts = np.linspace(0.0, 1.0, 17)[:, None]
        np.testing.assert_array_equal(phi_a(pts), phi_b(pts))
        phi_c = perturbation_field(1, 2, 1.0, seed=8)
        assert np.abs(phi_a(pts) - phi_c(pts)).max() > 1e-6

    def test_field_vanishes_on_boundary(self):
        phi = perturbation_field(2, 3, 1.0, seed=3)
        edge = np.array([[0.0, 0.3], [1.0, 0.7], [0.5, 0.0], [0.2, 1.0]])
        np.testing.assert_allclose(phi(edge), 0.0, atol=1e-300)

    @settings(max_examples=150, deadline=None)
    @given(**PROBE_DRAWS)
    def test_probe_scale_equals_the_stacked_probe(self, dim, extra, length, seed):
        # perturbed inclusions (d, d + 1) and perturbed identities (d, d)
        phi = perturbation_field(dim, dim + extra, length, seed)
        assert probe_scale(phi) == perturbation_scale_stacked(dim, dim + extra, length, seed)

    @settings(max_examples=60, deadline=None)
    @given(**PROBE_DRAWS)
    def test_estimate_bound_holds_at_every_node(self, dim, extra, length, seed):
        estimate, slack = probe_estimate(dim, dim + extra, length, seed)
        sums = perturbation_sums_stacked(dim, dim + extra, length, seed)
        assert estimate.shape == sums.shape
        assert np.abs(estimate - sums).max() <= slack

    @settings(max_examples=200, deadline=None)
    @given(**PROBE_DRAWS)
    def test_exact_pass_sees_a_handful_of_nodes(self, dim, extra, length, seed):
        estimate, slack = probe_estimate(dim, dim + extra, length, seed)
        assert 1 <= np.count_nonzero(estimate >= estimate.max() - 2.0 * slack) <= 4

    @pytest.mark.parametrize("seed, length", [(0, 1.0), (5, 0.37)])
    def test_three_dimensional_probe_equals_the_stacked_probe(self, seed, length):
        # one full-lattice probe takes about a second at d = 3
        sums = perturbation_sums_stacked(3, 3, length, seed)
        assert probe_scale(perturbation_field(3, 3, length, seed)) == np.sqrt(sums).max()
        estimate, slack = probe_estimate(3, 3, length, seed)
        assert np.abs(estimate - sums).max() <= slack
        assert np.count_nonzero(estimate >= estimate.max() - 2.0 * slack) <= 4

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("length", [1e-200, 1e-150, 1e155, 1e200, 1.5e308])
    def test_probe_keeps_the_stacked_outcome_at_extreme_lengths(self, dim, length):
        # overflow (inf), underflow (a zero maximum) and NaN arguments alike
        with np.errstate(all="ignore"):
            expected = perturbation_scale_stacked(dim, dim + 1, length, 1)
            if expected == 0.0:
                with pytest.raises(ValueError, match="degenerate perturbation draw"):
                    perturbation_field(dim, dim + 1, length, 1)
                return
            scale = probe_scale(perturbation_field(dim, dim + 1, length, 1))
        assert scale == expected or (np.isnan(scale) and np.isnan(expected))

    def test_field_gradient_is_normalized(self):
        phi = perturbation_field(1, 2, 1.0, seed=11)
        t = np.linspace(0.0, 1.0, 4097)[:, None]
        vals = phi(t)
        grads = np.gradient(vals, t[1, 0] - t[0, 0], axis=0)
        peak = np.sqrt((grads**2).sum(axis=-1)).max()
        assert peak == pytest.approx(1.0, rel=2e-3)


class TestCurveFamily:
    def test_constant_curvature_matches_circle(self):
        grid = GridDomain(1, np.pi / 2, 256)
        u = curvature_curve(grid, kappa=1.0)
        report = energies(u, flat_metric(grid))
        assert report.stretch < 1e-8
        assert report.bending == pytest.approx(np.pi / 2, rel=1e-3)
        assert np.abs(u.shape_operator[..., 0, 0] - 1.0).max() < 3 * grid.spacing

    def test_negative_curvature_flips_sign(self):
        grid = GridDomain(1, 1.0, 128)
        u = curvature_curve(grid, kappa=-2.0)
        assert np.abs(u.shape_operator[..., 0, 0] + 2.0).max() < 6 * grid.spacing

    def test_zero_curvature_is_a_straight_line(self):
        grid = GridDomain(1, 1.0, 16)
        u = curvature_curve(grid, kappa=0.0)
        report = energies(u, flat_metric(grid))
        assert report.stretch == pytest.approx(0.0, abs=1e-24)
        assert report.bending == pytest.approx(0.0, abs=1e-24)

    def test_wave_profile_tracks_prescribed_curvature(self):
        grid = GridDomain(1, 1.0, 512)
        u = curvature_curve(grid, kappa=1.0, profile="wave", wave_amplitude=0.5)
        mids = grid.cell_centers()[:, 0]
        target = 1.0 + 0.5 * np.sin(2.0 * np.pi * mids / grid.length)
        assert np.abs(u.shape_operator[..., 0, 0] - target).max() < 0.02
        report = energies(u, flat_metric(grid))
        assert report.stretch < 1e-7

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            curvature_curve(GridDomain(2, 1.0, 4), kappa=1.0)
        with pytest.raises(ValueError):
            curvature_curve(GridDomain(1, 1.0, 4), kappa=1.0, profile="sawtooth")


class TestGraphFamily:
    def test_zero_amplitude_is_flat(self):
        grid = GridDomain(2, 1.0, 16)
        report = energies(graph_surface(grid, 0.0), flat_metric(grid))
        assert report.stretch == pytest.approx(0.0, abs=1e-24)
        assert report.bending == pytest.approx(0.0, abs=1e-24)

    def test_energy_scaling_in_amplitude(self):
        grid = GridDomain(2, 1.0, 48)
        eps = np.array([0.1, 0.05, 0.025])
        stretch = []
        bending = []
        for e in eps:
            report = energies(graph_surface(grid, e), flat_metric(grid))
            stretch.append(report.stretch)
            bending.append(report.bending)
        assert log_slope(eps, stretch) == pytest.approx(4.0, abs=0.3)
        assert log_slope(eps, bending) == pytest.approx(2.0, abs=0.2)

    def test_needs_two_dimensions(self):
        with pytest.raises(ValueError):
            graph_surface(GridDomain(1, 1.0, 8), 0.1)


class TestLatitudeFamily:
    def test_on_sphere_and_bending(self):
        rho, polar = 1.0, np.pi / 3
        grid = GridDomain(1, 1.0, 256)
        u = latitude_circle(grid, rho, polar)
        radii = np.linalg.norm(u.values, axis=-1)
        np.testing.assert_allclose(radii, rho, atol=1e-12)
        geodesic_curv = 1.0 / (rho * np.tan(polar))
        report = energies(u, flat_metric(grid))
        assert report.stretch < 1e-8
        assert report.bending == pytest.approx(grid.length * geodesic_curv**2, rel=2e-2)

    def test_full_circle_is_allowed_but_not_more(self):
        rho, polar = 2.0, np.pi / 4
        circumference = 2.0 * np.pi * rho * np.sin(polar)
        latitude_circle(GridDomain(1, circumference, 64), rho, polar)
        with pytest.raises(ValueError):
            latitude_circle(GridDomain(1, circumference + 0.1, 64), rho, polar)
        with pytest.raises(ValueError):
            latitude_circle(GridDomain(1, 1.0, 8), rho, polar=0.0)


class TestPerturbedFamilies:
    def test_inclusion_boundary_matches_base(self):
        grid = GridDomain(2, 1.0, 12)
        u = perturbed_inclusion(grid, epsilon=0.3, seed=5)
        coords = grid.node_coordinates()
        np.testing.assert_allclose(u.values[0, :, :2], coords[0, :, :], atol=1e-300)
        np.testing.assert_allclose(u.values[0, :, 2], 0.0, atol=1e-300)

    def test_inclusion_energy_slope(self):
        grid = GridDomain(1, 1.0, 128)
        eps = np.array([0.08, 0.04, 0.02])
        vals = [
            energies(perturbed_inclusion(grid, e, seed=2), flat_metric(grid)).stretch
            for e in eps
        ]
        assert log_slope(eps, vals) == pytest.approx(2.0, abs=0.25)

    def test_curved_base_requires_one_dimension(self):
        with pytest.raises(ValueError):
            perturbed_inclusion(GridDomain(2, 1.0, 8), 0.1, kappa=1.0)
        u = perturbed_inclusion(GridDomain(1, 1.0, 64), 0.0, kappa=2.0)
        assert np.abs(u.shape_operator[..., 0, 0] - 2.0).max() < 0.1

    def test_identity_variant_returns_grid_map(self):
        grid = GridDomain(2, 1.0, 16)
        u = perturbed_identity(grid, epsilon=0.05, rotation=np.pi / 5, seed=1)
        assert isinstance(u, GridMap)
        c, s = np.cos(np.pi / 5), np.sin(np.pi / 5)
        base = grid.node_coordinates() @ np.array([[c, s], [-s, c]])
        np.testing.assert_allclose(u.values[0, :], base[0, :], atol=1e-300)
        plain = perturbed_identity(grid, epsilon=0.0)
        np.testing.assert_array_equal(plain.values, grid.node_coordinates())

    def test_identity_rotation_needs_two_dimensions(self):
        with pytest.raises(ValueError):
            perturbed_identity(GridDomain(3, 1.0, 4), 0.1, rotation=0.3)


class TestMetricFamilies:
    def test_flat_metric(self):
        g = build_metric(GridDomain(2, 1.0, 8), "flat")
        assert g.lam == pytest.approx(1.0)
        np.testing.assert_array_equal(g.gram, np.broadcast_to(np.eye(2), g.gram.shape))

    def test_linear_metric_statistics(self):
        grid = GridDomain(2, 1.0, 16)
        g = build_metric(grid, "linear", slope=0.5)
        assert g.lam == pytest.approx(1.5, rel=1e-12)
        # the ramp runs along the first axis: its steps over the spacing
        # have Frobenius norm 0.5 * sqrt(2), and the second axis is constant
        ramp = np.linalg.norm(np.diff(g.gram, axis=0), axis=(-2, -1)) / grid.spacing
        assert ramp.max() == pytest.approx(0.5 * np.sqrt(2.0), rel=1e-12)
        assert not np.diff(g.gram, axis=1).any()
        with pytest.raises(ValueError):
            build_metric(grid, "linear", slope=-1.5)

    def test_random_metric_respects_sandwich_cap(self):
        grid = GridDomain(2, 1.0, 24)
        g = build_metric(grid, "random", lam=3.0, seed=9)
        assert g.lam <= 3.0
        again = build_metric(grid, "random", lam=3.0, seed=9)
        np.testing.assert_array_equal(g.gram, again.gram)
        other = build_metric(grid, "random", lam=3.0, seed=10)
        assert np.abs(g.gram - other.gram).max() > 1e-8
        with pytest.raises(ValueError):
            build_metric(grid, "random", lam=1.0)
        with pytest.raises(ValueError):
            build_metric(grid, "checkerboard")


class TestScenarioSpec:
    def test_round_trip(self):
        spec = ScenarioSpec(family="graph", dim=2, resolution=32, epsilon=0.05)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            ScenarioSpec.from_dict({"family": "graph", "amplitude": 0.1})
        with pytest.raises(ValueError, match="family"):
            ScenarioSpec.from_dict({"dim": 1})
        with pytest.raises(ValueError):
            ScenarioSpec(family="spiral")
        with pytest.raises(ValueError):
            ScenarioSpec(family="curve", resolution=1)
        with pytest.raises(ValueError):
            ScenarioSpec(family="curve", p=0.5)

    @pytest.mark.parametrize(
        "family, dim, resolution, allowed",
        [
            ("graph", 2, 1024, True),
            ("graph", 2, 1025, False),
            ("curve", 1, 1 << 20, True),
            ("curve", 1, (1 << 20) + 1, False),
            ("perturbed_identity", 3, 101, True),
            ("perturbed_identity", 3, 102, False),
            ("perturbed_identity", 4, 2, False),
            ("curve", 10**9, 2, False),  # refused before 2^(10^9) is computed
        ],
    )
    def test_size_caps(self, family, dim, resolution, allowed):
        if allowed:
            ScenarioSpec(family=family, dim=dim, resolution=resolution)
        else:
            with pytest.raises(ValueError, match="at most 2\\^20 cells|cover d <= 3"):
                ScenarioSpec(family=family, dim=dim, resolution=resolution)

    def test_replace(self):
        spec = ScenarioSpec(family="curve", resolution=64)
        finer = spec.replace(resolution=128)
        assert finer.resolution == 128 and finer.family == "curve"

    def test_build_dispatch(self):
        curve = build_scenario(ScenarioSpec(family="curve", resolution=32))
        assert isinstance(curve.u, ImmersionField)
        assert curve.u.grid.resolution == 32
        ident = build_scenario(
            ScenarioSpec(family="perturbed_identity", dim=2, resolution=8, epsilon=0.01)
        )
        assert isinstance(ident.u, GridMap)
        assert ident.metric.lam == pytest.approx(1.0)
        rand = build_scenario(
            ScenarioSpec(family="graph", dim=2, resolution=8, metric_kind="random", metric_lam=2.0)
        )
        assert rand.metric.lam <= 2.0
