import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidkit.fields import (
    EnergyReport,
    GridDomain,
    GridMap,
    ImmersionField,
    MetricField,
    ReferenceShape,
    TargetSpace,
    corner_average,
    energies,
    grid_differential,
    oscillation_and_diameter,
    snapshot_load,
    snapshot_save,
    _max_pairwise_distance,
)
from rigidkit.scenarios import ScenarioSpec, build_metric, build_scenario

import oracles


def unit_circle_arc(radius=1.0, arc=np.pi / 2, n=256):
    """Unit-speed counterclockwise circle arc as an immersion of (0, arc*radius)."""
    grid = GridDomain(1, arc * radius, n)
    t = grid.node_axis()
    values = radius * np.stack([np.cos(t / radius), np.sin(t / radius)], axis=-1)
    return ImmersionField(grid, TargetSpace.euclidean(1), values)


def latitude_circle(rho=1.0, polar=np.pi / 3, n=128, arc=None):
    """Unit-speed circle of latitude on the sphere of radius rho."""
    r = rho * np.sin(polar)
    length = arc if arc is not None else np.pi * r
    grid = GridDomain(1, length, n)
    t = grid.node_axis()
    values = np.stack(
        [r * np.cos(t / r), r * np.sin(t / r), np.full_like(t, rho * np.cos(polar))],
        axis=-1,
    )
    return ImmersionField(grid, TargetSpace.sphere(1, rho), values)


def flat_inclusion(n=8, length=1.0):
    grid = GridDomain(2, length, n)
    coords = grid.node_coordinates()
    values = np.concatenate([coords, np.zeros(grid.node_shape + (1,))], axis=-1)
    return ImmersionField(grid, TargetSpace.euclidean(2), values)


class TestGridDomain:
    def test_basic_geometry(self):
        grid = GridDomain(2, 1.0, 4)
        assert grid.spacing == 0.25
        assert grid.node_shape == (5, 5)
        assert grid.cell_volume == pytest.approx(0.0625)
        assert grid.diameter == pytest.approx(np.sqrt(2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            GridDomain(0, 1.0, 4)
        with pytest.raises(ValueError):
            GridDomain(1, -1.0, 4)
        with pytest.raises(ValueError):
            GridDomain(1, 1.0, 0)


class TestDifferential:
    def test_affine_exact_both_modes(self):
        grid = GridDomain(2, 1.0, 5)
        slope = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.25]])
        values = grid.node_coordinates() @ slope.T
        for mode in ("forward", "central"):
            du = grid_differential(grid, values, mode)
            np.testing.assert_allclose(du, np.broadcast_to(slope, du.shape), atol=1e-13)

    def test_flat_inclusion_columns(self):
        u = flat_inclusion()
        expected = np.zeros((3, 2))
        expected[0, 0] = expected[1, 1] = 1.0
        np.testing.assert_allclose(u.differential, np.broadcast_to(expected, u.differential.shape))

    def test_convergence_orders(self):
        # max-cell error against the analytic derivative at cell centers:
        # first order for the lower-corner rule, second for corner averaging
        def field(x):
            return np.sin(2 * np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1])

        def gradient(x):
            g1 = 2 * np.pi * np.cos(2 * np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1])
            g2 = -np.pi * np.sin(2 * np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
            return np.stack([g1, g2], axis=-1)

        errors = {"forward": [], "central": []}
        for n in (16, 32, 64):
            grid = GridDomain(2, 1.0, n)
            values = field(grid.node_coordinates())[..., None]
            exact = gradient(grid.cell_centers())[..., None, :]
            for mode in errors:
                du = grid_differential(grid, values, mode)
                errors[mode].append(np.abs(du - exact).max())
        forward_orders = np.log2(np.array(errors["forward"][:-1]) / errors["forward"][1:])
        central_orders = np.log2(np.array(errors["central"][:-1]) / errors["central"][1:])
        assert forward_orders.min() > 0.8 and forward_orders.max() < 1.3
        assert central_orders.min() > 1.8 and central_orders.max() < 2.3

    def test_one_dimensional_modes_agree(self):
        grid = GridDomain(1, 2.0, 20)
        values = np.sin(grid.node_coordinates())
        np.testing.assert_array_equal(
            grid_differential(grid, values, "forward"),
            grid_differential(grid, values, "central"),
        )


class TestUnitNormal:
    def test_circle_points_inward(self):
        u = unit_circle_arc(n=64)
        mids = (u.grid.node_axis()[:-1] + u.grid.node_axis()[1:]) / 2
        expected = -np.stack([np.cos(mids), np.sin(mids)], axis=-1)
        np.testing.assert_allclose(u.normal, expected, atol=1e-12)

    def test_flat_inclusion_normal_is_up(self):
        u = flat_inclusion()
        np.testing.assert_allclose(u.normal, np.broadcast_to([0.0, 0.0, 1.0], u.normal.shape))

    def test_unit_and_orthogonal(self):
        u = latitude_circle()
        assert u.degenerate_count == 0
        np.testing.assert_allclose(np.linalg.norm(u.normal, axis=-1), 1.0, atol=1e-12)
        dots = np.einsum("...i,...ij->...j", u.normal, u.differential)
        np.testing.assert_allclose(dots, 0.0, atol=1e-10)
        radial = u.cell_points / np.linalg.norm(u.cell_points, axis=-1, keepdims=True)
        np.testing.assert_allclose(np.einsum("...i,...i->...", u.normal, radial), 0.0, atol=1e-10)

    def test_sphere_orientation_determinant(self):
        u = latitude_circle()
        radial = u.cell_points / np.linalg.norm(u.cell_points, axis=-1, keepdims=True)
        stacked = np.concatenate(
            [radial[..., :, None], u.differential, u.normal[..., :, None]], axis=-1
        )
        assert (np.linalg.det(stacked) > 0).all()

    def test_degenerate_cells_flagged(self):
        grid = GridDomain(1, 1.0, 4)
        t = grid.node_axis().copy()
        t[2] = t[1]  # collapse one cell
        values = np.stack([t, np.zeros_like(t)], axis=-1)
        u = ImmersionField(grid, TargetSpace.euclidean(1), values)
        assert u.degenerate_count == 1
        assert u.degenerate[1]
        np.testing.assert_array_equal(u.normal[1], 0.0)


class TestShapeOperator:
    def test_circle_curvature(self):
        for radius in (1.0, 2.0):
            u = unit_circle_arc(radius=radius, n=256)
            tol = 3.0 * u.grid.spacing / radius**2
            assert np.abs(u.shape_operator - (-1.0 / radius)).max() < tol

    def test_flat_inclusion_zero(self):
        u = flat_inclusion()
        np.testing.assert_allclose(u.shape_operator, 0.0, atol=1e-12)
        np.testing.assert_allclose(u.shape_residual, 0.0, atol=1e-12)

    def test_latitude_geodesic_curvature(self):
        rho, polar = 1.5, np.pi / 3
        u = latitude_circle(rho=rho, polar=polar, n=512)
        expected = np.cos(polar) / (rho * np.sin(polar))  # magnitude of cot(polar)/rho
        got = np.abs(u.shape_operator[..., 0, 0])
        assert np.abs(got - expected).max() < 20.0 * u.grid.spacing

    def test_residual_shrinks_linearly(self):
        residuals = []
        for n in (64, 128, 256):
            u = latitude_circle(n=n)
            residuals.append(u.shape_residual.max())
        orders = np.log2(np.array(residuals[:-1]) / residuals[1:])
        assert orders.min() > 0.8


class TestEnergies:
    def test_flat_inclusion_is_isometric(self):
        u = flat_inclusion()
        g = MetricField.constant(u.grid, np.eye(2))
        report = energies(u, g, p=2.0)
        assert report.stretch <= 1e-24
        assert report.bending <= 1e-24
        assert report.dirichlet == pytest.approx(2.0, rel=1e-12)
        assert report.excess == report.bending + report.dirichlet

    def test_uniform_stretch_energy(self):
        eps = 0.05
        grid = GridDomain(2, 1.0, 8)
        coords = grid.node_coordinates()
        values = np.concatenate([(1 + eps) * coords, np.zeros(grid.node_shape + (1,))], axis=-1)
        u = ImmersionField(grid, TargetSpace.euclidean(2), values)
        g = MetricField.constant(grid, np.eye(2))
        report = energies(u, g, p=2.0)
        assert report.stretch == pytest.approx(2.0 * eps**2, rel=1e-12)

    def test_circle_bending_energy(self):
        for radius in (1.0, 2.0):
            u = unit_circle_arc(radius=radius, n=256)
            g = MetricField.constant(u.grid, np.eye(1))
            report = energies(u, g, p=2.0)
            assert report.bending == pytest.approx(u.grid.length / radius**2, rel=1e-3)
            assert report.stretch < 1e-8

    def test_volume_comparison_sandwich(self):
        rng = np.random.default_rng(71)
        grid = GridDomain(2, 1.0, 6)
        grams = np.stack([oracles.random_spd(rng, 2, 4.0) for _ in range(49)]).reshape(7, 7, 2, 2)
        g = MetricField(grid, grams)
        coords = grid.node_coordinates()
        wave = 0.1 * np.sin(3 * coords[..., :1]) * np.cos(2 * coords[..., 1:])
        values = np.concatenate([coords + wave, wave], axis=-1)
        u = ImmersionField(grid, TargetSpace.euclidean(2), values)
        scale = g.lam ** (grid.dim / 2.0)
        riem = energies(u, g, p=2.0, measure="riemannian")
        leb = energies(u, g, p=2.0, measure="lebesgue")
        for name in ("stretch", "bending", "dirichlet"):
            lo = getattr(leb, name) / scale
            hi = getattr(leb, name) * scale
            assert lo - 1e-12 <= getattr(riem, name) <= hi + 1e-12

    def test_reference_misfit_vanishes_for_matching_form(self):
        u = unit_circle_arc(n=128)
        g = MetricField.constant(u.grid, np.eye(1))
        # the circle's own curvature as prescribed form: b = S_u * g
        form = np.full(u.grid.node_shape + (1, 1), u.shape_operator.mean())
        report = energies(u, g, ref=ReferenceShape(u.grid, form), p=2.0)
        assert report.bending_ref == pytest.approx(0.0, abs=1e-6)
        plain = energies(u, g, p=2.0)
        assert plain.bending_ref is None

    def test_mismatched_grids_rejected(self):
        u = flat_inclusion(n=8)
        g = MetricField.constant(GridDomain(2, 1.0, 4), np.eye(2))
        with pytest.raises(ValueError, match="different grids"):
            energies(u, g)


class TestMetricField:
    def test_constant_field_stats(self):
        grid = GridDomain(2, 1.0, 4)
        g = MetricField.constant(grid, np.diag([0.5, 2.0]))
        assert g.lam == pytest.approx(2.0)
        assert g.lipschitz == 0.0

    def test_linear_field_lipschitz(self):
        grid = GridDomain(2, 1.0, 8)
        a = 0.3
        coords = grid.node_coordinates()
        grams = (1.0 + a * coords[..., 0])[..., None, None] * np.eye(2)
        g = MetricField(grid, grams)
        assert g.lipschitz == pytest.approx(a * np.sqrt(2.0), rel=1e-12)

    def test_declared_bounds_validated(self):
        grid = GridDomain(1, 1.0, 4)
        grams = np.broadcast_to(np.eye(1) * 3.0, grid.node_shape + (1, 1)).copy()
        MetricField(grid, grams, lam=3.0)
        with pytest.raises(ValueError, match="sandwich"):
            MetricField(grid, grams, lam=2.0)
        with pytest.raises(ValueError, match="Lipschitz"):
            coords = grid.node_coordinates()
            sloped = (1.0 + coords[..., 0])[..., None, None] * np.eye(1)
            MetricField(grid, sloped, lipschitz=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
    def test_non_finite_entries_rejected(self, bad, entry):
        grid = GridDomain(2, 1.0, 2)
        grams = np.broadcast_to(np.eye(2), grid.node_shape + (2, 2)).copy()
        grams[1, 2][entry] = bad
        grams[1, 2][entry[::-1]] = bad
        with pytest.raises(ValueError, match="not finite and symmetric"):
            MetricField(grid, grams)

    def test_restriction_matches_slice(self):
        grid = GridDomain(2, 1.0, 8)
        coords = grid.node_coordinates()
        grams = (1.0 + 0.2 * coords[..., 0] + 0.1 * coords[..., 1])[..., None, None] * np.eye(2)
        g = MetricField(grid, grams)
        sub = g.restrict((2, 4), 4)
        assert sub.grid.resolution == 4
        assert sub.grid.length == pytest.approx(0.5)
        np.testing.assert_array_equal(sub.gram, grams[2:7, 4:9])


def brute_diameter(points):
    """Largest distance over all pairs of rows, each from the direct difference x - y."""
    pts = np.asarray(points, dtype=float)
    return max(float(np.sqrt(np.sum((pts - x) ** 2, axis=-1)).max()) for x in pts)


_COORD = st.one_of(
    st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0]),
    st.floats(-1e3, 1e3, allow_subnormal=False).filter(lambda v: v == 0.0 or abs(v) > 1e-100),
)


@st.composite
def point_sets(draw):
    """Small point sets: coordinates from a short list (duplicates and ties),
    arbitrary floats, or points on one line, in 1 to 4 coordinates."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.lists(_COORD, min_size=k, max_size=k), min_size=n, max_size=n)))
    base = np.array(draw(st.lists(_COORD, min_size=k, max_size=k)))
    step = np.array(draw(st.lists(_COORD, min_size=k, max_size=k)))
    ts = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 0.25, 1.0, 2.0]), min_size=n, max_size=n)))
    return base + ts[:, None] * step


class TestOscillation:
    def test_constant_metric(self):
        grid = GridDomain(2, 1.0, 8)
        g = MetricField.constant(grid, np.eye(2))
        osc, diam = oscillation_and_diameter(g, ((0, 8), (0, 8)))
        assert osc == 0.0
        assert diam == pytest.approx(np.sqrt(2.0))

    def test_linear_metric_exact(self):
        grid = GridDomain(2, 1.0, 8)
        a = 0.3
        coords = grid.node_coordinates()
        grams = (1.0 + a * coords[..., 0])[..., None, None] * np.eye(2)
        g = MetricField(grid, grams)
        osc, diam = oscillation_and_diameter(g, ((0, 8), (0, 8)))
        assert osc == pytest.approx(a * np.sqrt(2.0), rel=1e-12)
        osc_half, diam_half = oscillation_and_diameter(g, ((2, 4), (0, 8)))
        assert osc_half == pytest.approx(a * 0.25 * np.sqrt(2.0), rel=1e-12)
        assert diam_half == pytest.approx(np.hypot(0.25, 1.0))

    def test_bad_box_rejected(self):
        g = MetricField.constant(GridDomain(1, 1.0, 4), np.eye(1))
        with pytest.raises(ValueError, match="outside grid"):
            oscillation_and_diameter(g, ((0, 5),))

    @pytest.mark.parametrize("spread", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_tight_gram_cloud_matches_direct_differences(self, spread):
        # Gram matrices this close together defeat |x|^2 + |y|^2 - 2 x.y.
        grid = GridDomain(2, 1.0, 15)
        rng = np.random.default_rng(11)
        noise = rng.uniform(-1.0, 1.0, size=grid.node_shape + (2, 2))
        g = MetricField(grid, np.eye(2) + spread * (noise + np.swapaxes(noise, -1, -2)))
        osc, _ = oscillation_and_diameter(g, ((0, 15), (0, 15)))
        assert osc == pytest.approx(brute_diameter(g.gram.reshape(-1, g.grid.dim**2)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", ["random", "linear"])
    @pytest.mark.parametrize("dim, n", [(1, 512), (2, 32)])
    def test_scenario_metrics_match_direct_differences(self, kind, dim, n):
        g = build_metric(GridDomain(dim, 1.0, n), kind, seed=4)
        osc, _ = oscillation_and_diameter(g, tuple((0, n) for _ in range(dim)))
        assert osc == pytest.approx(brute_diameter(g.gram.reshape(-1, g.grid.dim**2)), rel=1e-12, abs=0.0)
        box = tuple((n // 4, n // 2) for _ in range(dim))
        corner = tuple(slice(lo, hi + 1) for lo, hi in box)
        osc_box, _ = oscillation_and_diameter(g, box)
        assert osc_box == pytest.approx(brute_diameter(g.gram[corner].reshape(-1, dim**2)), rel=1e-12, abs=0.0)

    @settings(deadline=None)
    @given(point_sets())
    @example(np.array([[0.3, -1.0]]))
    @example(np.full((6, 3), 2.5))
    @example(np.array([[0.0], [1.0], [1.0], [-2.0], [-2.0]]))
    @example(np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [0.0, 0.0]]))
    @example(np.array([[0.0, 0.0], [3.0, 1.0], [3.0, -1.0]]))
    def test_kernel_matches_direct_differences(self, points):
        value = _max_pairwise_distance(points)
        assert value == pytest.approx(brute_diameter(points), rel=1e-12, abs=0.0)


class TestReferenceShape:
    def test_asymmetric_rejected(self):
        grid = GridDomain(2, 1.0, 2)
        form = np.zeros(grid.node_shape + (2, 2))
        form[..., 0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            ReferenceShape(grid, form)


_IMMERSION_DATA = (
    "values",
    "differential",
    "cell_points",
    "normal",
    "degenerate",
    "frames",
    "complements",
    "normal_differential",
    "projected_normal_differential",
    "shape_operator",
    "shape_residual",
)
_METRIC_CELL_DATA = ("gram", "cell_grams", "cell_inv_sqrt", "cell_sqrt_det")


def assert_restrict_equals_fresh_build(u, corner, resolution):
    """u.restrict equals an ImmersionField built on the sliced nodes, attribute by attribute."""
    sub = u.restrict(corner, resolution)
    nodes = tuple(slice(c, c + resolution + 1) for c in corner)
    fresh = ImmersionField(sub.grid, u.target, u.values[nodes], u.mode)
    assert sub.grid == GridDomain(u.grid.dim, u.grid.spacing * resolution, resolution)
    assert (sub.target, sub.mode) == (fresh.target, fresh.mode)
    for name in _IMMERSION_DATA:
        np.testing.assert_array_equal(getattr(sub, name), getattr(fresh, name), err_msg=name)
    return sub


def assert_metric_restrict_equals_fresh_build(g, corner, resolution):
    """g.restrict equals a validated MetricField on the sliced nodes with g's lam."""
    sub = g.restrict(corner, resolution)
    nodes = tuple(slice(c, c + resolution + 1) for c in corner)
    fresh = MetricField(sub.grid, g.gram[nodes], lam=g.lam)
    for name in _METRIC_CELL_DATA:
        np.testing.assert_array_equal(getattr(sub, name), getattr(fresh, name), err_msg=name)
    assert (sub.lam, sub.lipschitz) == (fresh.lam, fresh.lipschitz)
    assert sub._oscillation == fresh._oscillation


def subcube_corners(n, dim, block):
    """First, last and one interior subcube corner of the block partition."""
    last = n - block
    middle = block * ((n // block) // 2)
    return sorted({(0,) * dim, (last,) * dim, (middle,) * dim, (0,) * (dim - 1) + (last,)})


class TestRestriction:
    def test_differential_commutes_with_restriction(self):
        u = flat_inclusion(n=8)
        sub = u.restrict((2, 4), 4)
        np.testing.assert_array_equal(sub.differential, u.differential[2:6, 4:8])

    def test_gridmap_restriction(self):
        grid = GridDomain(1, 1.0, 8)
        values = np.sin(grid.node_coordinates())
        m = GridMap(grid, values)
        sub = m.restrict((2,), 4)
        np.testing.assert_array_equal(sub.differential, m.differential[2:6])

    @pytest.mark.parametrize("length", [0.7, 1.0, 1.3])
    @pytest.mark.parametrize("mode", ["forward", "central"])
    @pytest.mark.parametrize(
        "family, dim, n", [("curve", 1, 48), ("latitude", 1, 96), ("graph", 2, 24), ("perturbed", 2, 18)]
    )
    def test_sliced_restrict_equals_fresh_build(self, family, dim, n, mode, length):
        for metric_kind in ("flat", "random", "linear"):
            spec = ScenarioSpec(
                family, dim, length, n, mode=mode, metric_kind=metric_kind, seed=11, epsilon=0.05,
                kappa=0.0 if family == "perturbed" else 1.2,
            )
            bundle = build_scenario(spec)
            for block in (n, n // 2, n // 3, n // 6, 1):
                for corner in subcube_corners(n, dim, block):
                    if metric_kind == "flat":
                        assert_restrict_equals_fresh_build(bundle.u, corner, block)
                    assert_metric_restrict_equals_fresh_build(bundle.metric, corner, block)

    def test_rank_deficient_cells_slice_like_a_fresh_build(self):
        sheet = flat_inclusion(n=8)
        values = sheet.values.copy()
        values[4, :, 0] = values[3, :, 0]  # the row of cells at 3 loses its first column
        sheet = ImmersionField(sheet.grid, sheet.target, values)
        assert sheet.degenerate[3].all() and sheet.degenerate.sum() == 8
        for corner, block in (((2, 0), 4), ((2, 2), 2), ((3, 5), 1), ((0, 0), 8)):
            sub = assert_restrict_equals_fresh_build(sheet, corner, block)
            assert sub.degenerate.any()

        arc = latitude_circle(n=32)
        values = arc.values.copy()
        values[17] = values[16]  # a zero-length cell on the sphere
        arc = ImmersionField(arc.grid, arc.target, values)
        assert arc.degenerate[16] and arc.degenerate_count == 1
        for corner, block in (((16,), 8), ((8,), 16), ((16,), 1)):
            sub = assert_restrict_equals_fresh_build(arc, corner, block)
            assert sub.degenerate.any()

    def test_subgrid_spacing_that_rounds_differently_is_rebuilt(self):
        # length / 18 * 3 / 3 rounds one ulp away from length / 18 here, so the
        # parent's differential would not equal the subcube's own.
        grid = GridDomain(1, 0.5056378869683275, 18)
        assert GridDomain(1, grid.spacing * 3, 3).spacing != grid.spacing
        spec = ScenarioSpec("curve", 1, grid.length, 18, metric_kind="random")
        bundle = build_scenario(spec)
        for corner in subcube_corners(18, 1, 3):
            assert_restrict_equals_fresh_build(bundle.u, corner, 3)
            assert_metric_restrict_equals_fresh_build(bundle.metric, corner, 3)

    @pytest.mark.parametrize(
        "corner, resolution",
        [((-1, 0), 2), ((0, -2), 2), ((7, 0), 2), ((0, 0), 9), ((0, 0), 0), ((0,), 2), ((0, 0, 0), 2)],
    )
    def test_subcube_outside_grid_rejected(self, corner, resolution):
        u = flat_inclusion(n=8)
        g = MetricField.constant(u.grid, np.eye(2))
        m = GridMap(u.grid, u.values)
        for field in (u, g, m):
            with pytest.raises(ValueError, match="outside the grid"):
                field.restrict(corner, resolution)


class TestSnapshot:
    def test_roundtrip_bitwise(self, tmp_path):
        u = latitude_circle(n=16)
        g = MetricField.constant(u.grid, np.eye(1) * 1.5)
        path = tmp_path / "field.json"
        snapshot_save(path, u, g)
        u2, g2 = snapshot_load(path)
        np.testing.assert_array_equal(u2.values, u.values)
        np.testing.assert_array_equal(g2.gram, g.gram)
        assert u2.target == u.target
        assert u2.grid == u.grid
        snapshot_save(tmp_path / "again.json", u2, g2)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_bad_document_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": {"d": 1, "l": 1.0}}')
        with pytest.raises(ValueError, match="missing field"):
            snapshot_load(path)

    @pytest.mark.parametrize("text", ["[1, 2, 3]", '{"grid": [1], "target": {}}'])
    def test_mistyped_document_rejected(self, tmp_path, text):
        path = tmp_path / "broken.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="JSON object"):
            snapshot_load(path)


class TestValidation:
    def test_sphere_values_checked(self):
        grid = GridDomain(1, 1.0, 4)
        values = np.ones(grid.node_shape + (3,))
        with pytest.raises(ValueError, match="sphere"):
            ImmersionField(grid, TargetSpace.sphere(1, 1.0), values)

    def test_target_grid_mismatch(self):
        grid = GridDomain(2, 1.0, 4)
        with pytest.raises(ValueError, match="base dimension"):
            ImmersionField(grid, TargetSpace.euclidean(1), np.zeros(grid.node_shape + (2,)))

    def test_target_space_contracts(self):
        with pytest.raises(ValueError, match="radius"):
            TargetSpace.sphere(1, -1.0)
        with pytest.raises(ValueError, match="radius"):
            TargetSpace("euclidean", 1, 2.0)
        assert TargetSpace.euclidean(2).ambient_dim == 3
        assert TargetSpace.sphere(2, 1.0).ambient_dim == 4
