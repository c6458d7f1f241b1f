import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidkit.fields import (
    EnergyReport,
    GridDomain,
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
    _energy_sums,
    _max_pairwise_distance,
    _normal_differential,
)
from rigidkit.metric_algebra import _repeats_one, _times_inv_sqrt, metric_norm
from rigidkit.rigidity import _PATCH_DATA, _Patches
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

    @pytest.mark.parametrize("length, resolution", [(5e-324, 8), (1e-320, 1 << 20), (np.inf, 4)])
    def test_spacing_must_be_positive_and_finite(self, length, resolution):
        # the first two lengths are positive, but their spacing rounds to 0
        with pytest.raises(ValueError, match="grid spacing .* is not positive and finite"):
            GridDomain(1, length, resolution)


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

    def test_sphere_cell_whose_point_is_the_centre_is_degenerate(self):
        # cell 0 joins antipodes, so its corner average is the origin
        values = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        u = ImmersionField(GridDomain(1, 1.0, 2), TargetSpace.sphere(1, 1.0), values)
        with np.errstate(all="raise"):
            assert u.degenerate.tolist() == [True, False]
            np.testing.assert_array_equal(u.radial[0], 0.0)
            np.testing.assert_array_equal(u.normal[0], 0.0)
            np.testing.assert_allclose(np.linalg.norm(u.normal[1]), 1.0)
            assert energies(u, MetricField.constant(u.grid, np.eye(1))).degenerate_cells == 1

    def test_sphere_of_radius_1e160_builds_without_overflow(self):
        # squaring these node values overflows; their norms scale them first
        with np.errstate(all="raise"):
            u = latitude_circle(rho=1e160, polar=1.0, n=8, arc=1.0)
            assert not u.degenerate.any()
            radial = u.radial
        np.testing.assert_allclose(np.linalg.norm(radial, axis=-1), 1.0, rtol=1e-15)


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
        riem = energies(u, g, p=2.0)
        good = ~u.degenerate
        leb = _energy_sums(
            u.differential[good], u.projected_normal_differential[good], g.cell_inv_sqrt[good],
            np.full(int(good.sum()), grid.cell_volume), 2.0,
        )
        for name, lebesgue in zip(("stretch", "bending", "dirichlet"), leb):
            lo = float(lebesgue) / scale
            hi = float(lebesgue) * scale
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
    def test_non_finite_entries_rejected(self, bad, entry):
        grid = GridDomain(2, 1.0, 2)
        grams = np.broadcast_to(np.eye(2), grid.node_shape + (2, 2)).copy()
        grams[1, 2][entry] = bad
        grams[1, 2][entry[::-1]] = bad
        with pytest.raises(ValueError, match="not finite and symmetric"):
            MetricField(grid, grams)


class TestConstantMetric:
    """A constant metric is one Gram matrix: its node and cell arrays are
    read-only broadcast views with zero strides, and every one equals, bit
    for bit, what the kernels give on the materialised arrays."""

    CELL_ARRAYS = ("cell_grams", "cell_inv_sqrt", "cell_sqrt_det")

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["eye", "spd"])
    def test_equals_the_materialised_field_and_keeps_no_per_cell_array(self, dim, kind):
        grid = GridDomain(dim, 0.9, {1: 40, 2: 12, 3: 6}[dim])
        g = MetricField.constant(grid, np.eye(dim) if kind == "eye" else oracles.SPD_GRAMS[dim])
        h = MetricField(grid, g.gram.copy())  # materialised: not known to be constant
        assert g._constant and not h._constant
        assert g.lam == h.lam
        for name in ("gram", *self.CELL_ARRAYS):
            ours, theirs = getattr(g, name), getattr(h, name)
            np.testing.assert_array_equal(ours, theirs, err_msg=name)
            assert ours.shape == theirs.shape, name
            assert ours.strides[:dim] == (0,) * dim, name
            assert not ours.flags.writeable, name
        assert sorted(vars(g)) == sorted(["gram", "grid", "lam", *self.CELL_ARRAYS])
        box = ((1, grid.resolution - 1),) + ((0, 2),) * (dim - 1)
        assert oscillation_and_diameter(g, box) == oscillation_and_diameter(h, box)
        assert g._oscillation == h._oscillation == 0.0

    def test_owns_its_one_matrix(self):
        gram = np.array(oracles.SPD_GRAMS[2])
        g = MetricField.constant(GridDomain(2, 1.0, 8), gram)
        before, lam = g.gram.copy(), g.lam
        gram[:] = [[1.0, 5.0], [5.0, 1.0]]  # not positive definite
        np.testing.assert_array_equal(g.gram, before)
        assert g.lam == lam
        assert not np.shares_memory(g.gram, gram)

    @pytest.mark.parametrize(
        "gram, message",
        [
            ([[1.0, 0.5], [0.4, 1.0]], "not finite and symmetric"),
            ([[1.0, np.nan], [np.nan, 1.0]], "not finite and symmetric"),
            ([[1.0, 2.0], [2.0, 1.0]], "not positive definite"),
            ([[0.0]], "not positive definite"),
        ],
    )
    def test_the_one_matrix_is_validated(self, gram, message):
        dim = len(gram)
        grid = GridDomain(dim, 1.0, 4)
        with pytest.raises(ValueError, match=message):
            MetricField.constant(grid, gram)
        with pytest.raises(ValueError, match=message):
            MetricField(grid, np.broadcast_to(np.asarray(gram), grid.node_shape + (dim, dim)).copy())

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_product_helper_equals_the_per_cell_product(self, dim, extra):
        big = dim + extra
        rng = np.random.default_rng(10 * dim + extra)
        for lead in ((1, 1), (1, 7), (3, 64), (2, 4096), (5,)):
            x = rng.standard_normal(lead + (big, dim)) * rng.uniform(0.1, 10.0, size=lead + (1, 1))
            one = rng.standard_normal((dim, dim))
            factor = np.broadcast_to(one, lead + (dim, dim))
            assert _repeats_one(factor, len(lead))
            expected = x @ factor.copy()
            np.testing.assert_array_equal(_times_inv_sqrt(x, factor), expected, err_msg=f"{lead}")
            norms = np.linalg.norm(expected, axis=(-2, -1))
            np.testing.assert_array_equal(metric_norm(x, factor), norms, err_msg=f"{lead}")
            # a strided x, and a factor that is not one matrix, take the per-cell product
            np.testing.assert_array_equal(_times_inv_sqrt(x[..., ::-1, :], factor), x[..., ::-1, :] @ factor.copy())
            varied = factor.copy()
            varied[(0,) * len(lead)] += 1.0
            np.testing.assert_array_equal(_times_inv_sqrt(x, varied), x @ varied)

    def test_subcube_regrouping_keeps_the_metric_arrays_views(self):
        u = flat_inclusion(n=16)
        g = MetricField.constant(u.grid, oracles.SPD_GRAMS[2])
        for t in (1, 2, 16):
            patches = _Patches.subcubes(u, g, t)
            for name in ("cell_inv_sqrt", "cell_sqrt_det"):
                assert _repeats_one(getattr(patches, name), 3), (t, name)


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


class TestBoundingBox:
    """`_max_pairwise_distance` reads its constant test and bounding box off
    one contiguous copy of the transposed points; these pin it to the
    axis-0 reductions it replaced."""

    @staticmethod
    def metric_points(kind):
        grid = GridDomain(2, 1.0, 64)
        if kind == "constant":
            gram = MetricField.constant(grid, [[2.0, 0.5], [0.5, 1.0]]).gram
        else:
            gram = build_metric(grid, kind, seed=7).gram
        return gram.reshape(-1, 4)

    @pytest.mark.parametrize("kind", ["constant", "linear", "random"])
    def test_equals_the_axis_zero_form(self, kind):
        # the linear metric's Grams lie on a line: a rank-one spread
        points = self.metric_points(kind)
        assert _max_pairwise_distance(points) == oracles.max_pairwise_distance_axis0(points)
        rng = np.random.default_rng(5)
        for cloud in (rng.normal(size=(300, 3)), rng.normal(size=(40, 1)) * [1.0, -2.0, 0.5], points[::7]):
            assert _max_pairwise_distance(cloud) == oracles.max_pairwise_distance_axis0(cloud)

    def test_constant_metric_returns_zero_before_any_search(self):
        with mock.patch("rigidkit.fields._sq_distances", side_effect=AssertionError("searched")):
            assert _max_pairwise_distance(self.metric_points("constant")) == 0.0


class TestReferenceShape:
    def test_asymmetric_rejected(self):
        grid = GridDomain(2, 1.0, 2)
        form = np.zeros(grid.node_shape + (2, 2))
        form[..., 0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            ReferenceShape(grid, form)


def assert_keeps_parent_spacing(sub, grid, resolution):
    """`sub` is the grid of `resolution` cells at `grid`'s own spacing, which
    GridDomain(dim, spacing * resolution, resolution) can miss by an ulp."""
    assert (sub.dim, sub.resolution) == (grid.dim, resolution)
    assert sub.spacing == grid.spacing
    assert sub.length == grid.spacing * resolution


def assert_subcubes_equal_fresh_builds(u, g, t, corners=None):
    """Every `_PATCH_DATA` array of `_Patches.subcubes(u, g, t)`, and the
    normal differential the local pipeline takes from them, equals, bit for
    bit, that of an ImmersionField and a MetricField built on the subcube's
    sliced nodes over the sub-grid.  `corners` limits the check
    to the subcubes at those nodes.  Returns the patches."""
    patches = _Patches.subcubes(u, g, t)
    block = u.grid.resolution // t
    assert_keeps_parent_spacing(patches.grid, u.grid, block)
    assert (patches.grid is u.grid) == (t == 1)
    indices = list(itertools.product(range(t), repeat=u.grid.dim))
    assert len(patches.differential) == len(indices)
    normal_diff = _normal_differential(patches.grid, patches.normal)
    for s, index in enumerate(indices):
        corner = tuple(block * i for i in index)
        if corners is not None and corner not in corners:
            continue
        nodes = tuple(slice(c, c + block + 1) for c in corner)
        fresh_u = ImmersionField(patches.grid, u.target, u.values[nodes], u.mode)
        fresh_g = MetricField(patches.grid, g.gram[nodes])
        for name, from_metric in _PATCH_DATA:
            fresh = getattr(fresh_g if from_metric else fresh_u, name)
            np.testing.assert_array_equal(getattr(patches, name)[s], fresh, err_msg=f"{name} at {corner}")
        np.testing.assert_array_equal(normal_diff[s], fresh_u.normal_differential, err_msg=f"at {corner}")
    return patches


def subcube_corners(n, dim, block):
    """First, last and one interior subcube corner of the block partition."""
    last = n - block
    middle = block * ((n // block) // 2)
    return sorted({(0,) * dim, (last,) * dim, (middle,) * dim, (0,) * (dim - 1) + (last,)})


class TestSubcubeSlices:
    @pytest.mark.parametrize("length", [0.7, 1.0, 1.3])
    @pytest.mark.parametrize("mode", ["forward", "central"])
    @pytest.mark.parametrize(
        "family, dim, n", [("curve", 1, 48), ("latitude", 1, 96), ("graph", 2, 24), ("perturbed", 2, 18)]
    )
    def test_subcubes_equal_fresh_builds(self, family, dim, n, mode, length):
        for metric_kind in ("flat", "random", "linear"):
            spec = ScenarioSpec(
                family, dim, length, n, mode=mode, metric_kind=metric_kind, seed=11, epsilon=0.05,
                kappa=0.0 if family == "perturbed" else 1.2,
            )
            bundle = build_scenario(spec)
            for block in (n, n // 2, n // 3, n // 6, 1):
                corners = subcube_corners(n, dim, block)
                assert_subcubes_equal_fresh_builds(bundle.u, bundle.metric, n // block, corners=corners)

    def test_rank_deficient_cells_slice_like_a_fresh_build(self):
        sheet = flat_inclusion(n=8)
        values = sheet.values.copy()
        values[4, :, 0] = values[3, :, 0]  # the row of cells at 3 loses its first column
        sheet = ImmersionField(sheet.grid, sheet.target, values)
        assert sheet.degenerate[3].all() and sheet.degenerate.sum() == 8
        arc = latitude_circle(n=32)
        values = arc.values.copy()
        values[17] = values[16]  # a zero-length cell on the sphere
        arc = ImmersionField(arc.grid, arc.target, values)
        assert arc.degenerate[16] and arc.degenerate_count == 1

        for u, cuts in (
            (sheet, (((0, 0), 4), ((2, 2), 2), ((3, 5), 1), ((0, 0), 8))),
            (arc, (((16,), 8), ((16,), 16), ((16,), 1))),
        ):
            g = build_metric(u.grid, "random", seed=3)
            for corner, block in cuts:
                t = u.grid.resolution // block
                patches = assert_subcubes_equal_fresh_builds(u, g, t, corners=[corner])
                s = np.ravel_multi_index(tuple(c // block for c in corner), (t,) * u.grid.dim)
                assert patches.degenerate[s].any()

    @pytest.mark.parametrize("u", [flat_inclusion(n=8), latitude_circle(n=16)], ids=["sheet", "latitude"])
    def test_whole_grid_patch_views_the_parents_and_no_patch_runs_an_svd(self, u):
        g = build_metric(u.grid, "random", seed=3)
        parents = {name: getattr(g if from_metric else u, name) for name, from_metric in _PATCH_DATA}
        with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("a patch ran an SVD")):
            whole = _Patches.subcubes(u, g, 1)
            _Patches.subcubes(u, g, 4)
        for name, parent in parents.items():
            assert np.shares_memory(getattr(whole, name), parent), name
        assert_subcubes_equal_fresh_builds(u, g, 1)
        assert_subcubes_equal_fresh_builds(u, g, 4)

    def test_subgrid_keeps_the_parent_spacing_where_its_length_rounds_away(self):
        # length / 18 * 3 / 3 rounds one ulp away from length / 18 here; the
        # sub-grid keeps length / 18, so its differential is the parent's.
        grid = GridDomain(1, 0.5056378869683275, 18)
        assert GridDomain(1, grid.spacing * 3, 3).spacing != grid.spacing
        spec = ScenarioSpec("curve", 1, grid.length, 18, metric_kind="random")
        bundle = build_scenario(spec)
        assert_subcubes_equal_fresh_builds(bundle.u, bundle.metric, 6)

    # Both lengths have sub-grids of 3 and 6 cells whose length over their
    # resolution rounds one ulp away from the parent's spacing.
    @pytest.mark.parametrize(
        "family, dim, length", [("curve", 1, 0.5056378869683275), ("perturbed", 2, 0.9)]
    )
    def test_every_partition_keeps_the_parent_spacing(self, family, dim, length):
        n = 18
        grid = GridDomain(dim, length, n)
        for block in (3, 6):
            assert GridDomain(dim, grid.spacing * block, block).spacing != grid.spacing
        spec = ScenarioSpec(
            family, dim, length, n, metric_kind="random", seed=11, epsilon=0.05,
            kappa=0.0 if family == "perturbed" else 1.2,
        )
        bundle = build_scenario(spec)
        u, g = bundle.u, bundle.metric
        for t in (1, 2, 3, 6, 9):
            assert_subcubes_equal_fresh_builds(u, g, t)


class TestDerivedOnFirstRead:
    def test_constructor_computes_only_the_differential(self):
        u = latitude_circle(n=16)
        assert sorted(vars(u)) == ["differential", "grid", "mode", "target", "values"]
        g = MetricField.constant(u.grid, np.eye(1))
        assert sorted(vars(g)) == ["gram", "grid", "lam"]

    def test_energies_derive_no_frames_and_no_shape_solve(self):
        u = latitude_circle(n=32)
        energies(u, MetricField.constant(u.grid, np.eye(1)))
        for name in ("frames", "complements", "shape_operator", "shape_residual"):
            assert name not in vars(u), name
        assert "projected_normal_differential" in vars(u)


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

    # Lengths whose sub-grids of 3 or 6 cells round their spacing one ulp away:
    # a constructor-built grid reloads on the same grid all the same.
    @pytest.mark.parametrize(
        "family, dim, length", [("curve", 1, 0.5056378869683275), ("graph", 2, 0.9)]
    )
    def test_roundtrip_on_ulp_sensitive_lengths(self, tmp_path, family, dim, length):
        bundle = build_scenario(ScenarioSpec(family, dim, length, 18, metric_kind="random"))
        u, g = bundle.u, bundle.metric
        assert u.grid == GridDomain(dim, length, 18)
        path = tmp_path / "field.json"
        snapshot_save(path, u, g)
        u2, g2 = snapshot_load(path)
        assert u2.grid == u.grid and g2.grid == g.grid
        np.testing.assert_array_equal(u2.values, u.values)
        np.testing.assert_array_equal(u2.differential, u.differential)
        np.testing.assert_array_equal(g2.gram, g.gram)

    def test_roundtrip_keeps_the_difference_mode(self, tmp_path):
        bundle = build_scenario(ScenarioSpec("graph", 2, 1.0, 16, mode="central", epsilon=0.05))
        path = tmp_path / "field.json"
        snapshot_save(path, bundle.u, bundle.metric)
        u2, _ = snapshot_load(path)
        assert u2.mode == "central"
        np.testing.assert_array_equal(u2.differential, bundle.u.differential)

        # files written before the mode was saved read as forward; no other mode reads
        doc = json.loads(path.read_text())
        del doc["mode"]
        path.write_text(json.dumps(doc))
        assert snapshot_load(path)[0].mode == "forward"
        path.write_text(json.dumps(doc | {"mode": "backward"}))
        with pytest.raises(ValueError, match="snapshot field mode must be one of forward, central, got 'backward'"):
            snapshot_load(path)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("target", [TargetSpace.euclidean(1), TargetSpace.sphere(1, 1.0)])
    def test_non_finite_values_rejected(self, bad, target):
        arc = latitude_circle(n=8) if target.kind == "sphere" else unit_circle_arc(n=8)
        values = arc.values.copy()
        values[3, 0] = bad
        with pytest.raises(ValueError, match="node values are not finite"):
            ImmersionField(arc.grid, target, values)

    def test_overflowing_differential_rejected(self):
        grid = GridDomain(1, 1.0, 4)
        values = np.zeros(grid.node_shape + (2,))
        values[1, 1], values[2, 1] = 1e308, -1e308
        with pytest.raises(ValueError, match="differential is not finite"):
            ImmersionField(grid, TargetSpace.euclidean(1), values)
        tiny = GridDomain(1, 1e-308, 4)  # positive spacing, but 2 over it overflows
        with pytest.raises(ValueError, match="differential is not finite"):
            ImmersionField(tiny, TargetSpace.euclidean(1), np.arange(10.0).reshape(5, 2))

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
