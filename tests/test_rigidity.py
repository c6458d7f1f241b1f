import contextlib
import dataclasses
import inspect
import io
import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidkit import cli, fields, metric_algebra, rigidity
from rigidkit.fields import (
    DegenerateFieldError,
    GridDomain,
    GridMap,
    ImmersionField,
    MetricField,
    ReferenceShape,
    TargetSpace,
    _full_rank,
    _square_extremes,
    _subgrid,
    energies,
    oscillation_and_diameter,
)
from rigidkit.metric_algebra import OrientedSubspace, rotation_align, spd_inv_sqrt, subspace_distance
from rigidkit.rigidity import (
    _bound_slack,
    _bound_survivors,
    _gap_directions,
    _gap_scores,
    _score_bounds,
    admissible_subcubes,
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

from oracles import SPD_GRAMS, random_frame, random_spd, rotation_descent_per_candidate, translation_modulus_per_call


def rotation2(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def flat_inclusion(n=8, length=1.0):
    grid = GridDomain(2, length, n)
    coords = grid.node_coordinates()
    values = np.concatenate([coords, np.zeros(grid.node_shape + (1,))], axis=-1)
    return ImmersionField(grid, TargetSpace.euclidean(2), values)


def unfiltered_base_point(planes, p):
    """The base-point scan with no bound filter: every non-degenerate cell
    scored against all of them in 512-row blocks, argmin taking the lowest
    index on ties."""
    good = ~planes.degenerate.reshape(-1)
    shape = planes.complements.shape
    comps = planes.complements.reshape(-1, shape[-2], shape[-1])
    candidates = np.nonzero(good)[0]
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
    """The planes of a `family_field` family, or for "collapsed_<family>" of
    that family with `collapsed_cells` made degenerate."""
    u = family_field(family.removeprefix("collapsed_"))
    if family.startswith("collapsed_"):
        u = collapsed_cells(u, 4)
        assert u.degenerate_count > 0
    return tangent_plane_field(u)


def pinned_fields(name):
    """The immersions the plane and rank-test formulas are pinned on: a
    `family_field` family, the Clifford patch, a graph over a 3-cube into
    R^4 ("graph_3d"), or (for "rank_deficient") a
    sheet whose row of cells at 3 loses a column, a latitude arc with a
    zero-length cell, and three fields whose cells 2 and 5 sit either side of
    the rank tolerance, at 0.75e-12 and 1.5e-12: a segment with differentials
    of those lengths, a graph whose second column is that short against the
    first, and a latitude arc whose differential is radial up to a tangential
    part of that length (one node lifted 1e-9 off the sphere, so only the
    window with the radial appended loses rank).  The short-column graph
    comes last once more scaled by 1e-150 and once by 1e160."""
    if name == "clifford":
        return [clifford_patch(12)]
    if name == "graph_3d":
        grid = GridDomain(3, 1.0, 6)
        x = grid.node_coordinates()
        height = 0.3 * np.sin(2.0 * x[..., 0]) * np.cos(x[..., 1]) + 0.2 * x[..., 1] * x[..., 2] ** 2
        return [ImmersionField(grid, TargetSpace.euclidean(3), np.concatenate([x, height[..., None]], axis=-1))]
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

    graph_grid = GridDomain(2, 1.0, 8)
    y = np.concatenate([[0.0], np.cumsum(steps)])
    xx, yy = np.meshgrid(graph_grid.node_axis(), y, indexing="ij")
    graph = np.stack([xx, yy, 0.1 * np.sin(2.0 * xx) * np.cos(yy)], axis=-1)

    lifted = latitude_circle(GridDomain(1, 1.2, 32), 1.0, 1.0)
    lifted_values = lifted.values.copy()
    for cell, part in ((2, 0.75e-12), (5, 1.5e-12)):
        # unit-speed arc on a circle of latitude of radius sin(1)
        angle = np.arctan2(lifted_values[cell, 1], lifted_values[cell, 0]) + part * lifted.grid.spacing / np.sin(1.0)
        point = [np.sin(1.0) * np.cos(angle), np.sin(1.0) * np.sin(angle), np.cos(1.0)]
        lifted_values[cell + 1] = (1.0 + 1e-9) * np.array(point)
    return [
        ImmersionField(sheet.grid, sheet.target, values),
        ImmersionField(arc.grid, arc.target, arc_values),
        ImmersionField(grid, TargetSpace.euclidean(1), np.stack([x, np.zeros(9)], axis=-1)),
        ImmersionField(lifted.grid, lifted.target, lifted_values),
        *(ImmersionField(graph_grid, TargetSpace.euclidean(2), scale * graph) for scale in (1.0, 1e-150, 1e160)),
    ]


def collapsed_cells(u, block):
    """`u` with the first subcube's first cells (dimension 1) or its first row
    of cells and its neighbour's first (dimension 2) made degenerate, by
    moving their upper nodes onto the lower ones."""
    values = u.values.copy()
    if u.grid.dim == 1:
        values[1:3] = values[0]
    else:
        values[1, : block + 2] = values[0, : block + 2]
    return ImmersionField(u.grid, u.target, values, u.mode)


def subcube_grid(u, block):
    """The grid of `u`'s subcubes of `block` cells, checked to keep `u`'s
    spacing, which GridDomain(dim, spacing * block, block) can miss by an ulp."""
    sub = _subgrid(u.grid, block)
    assert sub.spacing == u.grid.spacing
    assert sub.length == u.grid.spacing * block
    return sub


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


def svd_degenerate_and_normal(u):
    """The rank test and oriented normal as the full SVD of the window and a
    determinant sign pass: the path `_degenerate_and_normal` replaced."""
    du = u.differential
    radial = [] if u.target.kind == "euclidean" else [u.radial[..., :, None]]
    left, sing, _ = np.linalg.svd(np.concatenate([du, *radial], axis=-1), full_matrices=True)
    degenerate = sing[..., -1] <= 1e-12 * np.maximum(sing[..., 0], 1.0)
    normal = left[..., :, -1].copy()
    flip = np.linalg.det(np.concatenate([*radial, du, normal[..., :, None]], axis=-1)) < 0
    normal[flip] = -normal[flip]
    normal[degenerate] = 0.0
    return degenerate, normal


def random_window_field(dim, seed, n=64):
    """A Euclidean field on a unit-spacing grid whose cells carry seeded random
    windows exactly.  Node values vanish on every other node (a checkerboard
    for dim 2), so each forward difference is one node's value or its
    negative: entries of random sign and magnitude log-uniform in
    [1e-100, 1e100].  For dim 2 a cell whose lower corner is a nonzero node
    gets that node's negative in both columns, so it is rank-deficient."""
    rng = np.random.default_rng(seed)
    grid = GridDomain(dim, float(n), n)
    shape = grid.node_shape + (dim + 1,)
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-100.0, 100.0, size=shape)
    parity = np.indices(grid.node_shape).sum(axis=0) % 2
    values[parity == 0] = 0.0
    return ImmersionField(grid, TargetSpace.euclidean(dim), values)


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


def exact_orthonormality_error(frame):
    """|F^T F - I|_F of a frame (D, r), its Gram matrix taken in exact arithmetic."""
    cols = [[Fraction(x) for x in col] for col in frame.T]
    return math.sqrt(
        sum(
            (sum(a * b for a, b in zip(ci, cj)) - (i == j)) ** 2
            for i, ci in enumerate(cols)
            for j, cj in enumerate(cols)
        )
    )


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
        with mock.patch.object(rigidity, "isometry_defect", wraps=rigidity.isometry_defect) as spy:
            fit = euclidean_best_rotation(du, cell_volume=0.025, p=p)
            assert spy.call_count == 0
            diff = du - fit.rotation
            lhs = float(0.025 * np.sum(np.sqrt(np.sum(diff * diff, axis=(-2, -1))) ** p))
            sing = np.linalg.svd(du, compute_uv=False)
            sing[:, -1] = np.where(np.linalg.det(du) < 0, -sing[:, -1], sing[:, -1])
            rhs = float(0.025 * np.sum(np.sqrt(np.sum((sing - 1.0) ** 2, axis=-1)) ** p))
            # the defect is a closed form for 2 x 2 cells, equal to the SVD one to round-off
            assert fit.constant == pytest.approx(lhs / rhs, rel=1e-13, abs=0.0)
            assert fit.lhs == lhs
            assert fit.rhs == pytest.approx(rhs, rel=1e-13, abs=0.0)
            assert spy.call_count == 1

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateFieldError):
            euclidean_best_rotation(np.zeros((10, 2, 2)))
        du = np.broadcast_to(np.eye(2), (10, 2, 2))
        with pytest.raises(DegenerateFieldError):
            euclidean_best_rotation(np.zeros((0, 2, 2)))
        with pytest.raises(ValueError):
            euclidean_best_rotation(du, p=1.0)
        with pytest.raises(ValueError):
            euclidean_best_rotation(np.zeros((10, 3, 2)))


def _turn_bounds(du: np.ndarray, p: float, rot: np.ndarray, best: float) -> rigidity._TurnBounds:
    """The descent's bounds for the turns of `rot`, on the cells (N, d, d) in
    its (d^2, N) column layout, from freshly computed squared distances."""
    columns = np.ascontiguousarray(du.reshape(len(du), -1).T)
    return rigidity._TurnBounds(columns, rot, p, best, np.sum((columns - rot.reshape(-1, 1)) ** 2, axis=0))


class TestRotationDescent:
    def test_equals_the_per_candidate_descent_bit_for_bit(self):
        rng = np.random.default_rng(23)
        kept = []
        draws = itertools.product((2, 3), (1.5, 2.5, 3.0, 4.0, 8.0), (1, 7, 1024, 4096), (0.3, 1e-8))
        for d, p, n, spread in draws:
            du = rotation_align(rng.standard_normal((d, d))) + spread * rng.standard_normal((n, d, d))
            seed = rotation_align(du.mean(axis=0))
            quarter = rigidity._givens(d, 0, 1, np.pi / 4)
            for start in (seed, quarter @ seed):
                accepted, candidates = [], []
                want = rotation_descent_per_candidate(du, p, start, accepted, lambda *args: candidates.append(args))
                with (
                    mock.patch.object(rigidity, "_givens", wraps=rigidity._givens) as spy,
                    mock.patch.object(rigidity, "_TurnBounds", wraps=rigidity._TurnBounds) as passes,
                ):
                    got = rigidity._rotation_descent(du, p, start)
                assert np.array_equal(got, want), (d, p, n, spread)
                if p < 2.0:
                    # Every candidate the per-candidate descent scores is
                    # built once, and no bound is formed.
                    assert spy.call_count == len(candidates), (d, p, n, spread)
                    assert passes.call_count == 0
                else:
                    # One bound pass at the start and one after each kept turn.
                    assert passes.call_count == 1 + len(accepted), (d, p, n, spread)
                kept += accepted
        # kept turns in both directions
        assert kept.count(1.0) > 0
        assert kept.count(-1.0) > 0

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from((2, 3)),
        n=st.integers(1, 4096),
        p=st.sampled_from((2.0, 2.0 + 1e-9, 2.5, 3.0, 4.0, 8.0)),
        spread=st.floats(-9.0, math.log10(2.0)).map(lambda x: 10.0**x),
        turned=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bounds_exclude_only_turns_that_fail_the_keep_test(self, d, n, p, spread, turned, seed):
        # Along the per-candidate descent's path, every score is at least
        # its floor, and a turn the bounds exclude is one whose score does
        # not pass the keep test.
        rng = np.random.default_rng(seed)
        du = rotation_align(rng.standard_normal((d, d))) + spread * rng.standard_normal((n, d, d))
        start = rotation_align(du.mean(axis=0))
        if turned:
            start = rigidity._givens(d, 0, 1, np.pi / 4) @ start
        passes = {}

        def visit(best_rot, best, i, j, angle, value):
            key = (best_rot.tobytes(), float(best))
            if key not in passes:
                passes[key] = _turn_bounds(du, p, best_rot, best)
            assert passes[key].floor(i, j, angle) <= value, (i, j, angle, value, best)
            if passes[key].excludes(i, j, angle):
                assert not value < best * (1.0 - rigidity._DESCENT_REL_TOL), (i, j, angle, value, best)

        rotation_descent_per_candidate(du, p, start, visit=visit)

    @pytest.mark.parametrize("d, spread, most", [(2, 0.3, 0.25), (3, 0.3, 0.25), (2, 1e-6, 0.5)])
    def test_bounds_leave_few_turns_to_score(self, d, spread, most):
        # A 4096-cell p = 3 fit scores a small share of the candidates that
        # the per-candidate descent scores.
        rng = np.random.default_rng(31)
        du = rotation_align(rng.standard_normal((d, d))) + spread * rng.standard_normal((4096, d, d))
        start = rotation_align(du.mean(axis=0))
        candidates = []
        want = rotation_descent_per_candidate(du, 3.0, start, visit=lambda *args: candidates.append(args))
        with mock.patch.object(rigidity, "_givens", wraps=rigidity._givens) as spy:
            got = rigidity._rotation_descent(du, 3.0, start)
        assert np.array_equal(got, want)
        assert spy.call_count <= most * len(candidates), (spy.call_count, len(candidates))

    def test_entry_sums_add_in_the_order_of_np_sum(self):
        # m = d^2 entries per cell: left to right below 8, eight lanes up
        # to 128, and split halves above (d = 12 has 144 entries).
        rng = np.random.default_rng(29)
        for d, n in itertools.product(range(2, 13), (1, 5, 300)):
            sq = rng.standard_normal((n, d, d)) ** 2 * rng.uniform(1e-3, 1e3, (n, d, d))
            columns = np.ascontiguousarray(sq.reshape(n, d * d).T)
            assert np.array_equal(metric_algebra._entry_sums(columns), np.sum(sq, axis=(-2, -1))), d


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
        report = metric_rigidity(u, g)
        assert report.base_index == (8, 8)
        base_gram = g.cell_grams[8, 8]
        np.testing.assert_allclose(report.rotation.T @ report.rotation, base_gram, atol=1e-10)

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


class TestTangentPlaneField:
    def test_flat_inclusion_planes(self):
        u = flat_inclusion(6)
        planes = tangent_plane_field(u)
        expected = np.broadcast_to(np.eye(3)[:, :2], planes.frames.shape)
        np.testing.assert_allclose(planes.frames, expected, atol=1e-14)
        comp = np.broadcast_to([0.0, 0.0, 1.0], planes.complements[..., 0].shape)
        np.testing.assert_allclose(planes.complements[..., 0], comp, atol=1e-14)
        assert OrientedSubspace(planes.frames[0, 0]).dim == 2

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
        "name", ["curve_wave", "latitude", "graph", "perturbed_sheet", "clifford", "graph_3d", "rank_deficient"]
    )
    def test_planes_equal_the_qr_formula(self, name):
        near_tolerance = 0
        for u in pinned_fields(name):
            planes = tangent_plane_field(u)
            frames, comp, flip = qr_tangent_planes(u)
            np.testing.assert_array_equal(planes.frames[u.degenerate], frames[u.degenerate])
            # Gram-Schmidt frames: Householder's to a few ulps on
            # well-conditioned cells; on every cell, the near-tolerance ones
            # included, an orthonormal frame whose R = Q^T A is upper
            # triangular with a positive diagonal and whose span holds A.
            a, q, ref = u.differential[~u.degenerate], planes.frames[~u.degenerate], frames[~u.degenerate]
            sing = np.linalg.svd(a, compute_uv=False)
            cond = sing[:, 0] / sing[:, -1]
            well = cond < 1e3
            assert np.abs(q - ref)[well].max(initial=0.0) <= 1e-14
            assert (np.abs(np.swapaxes(q, -1, -2) @ ref - np.eye(u.grid.dim))[~well].max(axis=(-2, -1))
                    <= 1e-12 * cond[~well]).all()
            assert np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(u.grid.dim)).max(initial=0.0) <= 1e-14
            size = np.abs(a).max(axis=(-2, -1))[:, None, None]
            r = np.swapaxes(q, -1, -2) @ (a / size)
            assert np.abs(q @ r - a / size).max(initial=0.0) <= 1e-14
            assert np.abs(np.tril(r, -1)).max(initial=0.0) <= 1e-14
            assert (np.diagonal(r, axis1=-2, axis2=-1) > 0.0).all()
            near_tolerance += int((~well).sum())
            np.testing.assert_array_equal(planes.complements, comp)
            np.testing.assert_array_equal(planes.degenerate, u.degenerate)
            assert planes.frames is u.frames and planes.complements is u.complements
            # the determinant fix turns the radial column inward on every
            # non-degenerate cell of an even-dimensional sphere patch, and
            # fires nowhere else: Euclidean d = 1, 2, 3 and sphere d = 1, 2
            even_sphere = u.target.kind == "sphere" and u.grid.dim % 2 == 0
            assert (flip[~u.degenerate] == even_sphere).all()
            assert flip.any() == (name == "clifford")
        assert (near_tolerance > 0) == (name == "rank_deficient")

    @pytest.mark.parametrize(
        "name",
        ["graph", "curve_constant", "curve_wave", "latitude", "perturbed_sheet", "perturbed_curve",
         "graph_3d", "rank_deficient"],
    )
    def test_degenerate_equals_the_singular_value_rule(self, name):
        for u in pinned_fields(name):
            np.testing.assert_array_equal(u.degenerate, singular_value_degenerate(u))
        if name == "rank_deficient":
            sheet, arc, segment, lifted, graph, tiny, huge = pinned_fields(name)
            assert sheet.degenerate.sum() == 8 and sheet.degenerate[3].all()
            assert arc.degenerate_count == 1 and arc.degenerate[16]
            assert segment.degenerate.tolist() == [i == 2 for i in range(8)]
            assert lifted.degenerate_count == 1 and lifted.degenerate[2]
            # the lifted arc's differential keeps full rank: only the window loses it
            assert (np.linalg.svd(lifted.differential, compute_uv=False) > 1e-8).all()
            for u in (graph, huge):
                assert u.degenerate_count == 8 and u.degenerate[:, 2].all()
            assert tiny.degenerate.all()


class TestFitRankTest:
    """`_fit_rotations` tests its square cell maps for rank through
    `_square_extremes`; these pin its verdicts to a value-only SVD's."""

    @staticmethod
    def verdicts(x):
        return _full_rank(_square_extremes(x)), _full_rank(np.linalg.svd(x, compute_uv=False))

    def test_verdicts_equal_the_svd_on_the_pinned_fields(self):
        # each differential's R factor (its singular values) and its top
        # square block, on the fields whose cells straddle the threshold
        deficient = 0
        for u in pinned_fields("rank_deficient"):
            du = u.differential
            for x in (np.linalg.qr(du)[1], du[..., : u.grid.dim, :]):
                ours, svd = self.verdicts(x)
                np.testing.assert_array_equal(ours, svd)
                deficient += int((~svd).sum())
        assert deficient > 0

    @settings(max_examples=300, deadline=None)
    @given(
        exponent=st.floats(-3.0, 300.0),
        offset=st.floats(0.01, 2.0),
        below=st.booleans(),
        angles=st.tuples(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi)),
        reflect=st.booleans(),
    )
    def test_verdicts_equal_the_svd_near_the_threshold(self, exponent, offset, below, angles, reflect):
        # s1 over 303 decades and s2 = 1e-12 max(s1, 1) 10^(-+offset): at
        # least 2% off the threshold, far past the few u s1 both round by
        s1 = 10.0**exponent
        s2 = 1e-12 * max(s1, 1.0) * 10.0 ** (-offset if below else offset)

        def turn(t):
            return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

        x = (turn(angles[0]) @ np.diag([s1, -s2 if reflect else s2]) @ turn(angles[1]))[None]
        ours, svd = self.verdicts(x)
        assert ours[0] == svd[0] == (not below)
        values, reference = _square_extremes(x)[0], np.linalg.svd(x, compute_uv=False)[0]
        assert abs(values[0] - reference[0]) <= 1e-15 * reference[0]
        assert abs(values[1] - reference[1]) <= 1e-15 * reference[0]

    def test_zero_and_one_dimensional_maps(self):
        x = np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 2.0], [0.0, 1.0]], [[1e-300, 0.0], [0.0, 1e-300]]])
        np.testing.assert_array_equal(_square_extremes(x)[:, 1], [0.0, 0.0, 1e-300])
        np.testing.assert_array_equal(_full_rank(_square_extremes(x)), [False, False, False])
        line = np.array([[[-3.0]], [[1e-13]], [[0.0]]])
        np.testing.assert_array_equal(_square_extremes(line), np.linalg.svd(line, compute_uv=False))


class TestNormalsMatchTheSvdPath:
    """`_degenerate_and_normal` reads the normal off one complete QR of the
    window; these pin it to the full SVD and determinant pass it replaced."""

    @pytest.mark.parametrize("mode", ["forward", "central"])
    @pytest.mark.parametrize(
        "family", ["graph", "curve_constant", "curve_wave", "latitude", "perturbed_sheet", "perturbed_curve"]
    )
    def test_equal_bit_for_bit_on_every_family(self, family, mode):
        base = family_field(family)
        u = ImmersionField(base.grid, base.target, base.values, mode)
        degenerate, normal = svd_degenerate_and_normal(u)
        np.testing.assert_array_equal(u.degenerate, degenerate)
        np.testing.assert_array_equal(u.normal, normal)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_bit_for_bit_on_random_windows(self, dim, seed):
        u = random_window_field(dim, seed)
        degenerate, normal = svd_degenerate_and_normal(u)
        np.testing.assert_array_equal(u.degenerate, degenerate)
        np.testing.assert_array_equal(u.normal, normal)
        assert 0 < u.degenerate_count < u.grid.cell_count

    @pytest.mark.parametrize("name", ["clifford", "graph_3d"])
    def test_four_by_three_windows_agree_to_round_off(self, name):
        (u,) = pinned_fields(name)
        degenerate, normal = svd_degenerate_and_normal(u)
        np.testing.assert_array_equal(u.degenerate, degenerate)
        np.testing.assert_allclose(u.normal, normal, rtol=0.0, atol=1e-14)
        assert (np.einsum("...i,...i->...", u.normal, normal)[~degenerate] > 0.5).all()

    @pytest.mark.parametrize("family", ["graph", "curve_constant", "latitude"])
    def test_small_windows_take_no_svd_and_no_det(self, family):
        base = family_field(family)
        u = ImmersionField(base.grid, base.target, base.values)
        with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("an SVD ran")), \
                mock.patch.object(np.linalg, "det", side_effect=AssertionError("a det ran")):
            u.normal
        np.testing.assert_array_equal(u.normal, svd_degenerate_and_normal(u)[1])


class TestOrientedGapClosedForm:
    @pytest.mark.parametrize("ambient,r", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_matches_generic_subspace_distance(self, ambient, r):
        rng = np.random.default_rng(17)
        base = random_frame(rng, ambient, r)
        frames = np.stack([random_frame(rng, ambient, r) for _ in range(200)])
        # one pool row and p = 2: each row's score is its squared gap to the base
        fast = np.sqrt(_gap_scores(frames, base[None], 2.0))
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
        complements = [OrientedSubspace(c) for c in planes.complements]
        for p in (2.0, 4.0):
            chosen = choose_base_point(planes, p=p)
            objective = []
            for c in range(24):
                total = 0.0
                for y in range(24):
                    total += subspace_distance(complements[y], complements[c]) ** p
                objective.append(total)
            # the arc is symmetric, so the two middle cells tie up to rounding
            assert objective[chosen[0]] <= min(objective) + 1e-9
            assert 8 <= chosen[0] < 16
            assert objective[chosen[0]] <= np.mean(objective) + 1e-12

    def test_all_degenerate_rejected(self):
        grid = GridDomain(1, 1.0, 4)
        u = ImmersionField(grid, TargetSpace.euclidean(1), np.zeros((5, 2)))
        with pytest.raises(DegenerateFieldError):
            choose_base_point(tangent_plane_field(u))

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 8.0])
    @pytest.mark.parametrize(
        "family",
        [
            prefix + name
            for prefix in ("", "collapsed_")
            for name in ("graph", "curve_constant", "curve_wave", "latitude", "perturbed_sheet", "perturbed_curve")
        ],
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
        assert _bound_survivors(ring, 3.0).all()

    def test_keep_everything_cases(self):
        r4 = tangent_plane_field(clifford_patch(12))
        comps = r4.complements.reshape(-1, 4, 2)
        assert comps.shape[0] ** 2 >= rigidity._BOUND_MIN_PAIRS
        assert _gap_directions(comps) is None
        assert _bound_survivors(comps, 3.0).all()
        assert choose_base_point(r4, 3.0) == unfiltered_base_point(r4, 3.0)
        planes = family_planes("latitude")
        comps = planes.complements.reshape(-1, 3, 2)
        assert _bound_survivors(comps, 1.5).all()
        assert choose_base_point(planes, 1.5) == unfiltered_base_point(planes, 1.5)
        assert not _bound_survivors(comps, 3.0).all()
        small = tangent_plane_field(latitude_circle(GridDomain(1, 0.3, 64), 1.0, 1.1))
        assert 64**2 < rigidity._BOUND_MIN_PAIRS
        with mock.patch.object(rigidity, "_bound_survivors", side_effect=AssertionError):
            assert choose_base_point(small, 3.0) == unfiltered_base_point(small, 3.0)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("kind", ["curve", "latitude", "graph"])
    def test_every_cell_is_a_candidate_past_4096_cells(self, kind, p):
        # lines, 2-frames in R^3 and a surface, each past 4096 cells
        if kind == "curve":
            u = curvature_curve(GridDomain(1, 1.0, 5000), kappa=1.2, profile="wave")
        elif kind == "latitude":
            u = latitude_circle(GridDomain(1, 1.5, 4400), 1.0, 1.1)
        else:
            u = graph_surface(GridDomain(2, 1.0, 65), 0.08)
        planes = tangent_plane_field(u)
        assert planes.degenerate.size > 4096 and not planes.degenerate.any()
        assert choose_base_point(planes, p) == unfiltered_base_point(planes, p)

    def test_no_fit_takes_a_seed(self):
        for fit in (choose_base_point, local_rigidity, multiscale_fit):
            assert "seed" not in inspect.signature(fit).parameters, fit.__name__

    @pytest.mark.parametrize("ambient, r, p", [(2, 1, 2.0), (3, 1, 3.0), (3, 2, 2.0), (3, 2, 4.0)])
    def test_stack_with_a_degenerate_cell_equals_one_patch_calls(self, ambient, r, p):
        # Random complements have no ties, so every path must pick the same cell.
        rng = np.random.default_rng(211 + 10 * ambient + int(p))
        lines = r == 1 and p == 2.0
        # 40 candidates a patch are scored as one stack, 100 go through the bound filter
        for m in (40, 100):
            filtered = not lines and m * m >= rigidity._BOUND_MIN_PAIRS
            comps = np.stack([random_frame(rng, ambient, r) for _ in range(5 * m)]).reshape(5, m, ambient, r)
            singles = [rigidity._base_cells(comps[s : s + 1], p)[0] for s in range(5)]
            with mock.patch.object(rigidity, "_gap_directions", wraps=rigidity._gap_directions) as directions:
                assert rigidity._base_cells(comps, p).tolist() == singles
            # one embedding per filtered patch, serving both sides of its bound
            assert directions.call_count == (5 if filtered else 0)

            # Patch 2's winner turns degenerate, with a coordinate frame for
            # its placeholder complement: it leaves the candidates before
            # `_base_cells` sees them, and the choice is the one among the rest.
            degenerate = np.zeros(m, dtype=bool)
            degenerate[singles[2]] = True
            placeholder = comps[2].copy()
            placeholder[singles[2]] = np.eye(ambient)[:, ambient - r :]
            grid = GridDomain(1, 1.0, m)
            planes = rigidity.PlaneField(grid, np.zeros((m, ambient, 1)), placeholder, degenerate)
            with mock.patch.object(rigidity, "_base_cells", wraps=rigidity._base_cells) as choose:
                cell = choose_base_point(planes, p)
            (seen, _), _ = choose.call_args
            np.testing.assert_array_equal(seen, comps[2][None, ~degenerate])
            assert cell == unfiltered_base_point(planes, p) != (singles[2],)

    @settings(max_examples=300, deadline=None)
    @given(frames=complement_clouds(), p=st.one_of(st.just(2.0), st.floats(2.0, 12.0)))
    def test_bound_stays_below_score(self, frames, p):
        w = _gap_directions(frames)
        # the embedding the bound rests on: |w_c - w_y|^2 is the oriented gap^2
        # to within 72 u + 3.5 (delta_c + delta_y), delta = |F^T F - I|_F (the
        # proof is in `_bound_slack`), here in exact arithmetic on the frames
        # and on the computed w
        gap_sq = _gap_scores(frames, frames[:1], 2.0)
        delta = [exact_orthonormality_error(frame) for frame in frames]
        for k in range(len(frames)):
            exact = sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(w[k], w[0]))
            assert abs(Fraction(gap_sq[k]) - exact) <= 72 * 2.0**-53 + 3.5 * (delta[k] + delta[0])
        scores = _gap_scores(frames, frames, p)
        keep = _bound_survivors(frames, p)
        assert keep[scores == scores.min()].all()
        bounds = _score_bounds(w, p)
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

    def test_metric_on_another_grid_rejected(self):
        grid = GridDomain(1, np.pi / 2, 32)
        u = curvature_curve(grid, kappa=1.0)
        with pytest.raises(ValueError):
            local_rigidity(u, build_metric(GridDomain(1, 1.0, 32), "flat"))


class TestFitsDeriveNoFrames:
    """The pipelines factor a tangent frame at base cells only: no per-cell
    frame field of the immersion is derived."""

    @pytest.mark.parametrize("family", ["curve", "graph", "latitude"])
    @pytest.mark.parametrize("fit", ["local", "multiscale_1", "multiscale_4"])
    def test_fits_derive_no_frames(self, family, fit):
        u, g = family_case(family, "random")
        if fit == "local":
            local_rigidity(u, g)
        else:
            multiscale_fit(u, g, int(fit[-1]))
        assert "frames" not in vars(u)
        assert "complements" in vars(u)


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

    @pytest.mark.parametrize("mode", ["forward", "central"])
    @pytest.mark.parametrize("family,p", FAMILIES_AND_EXPONENTS)
    def test_matches_metric_rigidity_of_flattened_map(self, family, p, mode):
        u, g = family_case(family, "random")
        u = ImmersionField(u.grid, u.target, u.values, mode)
        assert u.degenerate_count == 0
        report = local_rigidity(u, g, p=p)
        frame = tangent_plane_field(u).frames[report.base_index]
        flattened = GridMap(u.grid, u.values @ frame, u.mode)
        # metric_rigidity's frame fit, at the local pipeline's base cell
        d = u.grid.dim
        du = flattened.differential.reshape(1, -1, d, d)
        inner_rotation = rigidity._metric_frame_fit(du, g.cell_grams[report.base_index][None], p)[0]
        inner = metric_rigidity(flattened, g, p)
        np.testing.assert_allclose(report.rotation, frame @ inner_rotation, rtol=0.0, atol=1e-12)
        assert report.osc_term == pytest.approx(inner.osc_term, rel=1e-12, abs=1e-12)
        assert report.osc_term > 0.0

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("family", ["curve", "latitude", "graph", "collapsed_latitude", "collapsed_graph"])
    def test_plane_variation_is_the_summed_subspace_distance(self, family, p):
        collapsed = family.startswith("collapsed_")
        u, g = family_case(family.removeprefix("collapsed_"), "random")
        if collapsed:
            u = collapsed_cells(u, 4)
            assert u.degenerate_count > 0
        report = local_rigidity(u, g, p=p)
        base = OrientedSubspace(u.complements[report.base_index])
        gaps = [subspace_distance(OrientedSubspace(c), base) for c in u.complements[~u.degenerate]]
        expected = u.grid.cell_volume * np.sum(np.array(gaps) ** p)
        assert expected > 0.0
        assert report.plane_variation == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("family,p", FAMILIES_AND_EXPONENTS)
    def test_flat_metric_stretch_is_lebesgue_stretch(self, family, p):
        u, g = family_case(family, "flat")
        report = local_rigidity(u, g, p=p)
        lebesgue = rigidity._lebesgue_isometry_defect(u, g, p)
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

    def test_one_oscillation_search_per_subcube_and_none_on_a_flat_metric(self, tmp_path):
        spec = ScenarioSpec("graph", 2, 1.0, 16, epsilon=0.05, metric_kind="random", seed=3)
        u = build_scenario(spec).u
        g = build_metric(u.grid, "random", seed=3)
        g._oscillation  # the whole-grid search, outside the count
        with mock.patch.object(rigidity, "oscillation_and_diameter", wraps=oscillation_and_diameter) as spy:
            field = multiscale_fit(u, g, 4)
            assert spy.call_count == 0  # the fit itself reads no oscillation
            fits = field.fits
            # the boxes of the 4 x 4 subcubes of 4 x 4 cells, in C order
            boxes = [((4 * i, 4 * i + 4), (4 * j, 4 * j + 4)) for i, j in itertools.product(range(4), repeat=2)]
            assert [call.args[1] for call in spy.call_args_list] == boxes
            assert field.fits is fits
            assert spy.call_count == 16

            # `multiscale` prints and writes only sums over the subcubes
            spy.reset_mock()
            config = tmp_path / "multi.json"
            config.write_text(json.dumps({"scenario": spec.to_dict(), "t_values": [1, 2, 4]}))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["multiscale", "--config", str(config), "--out", str(tmp_path / "out")]) in (0, 1)
            assert spy.call_count == 0
        assert min(fit.osc_term for fit in fits) > 0.0
        flat = build_metric(u.grid, "flat")
        with mock.patch("rigidkit.fields._sq_distances", side_effect=AssertionError("a search ran")):
            field = multiscale_fit(u, flat, 4)
        assert [fit.osc_term for fit in field.fits] == [0.0] * 16

    def test_multiscale_computes_no_subcube_energy_and_fits_compute_them_once(self, tmp_path):
        spec = ScenarioSpec("graph", 2, 1.0, 16, epsilon=0.05, seed=3)
        u = build_scenario(spec).u
        g = build_metric(u.grid, "flat")
        with mock.patch.object(rigidity, "_energy_sums", wraps=rigidity._energy_sums) as spy:
            config = tmp_path / "multi.json"
            config.write_text(json.dumps({"scenario": spec.to_dict(), "t_values": [4, 8]}))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["multiscale", "--config", str(config), "--out", str(tmp_path / "out")]) in (0, 1)
            assert spy.call_count == 0

            fields = [multiscale_fit(u, g, t) for t in (1, 2, 4)]
            assert spy.call_count == 0
            for count, field in enumerate(fields, start=1):
                fits = field.fits
                assert spy.call_count == count  # one stacked call per partition
                assert field.fits is fits
                field.local.stretch, field.local.plane_variation
                assert spy.call_count == count

            local_rigidity(u, g)
            assert spy.call_count == 4

    def test_subcube_oscillation_bound_for_linear_metric(self):
        grid = GridDomain(1, 1.0, 32)
        u = curvature_curve(grid, kappa=0.5)
        slope, side, p = 0.4, 1.0 / 4, 2.0
        g = build_metric(grid, "linear", slope=slope)
        field = multiscale_fit(u, g, 4, p=p)
        assert len(field.fits) == 4
        for fit in field.fits:
            # |gram(x) - gram(y)| = slope |x - y| <= slope * side on a subcube of volume side^d
            assert 0.0 < fit.osc_term <= side * (slope * side) ** p * (1.0 + 1e-12)


    @pytest.mark.parametrize(
        "family, dim, length, n, t, p, mode, variant",
        [
            (*row, "random")
            for row in [
                ("curve", 1, 1.0, 48, 4, 2.0, "forward"),
                ("curve", 1, 1.3, 48, 6, 3.0, "central"),
                ("latitude", 1, 0.7, 96, 8, 2.0, "forward"),
                ("latitude", 1, 1.0, 96, 3, 3.0, "central"),
                ("graph", 2, 1.0, 24, 3, 2.0, "forward"),
                ("graph", 2, 0.7, 24, 2, 3.0, "central"),
                ("perturbed", 2, 1.3, 18, 3, 2.0, "forward"),
                # 0.5056... / 18 * 3 / 3 rounds away from 0.5056... / 18: the
                # subcube grids keep the parent's spacing all the same
                ("curve", 1, 0.5056378869683275, 18, 6, 2.0, "forward"),
            ]
        ]
        + [
            # a flat metric: every oscillation is zero without a search
            ("graph", 2, 1.0, 24, 3, 2.0, "forward", "flat"),
            ("latitude", 1, 0.7, 96, 8, 3.0, "central", "flat"),
            # p < 2: no bound filter, every candidate scored, descent per subcube
            ("curve", 1, 1.0, 48, 4, 1.5, "forward", "random"),
            ("graph", 2, 1.0, 24, 3, 1.5, "central", "random"),
            # 128-cell subcubes: 128 * 128 pairs reach the bound filter
            ("latitude", 1, 1.0, 256, 2, 2.0, "forward", "random"),
            # 4100-cell subcubes: more candidates than any benchmark fit scores
            ("curve", 1, 1.0, 8200, 2, 3.0, "forward", "random"),
            # 4096 cells: 16 subcubes of 256 cells in one stacked pass
            ("graph", 2, 1.0, 64, 4, 2.0, "central", "random"),
            # 2-frames scored as one stack: 64 subcubes of 64 cells, 8 per gap block
            ("latitude", 1, 1.0, 4096, 64, 2.0, "forward", "random"),
            # some subcubes with degenerate cells, the others without
            ("curve", 1, 1.0, 48, 4, 2.0, "forward", "collapsed"),
            ("graph", 2, 1.0, 24, 3, 3.0, "forward", "collapsed"),
        ],
    )
    def test_equals_a_loop_over_rebuilt_subcubes(self, family, dim, length, n, t, p, mode, variant):
        spec = ScenarioSpec(
            family, dim, length, n, p=p, mode=mode, seed=9,
            metric_kind="flat" if variant == "flat" else "random", epsilon=0.05,
            kappa=0.0 if family == "perturbed" else 1.2,
        )
        bundle = build_scenario(spec)
        u, g = bundle.u, bundle.metric
        if variant == "collapsed":
            u = collapsed_cells(u, n // t)
            assert 0 < u.degenerate_count < n**dim
        field = multiscale_fit(u, g, t, p=p)

        block = n // t
        assert len(field.fits) == t**dim
        residual = 0.0
        for fit, index in zip(field.fits, itertools.product(range(t), repeat=dim)):
            corner = tuple(block * i for i in index)
            nodes = tuple(slice(c, c + block + 1) for c in corner)
            sub = subcube_grid(u, block)
            sub_u = ImmersionField(sub, u.target, u.values[nodes], u.mode)
            sub_g = MetricField(sub, g.gram[nodes])
            report = local_rigidity(sub_u, sub_g, p)

            assert fit.base_index == report.base_index
            np.testing.assert_array_equal(fit.rotation, report.rotation)
            np.testing.assert_array_equal(field.rotations[index], report.rotation)
            for name in ("p", "lhs", "osc_term", "stretch", "bend_scale", "plane_variation", "constant"):
                assert getattr(fit, name) == getattr(report, name), name
            residual += report.lhs
        assert (max(fit.osc_term for fit in field.fits) > 0.0) == (variant != "flat")
        assert field.residual == residual

    @pytest.mark.parametrize(
        "family, dim, n, ts, p",
        [("latitude", 1, 4096, (2, 8, 64), 2.0), ("graph", 2, 64, (2, 8, 32), 3.0)],
    )
    def test_one_stacked_pass_per_partition(self, family, dim, n, ts, p):
        # Without ragged subcubes, each t makes one cut and one base-cell
        # choice, and every gap block holds at most 512 rows: `_gap_scores`
        # clips each block's (patches, rows, pool) gaps, and nothing else in
        # the fit calls np.clip.
        spec = ScenarioSpec(family, dim, 1.0, n, p=p, seed=9, metric_kind="flat", epsilon=0.05, kappa=1.2)
        u = build_scenario(spec).u
        g = build_metric(u.grid, "flat")
        assert u.degenerate_count == 0
        for t in ts:
            with (
                mock.patch.object(rigidity._Patches, "subcubes", wraps=rigidity._Patches.subcubes) as cut,
                mock.patch.object(rigidity, "_base_cells", wraps=rigidity._base_cells) as choose,
                mock.patch.object(np, "clip", wraps=np.clip) as gap_blocks,
            ):
                multiscale_fit(u, g, t, p=p)
            assert (cut.call_count, choose.call_count) == (1, 1)
            shapes = [call.args[0].shape for call in gap_blocks.call_args_list]
            assert shapes and all(len(shape) == 3 and shape[0] * shape[1] <= 512 for shape in shapes)

    # Latitude arcs at 12 cells per subcube hold mirror twins whose scores
    # differ by round-off only: a subcube scored with other products than the
    # one-subcube scan picks the other twin.
    # With some cells collapsed, the scan runs over the other cells only.
    @pytest.mark.parametrize(
        "family, dim, n, t, p, collapsed",
        [
            ("latitude", 1, 96, 8, 2.0, False),
            ("latitude", 1, 96, 8, 3.0, False),
            ("curve", 1, 96, 8, 2.0, False),
            ("graph", 2, 24, 3, 3.0, False),
            ("curve", 1, 96, 8, 2.0, True),
            ("latitude", 1, 96, 8, 3.0, True),
            ("graph", 2, 24, 3, 2.0, True),
        ],
    )
    def test_subcube_base_cells_equal_the_unfiltered_scan(self, family, dim, n, t, p, collapsed):
        spec = ScenarioSpec(family, dim, 1.0, n, p=p, seed=9, metric_kind="flat", epsilon=0.05, kappa=1.2)
        u = build_scenario(spec).u
        if collapsed:
            u = collapsed_cells(u, n // t)
        with mock.patch.object(rigidity, "_base_cells", wraps=rigidity._base_cells) as choose:
            field = multiscale_fit(u, build_metric(u.grid, "flat"), t, p=p)
        # every non-degenerate cell reaches the choice once, and no degenerate one
        assert sum(call.args[0].shape[0] * call.args[0].shape[1] for call in choose.call_args_list) == (
            u.grid.cell_count - u.degenerate_count
        )
        block = n // t
        assert len(field.fits) == t**dim
        for fit, index in zip(field.fits, itertools.product(range(t), repeat=dim)):
            nodes = tuple(slice(block * i, block * (i + 1) + 1) for i in index)
            sub_u = ImmersionField(subcube_grid(u, block), u.target, u.values[nodes])
            assert fit.base_index == unfiltered_base_point(tangent_plane_field(sub_u), p)

    @pytest.mark.parametrize(
        "family, dim, length, n, p, metric_kind",
        [
            ("curve", 1, 1.0, 48, 3.0, "random"),
            ("latitude", 1, 1.0, 96, 2.0, "random"),
            ("graph", 2, 1.0, 24, 2.0, "flat"),
            ("perturbed", 2, 1.0, 18, 1.5, "random"),
            # spacing * 1936 rounds away from the length: the one subcube's
            # grid is the parent's, so its volume and diameter are too
            ("curve", 1, 7.633528204634498, 1936, 2.0, "random"),
        ],
    )
    def test_one_subcube_is_the_local_pipeline(self, family, dim, length, n, p, metric_kind):
        spec = ScenarioSpec(
            family, dim, length, n, p=p, seed=9, metric_kind=metric_kind, epsilon=0.05,
            kappa=0.0 if family == "perturbed" else 1.2,
        )
        bundle = build_scenario(spec)
        u, g = bundle.u, bundle.metric
        (fit,) = multiscale_fit(u, g, 1, p=p).fits
        report = local_rigidity(u, g, p)
        for name in ("p", "base_index", "rotation", "lhs", "osc_term", "stretch", "bend_scale",
                     "plane_variation", "constant"):
            np.testing.assert_array_equal(getattr(fit, name), getattr(report, name), err_msg=name)


class TestPerPatchProducts:
    """The factors shared by every cell of a patch are applied as one product
    per patch; each must equal the per-cell stacked product bit for bit."""

    @pytest.mark.parametrize("big, d", [(2, 1), (3, 1), (3, 2)])
    @pytest.mark.parametrize("count", [1, 4, 64])
    @pytest.mark.parametrize("n", [1, 7, 64, 1024])
    def test_frame_transpose_times_du(self, big, d, count, n):
        rng = np.random.default_rng(1000 * big + 100 * d + count + n)
        for scale in (1e-3, 1.0, 1e3):
            du = scale * rng.standard_normal((count, n, big, d))
            frame = np.stack([random_frame(rng, big, d) for _ in range(count)])
            per_cell = np.swapaxes(frame, -1, -2)[:, None] @ du
            assert np.array_equal(rigidity._flatten(du, frame), per_cell)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 4, 64])
    @pytest.mark.parametrize("n", [1, 7, 64, 1024])
    def test_du_times_inverse_root(self, d, count, n):
        rng = np.random.default_rng(100 * d + count + n)
        du = np.eye(d) + 0.3 * rng.standard_normal((count, n, d, d))
        gram = np.stack([random_spd(rng, d) for _ in range(count)])
        with mock.patch.object(rigidity, "_fit_rotations", wraps=rigidity._fit_rotations) as spy:
            rigidity._metric_frame_fit(du, gram, 2.0)
        (flat, _), _ = spy.call_args
        assert np.array_equal(flat, du @ spd_inv_sqrt(gram)[:, None])


def assert_same_terms(ours, theirs, what=""):
    """Every field of two report dataclasses is equal, bit for bit."""
    for item in dataclasses.fields(ours):
        np.testing.assert_array_equal(getattr(ours, item.name), getattr(theirs, item.name), err_msg=f"{what}{item.name}")


def constant_metric_fields(u, kind):
    """The constant metric `kind` ("eye" or "spd") on `u`'s grid, and the
    same metric on a materialised node array, which takes the per-cell path."""
    dim = u.grid.dim
    g = MetricField.constant(u.grid, np.eye(dim) if kind == "eye" else SPD_GRAMS[dim])
    return g, MetricField(u.grid, g.gram.copy())


class TestConstantMetricReports:
    """Every report on a constant metric, whose g^{-1/2} is one matrix
    applied as one product, equals the report on the same metric
    materialised node by node, where each cell's factor is multiplied alone."""

    @staticmethod
    def immersions():
        sheet = flat_inclusion(16)
        values = sheet.values.copy()
        values[5, :, 0] = values[4, :, 0]  # the row of cells at 4 drops rank: ragged subcubes
        return [
            ("latitude", latitude_circle(GridDomain(1, 1.2, 64), 1.0, 1.0)),
            ("curve", curvature_curve(GridDomain(1, 1.0, 64), 1.3)),
            ("graph", graph_surface(GridDomain(2, 1.0, 16), 0.2)),
            ("perturbed", perturbed_inclusion(GridDomain(2, 0.8, 16), 0.05, seed=4)),
            ("ragged", ImmersionField(sheet.grid, sheet.target, values)),
        ]

    @pytest.mark.parametrize("kind", ["eye", "spd"])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_immersion_reports_equal_the_materialised_metric(self, kind, p):
        for name, u in self.immersions():
            g, h = constant_metric_fields(u, kind)
            ref = ReferenceShape(u.grid, 0.7 * h.gram)
            assert_same_terms(energies(u, g, ref, p), energies(u, h, ref, p), f"{name} energies: ")
            assert_same_terms(local_rigidity(u, g, p), local_rigidity(u, h, p), f"{name} local: ")
            assert rigidity._lebesgue_isometry_defect(u, g, p) == rigidity._lebesgue_isometry_defect(u, h, p)
            for t in (1, 2, 4, 8):
                ours, theirs = multiscale_fit(u, g, t, p), multiscale_fit(u, h, t, p)
                assert ours.residual == theirs.residual, (name, t)
                assert np.array_equal(ours.rotations, theirs.rotations), (name, t)
                for k, (a, b) in enumerate(zip(ours.fits, theirs.fits, strict=True)):
                    assert_same_terms(a, b, f"{name} t={t} subcube {k}: ")
                for zeta in ([0.1] * u.grid.dim, [0.3, -0.05][: u.grid.dim]):
                    assert_same_terms(translation_modulus(ours, zeta), translation_modulus(theirs, zeta))

    @pytest.mark.parametrize("kind", ["eye", "spd"])
    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 16), (3, 6)])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_metric_rigidity_equals_the_materialised_metric(self, kind, dim, n, p):
        u = perturbed_identity(GridDomain(dim, 1.0, n), 0.05, seed=9)
        g, h = constant_metric_fields(u, kind)
        assert_same_terms(metric_rigidity(u, g, p), metric_rigidity(u, h, p))

    def test_every_metric_product_goes_through_the_helper(self):
        seen, product = [], metric_algebra._times_inv_sqrt

        def spy(x, inv_sqrt):
            seen.append(inv_sqrt.ndim == 2 or metric_algebra._repeats_one(inv_sqrt, inv_sqrt.ndim - 2))
            return product(x, inv_sqrt)

        with contextlib.ExitStack() as stack:
            for module in (metric_algebra, fields, rigidity):
                stack.enter_context(mock.patch.object(module, "_times_inv_sqrt", spy))
            for name, u in self.immersions():
                g = MetricField.constant(u.grid, SPD_GRAMS[u.grid.dim])
                seen.clear()
                field = multiscale_fit(u, g, 4, 3.0)
                field.fits
                translation_modulus(field, [0.1] * u.grid.dim)
                if name == "ragged":
                    # Five parts (its four subcubes with degenerate cells
                    # alone), each with the lhs and two energy terms, on
                    # patches an index has gathered, then the modulus.
                    assert len(seen) == 16 and seen[-1]
                else:
                    # The fit's lhs and its reports' two energy terms, then
                    # the modulus, each on the one matrix.
                    assert seen == [True] * 4, name
                seen.clear()
                energies(u, g, ReferenceShape(u.grid, np.zeros(u.grid.node_shape + (u.grid.dim,) * 2)))
                rigidity._lebesgue_isometry_defect(u, g, 2.0)
                # energies 3 and the defect 1, on the non-degenerate cells
                # a mask has gathered.
                assert len(seen) == 4, name
            v = perturbed_identity(GridDomain(2, 1.0, 8), 0.05, seed=9)
            seen.clear()
            metric_rigidity(v, MetricField.constant(v.grid, np.eye(2)))
            assert seen == [True] * 2


class TestTranslationModulus:
    def circle_field(self, t=8, n=64):
        grid = GridDomain(1, 1.0, n)
        u = curvature_curve(grid, kappa=1.0)
        return multiscale_fit(u, build_metric(grid, "flat"), t)

    @pytest.mark.parametrize("dim, n", [(1, 60), (2, 12)])
    def test_admissible_rule_agrees_with_the_covered_fraction(self, dim, n):
        # Every t from 1 to 6 that divides n; shifts inside the domain, of
        # either sign, and at least as long as its side.
        length = 1.5
        grid = GridDomain(dim, length, n)
        u = curvature_curve(grid, kappa=1.0) if dim == 1 else flat_inclusion(n, length)
        g = build_metric(grid, "flat")
        steps = [0.0, 0.1, 0.25, 0.5, 0.75, 0.99, 1.0, 1.2]
        shifts = [length * s for s in steps] + [-length * s for s in steps[1:]]
        zetas = [[s] for s in shifts] if dim == 1 else [[s, z] for s in shifts for z in (0.0, 0.2, -0.6)]
        outcomes = set()
        for t in (t for t in range(1, 7) if n % t == 0):
            field = multiscale_fit(u, g, t)
            for zeta in zetas:
                axes = admissible_subcubes(length, t, zeta)
                covered = translation_modulus(field, zeta).covered_fraction
                assert (axes is not None) == (covered > 0.0), (t, zeta)
                if axes is not None:
                    assert covered == math.prod(len(a) for a in axes) / t**dim
                outcomes.add(axes is not None)
        assert outcomes == {True, False}

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

    @pytest.mark.parametrize(
        "family, dim, n, t",
        [(family, dim, n, t) for family, dim, n in [("curve", 1, 64), ("graph", 2, 16)] for t in (1, 2, 4, 8)],
    )
    def test_shared_cell_geometry_equals_a_rebuild_per_shift(self, family, dim, n, t):
        spec = ScenarioSpec(family, dim, 1.0, n, epsilon=0.05, metric_kind="random", seed=9, kappa=1.2)
        bundle = build_scenario(spec)
        # admissible sets of several sizes, negative shifts, shifts off the
        # cell lattice, shifts that leave nothing admissible, and shifts at
        # least as long as the side; in d = 2 along either axis, and along
        # both diagonals
        lengths = [0.25, 0.23, 0.125, 0.0625, 0.07, 0.0, -0.11, -0.125, -0.3, 0.9, 1.0, 1.5]
        if dim == 1:
            shifts = [[z] for z in lengths]
        else:
            shifts = [[z, 0.0] for z in lengths] + [[0.0, z] for z in lengths]
            shifts += [[z, z] for z in lengths] + [[z, -z] for z in lengths]
            shifts += [[0.0, -0.25], [0.125, 0.25], [-0.125, 0.0625], [0.8, 0.8]]
        # fits read before the moduli on one field, after them on the other
        early, late = (multiscale_fit(bundle.u, bundle.metric, t) for _ in range(2))
        early.fits
        covered = set()
        for zeta in shifts:
            expected = repr(translation_modulus_per_call(late, zeta))
            for field in (early, late):
                mod = translation_modulus(field, zeta)
                assert repr((mod.shift, mod.value, mod.covered_fraction)) == expected
            covered.add(mod.covered_fraction)
        # no tripled subcube fits at t < 3
        assert 0.0 in covered and len(covered) >= (3 if t >= 3 else 1)
        for a, b in zip(early.fits, late.fits):
            for name in ("p", "base_index", "rotation", "lhs", "osc_term", "stretch", "bend_scale",
                         "plane_variation", "constant"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


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
        members = [build_scenario(s) for s in self.family(3)]
        with pytest.raises(ValueError, match="perturbation sizes must decrease strictly"):
            asymptotic_sequence_run(members[0], reversed(members[1:]))
        with pytest.raises(ValueError, match="perturbation sizes must decrease strictly"):
            asymptotic_sequence_run(members[1], [members[0], members[2]])
        one = asymptotic_sequence_run(members[0])
        assert (one.epsilons, one.gaps, len(one.energy_reports)) == ((1.0,), (0.0,), 1)
        mixed = build_scenario(members[1].spec.replace(kappa=2.0))
        with pytest.raises(ValueError, match="differ only in epsilon"):
            asymptotic_sequence_run(members[2], [members[0], mixed])
        graphs = [
            build_scenario(ScenarioSpec(family="graph", dim=2, resolution=8, epsilon=e)) for e in (0.1, 0.05)
        ]
        with pytest.raises(ValueError, match="perturbed-inclusion family"):
            asymptotic_sequence_run(graphs[-1], graphs[:-1])
        with pytest.raises(ValueError, match="perturbed-inclusion family"):
            asymptotic_sequence_run(graphs[-1])

    def test_shrinking_family_converges(self):
        specs = self.family(5)
        grid = GridDomain(1, 1.0, 128)
        metric = build_metric(grid, "flat")
        from rigidkit.fields import ReferenceShape

        ref = ReferenceShape(grid, 1.0 * metric.gram)
        report = asymptotic_sequence_run(build_scenario(specs[-1]), map(build_scenario, specs[:-1]), ref=ref)
        stretch = [r.stretch for r in report.energy_reports]
        assert all(a > b for a, b in zip(stretch, stretch[1:]))
        assert all(a > b for a, b in zip(report.gaps, report.gaps[1:]))
        assert report.gaps[-1] == 0.0
        assert report.final_defect < 1e-3
        assert report.shape_error is not None
        assert report.shape_error_norm < 0.5

    def test_reference_is_optional(self):
        first, final = (build_scenario(s) for s in self.family(2, n=32))
        report = asymptotic_sequence_run(final, [first])
        assert report.shape_error is None
        assert report.shape_error_norm is None
