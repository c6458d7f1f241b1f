"""Closed-form anchors: the pipelines' numbers checked against mathematics.

The arc row is the flat-metric arc of the `curve` family with the
`constant` profile: a unit-speed circle arc of curvature kappa and length
L, at p = 2.  Its continuum quantities have closed forms.
- `local_rigidity` fits the unit tangent t(s), whose angle is kappa s, by
  one unit vector, and the best one sits at the arc's midpoint, so
  lhs = int_0^L |t(s) - t(L/2)|^2 ds
      = 2L - 2 int cos(kappa (s - L/2)) ds
      = 2L - (4 / kappa) sin(kappa L / 2).
- The normal turns at the rate kappa, so bending = kappa^2 L, and the arc
  is unit speed, so stretch = 0.

On n cells of width h = L / n the discrete values have closed forms too.
A cell's difference quotient is the chord over h: the tangent at the
cell's midpoint, scaled by s = sin(kappa h / 2) / (kappa h / 2).  The fit
takes the base cell's tangent, half a cell off the midpoint for even n,
and sum_c cos(kappa h (c - n/2 + 1)) = cos(kappa h / 2) sin(kappa L / 2) /
sin(kappa h / 2) (a Dirichlet kernel), so
    lhs_n     = L (1 + s^2) - (4 / kappa) sin(kappa L / 2) cos(kappa h / 2),
    bending_n = kappa^2 L s^2      (the normals' chord, 2 sin(kappa h / 2)),
    stretch_n = L (1 - s)^2.
With s^2 = 1 - (kappa h)^2 / 12 + O(h^4), the errors are
    lhs_n - lhs         = ((kappa / 2) sin(kappa L / 2) - kappa^2 L / 12) h^2 + O(h^4),
    bending_n - bending = -(kappa^4 L / 12) h^2 + O(h^4),
    stretch_n           = (kappa^4 L / 576) h^4 + O(h^6).

The latitude row is the `latitude` arc at polar angle theta on the sphere
of radius rho: a circle of radius rho sin theta in R^3, so of curvature
kappa = 1 / (rho sin theta), and its tangent fit and stretch, with their
errors, are the arc's at that kappa.  The bending reads the co-normal in
the sphere, which keeps its angle to the axis and turns with the tangent:
its derivative is the geodesic curvature kappa_g = cot theta / rho, since
a latitude is a line of curvature, and on the grid its chord is shortened
by the same s, so
    bending = kappa_g^2 L,    bending_n - bending = -(kappa_g^2 kappa^2 L / 12) h^2 + O(h^4).
The base cell alternates between mirror twins with n (cells 32, 63, 128,
255 and 512), and lhs stays on the formula either way, so it is not pinned.

The Korn row is `perturbed_identity`, u = x + eps phi, on a flat square
metric at p = 2.  Per cell Du = I + eps A, with A the cell differential of
phi.  The fitted rotation is the polar factor of the mean of Du,
I + eps W + O(eps^2) with W the mean skew part of A, and
dist(I + eps A, SO(2)) = eps |sym A| + O(eps^2), so the constant tends to
the discrete Korn quotient (Horgan, SIAM Rev. 1995)
    R(phi) = sum |A - W|^2 / sum |sym A|^2
with a relative error O(eps).

The exact-isometry row is u(x) = Q T x + b on a constant metric g, T = g^(1/2)
and Q a rotation: Du = Q T at every cell, and Q T is the metric-compatible
frame `metric_rigidity` fits (R^T R = T^2 = g), so lhs, the stretch and
the frame's distance to Q T are zero up to the round-off of the difference
quotients, about |u| u / h per entry (u = 2^-53 here).

The rigid-modulus row is the same field one codimension up: u(x) = F T x + b
with F a D x d matrix of orthonormal columns (a curve in R^2, a sheet in
R^3), on a constant metric g, T = g^(1/2).  Then Du = F T at every cell and
Du^T Du = g, so u is an isometric immersion, and the fit of every subcube
is F T in exact arithmetic: in flattened coordinates Du T^(-1) = F, whose
polar factor is F.  The translation modulus integrates
|R(x + zeta) - R(x)|_g^p over the admissible cells, so it is zero in exact
arithmetic.  In floating point each fitted R_k is F T plus the round-off of
the difference quotients, about |u| u / h per entry, carried through the
base cell's QR frame and a polar factor of a matrix whose singular
values are 1, which moves by at most a small multiple of its input's
perturbation (the factor is Lipschitz there, with constant of order
1 / sigma_min = 1).  So
|R_a - R_b|_g <= 2 max_k |R_k - F T|_F |g^(-1/2)|_2 = O(n u) with |u|, L
and g of order one, and the modulus over the covered volume V, raised to
1/p, is O(n u) as well.

The graph row is the `graph` surface, u(x) = (x, f(x)) with
f = eps sin(pi x1 / L) sin(pi x2 / L), on a flat metric at p = 2.  Du^T Du
= I + grad f grad f^T has the singular values W = sqrt(1 + |grad f|^2) and
1, so the stretch integrand is (W - 1)^2; the unit normal is
n = (-grad f, 1) / W, and the bending integrand is |Dn|^2, with
d_j n = (d_j m) / W - m (d_j W) / W^2 for m = (-grad f, 1).  Neither
integral has a closed form, so both are taken by Gauss-Legendre quadrature
(`numpy.polynomial.legendre.leggauss`, 64 points per axis), which is exact
to round-off on these analytic integrands.  With forward differences both
errors are O(h^2): the stretch error is -0.0074873 h^2 + O(h^4), and the
bending's is C2 h^2 + C3 h^3 + ..., with C2 = -5.988 and C3 near -77, read
off a quadratic fit of error / h^2 in h over the resolutions.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from rigidkit.fields import (
    GridDomain,
    GridMap,
    ImmersionField,
    MetricField,
    TargetSpace,
    energies,
    grid_differential,
)
from rigidkit.metric_algebra import spd_sqrt
from rigidkit.rigidity import local_rigidity, metric_rigidity, multiscale_fit, translation_modulus
from rigidkit.scenarios import (
    build_metric,
    curvature_curve,
    graph_surface,
    latitude_circle,
    perturbation_field,
    perturbed_identity,
)

from oracles import SPD_GRAMS

KAPPA, LENGTH = 0.5, 1.0
RESOLUTIONS = (64, 128, 256, 512, 1024)


def _measured(n: int, curve=lambda grid: curvature_curve(grid, KAPPA, "constant")) -> dict[str, float]:
    grid = GridDomain(1, LENGTH, n)
    u = curve(grid)
    g = build_metric(grid, "flat")
    energy = energies(u, g, p=2.0)
    return {"lhs": local_rigidity(u, g, p=2.0).lhs, "bending": energy.bending, "stretch": energy.stretch}


@pytest.fixture(scope="module")
def measured() -> dict[int, dict[str, float]]:
    return {n: _measured(n) for n in RESOLUTIONS}


def _chord_ratio(n: int) -> float:
    half = 0.5 * KAPPA * LENGTH / n
    return math.sin(half) / half


def _discrete(n: int) -> dict[str, float]:
    s = _chord_ratio(n)
    turn = math.sin(0.5 * KAPPA * LENGTH)
    return {
        "lhs": LENGTH * (1.0 + s * s) - 4.0 / KAPPA * turn * math.cos(0.5 * KAPPA * LENGTH / n),
        "bending": KAPPA**2 * LENGTH * s * s,
        "stretch": LENGTH * (1.0 - s) ** 2,
    }


# (quantity, continuum value, order, error constant: error ~ constant h^order)
ROWS = [
    (
        "lhs",
        2.0 * LENGTH - 4.0 / KAPPA * math.sin(0.5 * KAPPA * LENGTH),
        2,
        0.5 * KAPPA * math.sin(0.5 * KAPPA * LENGTH) - KAPPA**2 * LENGTH / 12.0,
    ),
    ("bending", KAPPA**2 * LENGTH, 2, -(KAPPA**4) * LENGTH / 12.0),
    ("stretch", 0.0, 4, KAPPA**4 * LENGTH / 576.0),
]

RHO, POLAR = 1.0, math.pi / 3
LATITUDE_KAPPA = 1.0 / (RHO * math.sin(POLAR))
GEODESIC = 1.0 / (RHO * math.tan(POLAR))

LATITUDE_ROWS = [
    (
        "lhs",
        2.0 * LENGTH - 4.0 / LATITUDE_KAPPA * math.sin(0.5 * LATITUDE_KAPPA * LENGTH),
        2,
        0.5 * LATITUDE_KAPPA * math.sin(0.5 * LATITUDE_KAPPA * LENGTH) - LATITUDE_KAPPA**2 * LENGTH / 12.0,
    ),
    ("bending", GEODESIC**2 * LENGTH, 2, -(GEODESIC**2) * LATITUDE_KAPPA**2 * LENGTH / 12.0),
    ("stretch", 0.0, 4, LATITUDE_KAPPA**4 * LENGTH / 576.0),
]


@pytest.fixture(scope="module")
def latitude_measured() -> dict[int, dict[str, float]]:
    return {n: _measured(n, lambda grid: latitude_circle(grid, RHO, POLAR)) for n in RESOLUTIONS}


def _assert_converges(measured, name, value, order, constant):
    """The errors of `name` over RESOLUTIONS have the observed order `order`
    and equal `constant` h^order to 1e-3 relative."""
    errors = np.array([measured[n][name] - value for n in RESOLUTIONS])
    spacings = LENGTH / np.array(RESOLUTIONS)
    observed = np.polyfit(np.log(spacings), np.log(np.abs(errors)), 1)[0]
    assert observed >= order - 0.1, observed
    np.testing.assert_allclose(errors / spacings**order, constant, rtol=1e-3)


def test_continuum_values():
    rows = {name: value for name, value, _, _ in ROWS}
    assert rows["lhs"] == pytest.approx(0.0207683260, abs=5e-11)
    assert rows["bending"] == 0.25


@pytest.mark.parametrize("name, value, order, constant", ROWS, ids=[row[0] for row in ROWS])
def test_converges_at_the_stated_order_with_the_stated_constant(measured, name, value, order, constant):
    _assert_converges(measured, name, value, order, constant)


@pytest.mark.parametrize("name, rtol", [("lhs", 1e-12), ("bending", 1e-11), ("stretch", 1e-7)])
def test_discrete_values(measured, name, rtol):
    # The stretch is a difference 1 - s of about (kappa h)^2 / 24, so its
    # round-off is relative to that, not to the stretch.
    for n in RESOLUTIONS:
        assert measured[n][name] == pytest.approx(_discrete(n)[name], rel=rtol, abs=0.0), n


def test_stretch_stays_far_below_the_other_errors(measured):
    for n in RESOLUTIONS:
        assert measured[n]["stretch"] < 1e-11
        assert measured[n]["stretch"] < 1e-4 * (measured[n]["lhs"] - ROWS[0][1])


def test_latitude_continuum_values():
    rows = {name: value for name, value, _, _ in LATITUDE_ROWS}
    assert rows["bending"] == pytest.approx(1.0 / 3.0, rel=1e-15)
    constants = {name: constant for name, _, _, constant in LATITUDE_ROWS}
    assert constants["lhs"] == pytest.approx(0.204010, abs=5e-7)
    assert constants["bending"] == pytest.approx(-1.0 / 27.0, rel=1e-14)
    assert constants["stretch"] == pytest.approx(0.00308642, abs=5e-9)


@pytest.mark.parametrize("name, value, order, constant", LATITUDE_ROWS, ids=[row[0] for row in LATITUDE_ROWS])
def test_latitude_converges_at_the_stated_order_with_the_stated_constant(
    latitude_measured, name, value, order, constant
):
    _assert_converges(latitude_measured, name, value, order, constant)


KORN_N, KORN_SEED = 64, 11
KORN_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4)


def _korn_quotient(grid: GridDomain) -> float:
    """R(phi) for the perturbation `perturbed_identity` adds, from its cell differentials."""
    phi = perturbation_field(grid.dim, grid.dim, grid.length, KORN_SEED)
    a = grid_differential(grid, phi(grid.node_coordinates())).reshape(-1, grid.dim, grid.dim)
    skew = 0.5 * (a - np.swapaxes(a, -1, -2))
    sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    return float(np.sum((a - skew.mean(axis=0)) ** 2) / np.sum(sym**2))


def test_korn_row_tends_to_the_discrete_korn_quotient():
    grid = GridDomain(2, 1.0, KORN_N)
    quotient = _korn_quotient(grid)
    assert quotient == pytest.approx(1.419836, abs=5e-7)
    g = build_metric(grid, "flat")
    epsilons = np.array(KORN_EPSILONS)
    constants = [metric_rigidity(perturbed_identity(grid, eps, 0.0, KORN_SEED), g, p=2.0).constant for eps in epsilons]
    errors = np.array(constants) / quotient - 1.0
    observed = np.polyfit(np.log(epsilons), np.log(np.abs(errors)), 1)[0]
    assert observed >= 0.9, observed
    small = epsilons <= 1e-2
    np.testing.assert_allclose(errors[small] / epsilons[small], 0.0322, rtol=1e-2)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("metric", ["flat", "constant"])
@pytest.mark.parametrize("dim, n", [(2, 16), (2, 64), (3, 8), (3, 16)])
def test_metric_rigidity_of_an_exact_metric_isometry_is_zero_to_round_off(dim, n, metric, p):
    grid = GridDomain(dim, 1.0, n)
    rng = np.random.default_rng(dim)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    if metric == "flat":
        g = build_metric(grid, "flat")
    else:
        g = MetricField.constant(grid, SPD_GRAMS[dim])
    frame = q @ spd_sqrt(g.gram[(0,) * dim])
    u = GridMap(grid, grid.node_coordinates() @ frame.T + rng.standard_normal(dim))
    report = metric_rigidity(u, g, p=p)
    # measured: lhs^(1/p) is 3 to 19 n u and the frame 1.4 to 13 n u off
    unit = n * 2.0**-53
    assert report.lhs ** (1.0 / p) <= 64 * unit
    assert report.stretch ** (1.0 / p) <= 64 * unit
    assert np.abs(report.rotation - frame).max() <= 64 * unit
    assert report.osc_term == 0.0 and report.constant == 0.0


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("metric", ["flat", "constant"])
@pytest.mark.parametrize("dim, n", [(1, 256), (2, 32)])
def test_translation_modulus_of_a_rigid_field_is_zero_to_round_off(dim, n, metric, p):
    grid = GridDomain(dim, 1.0, n)
    rng = np.random.default_rng(dim)
    columns = np.linalg.qr(rng.standard_normal((dim + 1, dim)))[0]
    g = build_metric(grid, "flat") if metric == "flat" else MetricField.constant(grid, SPD_GRAMS[dim])
    frame = columns @ spd_sqrt(g.gram[(0,) * dim])
    values = grid.node_coordinates() @ frame.T + rng.standard_normal(dim + 1)
    u = ImmersionField(grid, TargetSpace.euclidean(dim), values)
    unit = n * 2.0**-53
    for t in (4, 8):
        field = multiscale_fit(u, g, t, p)
        # measured: the fits are 0.4 to 1.8 n u off, and the modulus 0 to 1.3 n u
        assert np.abs(field.rotations - frame).max() <= 4 * unit
        for shift in (0.25, 0.125):
            mod = translation_modulus(field, [shift] + [0.0] * (dim - 1))
            assert mod.covered_fraction > 0.0
            assert (mod.value / (mod.covered_fraction * grid.volume)) ** (1.0 / p) <= 4 * unit


GRAPH_EPSILON = 0.2
GRAPH_RESOLUTIONS = (32, 64, 128, 256, 512)


def _graph_integrands(x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The graph's stretch and bending integrands (W - 1)^2 and |Dn|^2 at (x1, x2)."""
    k = np.pi / LENGTH
    s1, c1, s2, c2 = np.sin(k * x1), np.cos(k * x1), np.sin(k * x2), np.cos(k * x2)
    f1, f2 = GRAPH_EPSILON * k * c1 * s2, GRAPH_EPSILON * k * s1 * c2
    f11 = f22 = -GRAPH_EPSILON * k * k * s1 * s2
    f12 = GRAPH_EPSILON * k * k * c1 * c2
    w = np.sqrt(1.0 + f1 * f1 + f2 * f2)
    m = np.stack([-f1, -f2, np.ones_like(f1)])
    bending = np.zeros_like(w)
    for fj1, fj2 in ((f11, f12), (f12, f22)):
        dm = np.stack([-fj1, -fj2, np.zeros_like(f1)])
        dw = (f1 * fj1 + f2 * fj2) / w
        bending += np.sum((dm / w - m * dw / w**2) ** 2, axis=0)
    return (w - 1.0) ** 2, bending


def _graph_quadrature(points: int) -> dict[str, float]:
    nodes, weights = leggauss(points)
    x = 0.5 * LENGTH * (nodes + 1.0)
    w = np.outer(0.5 * LENGTH * weights, 0.5 * LENGTH * weights)
    stretch, bending = _graph_integrands(*np.meshgrid(x, x, indexing="ij"))
    return {"stretch": float(np.sum(w * stretch)), "bending": float(np.sum(w * bending))}


@pytest.fixture(scope="module")
def graph_errors() -> dict[str, np.ndarray]:
    exact = _graph_quadrature(64)
    errors = {"stretch": [], "bending": []}
    for n in GRAPH_RESOLUTIONS:
        grid = GridDomain(2, LENGTH, n)
        energy = energies(graph_surface(grid, GRAPH_EPSILON), build_metric(grid, "flat"), p=2.0)
        for name in errors:
            errors[name].append(getattr(energy, name) - exact[name])
    return {name: np.array(values) for name, values in errors.items()}


def test_graph_quadrature_is_exact_to_round_off():
    coarse, fine = _graph_quadrature(48), _graph_quadrature(64)
    for name in fine:
        assert coarse[name] == pytest.approx(fine[name], rel=1e-14, abs=0.0)
    assert fine["stretch"] == pytest.approx(0.0107514033, abs=5e-11)
    assert fine["bending"] == pytest.approx(3.2764940669, abs=5e-11)


def test_graph_stretch_converges_at_second_order_with_the_pinned_constant(graph_errors):
    spacings = LENGTH / np.array(GRAPH_RESOLUTIONS)
    errors = graph_errors["stretch"]
    observed = np.polyfit(np.log(spacings), np.log(np.abs(errors)), 1)[0]
    assert observed >= 1.9, observed
    np.testing.assert_allclose(errors[1:] / spacings[1:] ** 2, -0.0074873, rtol=1e-3)


def test_graph_bending_converges_at_second_order_with_the_pinned_constant(graph_errors):
    spacings = LENGTH / np.array(GRAPH_RESOLUTIONS)
    errors = graph_errors["bending"]
    observed = np.polyfit(np.log(spacings), np.log(np.abs(errors)), 1)[0]
    assert observed >= 1.9, observed
    _, slope, leading = np.polyfit(spacings, errors / spacings**2, 2)
    assert leading == pytest.approx(-5.988, rel=1e-3)
    assert slope == pytest.approx(-77.0, rel=0.05)
