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
"""

import math

import numpy as np
import pytest

from rigidkit.fields import GridDomain, energies, grid_differential
from rigidkit.rigidity import local_rigidity, metric_rigidity
from rigidkit.scenarios import build_metric, curvature_curve, latitude_circle, perturbation_field, perturbed_identity

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
