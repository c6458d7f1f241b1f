"""Closed-form anchors: the pipelines' numbers checked against mathematics.

The scenario is the flat-metric arc of the `curve` family with the
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
"""

import math

import numpy as np
import pytest

from rigidkit.fields import GridDomain, energies
from rigidkit.rigidity import local_rigidity
from rigidkit.scenarios import build_metric, curvature_curve

KAPPA, LENGTH = 0.5, 1.0
RESOLUTIONS = (64, 128, 256, 512, 1024)


def _measured(n: int) -> dict[str, float]:
    grid = GridDomain(1, LENGTH, n)
    u = curvature_curve(grid, KAPPA, "constant")
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


def test_continuum_values():
    rows = {name: value for name, value, _, _ in ROWS}
    assert rows["lhs"] == pytest.approx(0.0207683260, abs=5e-11)
    assert rows["bending"] == 0.25


@pytest.mark.parametrize("name, value, order, constant", ROWS, ids=[row[0] for row in ROWS])
def test_converges_at_the_stated_order_with_the_stated_constant(measured, name, value, order, constant):
    errors = np.array([measured[n][name] - value for n in RESOLUTIONS])
    spacings = LENGTH / np.array(RESOLUTIONS)
    observed = np.polyfit(np.log(spacings), np.log(np.abs(errors)), 1)[0]
    assert observed >= order - 0.1, observed
    np.testing.assert_allclose(errors / spacings**order, constant, rtol=1e-3)


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
