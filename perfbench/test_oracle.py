"""The level oracle against closed forms on the annulus 1 < |x| < 3, N = 3.

The tent 1 - |r - 2| is piecewise linear with its kink on the r = 2 node,
so every grid represents it exactly and the oracle must return its
integrals to roundoff:

    E = int 4 pi r^2 dr = 104 pi / 3,
    P(alpha = 0, p = 2) = 4 pi * 41/15,  P(alpha = 1, p = 2) = 4 pi * 7/10.

The parabola (r - 1)(3 - r) is not, so the oracle integrates its nodal
interpolant, whose integrals approach the closed forms 736 pi / 15 and
(alpha = 0, p = 2) 4 pi * 464/105 at second order in the cell size.
"""

import math

import numpy as np
import pytest

from oracle import axi_integrals, radial_integrals

TENT_E = 104.0 * math.pi / 3.0
TENT_P = {0.0: 4.0 * math.pi * 41.0 / 15.0, 1.0: 4.0 * math.pi * 7.0 / 10.0}
PARABOLA_E = 736.0 * math.pi / 15.0
PARABOLA_P = 4.0 * math.pi * 464.0 / 105.0


def radial_nodes(n: int) -> np.ndarray:
    return np.linspace(1.0, 3.0, n + 1)


def tent(r):
    return 1.0 - np.abs(r - 2.0)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_tent_radial_exact(alpha):
    nodes = radial_nodes(10)
    e, p = radial_integrals(nodes, tent(nodes), alpha, 2.0, order=4)
    assert e == pytest.approx(TENT_E, rel=1e-13)
    assert p == pytest.approx(TENT_P[alpha], rel=1e-13)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_tent_axisymmetric_exact(alpha):
    r = radial_nodes(10)
    theta = np.linspace(0.0, math.pi, 17)
    values = np.repeat(tent(r), len(theta))
    e, p = axi_integrals(r, theta, values, alpha, 2.0, order=4, rows=3)
    assert e == pytest.approx(TENT_E, rel=1e-12)
    assert p == pytest.approx(TENT_P[alpha], rel=1e-12)


def test_parabola_converges_at_second_order():
    errors = []
    for n in (100, 200):
        nodes = radial_nodes(n)
        e, p = radial_integrals(nodes, (nodes - 1.0) * (3.0 - nodes), 0.0, 2.0, order=4)
        errors.append((abs(e / PARABOLA_E - 1.0), abs(p / PARABOLA_P - 1.0)))
    for coarse, fine in zip(*errors):
        assert fine < 1e-4
        assert 3.5 < coarse / fine < 4.5


def test_angular_gradient_energy():
    # u = cos(theta) on r in [1, 3] has |grad u|^2 = sin^2 / r^2, so
    # E = int 2 pi sin^3 dtheta dr = 2 pi * 4/3 * 2; bilinear interpolation
    # in theta converges to it at second order
    r = radial_nodes(4)
    values = []
    for nt in (64, 128):
        theta = np.linspace(0.0, math.pi, nt + 1)
        field = np.outer(np.ones_like(r), np.cos(theta)).ravel()
        values.append(axi_integrals(r, theta, field, 0.0, 2.0, order=4)[0])
    exact = 2.0 * math.pi * 4.0 / 3.0 * 2.0
    coarse, fine = (abs(v / exact - 1.0) for v in values)
    assert fine < 1e-3
    assert 3.5 < coarse / fine < 4.5
