"""Integral of psi * f over one grid cell, by the package's quadrature rules.

The kernels' reference in the tests: it evaluates the same per-cell rules
of henon_annulus.weight as the tensor-product operator, one cell at a
time and with any integrand, so a kernel can be checked cell by cell.
"""

import math

import numpy as np

from henon_annulus import ConfigurationError
from henon_annulus.geometry import surface_measure
from henon_annulus.weight import radial_rule, theta_rule, weight_eval


def cell_weighted_integral(
    cell,
    alpha: float,
    f,
    *,
    dim: int = 3,
    measure: str = "sphere",
    refine: int = 1,
) -> float:
    """Integral of psi * f over one grid cell.

    1-D cells are (a, b) with measure "sphere" (omega_{N-1} r^{N-1} dr,
    the full shell integral of a radial f) or "line" (plain dr). 2-D cells
    are ((a, b), (t0, t1)) with the axisymmetric N = 3 measure
    2 pi r^2 sin(theta) dr dtheta; f takes (r, theta) and broadcasts.
    """
    if measure not in ("sphere", "line"):
        raise ConfigurationError(f"unknown measure {measure!r}")
    if np.isscalar(cell[0]):
        a, b = float(cell[0]), float(cell[1])
        pts, wts = radial_rule(a, b, alpha, refine)
        w = weight_eval(pts, alpha)
        vals = np.asarray(f(pts), dtype=float)
        if measure == "sphere":
            jac = surface_measure(dim) * pts ** (dim - 1)
        else:
            jac = np.ones_like(pts)
        return float(np.sum(wts * w * vals * jac))
    (a, b), (t0, t1) = cell
    if dim != 3:
        raise ConfigurationError("2-D cells are defined for the N = 3 reduction only")
    if measure != "sphere":
        raise ConfigurationError("2-D cells carry the sphere measure only")
    rp, rw = radial_rule(float(a), float(b), alpha, refine)
    tp, tw = theta_rule(float(t0), float(t1), refine)
    w = weight_eval(rp, alpha)
    vals = np.asarray(f(rp[:, None], tp[None, :]), dtype=float)
    row = rw * w * rp**2
    col = tw * np.sin(tp)
    return float(2.0 * math.pi * row @ vals @ col)
