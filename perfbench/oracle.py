"""Independent check of the levels the solvers report.

A level is E / P^{2/p}, with E the Dirichlet energy and P the weighted
p-norm integral int ||x| - 2|^alpha |u|^p of the returned field. This
module recomputes both from the nodal values alone, with a plain tensor
Gauss-Legendre rule on every grid cell. It shares no code with
henon_annulus.functional: no stiffness matrix, no weight-adapted rule and
no quadrature operator.

Fields are piecewise linear in r (radial grids) or bilinear in (r, theta)
(axisymmetric grids), and every grid has r = 2 as a node. So for
alpha >= 1 the kink of the weight sits on a cell edge and each cell
integrand is smooth; the Gauss rule converges fast on it. The rule is
run at two orders, `order` and 2 * `order`. The higher one is the value,
and the difference between the two is the error estimate. At the
default order 4 that difference is also the size of the error a 4-point
rule per cell makes, the order of the package's own rules, so it bounds
how far the reported level may stray from the oracle's.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_ORDER = 4
ROUNDOFF = 1e-12
SAFETY = 10.0


def _unit_gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _sphere_area(dim: int) -> float:
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def radial_integrals(nodes, values, alpha: float, p: float, order: int,
                     dim: int = 3) -> tuple[float, float]:
    """(E, P) of the piecewise linear field on the radial grid `nodes`."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    x, w = _unit_gauss(order)
    h = np.diff(nodes)
    r = nodes[:-1, None] + h[:, None] * x[None, :]
    u = values[:-1, None] * (1.0 - x[None, :]) + values[1:, None] * x[None, :]
    du = (np.diff(values) / h)[:, None]
    meas = _sphere_area(dim) * r ** (dim - 1) * (h[:, None] * w[None, :])
    energy = float(np.sum(du * du * meas))
    pnorm = float(np.sum(np.abs(r - 2.0) ** alpha * np.abs(u) ** p * meas))
    return energy, pnorm


def axi_integrals(r_nodes, theta_nodes, values, alpha: float, p: float,
                  order: int, rows: int = 16) -> tuple[float, float]:
    """(E, P) of the bilinear field on the (r, theta) grid, N = 3.

    The measure is 2 pi r^2 sin(theta) dr dtheta and
    |grad u|^2 = u_r^2 + u_theta^2 / r^2. Cells are taken `rows` radial
    rows at a time to keep the point arrays small.
    """
    r_nodes = np.asarray(r_nodes, dtype=float)
    theta_nodes = np.asarray(theta_nodes, dtype=float)
    v = np.asarray(values, dtype=float).reshape(len(r_nodes), len(theta_nodes))
    x, w = _unit_gauss(order)
    ht = np.diff(theta_nodes)
    t = theta_nodes[:-1, None] + ht[:, None] * x[None, :]  # (nt, q)
    sin_w = np.sin(t) * ht[:, None] * w[None, :]  # (nt, q)
    xi = x[None, None, :, None]  # radial local coordinate, axis 2
    eta = x[None, None, None, :]  # angular local coordinate, axis 3
    energy = 0.0
    pnorm = 0.0
    for i0 in range(0, len(r_nodes) - 1, rows):
        i1 = min(i0 + rows, len(r_nodes) - 1)
        hr = np.diff(r_nodes[i0 : i1 + 1])
        r = r_nodes[i0:i1, None] + hr[:, None] * x[None, :]  # (nrb, q)
        u00 = v[i0:i1, :-1][:, :, None, None]
        u10 = v[i0 + 1 : i1 + 1, :-1][:, :, None, None]
        u01 = v[i0:i1, 1:][:, :, None, None]
        u11 = v[i0 + 1 : i1 + 1, 1:][:, :, None, None]
        u = (u00 * (1.0 - xi) * (1.0 - eta) + u10 * xi * (1.0 - eta)
             + u01 * (1.0 - xi) * eta + u11 * xi * eta)
        u_r = ((u10 - u00) * (1.0 - eta) + (u11 - u01) * eta) / hr[:, None, None, None]
        u_t = ((u01 - u00) * (1.0 - xi) + (u11 - u10) * xi) / ht[None, :, None, None]
        rr = r[:, None, :, None]
        # dmu = 2 pi r^2 sin(theta) dr dtheta, split into its two factors
        w_r = (2.0 * math.pi * hr[:, None] * w[None, :])[:, None, :, None]
        w_t = sin_w[None, :, None, :]
        energy += float(np.sum((rr * rr * u_r * u_r + u_t * u_t) * w_r * w_t))
        dens = np.abs(rr - 2.0) ** alpha * np.abs(u) ** p * rr * rr
        pnorm += float(np.sum(dens * w_r * w_t))
    return energy, pnorm


def field_integrals(field, alpha: float, p: float, order: int) -> tuple[float, float]:
    """(E, P) of a henon_annulus DiscreteField, read through its nodes only."""
    grid = field.grid
    if hasattr(grid, "theta_nodes"):
        return axi_integrals(grid.r_nodes, grid.theta_nodes, field.values,
                             alpha, p, order)
    return radial_integrals(grid.nodes, field.values, alpha, p, order, grid.dim)


def level_check(field, level: float, alpha: float, p: float,
                order: int = DEFAULT_ORDER) -> dict:
    """Compare a reported level with the oracle's E / P^{2/p}.

    The tolerance is SAFETY times the oracle's own error estimate (the
    level at `order` against the level at 2 * `order`), plus a roundoff
    floor of ROUNDOFF relative.
    """
    e_lo, p_lo = field_integrals(field, alpha, p, order)
    e_hi, p_hi = field_integrals(field, alpha, p, 2 * order)
    oracle = e_hi / p_hi ** (2.0 / p)
    coarse = e_lo / p_lo ** (2.0 / p)
    estimate = abs(oracle - coarse)
    tol = SAFETY * estimate + ROUNDOFF * abs(oracle)
    return {
        "level": level,
        "oracle": oracle,
        "estimate": estimate,
        "tol": tol,
        "ok": bool(abs(level - oracle) <= tol),
    }
