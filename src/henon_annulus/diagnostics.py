"""Concentration metrics and the scalar inequalities behind the level bounds.

Four independent tools share this module because they all answer "where did
the minimizer go":

* concentration_report splits an axisymmetric field into its inner and
  outer pieces with the boundary cutoff and reports the mass ratio
  lambda = int psi u1^p / int psi u2^p, the energy ratio xi = E(u1)/E(u2),
  the fraction of Dirichlet energy within given distances of the energy
  barycenter, the barycenter itself, and the asymmetry index. Radial
  fields are refused: the only level they carry is the theta-constant
  S_rad. The dichotomy of the two-piece decomposition predicts that along
  alpha-sweeps min(lambda, 1/lambda) collapses: one piece eventually
  carries everything.
* hardy_margin checks the one-dimensional weighted inequality

      int_1^3 |v'|^2 |2 - rho| drho  >=
      [2^{2/p} Gamma((p+2)/2)^{2/p}]^{-1} (int_1^3 |v|^p drho)^{2/p}

  for v(1) = v(3) = 0, the workhorse of the radial lower bound. Both
  sides are evaluated exactly for piecewise-linear v, so the returned
  margin is a true certificate up to roundoff.
* balance_f is the dichotomy function f(x) = (1 + x^{2/p})/(1 + x)^{2/p},
  maximal at x = 1 with value 2^{1-2/p}; it controls how much the level of
  a two-piece field can exceed the one-piece level.
* sobolev_constant evaluates the critical quotient on the explicit
  profile (theta^2 + |x|^2)^{-(N-2)/2} by quadrature over a large ball
  plus an inverted-coordinate tail, giving the reference constant the
  instanton levels approach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functional as fn
from .errors import ConfigurationError, DegenerateFieldError
from .geometry import AxiGrid, DiscreteField, RadialGrid, surface_measure
from .profiles import CutoffSpec, phi_cutoff_decompose

BOUNDARY_RADII = (0.1, 0.2, 0.3, 0.5, 2.0)
GAUSS_ORDER = 16

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(GAUSS_ORDER)


@dataclass(frozen=True)
class ConcentrationReport:
    """Where the weighted mass and the Dirichlet energy of a field live.

    mass_ratio is the paper quantity lambda (inner p-mass over outer
    p-mass) and energy_ratio is xi (inner energy over outer energy); the
    attribute names differ because lambda is reserved in Python, but the
    serialized keys keep the original names. Ratios use the sentinel
    convention inf (empty denominator, filled numerator) and 0.0 (empty
    numerator).
    """

    mass_ratio: float
    energy_ratio: float
    boundary_fraction: dict[float, float]
    barycenter: tuple[float, float]
    asymmetry_index: float

    def to_dict(self) -> dict:
        return {
            "lambda": self.mass_ratio,
            "xi": self.energy_ratio,
            "boundary_fraction": {f"{k:g}": v for k, v in self.boundary_fraction.items()},
            "barycenter": {"r": self.barycenter[0], "theta": self.barycenter[1]},
            "asymmetry_index": self.asymmetry_index,
        }


def _ratio(num: float, den: float) -> float:
    if num <= 0.0:
        return 0.0
    if den <= 0.0:
        return math.inf
    return num / den


def _energy_cloud(u: DiscreteField):
    """Cell energies with their center coordinates (E, r_mid, theta_mid)."""
    grid = u.grid
    r_mid = 0.5 * (grid.r_nodes[:-1] + grid.r_nodes[1:])
    t_mid = 0.5 * (grid.theta_nodes[:-1] + grid.theta_nodes[1:])
    rr, tt = np.meshgrid(r_mid, t_mid, indexing="ij")
    return fn.cell_energies(u).ravel(), rr.ravel(), tt.ravel()


def asymmetry_index(u: DiscreteField) -> float:
    """How far the angular energy distribution is from theta-constant.

    The index is the larger of two normalized terms: the total-variation
    distance between the per-theta-cell energy shares and the shares a
    theta-constant field would produce (the sin-theta measure shares), and
    the fraction of the energy carried by angular differences. Both vanish
    exactly when the field is theta-constant on the grid, the second one
    only then, and both are at most 1. Scale-invariant by construction.
    """
    if not isinstance(u.grid, AxiGrid):
        raise ConfigurationError("the asymmetry index is defined for axisymmetric fields")
    if u.is_zero:
        raise DegenerateFieldError("asymmetry index of the zero field")
    total = fn.dirichlet_energy(u)
    if total <= 0.0:
        raise DegenerateFieldError("asymmetry index needs positive energy")
    shares = np.sum(fn.cell_energies(u), axis=0) / total
    uniform = fn.theta_measure_shares(u.grid)
    variation = 0.5 * float(np.sum(np.abs(shares - uniform)))
    angular = fn.angular_energy(u) / total
    return max(variation, angular)


def concentration_report(
    u: DiscreteField, alpha: float, p: float, spec: CutoffSpec
) -> ConcentrationReport:
    """Split u at the midline, then report where mass and energy sit."""
    if not isinstance(u.grid, AxiGrid):
        raise ConfigurationError("the concentration report needs an axisymmetric field")
    if u.is_zero:
        raise DegenerateFieldError("concentration report of the zero field")
    inner, outer = phi_cutoff_decompose(u, spec)
    if inner.is_zero and outer.is_zero:
        raise DegenerateFieldError(
            "cutoff removed the whole field (support inside the dead band)"
        )
    mass_ratio = _ratio(
        fn.weighted_pnorm_p(inner, alpha, p), fn.weighted_pnorm_p(outer, alpha, p)
    )
    energy_ratio = _ratio(fn.dirichlet_energy(inner), fn.dirichlet_energy(outer))

    cloud, r_mid, t_mid = _energy_cloud(u)
    total = float(cloud.sum())
    axis = r_mid * np.cos(t_mid)
    z_bar = float((cloud * axis).sum() / total)
    r_bar = abs(z_bar)
    theta_bar = 0.0 if z_bar >= 0.0 else math.pi
    dist = np.hypot(r_mid * np.sin(t_mid), axis - z_bar)
    fractions = {
        rho: float(cloud[dist <= rho].sum() / total) for rho in BOUNDARY_RADII
    }
    return ConcentrationReport(
        mass_ratio=mass_ratio,
        energy_ratio=energy_ratio,
        boundary_fraction=fractions,
        barycenter=(r_bar, theta_bar),
        asymmetry_index=asymmetry_index(u),
    )


def _abs_linear_power_integral(va: float, vb: float, h: float, p: float) -> float:
    """Exact int over one cell of |linear|^p through values va, vb."""
    a, b = abs(va), abs(vb)
    top = max(a, b)
    if top == 0.0:
        return 0.0
    if va * vb < 0.0:
        return h * (a ** (p + 1.0) + b ** (p + 1.0)) / ((p + 1.0) * (a + b))
    if abs(b - a) <= 1e-12 * top:
        return h * (0.5 * (a + b)) ** p
    return h * abs(b ** (p + 1.0) - a ** (p + 1.0)) / ((p + 1.0) * abs(b - a))


def hardy_margin(v: DiscreteField, p: float) -> float:
    """LHS minus RHS of the one-dimensional weighted Hardy inequality.

    Measure-free on purpose: this is the 1-D inequality behind the radial
    lower bound, not a statement about the N-dimensional quotient. Both
    integrals are exact for piecewise-linear fields, so a nonnegative
    return is a certificate up to roundoff.
    """
    if not isinstance(v.grid, RadialGrid):
        raise ConfigurationError("the Hardy margin is defined for radial fields")
    if p < 2.0:
        raise ConfigurationError(f"Hardy margin needs p >= 2, got {p}")
    vals = v.values
    if vals[0] != 0.0 or vals[-1] != 0.0:
        raise ConfigurationError("Hardy margin needs zero boundary values")
    nodes = v.grid.nodes
    h = np.diff(nodes)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    dv = np.diff(vals)
    lhs = float(np.sum(dv * dv / h * np.abs(2.0 - mid)))
    mass = sum(
        _abs_linear_power_integral(vals[i], vals[i + 1], h[i], p)
        for i in range(len(h))
    )
    if mass == 0.0:
        return lhs
    constant = 2.0 ** (2.0 / p) * math.gamma(0.5 * (p + 2.0)) ** (2.0 / p)
    return lhs - mass ** (2.0 / p) / constant


def balance_f(x: float, p: float) -> float:
    """Dichotomy function f(x) = (1 + x^{2/p}) / (1 + x)^{2/p}.

    Controls the two-piece versus one-piece level comparison: f > 1 away
    from the degenerate ends and f(1) = 2^{1-2/p} is its maximum, so a
    balanced split costs the most.
    """
    if x <= 0.0:
        raise ConfigurationError(f"balance_f needs x > 0, got {x}")
    if p <= 2.0:
        raise ConfigurationError(f"balance_f needs p > 2, got {p}")
    e = 2.0 / p
    return (1.0 + x**e) / (1.0 + x) ** e


def _profile_quadrature(n_dim: int, radius: float, theta: float) -> tuple[float, float]:
    """(energy, mass) integrals of the explicit critical profile on [0, R].

    Geometric panels resolve the scale-theta shoulder; the integrands are
    smooth on each panel so Gauss quadrature is effectively exact.
    """
    edges = [0.0, theta]
    while edges[-1] < radius:
        edges.append(min(2.0 * edges[-1], radius))
    energy = mass = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        r = 0.5 * (b - a) * _GAUSS_X + 0.5 * (a + b)
        w = 0.5 * (b - a) * _GAUSS_W
        core = (theta * theta + r * r) ** (-n_dim)
        energy += float(w @ (r ** (n_dim + 1) * core))
        mass += float(w @ (r ** (n_dim - 1) * core))
    return energy, mass


def _profile_tail(n_dim: int, radius: float, theta: float) -> tuple[float, float]:
    """Tail integrals over [R, inf) via the inversion s = 1/r.

    The substitution turns both decaying tails into smooth integrands
    s^{N-3}(1+theta^2 s^2)^{-N} and s^{N-1}(1+theta^2 s^2)^{-N} on
    [0, 1/R], so truncation error is eliminated rather than estimated.
    """
    upper = 1.0 / radius
    s = 0.5 * upper * (_GAUSS_X + 1.0)
    w = 0.5 * upper * _GAUSS_W
    core = (1.0 + theta * theta * s * s) ** (-n_dim)
    energy = float(w @ (s ** (n_dim - 3) * core))
    mass = float(w @ (s ** (n_dim - 1) * core))
    return energy, mass


def sobolev_constant(n_dim: int, *, radius: float = 1e3, theta: float = 1.0) -> float:
    """Critical quotient of the profile (theta^2 + r^2)^{-(N-2)/2} in R^N.

    The value is the reference level the boundary instantons approach and
    must be invariant under the profile scale theta and stable under
    doubling the quadrature radius.
    """
    if int(n_dim) != n_dim or n_dim < 3:
        raise ConfigurationError(f"need an integer dimension >= 3, got {n_dim}")
    n_dim = int(n_dim)
    if radius <= theta:
        raise ConfigurationError("quadrature radius must exceed the profile scale")
    omega = surface_measure(n_dim)
    energy_main, mass_main = _profile_quadrature(n_dim, radius, theta)
    energy_tail, mass_tail = _profile_tail(n_dim, radius, theta)
    energy = omega * (n_dim - 2) ** 2 * (energy_main + energy_tail)
    mass = omega * (mass_main + mass_tail)
    return energy / mass ** ((n_dim - 2.0) / n_dim)
