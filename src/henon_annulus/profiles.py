"""Explicit comparison fields: scaled bumps, truncated instantons, cutoffs.

Three families of hand-built fields drive the upper bounds and the
mountain-pass endpoints:

* a radial bump squeezed against the outer boundary, psi_alpha(r) =
  psi(alpha (r - 3) + 3) with psi a fixed smooth bump on (1, 3), whose
  quotient grows like alpha^(1 + 2/p);
* a point bump at x_alpha = (3 - 1/alpha) e on the symmetry axis with
  support radius 1/alpha, whose quotient grows only like
  alpha^(2 - N + 2N/p) and witnesses symmetry breaking;
* truncated instantons u^i_eps = phi_i U^i_eps with
  U^i_eps(x) = (eps + |x - x_i|^2)^(-(N-2)/2), centered a distance
  1/|log eps| inside the outer (i = 0) or inner (i = 1) boundary and cut
  off between radii 1/(2 |log eps|) and 1/|log eps|, so the cutoff slope
  is 2 |log eps|. Their quotients approach the best Sobolev constant as
  eps shrinks and p approaches 2N/(N-2).

The cutoff decomposition splits phi u into an inner piece supported in
1 < r < 2 - delta and an outer piece in 2 + delta < r < 3; the plateau
phi = 1 near both boundary spheres and phi = 0 on [2 - delta, 2 + delta]
follow the fixed ramp profile below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError, DomainError
from .geometry import AxiGrid, DiscreteField, RadialGrid

BUMP_PROFILES = ("smooth",)
# The instanton cutoff ramp has slope 2|log eps|; documented bound constant.
CUTOFF_SLOPE_BOUND = 2.5


def _bump(t):
    """Standard smooth compactly supported bump, peak 1 at t = 0, zero for |t| >= 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-ti * ti / (1.0 - ti * ti))
    return out


def _check_profile(profile: str) -> None:
    if profile not in BUMP_PROFILES:
        raise ConfigurationError(f"unknown bump profile {profile!r}")


def radial_bump(alpha: float, grid: RadialGrid, profile: str = "smooth") -> DiscreteField:
    """psi_alpha(r) = psi(alpha (r - 3) + 3), supported in (3 - 2/alpha, 3).

    psi is the fixed bump on (1, 3) centered at 2; the substitution squeezes
    it against the outer boundary with width 2/alpha. Requires alpha >= 2 so
    the support stays inside the annulus.
    """
    _check_profile(profile)
    if not isinstance(grid, RadialGrid):
        raise ConfigurationError("radial_bump expects a radial grid")
    if alpha < 2.0:
        raise DomainError(f"radial_bump needs alpha >= 2, got {alpha!r}")
    return DiscreteField.sampled(grid, lambda r: _bump(alpha * (r - 3.0) + 1.0))


def boundary_bump(
    alpha: float,
    grid: AxiGrid,
    profile: str = "smooth",
    *,
    center_theta: float = 0.0,
) -> DiscreteField:
    """Bump supported in the ball of radius 1/alpha around (3 - 1/alpha) e.

    The center sits on the symmetry axis; any off-axis center is rejected
    because the reduction is axisymmetric. Requires alpha >= 4.
    """
    _check_profile(profile)
    if not isinstance(grid, AxiGrid):
        raise ConfigurationError("boundary_bump expects an axisymmetric grid")
    if alpha < 4.0:
        raise DomainError(f"boundary_bump needs alpha >= 4, got {alpha!r}")
    if center_theta not in (0.0, math.pi):
        raise ConfigurationError(
            "bump center must lie on the symmetry axis (theta = 0 or pi)"
        )
    a = 3.0 - 1.0 / alpha

    def values(r, t):
        d = _axis_distance(r, t, a, center_theta)
        return _bump(alpha * d)

    return DiscreteField.sampled(grid, values)


def _axis_distance(r, theta, center_radius: float, center_theta: float):
    """Euclidean distance from (r, theta) to the axis point at center_radius."""
    z = center_radius if center_theta == 0.0 else -center_radius
    rz = r * np.cos(theta)
    rx = r * np.sin(theta)
    return np.sqrt(rx * rx + (rz - z) * (rz - z))


@dataclass(frozen=True)
class InstantonParams:
    """Truncated-bubble parameters: eps and which boundary it clings to.

    index 0 centers at r = 3 - 1/|log eps| (outer), index 1 at
    r = 1 + 1/|log eps| (inner), both on the theta = 0 axis. The cutoff is
    1 inside distance 1/(2 |log eps|) and 0 beyond 1/|log eps|, which keeps
    the support ball inside the closed annulus for eps < e^-2 (checked).
    """

    epsilon: float
    index: int

    def __post_init__(self) -> None:
        if self.index not in (0, 1):
            raise ConfigurationError(f"instanton index must be 0 or 1, got {self.index!r}")
        if not (0.0 < self.epsilon < math.exp(-2.0)):
            raise DomainError(
                f"epsilon must lie in (0, e^-2) so the support fits, got {self.epsilon!r}"
            )
        # The support ball touches its boundary sphere tangentially and must
        # stay within that half-annulus: 2 / |log eps| < 1, i.e. eps < e^-2.
        if not 2.0 * self.support_radius < 1.0:
            raise ContractViolationError(
                f"support diameter {2.0 * self.support_radius!r} leaves its half-annulus"
            )

    @property
    def log_scale(self) -> float:
        return abs(math.log(self.epsilon))

    @property
    def boundary_gap(self) -> float:
        """Distance from the center to its boundary sphere, 1/|log eps|."""
        return 1.0 / self.log_scale

    @property
    def center_radius(self) -> float:
        if self.index == 0:
            return 3.0 - self.boundary_gap
        return 1.0 + self.boundary_gap

    @property
    def plateau_radius(self) -> float:
        return 1.0 / (2.0 * self.log_scale)

    @property
    def support_radius(self) -> float:
        return 1.0 / self.log_scale


def instanton_values(ip: InstantonParams, r, theta, dim: int = 3):
    """Pointwise u^i_eps = phi_i U^i_eps at (r, theta) (broadcasting)."""
    d = _axis_distance(np.asarray(r, dtype=float), np.asarray(theta, dtype=float),
                       ip.center_radius, 0.0)
    u = (ip.epsilon + d * d) ** (-(dim - 2) / 2.0)
    ramp = (ip.support_radius - d) / (ip.support_radius - ip.plateau_radius)
    phi = np.clip(ramp, 0.0, 1.0)
    return phi * u


def instanton(ip: InstantonParams, grid: AxiGrid) -> DiscreteField:
    """Discrete sampling of the truncated bubble on an axisymmetric grid."""
    if not isinstance(grid, AxiGrid):
        raise ConfigurationError("instanton expects an axisymmetric grid")
    return DiscreteField.sampled(grid, lambda r, t: instanton_values(ip, r, t, grid.dim))


@dataclass(frozen=True)
class CutoffSpec:
    """Half-width delta of the dead band around r = 2 for the decomposition."""

    delta: float = 0.25

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 0.5):
            raise ConfigurationError(f"delta must lie in (0, 1/2), got {self.delta!r}")


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def phi_cutoff(r, spec: CutoffSpec):
    """The C^1 cutoff: 1 on [1, 1+delta] and [3-delta, 3], 0 on [2-delta, 2+delta]."""
    r = np.asarray(r, dtype=float)
    d = spec.delta
    width = 1.0 - 2.0 * d
    down = 1.0 - _smoothstep((r - 1.0 - d) / width)
    up = _smoothstep((r - 2.0 - d) / width)
    return np.where(r <= 2.0, down, up)


def phi_cutoff_decompose(
    u: DiscreteField, spec: CutoffSpec
) -> tuple[DiscreteField, DiscreteField]:
    """Split phi u into the inner piece (support in r < 2 - delta) and the
    outer piece (support in r > 2 + delta).

    The pieces sum to phi u nodewise and live on cells separated by the
    dead band, so their Dirichlet energies add exactly.
    """
    grid = u.grid
    if isinstance(grid, RadialGrid):
        r_nodes = grid.nodes
        phi = phi_cutoff(r_nodes, spec)
        w = u.values * phi
        inner = np.where(r_nodes < 2.0, w, 0.0)
        outer = np.where(r_nodes > 2.0, w, 0.0)
    else:
        r_nodes = grid.r_nodes
        phi = phi_cutoff(r_nodes, spec)[:, None]
        w2 = u.values_2d * phi
        rmask = (r_nodes < 2.0)[:, None]
        inner = np.where(rmask, w2, 0.0).ravel()
        outer = np.where((r_nodes > 2.0)[:, None], w2, 0.0).ravel()
    return DiscreteField(grid, inner), DiscreteField(grid, outer)
