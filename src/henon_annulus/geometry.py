"""Grids and discrete fields on the annulus 1 < |x| < 3.

Two reductions of H^1_0 on the spherical shell are discretized:

* a radial grid on [1, 3] for dimension N >= 3, carrying the measure
  omega_{N-1} r^{N-1} dr in every integral;
* an axisymmetric (r, theta) tensor grid for N = 3 with polar angle
  theta in [0, pi], carrying the measure 2 pi r^2 sin(theta) dr dtheta.

Every grid contains r = 2 as an exact node, so the split of the annulus
into the inner half (1 < r < 2) and the outer half (2 < r < 3) is exact
cellwise. Fields are piecewise (bi)linear nodal interpolants with
homogeneous Dirichlet values pinned to exactly 0 at r = 1 and r = 3;
theta = 0 and theta = pi are natural (no-flux) boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

INNER_RADIUS = 1.0
OUTER_RADIUS = 3.0
MID_RADIUS = 2.0

# Weight exponents above this are refused loudly instead of silently clipped:
# exp(alpha * log|r-2|) underflows to subnormals over most of the annulus well
# before alpha = 1000, and levels computed there would be quadrature noise.
ALPHA_CAP = 1000.0

# Keep p away from the critical exponent 2N/(N-2); the variational problem
# degenerates there and the discrete levels lose meaning.
P_MARGIN = 0.05

MIN_RADIAL_CELLS = 16
MIN_THETA_CELLS = 8

# Interior-to-boundary spacing ratio of a graded radial grid; grid
# descriptors (and so every record) carry it, as graded(40) or r40.
RADIAL_GRADING = 40.0


def surface_measure(dim: int) -> float:
    """Area omega_{N-1} of the unit sphere S^{N-1} in R^N (4 pi for N = 3)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass(frozen=True)
class ProblemParams:
    """Parameters of the weighted quotient on the annulus.

    alpha >= 0 is the weight exponent of psi(x) = | |x| - 2 |^alpha, p the
    integrability exponent with 2 <= p <= 2* - margin where 2* = 2N/(N-2).
    p = 2 turns the problem into a linear eigenvalue problem, which pins
    the solver against the exact first eigenvalue; every step that needs
    p > 2 is skipped there.
    """

    alpha: float
    p: float
    dim: int = 3

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 3:
            raise ConfigurationError(f"dim must be an integer >= 3, got {self.dim!r}")
        if not (0.0 <= self.alpha <= ALPHA_CAP):
            raise ConfigurationError(
                f"alpha must lie in [0, {ALPHA_CAP:g}] (documented cap), got {self.alpha!r}"
            )
        if not self.p >= 2.0:  # NaN included
            raise ConfigurationError(f"p must be >= 2, got {self.p!r}")
        if self.p > self.two_star - P_MARGIN:
            raise ConfigurationError(
                f"p must be <= 2N/(N-2) - {P_MARGIN} = {self.two_star - P_MARGIN:g}, "
                f"got {self.p!r}"
            )

    @property
    def two_star(self) -> float:
        return 2.0 * self.dim / (self.dim - 2.0)


def _two_sided_stretch(n_cells: int, factor: float) -> np.ndarray:
    """Map of [0, 1] onto itself clustering nodes at both ends.

    tanh stretching with beta = arccosh(sqrt(factor)); the interior-to-end
    spacing ratio approaches `factor` as n grows. factor = 1 is uniform.
    """
    t = np.linspace(0.0, 1.0, n_cells + 1)
    if factor <= 1.0:
        return t
    beta = math.acosh(math.sqrt(factor))
    s = 0.5 * (1.0 + np.tanh(beta * (2.0 * t - 1.0)) / math.tanh(beta))
    s[0] = 0.0
    s[-1] = 1.0
    return s


def _half_nodes(a: float, b: float, n_cells: int, factor: float) -> np.ndarray:
    s = _two_sided_stretch(n_cells, factor)
    nodes = a + (b - a) * s
    nodes[0] = a
    nodes[-1] = b
    return nodes


def _validate_radial_nodes(nodes: np.ndarray) -> None:
    if nodes[0] != INNER_RADIUS or nodes[-1] != OUTER_RADIUS:
        raise ConfigurationError("radial nodes must run exactly from 1 to 3")
    if not np.all(np.diff(nodes) > 0.0):
        raise ConfigurationError("radial nodes must be strictly increasing")
    if not np.any(nodes == MID_RADIUS):
        raise ConfigurationError("r = 2 must be an exact node of every radial grid")
    if len(nodes) - 1 < MIN_RADIAL_CELLS:
        raise ConfigurationError(
            f"need at least {MIN_RADIAL_CELLS} radial cells, got {len(nodes) - 1}"
        )


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Nodes 1 = r_0 < ... < r_n = 3 with r = 2 always a node."""

    nodes: np.ndarray
    grading: str = "uniform"
    dim: int = 3

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        _validate_radial_nodes(nodes)
        if not isinstance(self.dim, int) or self.dim < 3:
            raise ConfigurationError(f"dim must be an integer >= 3, got {self.dim!r}")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_cells(self) -> int:
        return len(self.nodes) - 1

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def mid_index(self) -> int:
        return int(np.nonzero(self.nodes == MID_RADIUS)[0][0])

    @property
    def free(self) -> slice:
        """The free nodes: every node but r = 1 and r = 3."""
        return slice(1, self.n_nodes - 1)

    @property
    def descriptor(self) -> str:
        return f"radial(n={self.n_cells},{self.grading},N={self.dim})"


@dataclass(frozen=True, eq=False)
class AxiGrid:
    """Tensor grid (r_i, theta_j) for the axisymmetric N = 3 reduction.

    Nodes are stored r-major: flat index = i * (nt + 1) + j. Dirichlet
    nodes are the r = 1 and r = 3 rows for all theta, so the free nodes
    are one contiguous block.
    """

    r_nodes: np.ndarray
    theta_nodes: np.ndarray
    grading: str = "uniform"

    def __post_init__(self) -> None:
        r_nodes = np.array(self.r_nodes, dtype=float)
        _validate_radial_nodes(r_nodes)
        t_nodes = np.array(self.theta_nodes, dtype=float)
        if t_nodes[0] != 0.0 or t_nodes[-1] != math.pi:
            raise ConfigurationError("theta nodes must run exactly from 0 to pi")
        if not np.all(np.diff(t_nodes) > 0.0):
            raise ConfigurationError("theta nodes must be strictly increasing")
        if len(t_nodes) - 1 < MIN_THETA_CELLS:
            raise ConfigurationError(
                f"need at least {MIN_THETA_CELLS} angular cells, got {len(t_nodes) - 1}"
            )
        r_nodes.setflags(write=False)
        t_nodes.setflags(write=False)
        object.__setattr__(self, "r_nodes", r_nodes)
        object.__setattr__(self, "theta_nodes", t_nodes)

    @property
    def dim(self) -> int:
        return 3

    @property
    def nr(self) -> int:
        return len(self.r_nodes) - 1

    @property
    def nt(self) -> int:
        return len(self.theta_nodes) - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nr + 1, self.nt + 1)

    @property
    def n_nodes(self) -> int:
        return (self.nr + 1) * (self.nt + 1)

    @property
    def mid_index(self) -> int:
        return int(np.nonzero(self.r_nodes == MID_RADIUS)[0][0])

    @property
    def free(self) -> slice:
        """The free nodes: the interior radial rows times every angular node."""
        return slice(self.nt + 1, self.n_nodes - self.nt - 1)

    @property
    def descriptor(self) -> str:
        return f"axi({self.nr}x{self.nt},{self.grading})"

    def node_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(R, T) arrays of shape `shape` with node coordinates."""
        return np.meshgrid(self.r_nodes, self.theta_nodes, indexing="ij")


def build_radial_grid(n: int, grading: str = "uniform", *, dim: int = 3) -> RadialGrid:
    """Radial grid with n cells on [1, 3] and r = 2 as an exact node.

    For odd n the two halves get floor(n/2) and ceil(n/2) cells so r = 2
    stays a node; the grid is then uniform within each half but not
    globally (documented auto-adjustment). grading="graded" clusters nodes
    near r in {1, 2, 3} with the interior-to-boundary spacing ratio
    RADIAL_GRADING.
    """
    if not isinstance(n, int) or n < MIN_RADIAL_CELLS:
        raise ConfigurationError(f"n must be an integer >= {MIN_RADIAL_CELLS}, got {n!r}")
    if grading not in ("uniform", "graded"):
        raise ConfigurationError(f"unknown radial grading {grading!r}")
    eff = 1.0 if grading == "uniform" else RADIAL_GRADING
    n_left = n // 2
    n_right = n - n_left
    left = _half_nodes(INNER_RADIUS, MID_RADIUS, n_left, eff)
    right = _half_nodes(MID_RADIUS, OUTER_RADIUS, n_right, eff)
    nodes = np.concatenate([left, right[1:]])
    label = "uniform" if grading == "uniform" else f"graded({RADIAL_GRADING:g})"
    return RadialGrid(nodes=nodes, grading=label, dim=dim)


def build_axi_grid(
    nr: int,
    ntheta: int,
    grading: str = "uniform",
    *,
    theta_factor: float = 30.0,
) -> AxiGrid:
    """Axisymmetric tensor grid with nr radial and ntheta angular cells.

    Two variants. grading="uniform": both directions uniform.
    grading="graded-polar": radial nodes clustered near r in {1, 2, 3} and
    theta nodes at both poles by `theta_factor`, since for states that
    concentrate at a point of the boundary the angular resolution is the
    binding constraint.
    """
    if grading not in ("uniform", "graded-polar"):
        raise ConfigurationError(f"unknown axi grading {grading!r}")
    radial = build_radial_grid(nr, "uniform" if grading == "uniform" else "graded")
    if not isinstance(ntheta, int) or ntheta < MIN_THETA_CELLS:
        raise ConfigurationError(
            f"ntheta must be an integer >= {MIN_THETA_CELLS}, got {ntheta!r}"
        )
    if grading == "uniform":
        theta = np.linspace(0.0, math.pi, ntheta + 1)
        label = "uniform"
    else:
        theta = math.pi * _two_sided_stretch(ntheta, theta_factor)
        theta[0] = 0.0
        theta[-1] = math.pi
        label = f"graded(r{RADIAL_GRADING:g},t{theta_factor:g})"
    return AxiGrid(r_nodes=radial.nodes, theta_nodes=theta, grading=label)


def zero_dirichlet(values: np.ndarray, grid: RadialGrid | AxiGrid) -> np.ndarray:
    """values, set to 0 in place at the Dirichlet nodes: the two blocks
    before and after grid.free."""
    free = grid.free
    values[:free.start] = values[free.stop:] = 0.0
    return values


@dataclass(frozen=True, eq=False)
class DiscreteField:
    """Nodal coefficient vector tied to its grid.

    Coefficients are finite and exactly 0 at Dirichlet nodes; the array is
    frozen after construction, so a field never changes under whoever holds
    it (paths, results, the solvers' identity-keyed memos).
    """

    grid: RadialGrid | AxiGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float).ravel()
        if values.shape != (self.grid.n_nodes,):
            raise ConfigurationError(
                f"field has {values.size} coefficients, grid has {self.grid.n_nodes} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("field coefficients must be finite")
        free = self.grid.free
        if np.any(values[:free.start]) or np.any(values[free.stop:]):
            raise ConfigurationError("field must vanish exactly at Dirichlet nodes")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, grid: RadialGrid | AxiGrid) -> "DiscreteField":
        return cls(grid, np.zeros(grid.n_nodes))

    @classmethod
    def sampled(cls, grid: RadialGrid | AxiGrid, fn) -> "DiscreteField":
        """Sample fn at the nodes (fn(r) radial, fn(r, theta) axisymmetric).

        Values at Dirichlet nodes are forced to exactly 0.
        """
        if isinstance(grid, RadialGrid):
            values = np.asarray(fn(grid.nodes), dtype=float)
        else:
            rr, tt = grid.node_mesh()
            values = np.asarray(fn(rr, tt), dtype=float).ravel()
        return cls(grid, zero_dirichlet(values.copy(), grid))

    def with_values(self, values: np.ndarray) -> "DiscreteField":
        return DiscreteField(self.grid, values)

    @property
    def is_zero(self) -> bool:
        return not np.any(self.values)

    @property
    def values_2d(self) -> np.ndarray:
        if not isinstance(self.grid, AxiGrid):
            raise ConfigurationError("values_2d is defined for axisymmetric fields")
        return self.values.reshape(self.grid.shape)


def embed_radial(v: DiscreteField, grid: AxiGrid) -> DiscreteField:
    """Extend a radial field theta-constantly onto a matching axisymmetric grid.

    The radial nodes of `grid` must coincide exactly with the nodes of v's
    grid; the embedding then preserves Dirichlet energy, weighted p-norms
    and hence the Rayleigh quotient up to quadrature roundoff.
    """
    if not isinstance(v.grid, RadialGrid):
        raise ConfigurationError("embed_radial expects a radial field")
    if not isinstance(grid, AxiGrid):
        raise ConfigurationError("embed_radial expects an axisymmetric target grid")
    if not np.array_equal(v.grid.nodes, grid.r_nodes):
        raise ConfigurationError(
            "radial nodes of the target grid do not match the field's grid"
        )
    tiled = np.repeat(v.values, grid.nt + 1)
    return DiscreteField(grid, tiled)
