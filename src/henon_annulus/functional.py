"""Dirichlet energy, weighted p-norm, Rayleigh quotient, and first-order data.

The object under study is the quotient

    R(u) = int |grad u|^2 dx / (int psi |u|^p dx)^(2/p)

over fields vanishing on |x| = 1 and |x| = 3. Both reductions share one
tensor-product discretization. Nodal values form a matrix U, radial nodes
by angular nodes (r-major), and each (grid, alpha) has two 1-D factors:

* radial: the hat basis B_r at the flattened per-cell Gauss rules of
  .weight, with weights dr * psi * measure (omega_{N-1} r^{N-1} on a
  radial grid, 2 pi r^2 on an axisymmetric one); points whose weight
  flushed to 0 are dropped, and points lighter than 2^-100 of the
  heaviest form the factor's tail (see below);
* angular: the hat basis B_theta at the theta_rule points, with weights
  dtheta * sin(theta).

A radial grid is the case of one angular node, whose one point has value
1 and weight 1. With w the outer product of the two weights and
V = B_r U B_theta^T the field at the points, the weighted kernels are

    P = sum w |V|^p,    F = B_r^T (w |V|^{p-2} V) B_theta,
    M = (radial node-pair products) (w |V|^{p-2}) (angular ones)^T.

At large alpha most radial points sit in the tail: near r = 2 the
weight is hundreds of orders of magnitude below its maximum. Each kernel
evaluates the head, the other points, and then bounds the tail. Hat
functions interpolate convexly, so |V| <= m at every tail point, with m
the largest |U| on the radial nodes of the tail's cells; with W_t the sum
of the tail's radial weights times the sum of the angular weights, the
tail moves any entry of P, F or M by at most W_t m^k, k = p, p - 1 and
p - 2. A kernel adds the tail unless that bound is <= 2^-64 times the
largest magnitude of its head result, so every kernel equals the full
rule to within 2^-64 of its largest entry (and is the full rule on a
field that lives in the tail). Where no point is that light, as at
alpha = 1, the head is the whole rule and no bound is taken.

No pointwise step of a kernel allocates: each runs in place in V, the
one array of the quadrature's size the interpolation returns, or in the
grid's one pair of work planes, grown to the largest plane used on that
grid. The package runs in one thread, so the pair is shared by every
kernel on the grid, and no result aliases it. functional_gradient takes
P and F from one interpolation per factor.

The stiffness, exact for the P1/Q1 basis, is

    A = K_r (x) M_theta + M_r (x) K_theta.

K_r has cells omega (b^n - a^n) / (n h^2) on [a, b], M_r is
2 pi int phi_i phi_j dr, and M_theta, K_theta integrate sin(theta)
through the moments I_k = int eta^k sin(theta) dtheta of each angular
cell, evaluated by a fixed positive-weight Gauss rule in eta (exact to
roundoff, positive semidefinite by construction). A radial grid has
M_theta = 1 and K_theta = 0, so only K_r remains, and sum(I0) = 2 makes a
theta-constant field reproduce its radial energy and weighted norms up to
roundoff (embed_radial). A and M share one CSR
layout per grid, the Kronecker product of the factors' tridiagonal
patterns. Per-cell energies use the same cell integrals in closed form;
for a Q1 cell with P = u10 - u00, Q = u00 - u10 - u01 + u11, S = u01 - u00,

    int |grad u|^2 dmu = c1 (P^2 I0 + 2 P Q I1 + Q^2 I2)
                       + c2 (S^2 + S Q + Q^2 / 3),

with c1 the cell's K_r entry and c2 = 2 pi h_r I0 / h_t^2. Critical
points of R with int psi |u|^p = 1 and E = R(u) satisfy

    A u = E F(u),      F_i(u) = int psi |u|^{p-2} u phi_i,

and v = u / sqrt(E) solves the level form A v = E^{p/2} F(v);
residual_pde reports the 2-norm of that defect over free nodes, with A or
with the merit stiffness A(lam) below, which certifies the balanced level.

rayleigh is a plain evaluation of the quotient: its report has level tag
"raw", 0 iterations and a NaN residual. A solver's result sets those
three fields to its level, its iterations and the defect it certified.

The free nodes are one contiguous block, the interior radial rows times
every angular node, so the stiffness on them keeps the tensor form
K_r (x) M_theta + M_r (x) K_theta with the radial factors cut to the
interior. stiffness_solver solves it by fast diagonalization
(Lynch-Rice-Thomas): with K_theta V = M_theta V diag(mu) and
V^T M_theta V = I, the substitution U = W V^T leaves one SPD radial
tridiagonal K_r + mu_j M_r per angular mode, so a solve is two dense
products with V and one tridiagonal LDL^T solve over all modes at once.
The merit stiffness A(lam) = (1 + lam) A_plus + (1 - lam) A_minus of the
balanced level is formed only here: stiffness_matrix(grid, lam) returns
it (the cached A at lam = 0), balance_matrix(grid) its derivative in lam,
A_plus - A_minus, and stiffness_solver(grid, lam) solves it, since it
keeps the tensor form, its radial cells scaled by 1 + lam above r = 2 and
1 - lam below, and reuses the angular eigenbasis cached per grid.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import ConfigurationError, ContractViolationError, DegenerateFieldError
from .geometry import AxiGrid, DiscreteField, RadialGrid, surface_measure, zero_dirichlet
from .weight import radial_rule, theta_rule, weight_eval

# A radial point lighter than TAIL_WEIGHT times the factor's heaviest goes
# to its tail, which a kernel adds only when the tail's bound exceeds
# TAIL_SHARE of the largest entry of the rest.
TAIL_WEIGHT = 2.0**-100
TAIL_SHARE = 2.0**-64

_ETA_X, _ETA_W = np.polynomial.legendre.leggauss(8)
_ETA_NODES = 0.5 * (_ETA_X + 1.0)
_ETA_WEIGHTS = 0.5 * _ETA_W


@dataclass(frozen=True)
class RayleighReport:
    """Energy, weighted p-norm, and their quotient for one field.

    Every level in this artifact is a discrete approximation, so the grid
    descriptor travels with the value. residual is the level-form defect
    actually checked by the producing solver (NaN for plain evaluations).
    """

    dirichlet_energy: float
    weighted_pnorm_p: float
    quotient: float
    level_tag: str
    iterations: int
    residual: float
    grid: str


def _eta_moments(theta_nodes: np.ndarray):
    """I_k = int eta^k sin(theta) dtheta per angular cell, k = 0, 1, 2.

    Positive-weight quadrature in eta: spectrally exact for sin and free of
    the pole cancellation a closed antiderivative would suffer.
    """
    t0 = theta_nodes[:-1]
    ht = np.diff(theta_nodes)
    s = np.sin(t0[None, :] + ht[None, :] * _ETA_NODES[:, None])
    w = _ETA_WEIGHTS[:, None] * s * ht[None, :]
    i0 = np.sum(w, axis=0)
    i1 = np.sum(w * _ETA_NODES[:, None], axis=0)
    i2 = np.sum(w * _ETA_NODES[:, None] ** 2, axis=0)
    return i0, i1, i2


def _tridiagonal(diag0, off, diag1) -> np.ndarray:
    """CSR data of the 1-D matrix assembled from symmetric cell matrices.

    Cell c holds [[diag0, off], [off, diag1]] on nodes (c, c + 1). Its four
    entries sit at positions 3c .. 3c + 3 of the row-major tridiagonal
    pattern, so neighbouring cells share the diagonal position 3c + 3. With
    no cells the pattern is the one diagonal entry of a single node.
    """
    data = np.zeros(3 * len(off) + 1)
    data[0:-1:3] += diag0
    data[1::3] = off
    data[2::3] = off
    data[3::3] += diag1
    return data


def _tridiagonal_pattern(n_nodes: int):
    """(rows, cols) of the positions _tridiagonal fills, for n_nodes nodes."""
    pos = np.arange(3 * n_nodes - 2)
    rows = (pos + 1) // 3
    return rows, rows + np.array([0, 1, -1])[pos % 3]


class _Factor:
    """One 1-D factor at its quadrature points.

    basis maps nodal values to the points (basis_t is its transpose, kept
    in CSR), weight holds the point weights, and pairs the products
    phi_a phi_b at every point for each node pair of the tridiagonal
    pattern, in the order of _tridiagonal. A radial factor may carry a
    _Tail of further points, which the kernels add only when it can matter.
    """

    def __init__(self, basis, weight: np.ndarray, pairs):
        self.basis = basis
        self.basis_t = basis.T.tocsr() if sp.issparse(basis) else basis.T
        self.weight = weight
        self.pairs = pairs
        self.n_nodes = basis.shape[1]
        self.tail = None


@dataclass(frozen=True)
class _Tail:
    """The radial points lighter than TAIL_WEIGHT times the heaviest.

    factor holds them; rows are the radial nodes of the cells they lie in,
    and mass is the sum of their weights times the sum of the angular
    weights. A hat basis interpolates convexly, so |V| <= m = max|U[rows]|
    at every tail point, and the tail adds at most mass * m^k to any entry
    of a kernel whose integrand is w |V|^k times hat functions.
    """

    factor: _Factor
    rows: np.ndarray
    mass: float

    def needed(self, values: np.ndarray, k: float, head) -> bool:
        """Whether the tail's bound exceeds TAIL_SHARE of head's largest entry.

        An overflowed or NaN bound compares false, so it counts as needed.
        """
        with np.errstate(over="ignore"):
            bound = self.mass * np.max(np.abs(values[self.rows])) ** k
        return not bound <= TAIL_SHARE * np.max(np.abs(head))


# The angular factor of a radial grid: one node, one point of weight 1.
# Dense, since a 1 x 1 product costs numpy far less than a sparse one.
_ONE_NODE = _Factor(np.ones((1, 1)), np.ones(1), np.ones((1, 1)))


def _hat_factor(nodes: np.ndarray, pts: np.ndarray, weight: np.ndarray) -> _Factor:
    """Hat basis of nodes at points pts (each strictly inside its cell)."""
    cell = np.searchsorted(nodes, pts) - 1
    xi = (pts - nodes[cell]) / (nodes[cell + 1] - nodes[cell])
    q = np.arange(len(pts))
    basis = sp.csr_matrix(
        (np.concatenate([1.0 - xi, xi]), (np.tile(q, 2), np.concatenate([cell, cell + 1]))),
        shape=(len(pts), len(nodes)),
    )
    products = np.concatenate([(1.0 - xi) * (1.0 - xi), (1.0 - xi) * xi,
                               xi * (1.0 - xi), xi * xi])
    pairs = sp.csr_matrix(
        (products, (np.concatenate([3 * cell + k for k in range(4)]), np.tile(q, 4))),
        shape=(3 * len(nodes) - 2, len(pts)),
    )
    return _Factor(basis, weight, pairs)


class _Assembly:
    """Lazily built per-grid data: the two factors, the stiffness pieces,
    the angular eigenbasis, the stiffness solver and the kernels' pair of
    work planes.

    Holds no reference to its grid, so the weak-keyed _ASSEMBLY entry goes
    with the grid. The cache assumes one thread: it holds no lock, and a
    build may itself use the cache (the stiffness solver needs the
    eigenbasis).
    """

    def __init__(self, grid):
        self.built: dict = {}
        self.planes = (np.empty(0), np.empty(0))
        if isinstance(grid, RadialGrid):
            r, n = grid.nodes, grid.dim
            h = np.diff(r)
            self.k_r = surface_measure(n) * (r[1:] ** n - r[:-1] ** n) / (n * h * h)
            self.measure = lambda x: surface_measure(n) * x ** (n - 1)
            self.angular = _ONE_NODE
            self.m_theta, self.k_theta = np.ones(1), np.zeros(1)
        else:
            r, t = grid.r_nodes, grid.theta_nodes
            hr, ht = np.diff(r), np.diff(t)
            self.k_r = 2.0 * math.pi * ((r[1:] ** 3 - r[:-1] ** 3) / 3.0) / (hr * hr)
            self.measure = lambda x: 2.0 * math.pi * x * x
            i0, i1, i2 = _eta_moments(t)
            self.i0, self.i1, self.i2 = i0, i1, i2
            kt = i0 / (ht * ht)
            self.c2 = 2.0 * math.pi * np.outer(hr, kt)
            rules = [theta_rule(t[j], t[j + 1]) for j in range(grid.nt)]
            pts = np.concatenate([q for q, _ in rules])
            wts = np.concatenate([w for _, w in rules])
            self.angular = _hat_factor(t, pts, wts * np.sin(pts))
            self.m_theta = _tridiagonal(i0 - 2.0 * i1 + i2, i1 - i2, i2)
            self.k_theta = _tridiagonal(kt, -kt, kt)
        self.r_nodes = r
        # radial factor of the angular term, 2 pi int phi_i phi_j dr per cell
        self.m_r = 2.0 * math.pi * np.diff(r)
        self.n = grid.n_nodes
        # CSR layout of kron(radial pattern, angular pattern): position k
        # holds the pair product with flat index order[k]
        n_t = self.angular.n_nodes
        rr, rc = _tridiagonal_pattern(len(r))
        tr, tc = _tridiagonal_pattern(n_t)
        rows = (rr[:, None] * n_t + tr[None, :]).ravel()
        cols = (rc[:, None] * n_t + tc[None, :]).ravel()
        self.order = np.lexsort((cols, rows))
        self.indices = cols[self.order].astype(np.int32)
        counts = np.bincount(rows, minlength=self.n)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)

    def work(self, shape) -> tuple:
        """Two planes of shape, views of the grid's one pair of work arrays.

        The pair grows to the largest plane asked for on this grid and is
        never kept per alpha. A kernel may overwrite both until it returns;
        nothing it returns shares their memory.
        """
        size = shape[0] * shape[1]
        if self.planes[0].size < size:
            self.planes = (np.empty(size), np.empty(size))
        return tuple(plane[:size].reshape(shape) for plane in self.planes)

    def cached(self, key, build):
        """The value stored under key, built by build() on first use."""
        value = self.built.get(key)
        if value is None:
            value = build()
            self.built[key] = value
        return value

    def radial(self, alpha: float) -> _Factor:
        """The radial factor for weight exponent alpha.

        Points whose weight flushed to 0 (the weight's underflow floor)
        contribute to no integral and are dropped, most of them at large
        alpha; points lighter than TAIL_WEIGHT times the heaviest go to
        the factor's tail.
        """
        def build():
            r = self.r_nodes
            pts, wts = radial_rule(r[:-1], r[1:], alpha)
            weight = wts * weight_eval(pts, alpha) * self.measure(pts)
            keep = weight != 0.0
            pts, weight = pts[keep], weight[keep]
            light = weight < TAIL_WEIGHT * np.max(weight, initial=0.0)
            head = _hat_factor(r, pts[~light], weight[~light])
            if np.any(light):
                tail = _hat_factor(r, pts[light], weight[light])
                head.tail = _Tail(
                    tail,
                    np.unique(tail.basis.indices),
                    float(np.sum(tail.weight)) * float(np.sum(self.angular.weight)),
                )
            return head

        return self.cached(("quadrature", alpha), build)

    def tensor_matrix(self, pairs: np.ndarray) -> sp.csr_matrix:
        """The matrix whose entry at ((i, j), (k, l)) is pairs[ik, jl].

        pairs has one row per radial node pair and one column per angular
        node pair, each in the order of _tridiagonal.
        """
        return sp.csr_matrix(
            (np.ravel(pairs)[self.order], self.indices.copy(), self.indptr.copy()),
            shape=(self.n, self.n),
        )


_ASSEMBLY: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _assembly(grid) -> _Assembly:
    a = _ASSEMBLY.get(grid)
    if a is None:
        a = _Assembly(grid)
        _ASSEMBLY[grid] = a
    return a


def cell_energies(u: DiscreteField) -> np.ndarray:
    """Per-cell Dirichlet energy: (n_cells,) radial, (nr, nt) axisymmetric.

    Summing any subset partitions the total exactly, which is what the
    half-annulus split and the asymmetry index rely on.
    """
    asm = _assembly(u.grid)
    if isinstance(u.grid, RadialGrid):
        d = np.diff(u.values)
        return asm.k_r * d * d
    p, q, angular = _q1_cells(asm, u)
    return asm.k_r[:, None] * (
        p * p * asm.i0[None, :] + 2.0 * p * q * asm.i1[None, :] + q * q * asm.i2[None, :]
    ) + angular


def _q1_cells(asm: _Assembly, u: DiscreteField):
    """(P, Q, c2 (S^2 + S Q + Q^2 / 3)) of every Q1 cell of an axisymmetric
    field, the differences of the module docstring and the angular term."""
    u2 = u.values_2d
    u00 = u2[:-1, :-1]
    u10 = u2[1:, :-1]
    u01 = u2[:-1, 1:]
    u11 = u2[1:, 1:]
    q = u00 - u10 - u01 + u11
    s = u01 - u00
    return u10 - u00, q, asm.c2 * (s * s + s * q + q * q / 3.0)


def dirichlet_energy(u: DiscreteField) -> float:
    """int |grad u|^2 dx over the annulus (exact for the P1/Q1 basis)."""
    return float(np.sum(cell_energies(u)))


def halfspace_energies(u: DiscreteField) -> tuple[float, float]:
    """(E_plus, E_minus): Dirichlet energy on 2 < r < 3 and on 1 < r < 2.

    Cells partition exactly at the r = 2 node, so the two halves sum to the
    total energy up to roundoff.
    """
    e = cell_energies(u)
    mid = u.grid.mid_index
    return float(np.sum(e[mid:])), float(np.sum(e[:mid]))


def stiffness_matrix(grid, lam: float = 0.0) -> sp.csr_matrix:
    """Full symmetric A(lam) = (1 + lam) A_plus + (1 - lam) A_minus (no
    boundary-condition rows removed); the plain stiffness at lam = 0,
    cached per grid."""
    asm = _assembly(grid)
    if lam == 0.0:
        return asm.cached("stiffness", lambda: _build_stiffness(asm, 0, len(asm.k_r)))
    a_plus, a_minus = halfspace_stiffness(grid)
    return ((1.0 + lam) * a_plus + (1.0 - lam) * a_minus).tocsr()


def halfspace_stiffness(grid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(A_plus, A_minus) assembled from the cells of each half-annulus."""
    asm = _assembly(grid)
    mid = grid.mid_index
    return asm.cached(
        "halfspace_stiffness",
        lambda: (_build_stiffness(asm, mid, len(asm.k_r)), _build_stiffness(asm, 0, mid)),
    )


def balance_matrix(grid) -> sp.csr_matrix:
    """A_plus - A_minus, the derivative of A(lam) in lam, cached per grid."""
    return _assembly(grid).cached("balance", lambda: operator.sub(*halfspace_stiffness(grid)))


def _build_stiffness(asm: _Assembly, lo: int, hi: int) -> sp.csr_matrix:
    """K_r (x) M_theta + M_r (x) K_theta over the radial cells lo .. hi - 1.

    The other cells keep their entries as explicit zeros, so every piece
    shares the one layout.
    """
    k_r, m_r = np.zeros_like(asm.k_r), np.zeros_like(asm.m_r)
    k_r[lo:hi], m_r[lo:hi] = asm.k_r[lo:hi], asm.m_r[lo:hi]
    radial_stiffness = _tridiagonal(k_r, -k_r, k_r)
    radial_mass = _tridiagonal(m_r / 3.0, m_r / 6.0, m_r / 3.0)
    return asm.tensor_matrix(
        np.outer(radial_stiffness, asm.m_theta) + np.outer(radial_mass, asm.k_theta)
    )


def _dense_tridiagonal(data: np.ndarray) -> np.ndarray:
    """The dense matrix of _tridiagonal's CSR data."""
    return np.diag(data[0::3]) + np.diag(data[1::3], 1) + np.diag(data[2::3], -1)


def _angular_eigenbasis(grid):
    """(values, vectors) of K_theta v = mu M_theta v, with V^T M_theta V = I.

    A radial grid has the one mode 0 with vector 1.
    """
    asm = _assembly(grid)
    return asm.cached("angular_eigenbasis", lambda: sla.eigh(
        _dense_tridiagonal(asm.k_theta), _dense_tridiagonal(asm.m_theta)))


class _StiffnessSolver:
    """x = A(lam)^{-1} b on the free nodes, by fast diagonalization.

    The radial tridiagonals K_r + mu_j M_r of the angular modes sit end
    to end, angular-major, in one tridiagonal with zero couplings between
    modes, built from the radial cells and factored once by LAPACK's
    LDL^T (dpttrf).
    """

    def __init__(self, grid, lam: float):
        asm = _assembly(grid)
        mu, self.vectors = _angular_eigenbasis(grid)
        scale = np.where(np.arange(len(asm.k_r)) < grid.mid_index, 1.0 - lam, 1.0 + lam)
        k, m = scale * asm.k_r, scale * asm.m_r
        diag = np.multiply.outer(mu, (m[:-1] + m[1:]) / 3.0) + (k[:-1] + k[1:])
        off = np.zeros_like(diag)
        off[:, :-1] = np.multiply.outer(mu, m[1:-1] / 6.0) - k[1:-1]
        self.d, self.e, info = sla.lapack.dpttrf(np.ravel(diag), np.ravel(off)[:-1])
        if info != 0:
            raise ContractViolationError(f"stiffness A({lam}) is not positive definite")
        self.modes = len(mu)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        # modes along the rows: (B V)^T, one radial system per row
        bt = self.vectors.T @ np.reshape(b, (-1, self.modes)).T
        wt, _ = sla.lapack.dpttrs(self.d, self.e, np.ravel(bt))
        return np.ravel(np.reshape(wt, bt.shape).T @ self.vectors.T)


def stiffness_solver(grid, lam: float = 0.0):
    """The solver of A(lam) = (1 + lam) A_plus + (1 - lam) A_minus on the
    free nodes (the plain stiffness at lam = 0, cached per grid).

    |lam| < 1 keeps A(lam) positive definite.
    """
    if lam == 0.0:
        return _assembly(grid).cached("stiffness_solver", lambda: _StiffnessSolver(grid, 0.0))
    return _StiffnessSolver(grid, lam)


def _guarded(kernel, u: DiscreteField, alpha: float, p: float, orders):
    """kernel's results over the radial factor's points for u.

    kernel(rad, ang, vt, work) evaluates on one radial factor, with
    V = B_r U B_theta^T at its points given transposed, angular points
    along the rows, so that every kernel reduces its larger axis on
    contiguous rows. It returns one result per entry of orders. vt is
    the kernel's own to overwrite, and work(vt.shape) gives the grid's
    pair of work planes of that shape (_Assembly.work), asked for only by
    a kernel that needs them: every pointwise step writes into these
    three, since a fresh temporary of this size is an mmap/munmap pair
    with fresh page faults on every call. One pair per grid serves every
    kernel, because the package runs in one thread; no result may share
    memory with it. Result i gets the tail added when the tail's bound,
    for an integrand bounded by w |V|^orders[i], is not negligible
    against that result's head; one evaluation of the tail serves every
    result that needs it.
    """
    if p < 2.0:
        raise ConfigurationError(f"p must be >= 2, got {p!r}")
    asm = _assembly(u.grid)
    rad, ang = asm.radial(alpha), asm.angular
    values = u.values.reshape(-1, ang.n_nodes)

    def run(factor):
        return kernel(factor, ang, ang.basis @ (factor.basis @ values).T, asm.work)

    heads = run(rad)
    if rad.tail is None:
        return heads
    needed = [rad.tail.needed(values, k, head) for k, head in zip(orders, heads)]
    if not any(needed):
        return heads
    tails = run(rad.tail.factor)
    return tuple(head + tail if need else head
                 for head, tail, need in zip(heads, tails, needed))


def _pnorm_sum(rad, ang, vt, out, p: float):
    """sum w |V|^p, with |V|^p written into out (which may be vt)."""
    np.abs(vt, out=out)
    out **= p
    return (ang.weight @ out) @ rad.weight


def _force_sum(rad, ang, vt, planes, p: float) -> np.ndarray:
    """B_r^T (w |V|^{p-2} V) B_theta, overwriting vt and both work planes."""
    g, w = planes
    np.abs(vt, out=g)
    g **= p - 2.0
    g *= np.multiply.outer(ang.weight, rad.weight, out=w)
    vt *= g
    return np.ravel(rad.basis_t @ (ang.basis_t @ vt).T)


def weighted_pnorm_p(u: DiscreteField, alpha: float, p: float) -> float:
    """int psi_alpha |u|^p dx over the annulus."""
    def kernel(rad, ang, vt, work):
        return (_pnorm_sum(rad, ang, vt, vt, p),)

    (pn,) = _guarded(kernel, u, alpha, p, (p,))
    return float(pn)


def weighted_force(u: DiscreteField, alpha: float, p: float) -> np.ndarray:
    """Nodal force F_i = int psi |u|^{p-2} u phi_i (the p-norm derivative / p).

    Uses the same quadrature as weighted_pnorm_p, so <F(u), u> equals the
    p-norm integral to roundoff.
    """
    def kernel(rad, ang, vt, work):
        return (_force_sum(rad, ang, vt, work(vt.shape), p),)

    (force,) = _guarded(kernel, u, alpha, p, (p - 1.0,))
    return force


def angular_energy(u: DiscreteField) -> float:
    """The theta-derivative share int |u_theta|^2 / r^2 dmu of the energy
    of an axisymmetric field; zero exactly iff it is theta-constant on the
    grid."""
    return float(np.sum(_q1_cells(_assembly(u.grid), u)[2]))


def theta_measure_shares(grid: AxiGrid) -> np.ndarray:
    """Fraction of the sphere measure per angular cell (sums to 1)."""
    asm = _assembly(grid)
    return asm.i0 / np.sum(asm.i0)


def weighted_linearized_matrix(u: DiscreteField, alpha: float, p: float) -> sp.csr_matrix:
    """Sparse matrix M(u) with entries int psi |u|^{p-2} phi_i phi_j.

    The derivative of the force is F'(u) = (p - 1) M(u) for u >= 0; the
    level-form Newton step uses it. Shares the quadrature of
    weighted_pnorm_p and the layout of the stiffness, entries included
    where the density vanishes.
    """
    def kernel(rad, ang, vt, work):
        np.abs(vt, out=vt)
        vt **= p - 2.0
        vt *= np.multiply.outer(ang.weight, rad.weight, out=work(vt.shape)[1])
        return (rad.pairs @ (ang.pairs @ vt).T,)

    (pairs,) = _guarded(kernel, u, alpha, p, (p - 2.0,))
    return _assembly(u.grid).tensor_matrix(pairs)


def normalize(u: DiscreteField, alpha: float, p: float) -> DiscreteField:
    """Rescale so that int psi |u|^p = 1."""
    pn = weighted_pnorm_p(u, alpha, p)
    if pn <= 0.0:
        raise DegenerateFieldError("cannot normalize: weighted p-norm vanishes")
    return u.with_values(u.values / pn ** (1.0 / p))


def rayleigh(u: DiscreteField, alpha: float, p: float) -> RayleighReport:
    """Evaluate R(u) = E / P^{2/p} and package the pieces."""
    if u.is_zero:
        raise DegenerateFieldError("Rayleigh quotient of the zero field")
    e = dirichlet_energy(u)
    pn = weighted_pnorm_p(u, alpha, p)
    if pn <= 0.0:
        raise DegenerateFieldError(
            "weighted p-norm vanished (field supported where the weight underflows)"
        )
    return RayleighReport(
        dirichlet_energy=e,
        weighted_pnorm_p=pn,
        quotient=e / pn ** (2.0 / p),
        level_tag="raw",
        iterations=0,
        residual=math.nan,
        grid=u.grid.descriptor,
    )


def functional_gradient(u: DiscreteField, alpha: float, p: float) -> DiscreteField:
    """Gradient of R at u, zero at Dirichlet nodes.

    dR = (2 / P^{2/p}) (A u - (E / P) F(u)); by construction <dR, u> = 0 to
    roundoff since <F(u), u> reproduces P through the shared quadrature.
    P and F come from one interpolation of u per radial factor, bit for
    bit the values weighted_pnorm_p and weighted_force return.
    """
    if u.is_zero:
        raise DegenerateFieldError("gradient at the zero field")

    def kernel(rad, ang, vt, work):
        planes = work(vt.shape)
        return (_pnorm_sum(rad, ang, vt, planes[0], p), _force_sum(rad, ang, vt, planes, p))

    pn, force = _guarded(kernel, u, alpha, p, (p, p - 1.0))
    pn = float(pn)
    if pn <= 0.0:
        raise DegenerateFieldError(
            "weighted p-norm vanished (field supported where the weight underflows)"
        )
    a = stiffness_matrix(u.grid)
    e = dirichlet_energy(u)
    g = (2.0 / pn ** (2.0 / p)) * (a @ u.values - (e / pn) * force)
    return DiscreteField(u.grid, zero_dirichlet(g, u.grid))


def residual_pde(u: DiscreteField, level: float, alpha: float, p: float,
                 lam: float = 0.0) -> float:
    """2-norm over free nodes of A(lam) u - level^{p/2} F(u).

    At lam = 0 this is the weak defect of the level-form equation
    -Delta u = level^{p/2} psi |u|^{p-2} u; it vanishes at critical points
    rescaled to unit Dirichlet energy with level equal to their quotient.
    With the merit stiffness A(lam) it is the defect the balanced level T
    is certified by. With level = 0 it degenerates to |A u|, the pure
    Laplace defect.
    """
    if u.is_zero:
        raise DegenerateFieldError("residual of the zero field")
    if level < 0.0:
        raise ConfigurationError(f"level must be >= 0, got {level!r}")
    a = stiffness_matrix(u.grid, lam)
    defect = a @ u.values - level ** (p / 2.0) * weighted_force(u, alpha, p)
    return float(np.linalg.norm(defect[u.grid.free]))


def scaled_critical_field(u: DiscreteField, quotient: float) -> DiscreteField:
    """Map a normalized minimizer (int psi |u|^p = 1) to the level-form field.

    If A u = E F(u) with E = quotient, then v = u / sqrt(E) satisfies
    A v = E^{p/2} F(v); the further rescaling E^{1/(p-2)} u would solve the
    unit equation A w = F(w). The level form is what residual_pde checks.
    """
    if quotient <= 0.0:
        raise ConfigurationError(f"quotient must be positive, got {quotient!r}")
    return u.with_values(u.values / math.sqrt(quotient))
