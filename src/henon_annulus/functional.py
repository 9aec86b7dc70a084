"""Dirichlet energy, weighted p-norm, Rayleigh quotient, and first-order data.

The object under study is the quotient

    R(u) = int |grad u|^2 dx / (int psi |u|^p dx)^(2/p)

over fields vanishing on |x| = 1 and |x| = 3. Stiffness forms are exact for
the chosen bases. A radial P1 cell contributes

    omega_{N-1} (b^N - a^N) / (N h^2) * (du)^2,

and an axisymmetric Q1 cell (r, theta) in [a,b] x [t0,t1] is integrated in
closed moments: with local coordinates xi, eta and differences
P = u10 - u00, Q = u00 - u10 - u01 + u11, S = u01 - u00,

    int |grad u|^2 dmu = c1 (P^2 I0 + 2 P Q I1 + Q^2 I2)
                       + c2 (S^2 + S Q + Q^2 / 3),

where c1 = 2 pi (b^3 - a^3) / (3 h_r^2), c2 = 2 pi h_r I0 / h_t^2, and
I_k = int eta^k sin(theta) dtheta over the cell. The I_k are evaluated by a
fixed positive-weight Gauss rule in eta, which is exact to roundoff for
these analytic integrands and keeps every cell matrix positive
semidefinite by construction. A theta-constant field therefore reproduces
its radial energy up to the roundoff of sum(I0) = 2.

Weighted integrals share the per-cell radial Gauss rules of .weight
between the two reductions, so the weighted p-norm is consistent across
embed_radial as well. Critical points of R with the normalization
int psi |u|^p = 1 and E = R(u) satisfy the discrete Euler-Lagrange system

    A u = E F(u),      F_i(u) = int psi |u|^{p-2} u phi_i,

and the rescaled field v = u / sqrt(E) solves the level form
A v = E^{p/2} F(v); residual_pde reports the 2-norm of that defect over
free nodes.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, DegenerateFieldError
from .geometry import (
    AxiGrid,
    DiscreteField,
    RadialGrid,
    surface_measure,
)
from .weight import WeightSpec, radial_rule, theta_rule, weight_eval

LEVEL_TAGS = ("raw", "S_rad", "S", "T", "beta")

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

    def __post_init__(self) -> None:
        if self.level_tag not in LEVEL_TAGS:
            raise ConfigurationError(f"unknown level tag {self.level_tag!r}")

    def to_dict(self) -> dict:
        return {
            "dirichlet_energy": self.dirichlet_energy,
            "weighted_pnorm_p": self.weighted_pnorm_p,
            "quotient": self.quotient,
            "level_tag": self.level_tag,
            "iterations": self.iterations,
            "residual": self.residual,
            "grid": self.grid,
        }


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


class _RadialQuadrature:
    """Radial quadrature of one node set and one alpha as an evaluation operator.

    Every cell's Gauss rule from .weight is flattened into one point list;
    points whose weight flushed to 0 are dropped, since they contribute
    nothing to any weighted integral (most of them at large alpha). basis
    maps nodal values to the points (1 - xi and xi on the cell's two end
    nodes), weight holds the dr-weight times psi times the radial measure,
    and cell_sum adds point values up per cell. Shared by the radial and
    axisymmetric integral paths; point_weight is weight broadcastable
    against _point_values, times the theta factors colfac on an
    axisymmetric grid (colfac None on a radial one).
    """

    def __init__(self, nodes: np.ndarray, alpha: float, measure, colfac=None):
        n_cells = len(nodes) - 1
        per_cell = [radial_rule(nodes[i], nodes[i + 1], alpha) for i in range(n_cells)]
        cell = np.repeat(np.arange(n_cells), [len(p) for p, _ in per_cell])
        pts = np.concatenate([p for p, _ in per_cell])
        wts = np.concatenate([w for _, w in per_cell])
        weight = wts * weight_eval(pts, WeightSpec(alpha)) * measure(pts)
        keep = weight != 0.0
        cell, pts, weight = cell[keep], pts[keep], weight[keep]
        self.xi = (pts - nodes[cell]) / (nodes[cell + 1] - nodes[cell])
        self.weight = weight
        n_q = len(pts)
        rows = np.concatenate([np.arange(n_q), np.arange(n_q)])
        cols = np.concatenate([cell, cell + 1])
        vals = np.concatenate([1.0 - self.xi, self.xi])
        self.basis = sp.csr_matrix((vals, (rows, cols)), shape=(n_q, n_cells + 1))
        self.basis_t = self.basis.T.tocsr()
        self.cell_sum = sp.csr_matrix(
            (np.ones(n_q), (cell, np.arange(n_q))), shape=(n_cells, n_q)
        )
        if colfac is None:
            self.point_weight = weight
        else:
            self.point_weight = weight[:, None, None] * colfac[None, :, :]


class _Assembly:
    """Lazily built per-grid data: stiffness pieces, quadrature operators and
    whatever else callers cache per grid through grid_cached.

    Holds no reference to its grid, so the weak-keyed _ASSEMBLY entry goes
    with the grid.
    """

    def __init__(self, grid):
        # Reentrant: a build may itself use the cache (the stiffness factor
        # needs the stiffness), and concurrent callers wait for one build.
        self.lock = threading.RLock()
        self.built: dict = {}
        self.colfac = None
        if isinstance(grid, RadialGrid):
            nodes, n = grid.nodes, grid.dim
            self.nodes = nodes
            h = np.diff(nodes)
            self.k_cell = (
                surface_measure(n) * (nodes[1:] ** n - nodes[:-1] ** n) / (n * h * h)
            )
            self.measure = lambda r: surface_measure(n) * r ** (n - 1)
        else:
            r, t = grid.r_nodes, grid.theta_nodes
            self.nodes = r
            hr = np.diff(r)
            ht = np.diff(t)
            jr = (r[1:] ** 3 - r[:-1] ** 3) / 3.0
            i0, i1, i2 = _eta_moments(t)
            self.i0, self.i1, self.i2 = i0, i1, i2
            self.c1 = 2.0 * math.pi * jr / (hr * hr)
            self.c2 = 2.0 * math.pi * np.outer(hr, i0 / (ht * ht))
            self.measure = lambda r: 2.0 * math.pi * r * r
            # theta_rule is affine per cell, so every cell shares the local
            # points eta; colfac[k, j] = w_kj sin(theta_kj)
            per_cell = [theta_rule(t[j], t[j + 1]) for j in range(grid.nt)]
            pts = np.stack([q for q, _ in per_cell], axis=1)
            wts = np.stack([w for _, w in per_cell], axis=1)
            self.eta = (pts[:, 0] - t[0]) / ht[0]
            self.colfac = wts * np.sin(pts)

    def cached(self, key, build):
        """The value stored under key, built by build() on first use."""
        with self.lock:
            value = self.built.get(key)
            if value is None:
                value = build()
                self.built[key] = value
            return value

    def quadrature(self, alpha: float) -> _RadialQuadrature:
        return self.cached(
            ("quadrature", alpha),
            lambda: _RadialQuadrature(self.nodes, alpha, self.measure, self.colfac),
        )


_ASSEMBLY: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_ASSEMBLY_LOCK = threading.Lock()


def _assembly(grid) -> _Assembly:
    with _ASSEMBLY_LOCK:
        a = _ASSEMBLY.get(grid)
        if a is None:
            a = _Assembly(grid)
            _ASSEMBLY[grid] = a
        return a


def grid_cached(grid, key: str, build):
    """build() once per grid and key; the value lives as long as the grid.

    Concurrent callers of one grid wait for a single build, and build may
    itself call the cached functions of this module on the same grid.
    """
    return _assembly(grid).cached(key, build)


def cell_energies(u: DiscreteField) -> np.ndarray:
    """Per-cell Dirichlet energy: (n_cells,) radial, (nr, nt) axisymmetric.

    Summing any subset partitions the total exactly, which is what the
    half-annulus split and the per-theta diagnostics rely on.
    """
    asm = _assembly(u.grid)
    if isinstance(u.grid, RadialGrid):
        d = np.diff(u.values)
        return asm.k_cell * d * d
    u2 = u.values_2d
    u00 = u2[:-1, :-1]
    u10 = u2[1:, :-1]
    u01 = u2[:-1, 1:]
    u11 = u2[1:, 1:]
    p = u10 - u00
    q = u00 - u10 - u01 + u11
    s = u01 - u00
    term1 = asm.c1[:, None] * (
        p * p * asm.i0[None, :] + 2.0 * p * q * asm.i1[None, :] + q * q * asm.i2[None, :]
    )
    term2 = asm.c2 * (s * s + s * q + q * q / 3.0)
    return term1 + term2


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


def stiffness_matrix(grid) -> sp.csr_matrix:
    """Full symmetric stiffness matrix (no boundary-condition rows removed)."""
    asm = _assembly(grid)
    return asm.cached("stiffness", lambda: _build_stiffness(grid, asm, which="all"))


def halfspace_stiffness(grid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(A_plus, A_minus) assembled from the cells of each half-annulus."""
    asm = _assembly(grid)
    return asm.cached(
        "halfspace_stiffness",
        lambda: (
            _build_stiffness(grid, asm, which="plus"),
            _build_stiffness(grid, asm, which="minus"),
        ),
    )


def _cell_mask(grid, which: str) -> np.ndarray:
    mid = grid.mid_index
    if isinstance(grid, RadialGrid):
        mask = np.ones(grid.n_cells, dtype=bool)
    else:
        mask = np.ones((grid.nr, grid.nt), dtype=bool)
    if which == "plus":
        mask[:mid] = False
    elif which == "minus":
        mask[mid:] = False
    return mask


def _build_stiffness(grid, asm: _Assembly, which: str) -> sp.csr_matrix:
    mask = _cell_mask(grid, which)
    if isinstance(grid, RadialGrid):
        k = np.where(mask, asm.k_cell, 0.0)
        i = np.arange(grid.n_cells)
        rows = np.concatenate([i, i, i + 1, i + 1])
        cols = np.concatenate([i, i + 1, i, i + 1])
        vals = np.concatenate([k, -k, -k, k])
        n = grid.n_nodes
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    nr, nt = grid.nr, grid.nt
    stride = nt + 1
    ci, cj = np.meshgrid(np.arange(nr), np.arange(nt), indexing="ij")
    base = ci * stride + cj
    corner_nodes = (base, base + stride, base + 1, base + stride + 1)
    # Coefficient vectors of P, Q, S on corners ordered (00, 10, 01, 11).
    pv = (-1.0, 1.0, 0.0, 0.0)
    qv = (1.0, -1.0, -1.0, 1.0)
    sv = (-1.0, 0.0, 1.0, 0.0)
    c1 = np.where(mask, asm.c1[:, None], 0.0)
    c2 = np.where(mask, asm.c2, 0.0)
    i0, i1, i2 = asm.i0[None, :], asm.i1[None, :], asm.i2[None, :]
    rows, cols, vals = [], [], []
    for a in range(4):
        for b in range(4):
            block = c1 * (
                i0 * pv[a] * pv[b]
                + i1 * (pv[a] * qv[b] + qv[a] * pv[b])
                + i2 * qv[a] * qv[b]
            ) + c2 * (
                sv[a] * sv[b]
                + 0.5 * (sv[a] * qv[b] + qv[a] * sv[b])
                + qv[a] * qv[b] / 3.0
            )
            rows.append(corner_nodes[a].ravel())
            cols.append(corner_nodes[b].ravel())
            vals.append(block.ravel())
    n = grid.n_nodes
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return mat.tocsr()


def free_indices(grid) -> np.ndarray:
    return np.nonzero(~grid.dirichlet_mask)[0]


def _point_values(u: DiscreteField, asm: _Assembly, quad: _RadialQuadrature):
    """u at the quadrature points: (n_q,) radial, (n_q, n_eta, nt) axisymmetric.

    Sum factorization: interpolate in r through quad.basis, then in theta
    with the cell-local points eta shared by every angular cell.
    """
    if isinstance(u.grid, RadialGrid):
        return quad.basis @ u.values
    ur = quad.basis @ u.values_2d
    eta = asm.eta[None, :, None]
    return (1.0 - eta) * ur[:, None, :-1] + eta * ur[:, None, 1:]


def _check_exponent(p: float) -> None:
    if p < 2.0:
        raise ConfigurationError(f"p must be >= 2, got {p!r}")


def weighted_pnorm_p(u: DiscreteField, alpha: float, p: float) -> float:
    """int psi_alpha |u|^p dx over the annulus."""
    _check_exponent(p)
    asm = _assembly(u.grid)
    quad = asm.quadrature(alpha)
    vals = np.abs(_point_values(u, asm, quad)) ** p
    if isinstance(u.grid, RadialGrid):
        return float(quad.weight @ vals)
    return float(quad.weight @ np.tensordot(vals, asm.colfac, axes=([1, 2], [0, 1])))


def weighted_force(u: DiscreteField, alpha: float, p: float) -> np.ndarray:
    """Nodal force F_i = int psi |u|^{p-2} u phi_i (the p-norm derivative / p).

    Uses the same quadrature as weighted_pnorm_p, so <F(u), u> equals the
    p-norm integral to roundoff.
    """
    _check_exponent(p)
    asm = _assembly(u.grid)
    quad = asm.quadrature(alpha)
    vals = _point_values(u, asm, quad)
    g = quad.point_weight * np.abs(vals) ** (p - 2.0) * vals
    if isinstance(u.grid, RadialGrid):
        return quad.basis_t @ g
    # transpose of the theta interpolation, then of the radial one
    ut = np.zeros((g.shape[0], g.shape[2] + 1))
    ut[:, :-1] += np.einsum("qkj,k->qj", g, 1.0 - asm.eta)
    ut[:, 1:] += np.einsum("qkj,k->qj", g, asm.eta)
    return (quad.basis_t @ ut).ravel()


def angular_energy(u: DiscreteField) -> float:
    """The theta-derivative share int |u_theta|^2 / r^2 dmu of the energy.

    Zero exactly iff the field is theta-constant on the grid; radial fields
    return 0 by definition.
    """
    if isinstance(u.grid, RadialGrid):
        return 0.0
    asm = _assembly(u.grid)
    u2 = u.values_2d
    u00 = u2[:-1, :-1]
    u10 = u2[1:, :-1]
    u01 = u2[:-1, 1:]
    u11 = u2[1:, 1:]
    q = u00 - u10 - u01 + u11
    s = u01 - u00
    return float(np.sum(asm.c2 * (s * s + s * q + q * q / 3.0)))


def theta_cell_energies(u: DiscreteField) -> np.ndarray:
    """Dirichlet energy per angular cell (column sums of cell_energies)."""
    if isinstance(u.grid, RadialGrid):
        raise ConfigurationError("theta_cell_energies needs an axisymmetric field")
    return np.sum(cell_energies(u), axis=0)


def theta_measure_shares(grid: AxiGrid) -> np.ndarray:
    """Fraction of the sphere measure per angular cell (sums to 1)."""
    asm = _assembly(grid)
    return asm.i0 / np.sum(asm.i0)


def weighted_linearized_matrix(u: DiscreteField, alpha: float, p: float) -> sp.csr_matrix:
    """Sparse matrix M(u) with entries int psi |u|^{p-2} phi_i phi_j.

    The derivative of the force is F'(u) = (p - 1) M(u) for u >= 0; the
    level-form Newton step uses it. Shares the quadrature of
    weighted_pnorm_p.
    """
    _check_exponent(p)
    asm = _assembly(u.grid)
    quad = asm.quadrature(alpha)
    n = u.grid.n_nodes
    dens = quad.point_weight * np.abs(_point_values(u, asm, quad)) ** (p - 2.0)
    sr = (1.0 - quad.xi, quad.xi)
    rows, cols, vals = [], [], []
    if isinstance(u.grid, RadialGrid):
        idx = np.arange(u.grid.n_cells)
        for a in range(2):
            for b in range(2):
                rows.append(idx + a)
                cols.append(idx + b)
                vals.append(quad.cell_sum @ (dens * sr[a] * sr[b]))
    else:
        nt = u.grid.nt
        stride = nt + 1
        st = (1.0 - asm.eta, asm.eta)
        # theta pairs summed first: dt[a][b][q, j] = sum_k st_a st_b dens
        dt = [[np.einsum("qkj,k->qj", dens, st[a] * st[b]) for b in range(2)]
              for a in range(2)]
        base = np.arange(u.grid.nr)[:, None] * stride + np.arange(nt)[None, :]
        # corner index a: bit 0 is the radial side, bit 1 the angular side
        node = (base, base + stride, base + 1, base + stride + 1)
        for a in range(4):
            for b in range(4):
                weighted = (sr[a % 2] * sr[b % 2])[:, None] * dt[a // 2][b // 2]
                rows.append(node[a].ravel())
                cols.append(node[b].ravel())
                vals.append((quad.cell_sum @ weighted).ravel())
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return mat.tocsr()


def normalize(u: DiscreteField, alpha: float, p: float) -> DiscreteField:
    """Rescale so that int psi |u|^p = 1."""
    pn = weighted_pnorm_p(u, alpha, p)
    if pn <= 0.0:
        raise DegenerateFieldError("cannot normalize: weighted p-norm vanishes")
    return u.with_values(u.values / pn ** (1.0 / p))


def rayleigh(
    u: DiscreteField,
    alpha: float,
    p: float,
    *,
    level_tag: str = "raw",
    iterations: int = 0,
    residual: float = math.nan,
) -> RayleighReport:
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
        level_tag=level_tag,
        iterations=iterations,
        residual=residual,
        grid=u.grid.descriptor,
    )


def functional_gradient(u: DiscreteField, alpha: float, p: float) -> DiscreteField:
    """Gradient of R at u, zero at Dirichlet nodes.

    dR = (2 / P^{2/p}) (A u - (E / P) F(u)); by construction <dR, u> = 0 to
    roundoff since <F(u), u> reproduces P through the shared quadrature.
    """
    if u.is_zero:
        raise DegenerateFieldError("gradient at the zero field")
    pn = weighted_pnorm_p(u, alpha, p)
    if pn <= 0.0:
        raise DegenerateFieldError(
            "weighted p-norm vanished (field supported where the weight underflows)"
        )
    a = stiffness_matrix(u.grid)
    e = dirichlet_energy(u)
    g = (2.0 / pn ** (2.0 / p)) * (a @ u.values - (e / pn) * weighted_force(u, alpha, p))
    g[u.grid.dirichlet_mask] = 0.0
    return DiscreteField(u.grid, g)


def residual_pde(u: DiscreteField, level: float, alpha: float, p: float) -> float:
    """2-norm over free nodes of A u - level^{p/2} F(u).

    This is the weak defect of the level-form equation
    -Delta u = level^{p/2} psi |u|^{p-2} u; it vanishes at critical points
    rescaled to unit Dirichlet energy with level equal to their quotient.
    With level = 0 it degenerates to |A u|, the pure Laplace defect.
    """
    if u.is_zero:
        raise DegenerateFieldError("residual of the zero field")
    if level < 0.0:
        raise ConfigurationError(f"level must be >= 0, got {level!r}")
    a = stiffness_matrix(u.grid)
    defect = a @ u.values - level ** (p / 2.0) * weighted_force(u, alpha, p)
    return float(np.linalg.norm(defect[~u.grid.dirichlet_mask]))


def scaled_critical_field(u: DiscreteField, quotient: float) -> DiscreteField:
    """Map a normalized minimizer (int psi |u|^p = 1) to the level-form field.

    If A u = E F(u) with E = quotient, then v = u / sqrt(E) satisfies
    A v = E^{p/2} F(v); the further rescaling E^{1/(p-2)} u would solve the
    unit equation A w = F(w). The level form is what residual_pde checks.
    """
    if quotient <= 0.0:
        raise ConfigurationError(f"quotient must be positive, got {quotient!r}")
    return u.with_values(u.values / math.sqrt(quotient))
