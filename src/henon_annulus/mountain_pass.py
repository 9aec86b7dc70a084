"""Numerical mountain pass between the two boundary bubbles.

The level of interest is

    beta = inf over paths gamma from u0 to u1 of max_t R(gamma(t)),

approximated by a polygonal path of normalized fields whose interior nodes
flow downhill: each sweep moves every interior node along its negative
H1-preconditioned Rayleigh gradient with per-node backtracking (so no
node's quotient ever increases, hence the running path maximum is
non-increasing), and every twentieth sweep the nodes are redistributed
uniformly in energy arc-length to stop them from piling up at the pass.
Three guards keep the discrete maximum an honest pass estimate: descent
directions are projected A-orthogonal to the local path tangent (full
per-node descent would make the whole chain flow into the two basins and
hide the barrier inside one segment), per-sweep displacements are capped
at half the local node spacing, and the redistribution keeps the argmax
node as a node, so re-sampling the polygon never raises the node
maximum. The iteration stops when the argmax node is an approximate
critical point, measured by the same scaled residual the solvers certify
(at most PASS_TOL by default). Plain descent crawls near a saddle, so
once the argmax node is near-critical (scaled residual at most 1e-2) it
is offered the Newton teleport on every sweep.

Each sweep fixes one ceiling, the running maximum plus 1e-10 of max(1,
running maximum): no climbing step, teleport or redistribution is
accepted above it, and a sweep whose path maximum ends above it is a
ContractViolationError, as is an endpoint that is no longer the field
object the pass was handed.

Every path with endpoints in the two half-annulus basins crosses the
balanced set: the sign of E_plus - E_minus flips along it, which is what
path_crossing locates and what makes beta an upper bound certificate for
the balanced level.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import functional as fn
from .errors import ConfigurationError, ContractViolationError, DegenerateFieldError
from .geometry import DiscreteField, ProblemParams
from .minimize import SolveStats, check_tolerance, newton

log = logging.getLogger(__name__)

MIN_SEGMENTS = 9
REDISTRIBUTE_EVERY = 20
PASS_TOL = 1e-5
BACKTRACK_MAX = 8


@dataclass
class PathState:
    """Polygonal path of normalized fields with cached quotients."""

    nodes: list[DiscreteField]
    quotients: np.ndarray
    alpha: float
    p: float

    @property
    def max_quotient(self) -> float:
        return float(self.quotients.max())


@dataclass(frozen=True)
class MpassResult:
    """Mountain-pass outcome: the level, the pass field, and certificates.

    path is the path the pass was handed, before any sweep (the pass
    deforms copies); every caller hands it straight_path's output.
    endpoint_levels and straight_max are read off it: the quotients of its
    two end nodes and its maximum quotient. A sweep that ends above its
    ceiling (see the module docstring) is a ContractViolationError, so
    beta <= straight_max holds by construction up to that slack. stats
    counts the Newton teleports of the argmax node (see SolveStats).
    """

    beta: float
    w: DiscreteField
    iterations: int
    converged: bool
    path: PathState
    stats: SolveStats = dataclasses.field(default_factory=SolveStats)

    @property
    def endpoint_levels(self) -> tuple[float, float]:
        return float(self.path.quotients[0]), float(self.path.quotients[-1])

    @property
    def straight_max(self) -> float:
        return self.path.max_quotient

    def to_json_dict(self) -> dict:
        return {
            "value": self.beta,
            "converged": self.converged,
            "iterations": self.iterations,
            "endpoints": list(self.endpoint_levels),
            "straight_max": self.straight_max,
            "grid": self.w.grid.descriptor,
            "stats": dataclasses.asdict(self.stats),
        }


def _node(blend: DiscreteField, alpha: float, p: float):
    """(normalized blend, its quotient), or None when the blend cannot be
    normalized (a zero blend included)."""
    try:
        u = fn.normalize(blend, alpha, p)
    except DegenerateFieldError:
        return None
    return u, fn.dirichlet_energy(u)


def straight_path(
    u0: DiscreteField, u1: DiscreteField, m: int, alpha: float, p: float
) -> PathState:
    """Affine interpolation zeta(t) = t u1 + (1-t) u0, nodes renormalized."""
    if m < MIN_SEGMENTS:
        raise ConfigurationError(f"need at least {MIN_SEGMENTS} segments, got {m}")
    if u0.grid is not u1.grid:
        raise ConfigurationError("path endpoints live on different grids")
    if u0.is_zero or u1.is_zero:
        raise DegenerateFieldError("path endpoints must be nonzero")
    nodes: list[DiscreteField] = []
    quotients = np.empty(m + 1)
    for k in range(m + 1):
        t = k / m
        got = _node(u0.with_values((1.0 - t) * u0.values + t * u1.values), alpha, p)
        if got is None:
            raise DegenerateFieldError(f"path node {k} is zero or cannot be normalized")
        node, quotients[k] = got
        nodes.append(node)
    return PathState(nodes=nodes, quotients=quotients, alpha=alpha, p=p)


def path_crossing(path: PathState) -> int:
    """First node index where the sign of E_plus - E_minus flips.

    The crossing node lies on the balanced set up to one path segment, so
    its quotient lower-bounds nothing by itself but upper-bounds the
    balanced level along this path; an exactly balanced node counts as a
    sign change.
    """
    defects = [fn.halfspace_energies(u) for u in path.nodes]
    signs = [math.copysign(1.0, ep - em) if ep != em else 0.0 for ep, em in defects]
    if signs[0] == 0.0 or signs[-1] == 0.0 or signs[0] == signs[-1]:
        raise ContractViolationError(
            "path endpoints do not straddle the balanced set"
        )
    for k in range(1, len(signs)):
        if signs[k] != signs[0]:
            return k
    raise ContractViolationError("no sign change along the path")


def _energy_norm(matrix, values: np.ndarray) -> float:
    return math.sqrt(max(float(values @ (matrix @ values)), 0.0))


def _gaps(matrix, nodes: list[DiscreteField], k: int) -> tuple[float, float]:
    """Energy distances from node k to its two neighbours."""
    return (_energy_norm(matrix, nodes[k].values - nodes[k - 1].values),
            _energy_norm(matrix, nodes[k + 1].values - nodes[k].values))


def _redistribute(path: PathState, matrix, pin: int) -> PathState | None:
    """Equidistribute nodes by energy arc-length on each side of `pin`.

    The argmax node is kept as a node so re-sampling the polygon cannot
    raise the node maximum; the remaining nodes are placed uniformly in
    the energy arc-length of the current polygon, which undoes the
    clustering that per-node descent produces around the pass.
    """
    nodes = path.nodes
    m = len(nodes) - 1
    new_nodes = list(nodes)
    new_quotients = path.quotients.copy()
    for lo, hi in ((0, pin), (pin, m)):
        n_seg = hi - lo
        if n_seg < 2:
            continue
        diffs = [nodes[k + 1].values - nodes[k].values for k in range(lo, hi)]
        lengths = np.array([_energy_norm(matrix, d) for d in diffs])
        total = float(lengths.sum())
        if total <= 0.0:
            continue
        cumulative = np.concatenate(([0.0], np.cumsum(lengths)))
        targets = np.linspace(0.0, total, n_seg + 1)
        for j in range(1, n_seg):
            i = int(np.searchsorted(cumulative, targets[j], side="right") - 1)
            i = min(max(i, 0), n_seg - 1)
            seg = lengths[i]
            t = 0.0 if seg == 0.0 else (targets[j] - cumulative[i]) / seg
            blend = nodes[lo + i].with_values(nodes[lo + i].values + t * diffs[i])
            got = _node(blend, path.alpha, path.p)
            if got is None:
                return None
            new_nodes[lo + j], new_quotients[lo + j] = got
    return PathState(new_nodes, new_quotients, path.alpha, path.p)


def mountain_pass(
    path: PathState,
    params: ProblemParams,
    tol: float = PASS_TOL,
    maxit: int = 2000,
) -> MpassResult:
    """Deform the interior path nodes downhill until the pass is critical.

    Stops when the argmax node's scaled residual (the same quantity
    residual_pde reports for the rescaled field) is at most tol, which must
    be finite and positive; exceeding maxit, which must be at least 1,
    returns the best path so far with converged False. Each sweep is
    logged at DEBUG: its number, the argmax node and every node's quotient.
    """
    if (params.alpha, params.p) != (path.alpha, path.p):
        raise ConfigurationError("path was built for different (alpha, p)")
    if len(path.nodes) - 1 < MIN_SEGMENTS:
        raise ConfigurationError(f"path needs at least {MIN_SEGMENTS} segments")
    check_tolerance("tol", tol)
    if not maxit >= 1:
        raise ConfigurationError(f"maxit must be at least 1, got {maxit!r}")
    alpha, p = path.alpha, path.p
    grid = path.nodes[0].grid
    matrix = fn.stiffness_matrix(grid)
    solve = fn.stiffness_solver(grid)
    free = grid.free
    m = len(path.nodes) - 1

    nodes = list(path.nodes)
    quotients = path.quotients.copy()
    running_max = float(quotients.max())
    converged = False
    iterations = 0

    # The argmax node's gradient is needed by the stopping test, by its own
    # descent step and, for an accepted climbing step, was already computed
    # at the candidate: keep the last one, keyed by the node itself.
    grad_memo: tuple = (None, None)

    def gradient(node: DiscreteField) -> np.ndarray:
        nonlocal grad_memo
        if grad_memo[0] is not node:
            grad_memo = (node, fn.functional_gradient(node, alpha, p).values)
        return grad_memo[1]

    stats = SolveStats()
    polish_memo: tuple = (None, None)
    top = int(np.argmax(quotients))
    while iterations < maxit:
        top_residual = float(np.linalg.norm(gradient(nodes[top]))) / (
            2.0 * math.sqrt(quotients[top]))
        if top_residual <= tol:
            converged = True
            break
        iterations += 1
        # running_max changes only at the end of a sweep, so one ceiling
        # bounds every step, teleport and redistribution of this sweep
        ceiling = running_max + 1e-10 * max(1.0, running_max)
        for k in range(1, m):
            g = gradient(nodes[k]) if k == top else (
                fn.functional_gradient(nodes[k], alpha, p).values
            )
            d = np.zeros(grid.n_nodes)
            d[free] = solve(-g[free])
            gref = math.sqrt(max(-float(g @ d), 0.0))
            # Tangential treatment along the central-difference chord,
            # both projections in the A inner product. Ordinary nodes
            # drop the along-path component (keeping it makes the whole
            # chain flow into the basins and hide the barrier inside
            # one segment; Cauchy-Schwarz keeps g.d <= 0). The argmax
            # node instead reverses it, the climbing variant: plain
            # descent slides off the saddle whenever the chord
            # misaligns with the unstable direction, while the reversed
            # component is attracted to it.
            tau = nodes[k + 1].values - nodes[k - 1].values
            a_tau = matrix @ tau
            tau_sq = float(tau @ a_tau)
            if tau_sq > 0.0:
                coef = float(d @ a_tau) / tau_sq
                d -= (2.0 * coef if k == top else coef) * tau
            dnorm = _energy_norm(matrix, d)
            # Trust region: at most half the local node spacing per
            # sweep, so nodes cannot outrun the polygon and tear the
            # path across the barrier between redistributions.
            cap = 0.5 * min(_gaps(matrix, nodes, k))
            if dnorm == 0.0 or cap == 0.0:
                continue
            s = min(1.0, cap / dnorm)
            for _ in range(BACKTRACK_MAX):
                got = _node(nodes[k].with_values(nodes[k].values + s * d), alpha, p)
                if got is not None:
                    cand, energy = got
                    if k != top:
                        ok = energy < quotients[k]
                    else:
                        # The climbing node steps only toward
                        # criticality (its preconditioned gradient norm
                        # is the Lyapunov function), never above the
                        # running max. Accepting plain level decreases
                        # here lets it slide below the saddle, after
                        # which the monotone ceiling forbids climbing
                        # back and the iteration deadlocks short of
                        # criticality.
                        gnew = gradient(cand)
                        dnew = solve(-gnew[free])
                        gcand = math.sqrt(max(-float(gnew[free] @ dnew), 0.0))
                        floor = max(quotients[k - 1], quotients[k + 1])
                        ok = (
                            gcand < gref
                            and energy <= ceiling
                            and energy >= floor - 1e-12 * max(1.0, floor)
                        )
                    if ok:
                        nodes[k] = cand
                        quotients[k] = energy
                        break
                s *= 0.5
        # A saddle starves plain descent, so the argmax node gets the
        # same Newton teleport the solvers use on every sweep once it is
        # near-critical, so Newton can close in from above before the
        # creeping dynamics overshoots the pass level. Accepted only
        # under the running max, above the flanking nodes, and within
        # the local node spacing, else the polygon would tear and the
        # discrete maximum could dodge the pass.
        if p > 2.0 and top_residual <= 1e-2:
            k = int(np.argmax(quotients))
            if 0 < k < m:
                # Newton depends on the node alone, and a stalled
                # argmax node is offered the teleport on every sweep:
                # reuse the last outcome while the node is unchanged.
                if polish_memo[0] is not nodes[k]:
                    stats.teleports_tried += 1
                    got = newton(grid, nodes[k], float(quotients[k]), alpha, p,
                                 stats=stats)
                    polish_memo = (nodes[k], None if got is None else got[0])
                polished = polish_memo[1]
                if polished is not None:
                    energy = fn.dirichlet_energy(polished)
                    moved = polished.values - nodes[k].values
                    spacing = max(_gaps(matrix, nodes, k))
                    # The pass level cannot lie below the flanking
                    # nodes; a polished field that does has fallen
                    # into a basin, not onto the saddle.
                    floor = max(quotients[k - 1], quotients[k + 1])
                    if (
                        floor - 1e-6 * max(1.0, floor) <= energy <= ceiling
                        and _energy_norm(matrix, moved) <= spacing
                    ):
                        nodes[k] = polished
                        quotients[k] = energy
                        stats.teleports_accepted += 1
        if iterations % REDISTRIBUTE_EVERY == 0:
            pin = int(np.argmax(quotients))
            if 0 < pin < m:
                candidate = _redistribute(
                    PathState(nodes, quotients, alpha, p), matrix, pin
                )
                if candidate is not None and candidate.max_quotient <= ceiling:
                    nodes = candidate.nodes
                    quotients = candidate.quotients
        current_max = float(quotients.max())
        if current_max > ceiling:
            raise ContractViolationError("path maximum increased")
        running_max = min(running_max, current_max)
        top = int(np.argmax(quotients))
        if log.isEnabledFor(logging.DEBUG):
            log.debug("sweep %d: argmax node %d, quotients %s", iterations,
                      top, " ".join(f"{q:.17g}" for q in quotients))
        # Once the maximum sits at a fixed endpoint it stays there:
        # interior levels only decrease, so beta is already final and
        # the remaining sweeps cannot change the outcome.
        if top in (0, m):
            break

    # Fields are frozen: an endpoint that is its input object is unmoved.
    if nodes[0] is not path.nodes[0] or nodes[m] is not path.nodes[m]:
        raise ContractViolationError("path endpoint moved")
    # An accepted run replaces the node its memo is keyed by, so no run is
    # accepted twice.
    stats.teleports_refused = stats.teleports_tried - stats.teleports_accepted
    return MpassResult(
        beta=float(quotients[top]),
        w=nodes[top],
        iterations=iterations,
        converged=converged,
        path=path,
        stats=stats,
    )
