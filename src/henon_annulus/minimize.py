"""Solvers for the four level problems of the weighted quotient.

All four reduce to descent on R(u) = E(u) / P(u)^{2/p} over the affine-free
normalization P(u) = int psi |u|^p = 1, where minimizers satisfy the
Euler-Lagrange system A u = E F(u):

* solve_radial: unconstrained descent over the radial reduction (level
  S_rad).
* solve_ground: the same over the axisymmetric space, started from an
  embedded radial minimizer and from bubbles at either boundary; the
  lowest converged quotient wins (level S).
* solve_sigma: minimization subject to equal half-annulus energies
  E_plus = E_minus, by multiplier iteration on the merit stiffness
  A_c = (1 + c) A_plus + (1 - c) A_minus with c updated along the
  constraint defect (level T).
* solve_lambda: unconstrained descent started from the bubble at a chosen
  boundary sphere (inner by default); if the iterate keeps strictly more
  energy in that half it is an interior local minimizer of the region
  heavy on that side, otherwise it is flagged as escaped. Either sphere
  may host the ground state, so the second local minimum is hunted on the
  side opposite the ground state's concentration.

The primary step is nonlinear inverse-power: solve A v = F(u_k), clamp to
nonnegative values (minimizers can be taken nonnegative), renormalize, and
damp toward u_k until the quotient decreases. When that stalls, a
preconditioned gradient step (direction -A^{-1} grad R) with backtracking
takes over. Accepted steps never increase the quotient (checked, slack
1e-12). Converged iterates are polished by Newton iteration on the unit
equation A w = F(w) with w = R^{1/(p-2)} u, which drives the level-form
defect of the rescaled field to roundoff.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse.linalg as spla

from . import functional as fn
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateFieldError,
    NonConvergenceError,
)
from .geometry import AxiGrid, DiscreteField, ProblemParams, RadialGrid, embed_radial
from .profiles import InstantonParams, instanton

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10
GRADIENT_FACTOR = 1e-7
RESIDUAL_TOL = 1e-6
MAX_ITERATIONS = 10_000
NEWTON_MAX = 8
POLISH_EVERY = 25
POLISH_TRIGGER = 1e-5
INTERIOR_MARGIN = 1e-3
SIGMA_MAX_OUTER = 60
MULTIPLIER_CLAMP = 0.95
INIT_EPSILON = 1e-2


@dataclass(frozen=True)
class SolveResult:
    """One solved level: the report, the normalized field, and flags.

    constraint_defect is E_plus - E_minus of the returned field (the
    quantity pinned to zero on the balanced set); escaped marks a
    one-sided start (solve_lambda) that migrated out of the half it
    started in (a finding, not an error).
    """

    params: ProblemParams
    report: fn.RayleighReport
    field: DiscreteField
    converged: bool
    constraint_defect: float
    init_tag: str
    escaped: bool = False

    def to_json_dict(self) -> dict:
        return {
            "params": {
                "dim": self.params.dim,
                "alpha": self.params.alpha,
                "p": self.params.p,
            },
            "level": self.report.quotient,
            "level_tag": self.report.level_tag,
            "converged": self.converged,
            "constraint_defect": self.constraint_defect,
            "iterations": self.report.iterations,
            "residual": self.report.residual,
            "grid": self.report.grid,
            "init_tag": self.init_tag,
            "escaped": self.escaped,
        }


def _lu(matrix, free):
    """SuperLU factor of matrix restricted to the free nodes.

    Every matrix factored here (stiffness, merit stiffness, Newton
    Jacobian A - (p - 1) M) is symmetric, so the minimum-degree ordering of
    A^T + A applies; it fills far less than SuperLU's default COLAMD.
    """
    return spla.splu(matrix[np.ix_(free, free)].tocsc(), permc_spec="MMD_AT_PLUS_A")


class _Factor:
    """Shared LU factorization of a free-node SPD matrix, solve under lock."""

    def __init__(self, matrix, free):
        self.free = free
        self.lu = _lu(matrix, free)
        self.lock = threading.Lock()

    def solve(self, rhs_free: np.ndarray) -> np.ndarray:
        with self.lock:
            return self.lu.solve(rhs_free)


def stiffness_factor(grid) -> tuple:
    """(A_full, factor) for the plain stiffness, factored once per grid."""
    a = fn.stiffness_matrix(grid)
    factor = fn.grid_cached(
        grid, "stiffness_factor", lambda: _Factor(a, fn.free_indices(grid))
    )
    return a, factor


def _merit_matrix(grid, lam: float):
    """(A_c, factor) for A_c = (1 + lam) A_plus + (1 - lam) A_minus."""
    if lam == 0.0:
        return stiffness_factor(grid)
    a_plus, a_minus = fn.halfspace_stiffness(grid)
    a = ((1.0 + lam) * a_plus + (1.0 - lam) * a_minus).tocsr()
    return a, _Factor(a, fn.free_indices(grid))


def _clamped_normalized(grid, values, alpha: float, p: float):
    vals = np.maximum(values, 0.0)
    vals[grid.dirichlet_mask] = 0.0
    field = DiscreteField(grid, vals)
    if field.is_zero:
        return None
    try:
        return fn.normalize(field, alpha, p)
    except DegenerateFieldError:
        return None


@dataclass
class _DescentState:
    field: DiscreteField
    merit: float
    e_plus: float
    e_minus: float
    gnorm: float
    residual: float
    iterations: int
    converged: bool


def _merit_energy(u: DiscreteField, lam: float) -> tuple[float, float, float]:
    ep, em = fn.halfspace_energies(u)
    return (1.0 + lam) * ep + (1.0 - lam) * em, ep, em


def _level_defect(a, u: DiscreteField, level: float, alpha: float, p: float) -> float:
    """Defect |A v - level^{p/2} F(v)| at v = u / sqrt(level), free nodes."""
    v = u.with_values(u.values / math.sqrt(level))
    rhs = level ** (p / 2.0) * fn.weighted_force(v, alpha, p)
    defect = a @ v.values - rhs
    return float(np.linalg.norm(defect[~u.grid.dirichlet_mask]))


def _newton_polish(grid, a, u: DiscreteField, merit: float, alpha: float, p: float):
    """Damped Newton iteration on A w = F(w) from w = merit^{1/(p-2)} u.

    Steps are shortened to at most half the field norm and backtracked on
    the defect norm, which widens the basin enough to capture sharply
    concentrated near-critical profiles. Returns the polished nonnegative
    normalized field or None if no step reduced the defect.
    """
    free = fn.free_indices(grid)
    w = u.values * merit ** (1.0 / (p - 2.0))
    field = DiscreteField(grid, w)
    defect = a @ w - fn.weighted_force(field, alpha, p)
    best, best_norm = w.copy(), float(np.linalg.norm(defect[free]))
    progressed = False
    for _ in range(NEWTON_MAX):
        jac = a - (p - 1.0) * fn.weighted_linearized_matrix(field, alpha, p)
        try:
            delta = _lu(jac, free).solve(-defect[free])
        except RuntimeError:
            break
        if not np.all(np.isfinite(delta)):
            break
        scale = np.linalg.norm(delta)
        if scale == 0.0:
            break
        step = min(1.0, 0.5 * np.linalg.norm(w[free]) / scale)
        accepted = None
        for _ in range(8):
            trial = w.copy()
            trial[free] += step * delta
            tfield = DiscreteField(grid, trial)
            tdefect = a @ trial - fn.weighted_force(tfield, alpha, p)
            tnorm = float(np.linalg.norm(tdefect[free]))
            if math.isfinite(tnorm) and tnorm < best_norm:
                accepted = (trial, tfield, tdefect, tnorm)
                break
            step *= 0.5
        if accepted is None:
            break
        w, field, defect, best_norm = accepted
        best = w.copy()
        progressed = True
        if best_norm <= 1e-13 * max(1.0, float(np.linalg.norm((a @ w)[free]))):
            break
    if not progressed:
        return None
    return _clamped_normalized(grid, best, alpha, p)


def _descend(
    grid,
    alpha: float,
    p: float,
    init: DiscreteField,
    *,
    lam: float = 0.0,
    tol: float = DEFAULT_TOL,
    maxit: int = MAX_ITERATIONS,
    polish: bool = True,
    project: bool = False,
) -> _DescentState:
    """Monotone quotient descent; the workhorse behind every solver.

    With project=True every trial candidate is rebalanced onto the equal
    half-energy set before the merit comparison, which turns the loop into
    projected descent over that set (used by solve_sigma, where a plain
    step polarizes instantly because the balanced state is a saddle).
    """
    a, factor = _merit_matrix(grid, lam)
    free = factor.free
    mask = grid.dirichlet_mask
    balance_op = fn.halfspace_stiffness(grid) if project else None

    def feasible(values):
        cand = _clamped_normalized(grid, values, alpha, p)
        if cand is not None and project:
            cand = _rebalance(cand, alpha, p)
        return cand

    u = feasible(init.values)
    if u is None:
        raise DegenerateFieldError("initial guess has no weighted mass")
    merit, ep, em = _merit_energy(u, lam)
    rel_change = math.inf
    iterations = 0
    gnorm = math.inf
    force_memo: tuple = (None, None)

    def force(field):
        # The gradient, the inverse-power right-hand side and the multiplier
        # estimate all need F of the same iterate: evaluate it once.
        nonlocal force_memo
        if force_memo[0] is not field:
            force_memo = (field, fn.weighted_force(field, alpha, p))
        return force_memo[1]

    def masked_gradient(field, merit_value):
        g = 2.0 * (a @ field.values - merit_value * force(field))
        g[mask] = 0.0
        return g

    def balance_normal(field):
        b = 2.0 * ((balance_op[0] - balance_op[1]) @ field.values)
        b[mask] = 0.0
        return b

    def stopping_norm(field, g):
        # On the balanced set only the tangential component can vanish.
        if not project:
            return float(np.linalg.norm(g))
        b = balance_normal(field)
        bb = float(b @ b)
        if bb == 0.0:
            return float(np.linalg.norm(g))
        return float(np.linalg.norm(g - (float(b @ g) / bb) * b))

    last_polish = -POLISH_EVERY
    polish_gap = POLISH_EVERY
    while iterations < maxit:
        g = masked_gradient(u, merit)
        gnorm = stopping_norm(u, g)
        if gnorm <= GRADIENT_FACTOR * merit and rel_change <= tol:
            break
        iterations += 1
        accepted = None
        # Near-critical p makes the inverse-power rate degenerate, so once
        # progress slows to a crawl a Newton teleport toward the stationary
        # point replaces thousands of tiny steps; the subsequent ordinary
        # iteration then certifies both stopping criteria. Failed attempts
        # back off exponentially so a stubborn basin does not eat the
        # iteration budget in factorizations.
        slow = rel_change <= POLISH_TRIGGER
        if polish and p > 2.0 and slow and iterations - last_polish >= polish_gap:
            last_polish = iterations
            if project:
                r0 = (a @ u.values - merit * force(u))[free]
                dvec = 0.5 * balance_normal(u)[free]
                dd = float(dvec @ dvec)
                lam_ls = 0.0 if dd == 0.0 else float(
                    np.clip(-(dvec @ r0) / dd, -0.999, 0.999)
                )
                got = _bordered_newton(grid, u, lam_ls, merit, alpha, p)
                polished = None if got is None else _rebalance(got[0], alpha, p)
            else:
                polished = _newton_polish(grid, a, u, merit, alpha, p)
            if polished is not None:
                pm, pep, pem = _merit_energy(polished, lam)
                if pm < merit * (1.0 - 1e-15):
                    accepted = (polished, pm, pep, pem)
                    polish_gap = POLISH_EVERY
            if accepted is None:
                polish_gap = min(2 * polish_gap, 800)
        if accepted is None:
            sol = np.zeros(grid.n_nodes)
            sol[free] = factor.solve(force(u)[free])
            cand = _clamped_normalized(grid, sol, alpha, p)
            if cand is not None:
                t = 1.0
                for _ in range(9):
                    if t == 1.0 and not project:
                        trial = cand  # already clamped and normalized
                    else:
                        trial = feasible((1.0 - t) * u.values + t * cand.values)
                    if trial is not None:
                        tm, tep, tem = _merit_energy(trial, lam)
                        if tm < merit:
                            accepted = (trial, tm, tep, tem)
                            break
                    t *= 0.5
        if accepted is None:
            d = np.zeros(grid.n_nodes)
            d[free] = factor.solve(-g[free])
            if project:
                # Tangentialize in the A^{-1} metric so the direction stays
                # descent after the rebalance projection.
                b = balance_normal(u)
                q = np.zeros(grid.n_nodes)
                q[free] = factor.solve(b[free])
                denom = float(b[free] @ q[free])
                if denom != 0.0:
                    d -= (float(b[free] @ d[free]) / denom) * q
            s = 1.0
            for _ in range(12):
                trial = feasible(u.values + s * d)
                if trial is not None:
                    tm, tep, tem = _merit_energy(trial, lam)
                    if tm < merit:
                        accepted = (trial, tm, tep, tem)
                        break
                s *= 0.5
        if accepted is None:
            break
        trial, tm, tep, tem = accepted
        if tm > merit * (1.0 + 1e-12):
            raise ContractViolationError("quotient increased on an accepted step")
        rel_change = (merit - tm) / merit
        u, merit, ep, em = trial, tm, tep, tem

    residual = _level_defect(a, u, merit, alpha, p)
    if polish and p > 2.0 and residual > 1e-3 * RESIDUAL_TOL:
        polished = _newton_polish(grid, a, u, merit, alpha, p)
        if polished is not None:
            pm, pep, pem = _merit_energy(polished, lam)
            if pm <= merit * (1.0 + 1e-9):
                u, merit, ep, em = polished, pm, pep, pem
                residual = _level_defect(a, u, merit, alpha, p)
        gnorm = float(np.linalg.norm(masked_gradient(u, merit)))
    converged = gnorm <= GRADIENT_FACTOR * merit and residual <= RESIDUAL_TOL
    return _DescentState(
        field=u,
        merit=merit,
        e_plus=ep,
        e_minus=em,
        gnorm=gnorm,
        residual=residual,
        iterations=iterations,
        converged=converged,
    )


def _check_grid(params: ProblemParams, grid, want) -> None:
    if not isinstance(grid, want):
        raise ConfigurationError(f"expected a {want.__name__} for this solver")
    if grid.dim != params.dim:
        raise ConfigurationError(
            f"grid dimension {grid.dim} does not match params dimension {params.dim}"
        )


def _result(params, state, level_tag, init_tag, escaped=False) -> SolveResult:
    report = fn.rayleigh(
        state.field,
        params.alpha,
        params.p,
        level_tag=level_tag,
        iterations=state.iterations,
        residual=state.residual,
    )
    return SolveResult(
        params=params,
        report=report,
        field=state.field,
        converged=state.converged,
        constraint_defect=state.e_plus - state.e_minus,
        init_tag=init_tag,
        escaped=escaped,
    )


def solve_radial(
    params: ProblemParams, grid: RadialGrid, tol: float = DEFAULT_TOL
) -> SolveResult:
    """Minimize over the radial reduction (level S_rad)."""
    _check_grid(params, grid, RadialGrid)
    init = DiscreteField.sampled(grid, lambda r: np.sin(0.5 * math.pi * (r - 1.0)))
    state = _descend(grid, params.alpha, params.p, init, tol=tol)
    return _result(params, state, "S_rad", "half-sine")


def default_ground_inits(
    params: ProblemParams, grid: AxiGrid
) -> list[tuple[str, DiscreteField]]:
    """The three standard starts: embedded radial minimizer and both bubbles."""
    radial_grid = RadialGrid(nodes=grid.r_nodes, grading=grid.grading, dim=3)
    radial = solve_radial(params, radial_grid)
    return [
        ("radial", embed_radial(radial.field, grid)),
        ("outer-bubble", instanton(InstantonParams(INIT_EPSILON, 0), grid)),
        ("inner-bubble", instanton(InstantonParams(INIT_EPSILON, 1), grid)),
    ]


def solve_ground(
    params: ProblemParams,
    grid: AxiGrid,
    inits: list[DiscreteField] | None = None,
    tol: float = DEFAULT_TOL,
) -> SolveResult:
    """Minimize over the axisymmetric space from several starts (level S).

    The strictly lowest converged quotient wins; on a tie within 1e-9
    relative the non-radial start wins and the tie is logged, so degenerate
    symmetry-breaking cannot hide behind the radial candidate.
    """
    _check_grid(params, grid, AxiGrid)
    if inits is None:
        tagged = default_ground_inits(params, grid)
    else:
        if not inits:
            raise ConfigurationError("need at least one initial guess")
        tagged = [(f"init-{k}", u) for k, u in enumerate(inits)]
    outcomes: list[SolveResult] = []
    failures: list[str] = []
    for tag, init in tagged:
        try:
            state = _descend(grid, params.alpha, params.p, init, tol=tol)
        except DegenerateFieldError as exc:
            failures.append(f"{tag}: {exc}")
            continue
        outcomes.append(_result(params, state, "S", tag))
        if not state.converged:
            failures.append(
                f"{tag}: not converged (gnorm={state.gnorm:.3e}, "
                f"residual={state.residual:.3e}, iterations={state.iterations})"
            )
    winners = [r for r in outcomes if r.converged]
    if not winners:
        raise NonConvergenceError(
            "no initial guess converged: " + "; ".join(failures)
        )
    winners.sort(key=lambda r: r.report.quotient)
    best = winners[0]
    for other in winners[1:]:
        close = abs(other.report.quotient - best.report.quotient) <= 1e-9 * abs(
            best.report.quotient
        )
        if close and best.init_tag == "radial" and other.init_tag != "radial":
            log.info(
                "ground-state tie at quotient %.12g: preferring %s over radial",
                best.report.quotient,
                other.init_tag,
            )
            best = other
    return best


def _bordered_newton(grid, u: DiscreteField, lam: float, merit: float,
                     alpha: float, p: float):
    """Damped Newton on the joint system A(lam) w = F(w), E_plus = E_minus.

    The balanced minimizer is a saddle of each fixed-multiplier merit
    functional, so descent alone slides off the constraint; solving for
    the field and the multiplier together converges quadratically onto the
    balanced stationary pair. Block elimination keeps the cost at two
    triangular solves per step. Returns (field, lam) or None.
    """
    free = fn.free_indices(grid)
    a_plus, a_minus = fn.halfspace_stiffness(grid)
    w = u.values * merit ** (1.0 / (p - 2.0))

    def system(wv, lamv):
        a = ((1.0 + lamv) * a_plus + (1.0 - lamv) * a_minus).tocsr()
        field = DiscreteField(grid, wv)
        r = (a @ wv - fn.weighted_force(field, alpha, p))[free]
        c = float(wv @ (a_plus @ wv) - wv @ (a_minus @ wv))
        return a, field, r, c, math.hypot(float(np.linalg.norm(r)), c)

    a, field, r, c, combined = system(w, lam)
    best = (w.copy(), lam)
    progressed = False
    for _ in range(16):
        scale = max(1.0, float(np.linalg.norm((a @ w)[free])))
        if combined <= 1e-12 * scale:
            progressed = True
            break
        jac = a - (p - 1.0) * fn.weighted_linearized_matrix(field, alpha, p)
        d = ((a_plus - a_minus) @ w)[free]
        b = 2.0 * d
        try:
            lu = _lu(jac, free)
            s1, s2 = lu.solve(r), lu.solve(d)
        except RuntimeError:
            break
        denom = float(b @ s2)
        if denom == 0.0 or not math.isfinite(denom):
            break
        dlam = (c - float(b @ s1)) / denom
        dw = -s1 - dlam * s2
        if not (np.all(np.isfinite(dw)) and math.isfinite(dlam)):
            break
        step = min(1.0, 0.5 * float(np.linalg.norm(w[free]) / max(np.linalg.norm(dw), 1e-300)))
        accepted = None
        for _ in range(8):
            wt = w.copy()
            wt[free] += step * dw
            lt = float(np.clip(lam + step * dlam, -0.999, 0.999))
            at, ft, rt, ct, combt = system(wt, lt)
            if math.isfinite(combt) and combt < combined:
                accepted = (wt, lt, at, ft, rt, ct, combt)
                break
            step *= 0.5
        if accepted is None:
            break
        w, lam, a, field, r, c, combined = accepted
        best = (w.copy(), lam)
        progressed = True
    if not progressed:
        return None
    out = _clamped_normalized(grid, best[0], alpha, p)
    if out is None:
        return None
    return out, best[1]


def _two_bump_init(grid: AxiGrid) -> DiscreteField:
    """Bubbles at both boundaries carrying equal Dirichlet energy."""
    inner = instanton(InstantonParams(INIT_EPSILON, 1), grid)
    outer = instanton(InstantonParams(INIT_EPSILON, 0), grid)
    vals = inner.values / math.sqrt(fn.dirichlet_energy(inner)) + outer.values / (
        math.sqrt(fn.dirichlet_energy(outer))
    )
    return DiscreteField(grid, vals)


def _rebalance(u: DiscreteField, alpha: float, p: float) -> DiscreteField | None:
    """Project u onto the balanced set by piecewise scaling of the halves.

    The interface row takes the mean factor, which leaves a second-order
    imbalance, so the scaling is iterated until the relative defect is at
    roundoff. A collapsed half is reseeded with a boundary bubble first so
    the balanced set stays reachable.
    """
    grid = u.grid
    ep, em = fn.halfspace_energies(u)
    total = ep + em
    if total <= 0.0:
        return None
    if min(ep, em) < 1e-9 * total:
        bump = instanton(InstantonParams(INIT_EPSILON, 1 if em < ep else 0), grid)
        scale = math.sqrt(max(ep, em) / fn.dirichlet_energy(bump))
        u = u.with_values(u.values + scale * bump.values)
        ep, em = fn.halfspace_energies(u)
        total = ep + em
    mid = grid.mid_index
    for _ in range(8):
        if abs(ep - em) <= 1e-13 * total:
            break
        target = 0.5 * total
        s_minus, s_plus = math.sqrt(target / em), math.sqrt(target / ep)
        vals = u.values_2d.copy()
        vals[:mid, :] *= s_minus
        vals[mid + 1 :, :] *= s_plus
        vals[mid, :] *= 0.5 * (s_minus + s_plus)
        u = u.with_values(vals.ravel())
        ep, em = fn.halfspace_energies(u)
        total = ep + em
    return _clamped_normalized(grid, u.values, alpha, p)


def solve_sigma(
    params: ProblemParams,
    grid: AxiGrid,
    tol: float = DEFAULT_TOL,
    ctol: float = 1e-4,
) -> SolveResult:
    """Minimize subject to E_plus = E_minus (level T).

    Multiplier iteration: minimize the merit quotient with stiffness
    (1 + c) A_plus + (1 - c) A_minus for the current multiplier c, read
    off the constraint defect, and move c along it with gain 10 / level
    (halved on overshoot). Because the balanced state is a saddle of every
    merit functional, the inner descents are kept short and warm-started
    from the previous iterate rebalanced onto the constraint set; a final
    Newton solve at frozen c lands on the balanced stationary point, and
    is kept only if the constraint survives. Convergence requires
    |E_plus - E_minus| <= ctol * (E_plus + E_minus) on top of inner
    stationarity.
    """
    _check_grid(params, grid, AxiGrid)
    alpha, p = params.alpha, params.p

    lam = 0.0
    state = _descend(
        grid, alpha, p, _two_bump_init(grid), lam=lam, tol=tol,
        polish=True, project=True,
    )
    iterations = state.iterations
    mu = 10.0 / max(state.merit, np.finfo(float).tiny)
    prev_defect = math.inf
    clamped_streak = 0
    diverged = False
    for _ in range(SIGMA_MAX_OUTER):
        defect = state.e_plus - state.e_minus
        total = state.e_plus + state.e_minus
        if abs(defect) <= ctol * total:
            break
        if math.isfinite(prev_defect):
            overshoot = abs(defect) > abs(prev_defect)
            if overshoot and math.copysign(1, defect) != math.copysign(1, prev_defect):
                mu *= 0.5
        lam_new = float(np.clip(lam + mu * defect, -MULTIPLIER_CLAMP, MULTIPLIER_CLAMP))
        if abs(lam_new) == MULTIPLIER_CLAMP:
            clamped_streak += 1
            if clamped_streak >= 6:
                diverged = True
                break
        else:
            clamped_streak = 0
        prev_defect = defect
        lam = lam_new
        state = _descend(
            grid, alpha, p, state.field, lam=lam, tol=tol,
            polish=True, project=True,
        )
        iterations += state.iterations

    # The projected minimizer is stationary only along the balanced set;
    # certification recovers the multiplier that makes it stationary in
    # the full space and reports gradient and residual against that merit.
    d_op = None

    def _certified(field, lam_value):
        nonlocal d_op
        if d_op is None:
            a_plus, a_minus = fn.halfspace_stiffness(grid)
            d_op = (a_plus, a_minus)
        a = ((1.0 + lam_value) * d_op[0] + (1.0 - lam_value) * d_op[1]).tocsr()
        pm, pep, pem = _merit_energy(field, lam_value)
        g = 2.0 * (a @ field.values - pm * fn.weighted_force(field, alpha, p))
        g[grid.dirichlet_mask] = 0.0
        return _DescentState(
            field=field,
            merit=pm,
            e_plus=pep,
            e_minus=pem,
            gnorm=float(np.linalg.norm(g)),
            residual=_level_defect(a, field, pm, alpha, p),
            iterations=0,
            converged=False,
        )

    def _lam_estimate(field, merit):
        free = fn.free_indices(grid)
        a_plus, a_minus = fn.halfspace_stiffness(grid)
        r0 = ((a_plus + a_minus) @ field.values
              - merit * fn.weighted_force(field, alpha, p))[free]
        d = ((a_plus - a_minus) @ field.values)[free]
        dd = float(d @ d)
        return 0.0 if dd == 0.0 else float(np.clip(-(d @ r0) / dd, -0.999, 0.999))

    lam = _lam_estimate(state.field, state.merit)
    polished = None
    if p > 2.0 and not diverged:
        polished = _bordered_newton(grid, state.field, lam, state.merit, alpha, p)
    state = _certified(*polished) if polished is not None else _certified(
        state.field, lam
    )
    defect = state.e_plus - state.e_minus
    total = state.e_plus + state.e_minus
    constraint_ok = abs(defect) <= ctol * total
    stationary = (
        state.gnorm <= GRADIENT_FACTOR * state.merit
        and state.residual <= RESIDUAL_TOL
    )
    state = replace(
        state,
        iterations=iterations,
        converged=stationary and constraint_ok and not diverged,
    )
    return _result(params, state, "T", "two-bump")


def solve_lambda(
    params: ProblemParams,
    grid: AxiGrid,
    tol: float = DEFAULT_TOL,
    eps: float = 1e-3,
    index: int = 1,
) -> SolveResult:
    """Descent from a boundary bubble (second local minimum hunt).

    index picks the boundary sphere in the InstantonParams convention
    (0 = outer, 1 = inner). Most meaningful for p close to the critical
    exponent, where each half keeps a basin of its own; which of the two
    holds the ground state depends on alpha and p, so a caller
    hunting the second minimum starts on the side the ground state does
    not take. If the final iterate no longer keeps strictly more energy in
    the starting half (margin 1e-3 of the total), it is flagged escaped.
    """
    _check_grid(params, grid, AxiGrid)
    init = instanton(InstantonParams(eps, index), grid)
    state = _descend(grid, params.alpha, params.p, init, tol=tol)
    total = state.e_plus + state.e_minus
    margin = state.e_plus - state.e_minus
    if index == 1:
        margin = -margin
    escaped = margin < INTERIOR_MARGIN * total
    tag = "outer-bubble" if index == 0 else "inner-bubble"
    return _result(params, state, "raw", tag, escaped=escaped)
