"""Solvers for the four level problems of the weighted quotient.

All four reduce to descent on R(u) = E(u) / P(u)^{2/p} over the affine-free
normalization P(u) = int psi |u|^p = 1, where minimizers satisfy the
Euler-Lagrange system A u = E F(u):

* solve_radial: unconstrained descent over the radial reduction (level
  S_rad).
* solve_ground: the same over the axisymmetric space, started from an
  embedded radial minimizer and from bubbles at either boundary; the
  lowest converged quotient wins (level S).
* solve_sigma: projected descent over the balanced set E_plus = E_minus,
  then a Newton solve bordered by that constraint, certified against the
  merit stiffness A(c) = (1 + c) A_plus + (1 - c) A_minus of the
  multiplier c it recovers (level T); functional.stiffness_matrix(grid, c)
  is the one place that matrix is formed.
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
takes over. Both solve with the stiffness through
functional.stiffness_solver, a direct solve by fast diagonalization.
Accepted steps never increase the quotient (checked, slack 1e-12). Line
searches stop halving once the full step's quotient is within FLOOR_ULPS
ulps of the iterate's: shorter steps would only decide roundoff.

Once the descent slows to a crawl, a Newton teleport replaces its many
small steps. Off the balanced set the teleport is descent-only
(`_teleport`): Newton steps for R on the tangent of the sphere P = 1,
bordered by F(u), whose matrix is shifted by mu A until the trial lowers
the quotient (Levenberg-Marquardt in the A metric). It returns the lowest
point it reached, so it cannot land on a saddle above the iterate, where
the nearest critical point often is near the critical exponent. The plain
damped Newton iteration of `newton` on the unit equation A w = F(w), with
w = R^{1/(p-2)} u, goes to the nearest critical point of any index; it
polishes converged iterates, drives the level-form defect of the rescaled
field to roundoff, and on the balanced set runs bordered by the
constraint as that set's teleport. Every Newton step, bordered or not, is
one MINRES solve of a symmetric system preconditioned by the stiffness
solver (`_newton_step`); no matrix is factored, and the system's matrix
is the free block functional.jacobian_block takes from data on the
grid's one stiffness layout.

Every level is certified by one rule (`_certificate`): the masked merit
gradient 2 (A(c) u - R F(u)) has norm at most GRADIENT_FACTOR R, and the
level-form defect functional.residual_pde of u / sqrt(R) is at most
RESIDUAL_TOL, with c = 0 off the balanced set.

A SolveResult is the functional.rayleigh report of the field with the
level, iterations and certified residual set, the field and its flags;
the parameters stay with the caller, which echoes them where it must.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import functional as fn
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateFieldError,
    NonConvergenceError,
)
from .geometry import (AxiGrid, DiscreteField, ProblemParams, RadialGrid, embed_radial,
                       zero_dirichlet)
from .profiles import BUBBLE_EPS, InstantonParams, instanton

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10
DEFAULT_CTOL = 1e-4
GRADIENT_FACTOR = 1e-7
RESIDUAL_TOL = 1e-6
MAX_ITERATIONS = 10_000
NEWTON_MAX = 8
BORDERED_NEWTON_MAX = 16
POLISH_EVERY = 25
POLISH_TRIGGER = 1e-4
# MINRES stops at this relative residual of the preconditioned system;
# a solve that reaches the cap is a failed Newton step.
KRYLOV_RTOL = 1e-12
KRYLOV_MAX = 300
SHIFT_START = 0.01
SHIFT_GROWTH = 4.0
FLOOR_ULPS = 4
INTERIOR_MARGIN = 1e-3
INIT_EPSILON = 1e-2


@dataclass
class SolveStats:
    """What the descent behind a result did, as counts only, so reruns
    compare bitwise (solve_ground reports its winning start's descent).

    Steps are accepted steps by kind; backtracks are the trial points a
    line search evaluated after its first; a teleport is tried, then
    accepted when it lowered the quotient and refused otherwise; shift
    increases count the raises of its mu. Linear solves count the Newton
    systems solved by MINRES, Krylov iterations their iterations summed,
    and Krylov capped the solves that stopped at KRYLOV_MAX (stiffness
    solves are direct and not counted). The mountain pass reports its
    Newton runs from the argmax node as teleports and the solves they
    made; its step, backtrack and shift counts read 0.
    """

    inverse_power_steps: int = 0
    gradient_steps: int = 0
    backtracks: int = 0
    teleports_tried: int = 0
    teleports_accepted: int = 0
    teleports_refused: int = 0
    shift_increases: int = 0
    linear_solves: int = 0
    krylov_iterations: int = 0
    krylov_capped: int = 0


@dataclass(frozen=True)
class SolveResult:
    """One solved level: the report, the normalized field, and flags.

    constraint_defect is E_plus - E_minus of the returned field (the
    quantity pinned to zero on the balanced set); escaped marks a
    one-sided start (solve_lambda) that migrated out of the half it
    started in (a finding, not an error).
    """

    report: fn.RayleighReport
    field: DiscreteField
    converged: bool
    constraint_defect: float
    init_tag: str
    escaped: bool = False
    stats: SolveStats = dataclasses.field(default_factory=SolveStats)

    def to_json_dict(self) -> dict:
        return {
            "value": self.report.quotient,
            "level_tag": self.report.level_tag,
            "converged": self.converged,
            "constraint_defect": self.constraint_defect,
            "iterations": self.report.iterations,
            "residual": self.report.residual,
            "grid": self.report.grid,
            "init_tag": self.init_tag,
            "escaped": self.escaped,
            "stats": dataclasses.asdict(self.stats),
        }


def _newton_step(jac, r: np.ndarray, solver, stats,
                col: np.ndarray | None = None, c: float = 0.0):
    """The Newton step of the free block jac by MINRES, or None if it failed.

    Without col it solves J dw = -r. With col it solves the symmetric
    bordered system [J col; col^T 0] [dw; dlam] = -[r; c]. J is symmetric
    and may be indefinite; the preconditioner is the stiffness solver
    S^{-1}, bordered by 1 / (col^T S^{-1} col), which bounds the iteration
    count independently of the mesh. Returns (dw, dlam), dlam = 0 without
    a border. A solve that reaches KRYLOV_MAX iterations or ends
    non-finite is a failed step. stats takes the counts (see newton).
    """
    m = len(r)
    if col is None:
        op, rhs = jac, -r
        prec = spla.LinearOperator((m, m), matvec=solver)
    else:
        schur = float(col @ solver(col))
        if not (schur > 0.0 and math.isfinite(schur)):
            return None

        def bordered(x):
            return np.append(jac @ x[:m] + x[m] * col, col @ x[:m])

        def precondition(x):
            return np.append(solver(x[:m]), x[m] / schur)

        op = spla.LinearOperator((m + 1, m + 1), matvec=bordered)
        prec = spla.LinearOperator((m + 1, m + 1), matvec=precondition)
        rhs = -np.append(r, c)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = spla.minres(op, rhs, rtol=KRYLOV_RTOL, maxiter=KRYLOV_MAX, M=prec,
                          callback=count)
    stats.linear_solves += 1
    stats.krylov_iterations += iterations
    if info != 0:
        stats.krylov_capped += 1
        return None
    if not np.all(np.isfinite(x)):
        return None
    return (x, 0.0) if col is None else (x[:m], float(x[m]))


def _clamped_normalized(grid, values, alpha: float, p: float):
    vals = zero_dirichlet(np.maximum(values, 0.0), grid)
    try:
        return fn.normalize(DiscreteField(grid, vals), alpha, p)
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
    stats: SolveStats


def _merit_energy(u: DiscreteField, lam: float = 0.0) -> tuple[float, float, float]:
    ep, em = fn.halfspace_energies(u)
    return (1.0 + lam) * ep + (1.0 - lam) * em, ep, em


def _merit_gradient(a, u: DiscreteField, merit: float, force: np.ndarray) -> np.ndarray:
    """2 (A u - merit F(u)) for the stiffness a, zero at Dirichlet nodes;
    force is F(u)."""
    return zero_dirichlet(2.0 * (a @ u.values - merit * force), u.grid)


def _certificate(u: DiscreteField, merit: float, force: np.ndarray, alpha: float,
                 p: float, lam: float = 0.0) -> tuple[float, float, bool]:
    """(gnorm, residual, stationary) of the merit functional with A(lam) at u.

    gnorm is the norm of the merit gradient (force is F(u), so a caller's
    memo spares its evaluation), residual the level-form defect of
    u / sqrt(merit) (functional.residual_pde), and u is stationary when
    gnorm <= GRADIENT_FACTOR * merit and residual <= RESIDUAL_TOL.
    """
    g = _merit_gradient(fn.stiffness_matrix(u.grid, lam), u, merit, force)
    gnorm = float(np.linalg.norm(g))
    residual = fn.residual_pde(fn.scaled_critical_field(u, merit), merit, alpha, p, lam)
    return gnorm, residual, gnorm <= GRADIENT_FACTOR * merit and residual <= RESIDUAL_TOL


def _multiplier(grid, u: DiscreteField, merit: float, force: np.ndarray) -> float:
    """Least-squares multiplier of the balanced stationarity condition.

    The lam minimizing |A u - merit F(u) + lam (A_plus - A_minus) u| over
    the free nodes, given force = F(u), clipped to |lam| < 1 so that A(lam)
    stays positive definite.
    """
    free = grid.free
    r0 = (fn.stiffness_matrix(grid) @ u.values - merit * force)[free]
    d = (fn.balance_matrix(grid) @ u.values)[free]
    dd = float(d @ d)
    return 0.0 if dd == 0.0 else float(np.clip(-(d @ r0) / dd, -0.999, 0.999))


def newton(grid, u: DiscreteField, merit: float, alpha: float, p: float,
           lam: float | None = None, *, stats=None):
    """Damped Newton iteration on A w = F(w) from w = merit^{1/(p-2)} u.

    Without lam, A is the plain stiffness. With lam, A = A(lam) and the
    system is bordered by the constraint E_plus(w) = E_minus(w), the
    multiplier moving with the field: the balanced minimizer is a saddle of
    each fixed-multiplier merit functional, so descent alone slides off the
    constraint, while the joint system converges quadratically onto the
    balanced stationary pair. Each step is one MINRES solve (_newton_step),
    preconditioned by the stiffness solver of A(lam).

    Steps are shortened to at most half the field norm and halved until the
    norm of the residual (and of the constraint defect) decreases, which
    widens the basin enough to capture sharply concentrated near-critical
    profiles. The iteration takes at most NEWTON_MAX steps, or
    BORDERED_NEWTON_MAX with the border: at 256x96 the projected descent
    takes more than twice the steps with bordered runs cut at 8, and the
    mountain pass takes more sweeps with unbordered runs allowed 16.

    stats takes the linear-solve and Krylov counts.

    Returns (field, lam), the polished nonnegative normalized field and the
    final multiplier (None without a border), or None if no step reduced
    the residual.
    """
    free = grid.free
    bordered = lam is not None
    stats = SolveStats() if stats is None else stats
    if bordered:
        a_plus, a_minus = fn.halfspace_stiffness(grid)

    def system(wv, lamv):
        a = fn.stiffness_matrix(grid, lamv or 0.0)
        field = DiscreteField(grid, wv)
        r = (a @ wv - fn.weighted_force(field, alpha, p))[free]
        c = float(wv @ (a_plus @ wv) - wv @ (a_minus @ wv)) if bordered else 0.0
        return a, field, r, c, math.hypot(float(np.linalg.norm(r)), c)

    w = u.values * merit ** (1.0 / (p - 2.0))
    a, field, r, c, combined = system(w, lam)
    progressed = False
    for _ in range(BORDERED_NEWTON_MAX if bordered else NEWTON_MAX):
        if combined <= 1e-12 * max(1.0, float(np.linalg.norm((a @ w)[free]))):
            progressed = True
            break
        jac = fn.jacobian_block(grid, a, fn.weighted_linearized_matrix(field, alpha, p),
                                p - 1.0)
        # with the border, the column is d = d/dlam of A(lam) w; the
        # constraint's gradient is 2 d, so its linearization
        # c + 2 d . dw = 0 is halved to keep the system symmetric
        d = (fn.balance_matrix(grid) @ w)[free] if bordered else None
        got = _newton_step(jac, r, fn.stiffness_solver(grid, lam or 0.0), stats, d, 0.5 * c)
        if got is None:
            break
        dw, dlam = got
        step = min(1.0, 0.5 * float(np.linalg.norm(w[free]) / max(np.linalg.norm(dw), 1e-300)))
        accepted = None
        for _ in range(8):
            wt = w.copy()
            wt[free] += step * dw
            lt = float(np.clip(lam + step * dlam, -0.999, 0.999)) if bordered else None
            trial = system(wt, lt)
            if math.isfinite(trial[-1]) and trial[-1] < combined:
                accepted = (wt, lt, *trial)
                break
            step *= 0.5
        if accepted is None:
            break
        w, lam, a, field, r, c, combined = accepted
        progressed = True
    if not progressed:
        return None
    out = _clamped_normalized(grid, w, alpha, p)
    return None if out is None else (out, lam)


def _at_floor(trial_merit: float, merit: float) -> bool:
    """True when a quotient sits within FLOOR_ULPS ulps of merit."""
    return abs(trial_merit - merit) <= FLOOR_ULPS * math.ulp(merit)


def _teleport(grid, u: DiscreteField, merit: float, alpha: float, p: float,
              force, stats: SolveStats):
    """Descent-only Newton iteration for R from u on the sphere P = 1.

    Each step is Newton's for R on the tangent of P = 1 at the iterate,
    bordered by F(u). On that tangent the Hessian of R is
    2 (A - (p - 1) R M(u)), the Jacobian of the unit equation; the step
    solves with it shifted to (1 + mu) A - (p - 1) R M(u), which is
    Levenberg-Marquardt in the A metric. mu starts at 0. While the
    clamped, normalized trial does not lower the quotient, mu is raised
    (to at least SHIFT_START, by SHIFT_GROWTH), which bends the step toward
    a short preconditioned gradient step; each accepted step divides it by
    SHIFT_GROWTH. So a nearby saddle, where plain Newton converges, cannot
    pull the iterate uphill. force is the descent's memoized F. The
    iteration solves at most NEWTON_MAX systems and stops early once the
    residual is at roundoff or a refused trial is at the quotient's
    roundoff floor.

    Returns (best, reached, mu): best is (field, merit, e_plus, e_minus) of
    the lowest point reached, or None unless it lies below the start by
    more than 1e-15 relative; reached is the lowest quotient tried and mu
    the last shift.
    """
    a = fn.stiffness_matrix(grid)
    solver = fn.stiffness_solver(grid)
    free = grid.free
    start, best, reached = merit, None, math.inf
    mu = 0.0
    m = None  # M(u) at the current iterate
    for _ in range(NEWTON_MAX):
        f = force(u)
        au = a @ u.values
        r = (au - merit * f)[free]
        if np.linalg.norm(r) <= 1e-12 * np.linalg.norm(au[free]):
            break
        if m is None:
            m = fn.weighted_linearized_matrix(u, alpha, p)
        jac = fn.jacobian_block(grid, a, m, (p - 1.0) * merit, 1.0 + mu)
        got = _newton_step(jac, r, solver, stats, f[free])
        trial = None
        if got is not None:
            vals = u.values.copy()
            vals[free] += got[0]
            trial = _clamped_normalized(grid, vals, alpha, p)
        if trial is not None:
            tm, tep, tem = _merit_energy(trial)
            reached = min(reached, tm)
            if tm < merit:
                u, merit, m = trial, tm, None
                best = (trial, tm, tep, tem)
                mu /= SHIFT_GROWTH
                continue
            if _at_floor(tm, merit):
                break
        mu = max(SHIFT_START, SHIFT_GROWTH * mu)
        stats.shift_increases += 1
    if best is not None and best[1] >= start * (1.0 - 1e-15):
        best = None
    return best, reached, mu


def _descend(
    grid,
    alpha: float,
    p: float,
    init: DiscreteField,
    *,
    tol: float = DEFAULT_TOL,
    project: bool = False,
) -> _DescentState:
    """Monotone quotient descent; the workhorse behind every solver.

    The descent stops once the gradient is below GRADIENT_FACTOR times the
    quotient and the last step lowered the quotient by at most tol
    relative, or when no step lowers it, or after MAX_ITERATIONS steps;
    tol must be finite and positive.

    Once a step lowers the quotient by at most POLISH_TRIGGER relative, an
    iteration teleports instead: `_teleport`'s descent-only Newton
    iteration, which returns the lowest point it reached or nothing. A
    teleport that lowers the quotient counts as the iteration's step;
    otherwise the iteration steps as usual, and the wait before the next
    teleport doubles (from POLISH_EVERY iterations, at most 800) so a
    stubborn basin does not eat the budget in Newton solves. Each
    teleport is logged at DEBUG: from, to, mu, accepted or refused.

    With project=True every trial candidate is rebalanced onto the equal
    half-energy set before the comparison, which turns the loop into
    projected descent over that set (used by solve_sigma, where a plain
    step polarizes instantly because the balanced state is a saddle). Its
    teleports are then `newton` bordered by the constraint, since the
    balanced minimizer is a saddle of the quotient, and the final
    unbordered polish, which would leave the set, is skipped: solve_sigma
    polishes and certifies the projected minimizer itself, so the
    closing `_certificate` (plain stiffness) matters only without project.
    """
    check_tolerance("tol", tol)
    a = fn.stiffness_matrix(grid)
    solve = fn.stiffness_solver(grid)
    free = grid.free
    balance = fn.balance_matrix(grid) if project else None

    def feasible(values):
        cand = _clamped_normalized(grid, values, alpha, p)
        if cand is not None and project:
            cand = _rebalance(cand, alpha, p)
        return cand

    u = feasible(init.values)
    if u is None:
        raise DegenerateFieldError("initial guess has no weighted mass")
    merit, ep, em = _merit_energy(u)
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

    def balance_normal(field):
        return zero_dirichlet(2.0 * (balance @ field.values), grid)

    def stopping_norm(field, g):
        # On the balanced set only the tangential component can vanish.
        if not project:
            return float(np.linalg.norm(g))
        b = balance_normal(field)
        bb = float(b @ b)
        if bb == 0.0:
            return float(np.linalg.norm(g))
        return float(np.linalg.norm(g - (float(b @ g) / bb) * b))

    stats = SolveStats()

    def line_search(trial_at, tries):
        """The first trial_at(t) below merit, t = 1, 1/2, ..., or None."""
        t = 1.0
        for _ in range(tries):
            stats.backtracks += t < 1.0
            trial = trial_at(t)
            if trial is not None:
                tm, tep, tem = _merit_energy(trial)
                if tm < merit:
                    return trial, tm, tep, tem
                if t == 1.0 and _at_floor(tm, merit):
                    return None  # shorter steps would only decide roundoff
            t *= 0.5
        return None

    last_polish = -POLISH_EVERY
    polish_gap = POLISH_EVERY
    while iterations < MAX_ITERATIONS:
        g = _merit_gradient(a, u, merit, force(u))
        gnorm = stopping_norm(u, g)
        if gnorm <= GRADIENT_FACTOR * merit and rel_change <= tol:
            break
        iterations += 1
        accepted = None
        # Near-critical p makes the inverse-power rate degenerate; the
        # ordinary iteration after a teleport certifies both stopping
        # criteria.
        slow = rel_change <= POLISH_TRIGGER
        if p > 2.0 and slow and iterations - last_polish >= polish_gap:
            last_polish = iterations
            stats.teleports_tried += 1
            if project:
                lam = _multiplier(grid, u, merit, force(u))
                got = newton(grid, u, merit, alpha, p, lam, stats=stats)
                polished = None if got is None else _rebalance(got[0], alpha, p)
                reached, mu = math.inf, 0.0
                if polished is not None:
                    pm, pep, pem = _merit_energy(polished)
                    reached = pm
                    if pm < merit * (1.0 - 1e-15):
                        accepted = (polished, pm, pep, pem)
            else:
                accepted, reached, mu = _teleport(grid, u, merit, alpha, p, force, stats)
            log.debug("teleport from %.15g to %.15g (mu=%g): %s", merit, reached, mu,
                      "refused" if accepted is None else "accepted")
            if accepted is None:
                stats.teleports_refused += 1
                polish_gap = min(2 * polish_gap, 800)
            else:
                stats.teleports_accepted += 1
                polish_gap = POLISH_EVERY
        if accepted is None:
            sol = np.zeros(grid.n_nodes)
            sol[free] = solve(force(u)[free])
            cand = _clamped_normalized(grid, sol, alpha, p)
            if cand is not None:
                # the full step is cand itself, already clamped and normalized
                accepted = line_search(
                    lambda t: cand if t == 1.0 and not project
                    else feasible((1.0 - t) * u.values + t * cand.values),
                    9,
                )
                stats.inverse_power_steps += accepted is not None
        if accepted is None:
            d = np.zeros(grid.n_nodes)
            d[free] = solve(-g[free])
            if project:
                # Tangentialize in the A^{-1} metric so the direction stays
                # descent after the rebalance projection.
                b = balance_normal(u)
                q = np.zeros(grid.n_nodes)
                q[free] = solve(b[free])
                denom = float(b[free] @ q[free])
                if denom != 0.0:
                    d -= (float(b[free] @ d[free]) / denom) * q
            accepted = line_search(lambda s: feasible(u.values + s * d), 12)
            stats.gradient_steps += accepted is not None
        if accepted is None:
            break
        trial, tm, tep, tem = accepted
        if tm > merit * (1.0 + 1e-12):
            raise ContractViolationError("quotient increased on an accepted step")
        rel_change = (merit - tm) / merit
        u, merit, ep, em = trial, tm, tep, tem

    gnorm, residual, converged = _certificate(u, merit, force(u), alpha, p)
    if not project and p > 2.0 and residual > 1e-3 * RESIDUAL_TOL:
        got = newton(grid, u, merit, alpha, p, stats=stats)
        if got is not None:
            pm, pep, pem = _merit_energy(got[0])
            if pm <= merit * (1.0 + 1e-9):
                u, merit, ep, em = got[0], pm, pep, pem
                gnorm, residual, converged = _certificate(u, merit, force(u), alpha, p)
    return _DescentState(
        field=u,
        merit=merit,
        e_plus=ep,
        e_minus=em,
        gnorm=gnorm,
        residual=residual,
        iterations=iterations,
        converged=converged,
        stats=stats,
    )


def _check_grid(params: ProblemParams, grid, want) -> None:
    if not isinstance(grid, want):
        raise ConfigurationError(f"expected a {want.__name__} for this solver")
    if grid.dim != params.dim:
        raise ConfigurationError(
            f"grid dimension {grid.dim} does not match params dimension {params.dim}"
        )


def _result(params, state, level_tag, init_tag, escaped=False) -> SolveResult:
    report = dataclasses.replace(
        fn.rayleigh(state.field, params.alpha, params.p),
        level_tag=level_tag,
        iterations=state.iterations,
        residual=state.residual,
    )
    return SolveResult(
        report=report,
        field=state.field,
        converged=state.converged,
        constraint_defect=state.e_plus - state.e_minus,
        init_tag=init_tag,
        escaped=escaped,
        stats=state.stats,
    )


def solve_radial(
    params: ProblemParams, grid: RadialGrid, tol: float = DEFAULT_TOL
) -> SolveResult:
    """Minimize over the radial reduction (level S_rad)."""
    _check_grid(params, grid, RadialGrid)
    init = DiscreteField.sampled(grid, lambda r: np.sin(0.5 * math.pi * (r - 1.0)))
    state = _descend(grid, params.alpha, params.p, init, tol=tol)
    return _result(params, state, "S_rad", "half-sine")


def solve_ground(
    params: ProblemParams, grid: AxiGrid, tol: float = DEFAULT_TOL
) -> SolveResult:
    """Minimize over the axisymmetric space from three starts (level S).

    The starts are the embedded radial minimizer and a bubble at each
    boundary sphere. The strictly lowest converged quotient wins; on a tie
    within 1e-9 relative the non-radial start wins and the tie is logged,
    so degenerate symmetry-breaking cannot hide behind the radial
    candidate.
    """
    _check_grid(params, grid, AxiGrid)
    radial_grid = RadialGrid(nodes=grid.r_nodes, grading=grid.grading, dim=3)
    radial = solve_radial(params, radial_grid)
    tagged = [
        ("radial", embed_radial(radial.field, grid)),
        ("outer-bubble", instanton(InstantonParams(INIT_EPSILON, 0), grid)),
        ("inner-bubble", instanton(InstantonParams(INIT_EPSILON, 1), grid)),
    ]
    # Release the radial grid, and with it its per-grid assembly, before
    # the three descents.
    del radial_grid, radial
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


def check_tolerance(name: str, value: float) -> None:
    """Refuse a tolerance that is not finite and positive (NaN included)."""
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigurationError(f"{name} must be finite and positive, got {value}")


def solve_sigma(
    params: ProblemParams,
    grid: AxiGrid,
    tol: float = DEFAULT_TOL,
    ctol: float = DEFAULT_CTOL,
) -> SolveResult:
    """Minimize subject to E_plus = E_minus (level T).

    Projected descent from two boundary bubbles of equal energy rebalances
    every trial onto the balanced set, so the iterate never leaves it. Its
    minimizer is stationary only along that set: a Newton solve bordered by
    the constraint, started from the least-squares multiplier c, then
    solves for the field and c together. Certification evaluates the
    gradient and the residual of the merit functional with stiffness
    (1 + c) A_plus + (1 - c) A_minus at the Newton result, or at the
    projected minimizer with the estimated c if no Newton step succeeded.
    Convergence requires that stationarity and
    |E_plus - E_minus| <= ctol * (E_plus + E_minus); ctol must be finite
    and positive.
    """
    _check_grid(params, grid, AxiGrid)
    check_tolerance("ctol", ctol)
    alpha, p = params.alpha, params.p

    state = _descend(grid, alpha, p, _two_bump_init(grid), tol=tol, project=True)
    field = state.field
    lam = _multiplier(grid, field, state.merit, fn.weighted_force(field, alpha, p))
    if p > 2.0:
        got = newton(grid, field, state.merit, alpha, p, lam, stats=state.stats)
        if got is not None:
            field, lam = got

    merit, ep, em = _merit_energy(field, lam)
    gnorm, residual, stationary = _certificate(
        field, merit, fn.weighted_force(field, alpha, p), alpha, p, lam)
    certified = dataclasses.replace(
        state, field=field, merit=merit, e_plus=ep, e_minus=em, gnorm=gnorm, residual=residual,
        converged=stationary and abs(ep - em) <= ctol * (ep + em),
    )
    return _result(params, certified, "T", "two-bump")


def solve_lambda(
    params: ProblemParams,
    grid: AxiGrid,
    tol: float = DEFAULT_TOL,
    eps: float = BUBBLE_EPS,
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
    return _result(params, state, "lambda", tag, escaped=escaped)
