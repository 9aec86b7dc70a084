"""Level solvers against independent references and pinned regressions.

The three frozen radial levels below were produced by an independent
collocation solver for the radial boundary-value problem (scipy solve_bvp
on the substituted second-order form, tolerance 1e-10, adaptive-quadrature
evaluation of the quotient, angular measure included). Finite elements on
the n = 2000 graded grid reproduce them to a few parts in 1e6; the 5e-5
gate leaves room for either discretization moving slightly.
"""

import gc
import logging
import math
import types
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from henon_annulus import functional as fn
from henon_annulus import minimize
from henon_annulus import (
    ConfigurationError,
    DiscreteField,
    InstantonParams,
    NonConvergenceError,
    ProblemParams,
    build_axi_grid,
    build_radial_grid,
    halfspace_energies,
    instanton,
    solve_ground,
    solve_lambda,
    solve_radial,
    solve_sigma,
)

# (alpha, p) -> independently computed S_rad at N = 3
FROZEN_RADIAL_LEVELS = {
    (0.0, 4.0): 18.902091570050,
    (2.0, 4.0): 48.246245104353,
    (1.0, 3.0): 22.451298972775,
}

# same-grid regression pins (96 x 32 graded-polar); these detect any
# accidental change in solver or quadrature behavior, not truth
PINNED_S_ALPHA1_P4 = 14.051234106668938
PINNED_T_ALPHA1_P4 = 16.986141264495174
# 128 x 48 graded-polar near the critical exponent, where the bordered
# Newton solve and the A(lam) certificate work hardest
PINNED_T_ALPHA1_P55 = 13.142193852546008


class TestRadial:
    def test_linear_case_quarter_pi_squared(self, radial_grid):
        params = ProblemParams(alpha=0.0, p=2.0)
        result = solve_radial(params, radial_grid)
        assert result.converged
        assert result.report.quotient == pytest.approx(math.pi**2 / 4.0, rel=1e-4)

    @pytest.mark.parametrize("alpha,p", sorted(FROZEN_RADIAL_LEVELS))
    def test_frozen_oracle_levels(self, radial_grid_fine, alpha, p):
        params = ProblemParams(alpha=alpha, p=p)
        result = solve_radial(params, radial_grid_fine)
        assert result.converged
        assert result.report.quotient == pytest.approx(
            FROZEN_RADIAL_LEVELS[(alpha, p)], rel=5e-5
        )
        assert result.report.residual < 1e-8
        assert result.report.level_tag == "S_rad"
        assert result.init_tag == "half-sine"

    def test_deterministic(self, radial_grid):
        params = ProblemParams(alpha=1.0, p=4.0)
        a = solve_radial(params, radial_grid).report.quotient
        b = solve_radial(params, radial_grid).report.quotient
        assert a == b

    def test_minimizer_nonnegative(self, radial_grid):
        result = solve_radial(ProblemParams(alpha=2.0, p=4.0), radial_grid)
        assert np.all(result.field.values >= 0.0)

    def test_rejects_axi_grid(self, axi_grid):
        with pytest.raises(ConfigurationError):
            solve_radial(ProblemParams(alpha=1.0, p=4.0), axi_grid)

    def test_rejects_dim_mismatch(self, radial_grid):
        params = ProblemParams(alpha=1.0, p=3.0, dim=4)
        with pytest.raises(ConfigurationError):
            solve_radial(params, radial_grid)


class TestGround:
    def test_pinned_level(self, axi_grid, params_alpha1_p4):
        result = solve_ground(params_alpha1_p4, axi_grid)
        assert result.converged
        assert result.report.quotient == pytest.approx(PINNED_S_ALPHA1_P4, rel=1e-9)
        assert result.report.level_tag == "S"

    def test_below_radial_level(self, axi_grid, params_alpha1_p4):
        # matching radial resolution: the axisymmetric minimum cannot
        # exceed the radial one, and at this alpha it is strictly lower
        radial = build_radial_grid(96, "graded")
        s_rad = solve_radial(params_alpha1_p4, radial).report.quotient
        s = solve_ground(params_alpha1_p4, axi_grid).report.quotient
        assert s < s_rad * (1.0 - 1e-3)

    def test_no_start_converges(self, axi_grid_small, params_alpha1_p4, monkeypatch):
        # a residual bound no field meets: every start fails certification
        monkeypatch.setattr(minimize, "RESIDUAL_TOL", -1.0)
        with pytest.raises(NonConvergenceError) as err:
            solve_ground(params_alpha1_p4, axi_grid_small)
        message = str(err.value)
        for tag in ("radial", "outer-bubble", "inner-bubble"):
            assert f"{tag}: not converged" in message

    def test_rejects_radial_grid(self, radial_grid, params_alpha1_p4):
        with pytest.raises(ConfigurationError):
            solve_ground(params_alpha1_p4, radial_grid)

    def test_tie_prefers_a_bubble_start(self, caplog):
        # at alpha = 0, p = 2 every start reaches the radial eigenfunction;
        # the radial start sorts first, and the tie rule hands the win to a
        # bubble start and logs it
        grid = build_axi_grid(32, 12, "graded-polar")
        with caplog.at_level(logging.INFO, logger="henon_annulus.minimize"):
            result = solve_ground(ProblemParams(0.0, 2.0), grid)
        assert result.converged
        assert result.init_tag == "inner-bubble"
        assert result.report.quotient == pytest.approx(2.4758626267193304, rel=1e-12)
        assert [r.getMessage() for r in caplog.records] == [
            "ground-state tie at quotient 2.47586262672: preferring inner-bubble over radial"
        ]


class TestSigma:
    def test_rebalance_reseeds_an_empty_half(self):
        # a normalized inner bubble leaves the outer half without energy;
        # the rebalance reseeds it with the outer bubble before scaling
        grid = build_axi_grid(32, 12, "graded-polar")
        u = fn.normalize(instanton(InstantonParams(1e-2, 1), grid), 1.0, 4.0)
        assert halfspace_energies(u)[0] == 0.0
        e_plus, e_minus = halfspace_energies(minimize._rebalance(u, 1.0, 4.0))
        assert e_plus == pytest.approx(17.470319268652055, rel=1e-12)
        assert e_minus == pytest.approx(e_plus, rel=1e-12)
    def test_pinned_level_and_constraint(self, axi_grid, params_alpha1_p4):
        ctol = 1e-4
        result = solve_sigma(params_alpha1_p4, axi_grid, ctol=ctol)
        assert result.converged
        assert result.report.quotient == pytest.approx(PINNED_T_ALPHA1_P4, rel=1e-9)
        assert result.report.level_tag == "T"
        ep, em = halfspace_energies(result.field)
        assert abs(ep - em) <= ctol * (ep + em)
        assert result.constraint_defect == pytest.approx(ep - em, abs=1e-12)

    def test_pinned_level_near_critical(self):
        grid = build_axi_grid(128, 48, "graded-polar")
        result = solve_sigma(ProblemParams(alpha=1.0, p=5.5), grid, ctol=1e-4)
        assert result.converged
        assert result.report.quotient == pytest.approx(PINNED_T_ALPHA1_P55, rel=1e-9)
        assert result.report.residual <= 1e-6

    def test_dominates_ground_level(self, axi_grid, params_alpha1_p4):
        t = solve_sigma(params_alpha1_p4, axi_grid).report.quotient
        s = solve_ground(params_alpha1_p4, axi_grid).report.quotient
        assert t >= s * (1.0 - 1e-9)

    def test_rejects_radial_grid(self, radial_grid, params_alpha1_p4):
        with pytest.raises(ConfigurationError):
            solve_sigma(params_alpha1_p4, radial_grid)

    @pytest.mark.parametrize("ctol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_invalid_ctol(self, axi_grid_small, params_alpha1_p4, ctol):
        with pytest.raises(ConfigurationError):
            solve_sigma(params_alpha1_p4, axi_grid_small, ctol=ctol)

    def test_newton_keeps_the_border(self, axi_grid_small, params_alpha1_p4, monkeypatch):
        # an unbordered Newton step leaves the balanced set, so every
        # Newton solve of the constrained problem carries the constraint
        borders = []
        real = minimize.newton

        def recording(grid, u, merit, alpha, p, lam=None, **kwargs):
            borders.append(lam)
            return real(grid, u, merit, alpha, p, lam, **kwargs)

        monkeypatch.setattr(minimize, "newton", recording)
        result = solve_sigma(params_alpha1_p4, axi_grid_small)
        assert result.converged
        assert borders
        assert all(lam is not None for lam in borders)


class TestLambda:
    def test_interior_near_critical(self, axi_grid):
        # close to the critical exponent the inner bubble relaxes to a
        # local minimizer that keeps its energy in the inner half
        params = ProblemParams(alpha=1.0, p=5.5)
        result = solve_lambda(params, axi_grid)
        assert result.converged
        assert result.report.level_tag == "lambda"
        ep, em = halfspace_energies(result.field)
        escaped_now = (em - ep) < 1e-3 * (ep + em)
        assert result.escaped == escaped_now
        assert not result.escaped
        assert em > ep

    def test_outer_hunt_near_critical(self, axi_grid):
        # the same regime hunted from the outer bubble keeps its energy in
        # the outer half
        params = ProblemParams(alpha=1.0, p=5.5)
        result = solve_lambda(params, axi_grid, index=0)
        assert result.converged
        assert not result.escaped
        assert result.init_tag == "outer-bubble"
        ep, em = halfspace_energies(result.field)
        assert ep > em

    def test_escape_flag_consistent(self, axi_grid, params_alpha1_p4):
        # far from critical the basin may not persist; whatever happens,
        # the flag must agree with the returned field's energy split
        result = solve_lambda(params_alpha1_p4, axi_grid)
        ep, em = halfspace_energies(result.field)
        assert result.escaped == ((em - ep) < 1e-3 * (ep + em))

    def test_rejects_radial_grid(self, radial_grid, params_alpha1_p4):
        with pytest.raises(ConfigurationError):
            solve_lambda(params_alpha1_p4, radial_grid)


PINNED_LAMBDA_128X48_P55 = 8.577485465992304


@pytest.fixture(scope="module")
def near_critical_128x48():
    """The outer-hunt local minimum at 128x48, alpha = 1, p = 5.5."""
    grid = build_axi_grid(128, 48, "graded-polar")
    params = ProblemParams(alpha=1.0, p=5.5)
    return grid, params, solve_lambda(params, grid, index=0)


class TestDescentOnlyTeleport:
    def test_lambda_does_not_crawl_off_the_saddle(self, near_critical_128x48):
        # a teleport to the nearest critical point lands on the 8.6085
        # saddle here, and the inverse-power crawl off it took 480 steps
        _, _, result = near_critical_128x48
        assert result.converged
        assert not result.escaped
        assert result.report.quotient == pytest.approx(PINNED_LAMBDA_128X48_P55, rel=1e-10)
        assert result.report.iterations <= 100
        assert result.stats.teleports_accepted >= 1

    @pytest.mark.parametrize("toward_minimum", [0.005, 0.01])
    def test_teleport_lands_below_an_iterate_next_to_a_saddle(
        self, near_critical_128x48, toward_minimum
    ):
        grid, params, result = near_critical_128x48
        alpha, p = params.alpha, params.p
        minimum = result.field
        bubble = fn.normalize(instanton(InstantonParams(1e-3, 0), grid), alpha, p)
        start = fn.normalize(
            DiscreteField(grid, 0.8 * minimum.values + 0.2 * bubble.values), alpha, p
        )
        saddle, _ = minimize.newton(grid, start, fn.rayleigh(start, alpha, p).quotient, alpha, p)
        saddle_level = fn.rayleigh(saddle, alpha, p).quotient
        assert saddle_level == pytest.approx(8.6085, abs=1e-4)
        t = toward_minimum
        u = fn.normalize(
            DiscreteField(grid, (1.0 - t) * saddle.values + t * minimum.values), alpha, p
        )
        level = fn.rayleigh(u, alpha, p).quotient
        assert level < saddle_level
        # the nearest critical point is the saddle, above the iterate
        nearest, _ = minimize.newton(grid, u, level, alpha, p)
        assert fn.rayleigh(nearest, alpha, p).quotient > level
        stats = minimize.SolveStats()
        best, reached, _ = minimize._teleport(
            grid, u, level, alpha, p, lambda f: fn.weighted_force(f, alpha, p), stats
        )
        assert best is not None
        field, merit, _, _ = best
        assert merit == reached
        assert merit < level * (1.0 - 1e-6)
        assert fn.rayleigh(field, alpha, p).quotient < level
        assert 1 <= stats.linear_solves <= minimize.NEWTON_MAX

    def test_refused_teleport_returns_nothing(self, near_critical_128x48):
        # at the minimum nothing lies lower, so the teleport cannot move
        grid, params, result = near_critical_128x48
        alpha, p = params.alpha, params.p
        level = fn.rayleigh(result.field, alpha, p).quotient
        best, _, _ = minimize._teleport(
            grid, result.field, level, alpha, p,
            lambda f: fn.weighted_force(f, alpha, p), minimize.SolveStats(),
        )
        assert best is None


class TestRepeatedWork:
    def test_one_force_per_iterate(self, axi_grid, monkeypatch):
        # solve_lambda runs a single descent; the gradient, the inverse-power
        # right-hand side and the final gradient share F of each iterate
        seen = []
        real = fn.weighted_force

        def recording(u, alpha, p):
            seen.append(u)
            return real(u, alpha, p)

        monkeypatch.setattr(fn, "weighted_force", recording)
        result = solve_lambda(ProblemParams(alpha=1.0, p=5.5), axi_grid)
        assert result.converged
        # seen keeps every field alive, so equal ids mean the same object
        assert len({id(u) for u in seen}) == len(seen)


class TestGridCache:
    def test_solved_grids_are_released(self):
        gc.collect()
        before = len(fn._ASSEMBLY)
        refs = []
        for nr, nt in ((48, 16), (64, 21), (96, 32)):
            grid = build_axi_grid(nr, nt, "graded-polar")
            solve_ground(ProblemParams(20.0, 4.0), grid)
            refs.append(weakref.ref(grid))
            del grid
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        # the radial grids solve_ground embeds are gone as well
        assert len(fn._ASSEMBLY) == before

    def test_stiffness_solver_built_once(self, monkeypatch):
        grid = build_axi_grid(48, 16, "graded-polar")
        calls = []

        def counting_eigh(*args, **kwargs):
            calls.append(args)
            return sla.eigh(*args, **kwargs)

        monkeypatch.setattr(
            fn, "sla", types.SimpleNamespace(eigh=counting_eigh, lapack=sla.lapack)
        )
        solvers = [fn.stiffness_solver(grid) for _ in range(4)]
        assert all(s is solvers[0] for s in solvers)
        # a merit stiffness A(lam) reuses the cached angular eigenbasis
        assert fn.stiffness_solver(grid, 0.5) is not solvers[0]
        assert len(calls) == 1


class TestNewtonStep:
    """MINRES Newton steps against a direct solve of the assembled system."""

    @pytest.fixture(scope="class")
    def ground_128x48(self):
        grid = build_axi_grid(128, 48, "graded-polar")
        params = ProblemParams(alpha=1.0, p=5.5)
        return grid, params, solve_ground(params, grid)

    @staticmethod
    def _system(ground):
        # the teleport's matrix at the ground state, a right-hand side
        # well away from roundoff, and the border F(u)
        grid, params, result = ground
        alpha, p, u = params.alpha, params.p, result.field
        free = grid.free
        a = fn.stiffness_matrix(grid)
        jac = (a - (p - 1.0) * result.report.quotient
               * fn.weighted_linearized_matrix(u, alpha, p))[free, free]
        r = (a @ u.values)[free]
        col = fn.weighted_force(u, alpha, p)[free]
        return grid, jac, r, col

    def test_bordered_step_matches_a_direct_solve(self, ground_128x48):
        grid, jac, r, col = self._system(ground_128x48)
        stats = minimize.SolveStats()
        dw, dlam = minimize._newton_step(jac, r, fn.stiffness_solver(grid), stats, col, 0.3)
        bordered = sp.bmat([[jac, col[:, None]], [col[None, :], None]]).tocsc()
        want = spla.spsolve(bordered, -np.append(r, 0.3))
        got = np.append(dw, dlam)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
        assert stats.linear_solves == 1
        assert 1 <= stats.krylov_iterations < minimize.KRYLOV_MAX
        assert stats.krylov_capped == 0

    def test_plain_step_matches_a_direct_solve(self, ground_128x48):
        grid, jac, r, _ = self._system(ground_128x48)
        dw, dlam = minimize._newton_step(
            jac, r, fn.stiffness_solver(grid), minimize.SolveStats()
        )
        want = spla.spsolve(jac.tocsc(), -r)
        assert dlam == 0.0
        assert np.linalg.norm(dw - want) <= 1e-8 * np.linalg.norm(want)

    def test_capped_solve_is_a_failed_step(self, ground_128x48, monkeypatch):
        grid, jac, r, col = self._system(ground_128x48)
        monkeypatch.setattr(minimize, "KRYLOV_MAX", 2)
        stats = minimize.SolveStats()
        got = minimize._newton_step(jac, r, fn.stiffness_solver(grid), stats, col, 0.0)
        assert got is None
        assert (stats.linear_solves, stats.krylov_capped) == (1, 1)


class TestResultPayload:
    def test_json_dict_keys(self, radial_grid, params_alpha1_p4):
        result = solve_radial(params_alpha1_p4, radial_grid)
        d = result.to_json_dict()
        assert set(d) == {
            "value",
            "level_tag",
            "converged",
            "constraint_defect",
            "iterations",
            "residual",
            "grid",
            "init_tag",
            "escaped",
            "stats",
        }
        assert d["grid"] == radial_grid.descriptor
        assert set(d["stats"]) == {
            "inverse_power_steps",
            "gradient_steps",
            "backtracks",
            "teleports_tried",
            "teleports_accepted",
            "teleports_refused",
            "shift_increases",
            "linear_solves",
            "krylov_iterations",
            "krylov_capped",
        }
        assert all(isinstance(v, int) and v >= 0 for v in d["stats"].values())
        stats = result.stats
        assert stats.teleports_tried == stats.teleports_accepted + stats.teleports_refused
        # every iteration takes one accepted step, except a last one that
        # finds none and ends the descent
        steps = stats.inverse_power_steps + stats.gradient_steps + stats.teleports_accepted
        assert result.report.iterations - 1 <= steps <= result.report.iterations
