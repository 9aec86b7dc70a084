"""Level solvers against independent references and pinned regressions.

The three frozen radial levels below were produced by an independent
collocation solver for the radial boundary-value problem (scipy solve_bvp
on the substituted second-order form, tolerance 1e-10, adaptive-quadrature
evaluation of the quotient, angular measure included). Finite elements on
the n = 2000 graded grid reproduce them to a few parts in 1e6; the 5e-5
gate leaves room for either discretization moving slightly.
"""

import gc
import math
import types
import weakref

import numpy as np
import pytest
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


class TestRadial:
    def test_linear_case_quarter_pi_squared(self, radial_grid):
        params = ProblemParams(alpha=0.0, p=2.0, validation_mode=True)
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

    def test_explicit_inits(self, axi_grid, params_alpha1_p4):
        u0 = instanton(InstantonParams(1e-3, 0), axi_grid)
        result = solve_ground(params_alpha1_p4, axi_grid, inits=[u0])
        assert result.converged
        assert result.init_tag == "init-0"

    def test_empty_inits_rejected(self, axi_grid, params_alpha1_p4):
        with pytest.raises(ConfigurationError):
            solve_ground(params_alpha1_p4, axi_grid, inits=[])

    def test_zero_init_does_not_converge(self, axi_grid, params_alpha1_p4):
        with pytest.raises(NonConvergenceError):
            solve_ground(
                params_alpha1_p4, axi_grid, inits=[DiscreteField.zeros(axi_grid)]
            )

    def test_rejects_radial_grid(self, radial_grid, params_alpha1_p4):
        with pytest.raises(ConfigurationError):
            solve_ground(params_alpha1_p4, radial_grid)


class TestSigma:
    def test_pinned_level_and_constraint(self, axi_grid, params_alpha1_p4):
        ctol = 1e-4
        result = solve_sigma(params_alpha1_p4, axi_grid, ctol=ctol)
        assert result.converged
        assert result.report.quotient == pytest.approx(PINNED_T_ALPHA1_P4, rel=1e-9)
        assert result.report.level_tag == "T"
        ep, em = halfspace_energies(result.field)
        assert abs(ep - em) <= ctol * (ep + em)
        assert result.constraint_defect == pytest.approx(ep - em, abs=1e-12)

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
        assert result.report.level_tag == "raw"
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
        assert 1 <= stats.lu_factorizations <= minimize.NEWTON_MAX

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

    def test_stiffness_factored_once(self, monkeypatch):
        grid = build_axi_grid(48, 16, "graded-polar")
        calls = []

        def counting_splu(*args, **kwargs):
            calls.append(args)
            return spla.splu(*args, **kwargs)

        monkeypatch.setattr(minimize, "spla", types.SimpleNamespace(splu=counting_splu))
        factors = [minimize.stiffness_factor(grid)[1] for _ in range(4)]
        assert len(calls) == 1
        assert all(f is factors[0] for f in factors)
        # the cached object is the SuperLU factor itself
        assert isinstance(factors[0], spla.SuperLU)


class TestResultPayload:
    def test_json_dict_keys(self, radial_grid, params_alpha1_p4):
        result = solve_radial(params_alpha1_p4, radial_grid)
        d = result.to_json_dict()
        assert set(d) == {
            "params",
            "level",
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
        assert d["params"] == {"dim": 3, "alpha": 1.0, "p": 4.0}
        assert d["grid"] == radial_grid.descriptor
        assert set(d["stats"]) == {
            "inverse_power_steps",
            "gradient_steps",
            "backtracks",
            "teleports_tried",
            "teleports_accepted",
            "teleports_refused",
            "shift_increases",
            "lu_factorizations",
        }
        assert all(isinstance(v, int) and v >= 0 for v in d["stats"].values())
        stats = result.stats
        assert stats.teleports_tried == stats.teleports_accepted + stats.teleports_refused
        # every iteration takes one accepted step, except a last one that
        # finds none and ends the descent
        steps = stats.inverse_power_steps + stats.gradient_steps + stats.teleports_accepted
        assert result.report.iterations - 1 <= steps <= result.report.iterations
