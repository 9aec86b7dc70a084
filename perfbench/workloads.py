"""The three workloads: set-up, one round of solves, and the checks.

Every input is a fixed parameter point, so a round does the same solves
in every run. Calls go through the package's module attributes
(`ha.minimize.solve_ground`, not a name imported here), which is where
the tracer wraps them.

A round returns its outputs, the wall time of each solve, the number of
operations that failed (raised or did not converge) and the levels, which
later rounds must reproduce bitwise.
"""

from __future__ import annotations

import time

import oracle

P_NEAR = 5.5
ALPHA_NEAR = 1.0
# the near-critical and mountain-pass grids; see README.md for why not 256x96
NEAR_GRID = (128, 48)
MPASS_GRID = (96, 32)
RADIAL_CELLS = 2000
SWEEP_ALPHAS = (20.0, 40.0, 80.0, 160.0, 320.0)
SWEEP_P = 4.0
SWEEP_GRID = (48, 16)
INSTANTON_EPS = 1e-3
PATH_SEGMENTS = 12
MPASS_TOL = 1e-5
RESIDUAL_TOL = 1e-6
CTOL = 1e-4


def _timed(times: dict, key: str, thunk):
    start = time.perf_counter()
    try:
        return thunk()
    finally:
        times[key] = time.perf_counter() - start


def _nearest_component(bary_r: float) -> float:
    return 1.0 if (bary_r - 1.0) <= (3.0 - bary_r) else 3.0


def _ready(ha, grids, alphas, p) -> None:
    """Stiffness and one quadrature operator per alpha on every grid."""
    for grid in grids:
        ha.functional.stiffness_matrix(grid)
        if isinstance(grid, ha.geometry.AxiGrid):
            ha.functional.halfspace_stiffness(grid)
            probe = ha.profiles.instanton(ha.InstantonParams(INSTANTON_EPS, 0), grid)
        else:
            probe = ha.DiscreteField.sampled(grid, lambda r: (r - 1.0) * (3.0 - r))
        for alpha in alphas:
            ha.functional.weighted_pnorm_p(probe, alpha, p)


def _attempt(failures: list, thunk):
    """Run one operation; whatever it raises counts it as failed.

    The benchmark must finish and report the count, so any exception of
    the program (a bare assert of an invariant too) is caught here.
    """
    try:
        return thunk()
    except Exception as exc:  # noqa: BLE001
        failures.append(f"{type(exc).__name__}: {exc}")
        return None


# --- near-critical: S, the second local minimum, T at alpha = 1, p = 5.5 ---

def near_setup(ha) -> dict:
    grid = ha.geometry.build_axi_grid(*NEAR_GRID, "graded-polar")
    _ready(ha, [grid], [ALPHA_NEAR], P_NEAR)
    return {"grid": grid, "params": ha.ProblemParams(ALPHA_NEAR, P_NEAR)}


def near_round(ha, ctx) -> dict:
    grid, params = ctx["grid"], ctx["params"]
    mz = ha.minimize
    times: dict = {}
    failures: list = []
    ground = _attempt(failures, lambda: _timed(
        times, "ground_s", lambda: mz.solve_ground(params, grid)))
    ground_side = 1.0
    if ground is not None:
        rep = ha.diagnostics.concentration_report(
            ground.field, ALPHA_NEAR, P_NEAR, ha.CutoffSpec())
        ground_side = _nearest_component(rep.barycenter[0])
    # the second minimum is hunted on the sphere the ground state avoids
    hunt = 0 if ground_side == 1.0 else 1
    lam = _attempt(failures, lambda: _timed(
        times, "lambda_s", lambda: mz.solve_lambda(params, grid, index=hunt)))
    sigma = _attempt(failures, lambda: _timed(
        times, "sigma_s", lambda: mz.solve_sigma(params, grid, ctol=CTOL)))
    results = {"S": ground, "lambda": lam, "T": sigma}
    failed = sum(r is None or not r.converged for r in results.values())
    return {
        "outputs": results,
        "ground_side": ground_side,
        "times": times,
        "attempted": 3,
        "failed": failed,
        "failures": failures,
        "levels": {k: None if r is None else r.report.quotient
                   for k, r in results.items()},
    }


def near_check(ha, ctx, out) -> list:
    res = out["outputs"]
    ground, lam, sigma = res["S"], res["lambda"], res["T"]
    if ground is None or lam is None or sigma is None:
        return [("all three solves returned", False, str(out["failures"]))]
    ground_side = out["ground_side"]
    lam_side = _nearest_component(ha.diagnostics.concentration_report(
        lam.field, ALPHA_NEAR, P_NEAR, ha.CutoffSpec()).barycenter[0])
    ep, em = ha.halfspace_energies(sigma.field)
    clauses = [
        ("all three converged",
         ground.converged and lam.converged and sigma.converged, ""),
        ("S <= T", ground.report.quotient <= sigma.report.quotient,
         f"S={ground.report.quotient:.6f} T={sigma.report.quotient:.6f}"),
        ("lambda solve not escaped", not lam.escaped, ""),
        ("lambda concentrates opposite the ground state", lam_side != ground_side,
         f"ground at r={ground_side:g}, lambda at r={lam_side:g}"),
        ("sigma balanced: |E+ - E-| <= ctol (E+ + E-)",
         abs(ep - em) <= CTOL * (ep + em), f"E+={ep:.6f} E-={em:.6f}"),
    ]
    for name, r in (("S", ground), ("lambda", lam)):
        q = r.report.quotient
        resid = ha.residual_pde(
            ha.functional.scaled_critical_field(r.field, q), q, ALPHA_NEAR, P_NEAR)
        clauses.append((f"residual_pde of the rescaled {name} field <= 1e-6",
                        resid <= RESIDUAL_TOL, f"{resid:.2e}"))
    # T is critical only together with its multiplier; the solver certifies
    # the residual of the merit functional that multiplier defines
    clauses.append(("certified residual of T <= 1e-6",
                    sigma.report.residual <= RESIDUAL_TOL,
                    f"{sigma.report.residual:.2e}"))
    for name, r in res.items():
        c = oracle.level_check(r.field, r.report.quotient, ALPHA_NEAR, P_NEAR)
        clauses.append((f"{name} level matches the oracle", c["ok"],
                        f"{c['level']:.12g} vs {c['oracle']:.12g} tol {c['tol']:.1e}"))
    return clauses


# --- alpha-sweep: run_sweep of S_rad and S over five alphas at p = 4 ---

def _sweep_spec(ha):
    return ha.SweepSpec(axis="alpha", values=SWEEP_ALPHAS, fixed=SWEEP_P,
                        levels=("S_rad", "S"), n_radial=RADIAL_CELLS,
                        nr=SWEEP_GRID[0], ntheta=SWEEP_GRID[1])


def sweep_setup(ha) -> dict:
    spec = _sweep_spec(ha)
    radial = ha.geometry.build_radial_grid(spec.n_radial, "graded")
    axi = ha.geometry.build_axi_grid(spec.nr, spec.ntheta, "graded-polar")
    _ready(ha, [radial, axi], SWEEP_ALPHAS, SWEEP_P)
    return {"spec": spec}


def sweep_round(ha, ctx) -> dict:
    times: dict = {}
    failures: list = []
    records = _attempt(failures, lambda: _timed(
        times, "sweep_s", lambda: ha.harness.run_sweep(ctx["spec"])))
    if records is None:
        return {"outputs": None, "times": times, "attempted": len(SWEEP_ALPHAS),
                "failed": len(SWEEP_ALPHAS), "failures": failures, "levels": {}}
    failed = sum(
        not all(r.levels[tag]["converged"] for tag in ("S_rad", "S")) for r in records
    )
    levels = {f"{tag}@{r.alpha:g}": r.levels[tag]["value"]
              for r in records for tag in ("S_rad", "S")}
    return {"outputs": records, "times": times, "attempted": len(SWEEP_ALPHAS),
            "failed": failed, "failures": failures, "levels": levels,
            "recorded_timings_s": sum(sum(r.timings.values()) for r in records)}


def sweep_check(ha, ctx, out) -> list:
    records = out["outputs"]
    if records is None:
        return [("sweep returned", False, str(out["failures"]))]
    converged = all(r.levels[t]["converged"] for r in records for t in ("S_rad", "S"))
    if not converged:
        # the fit and the ratios below need every level
        return [("every point converged", False, "")]
    clauses = [
        ("every point converged", True, ""),
        ("chain_check S <= S_rad at every alpha",
         all(ha.chain_check(r)["S<=S_rad"] == "pass" for r in records), ""),
    ]
    rows = [(r.alpha, r.levels["S"]["value"] / r.levels["S_rad"]["value"],
             r.concentration["asymmetry_index"]) for r in records]
    witnesses = [a for a, q, s in rows if q <= 0.8 and s >= 0.3]
    clauses.append(("some alpha has S <= 0.8 S_rad with asymmetry >= 0.3",
                    bool(witnesses), f"witnesses at alpha={witnesses}"))
    slope, _ = ha.fit_exponent(records, "S_rad")
    clauses.append(("S_rad slope in [1.3, 1.7]", 1.3 <= slope <= 1.7,
                    f"slope={slope:.4f}"))
    return clauses


# --- mountain-pass: beta between the eps = 1e-3 instantons, plus S_rad ---

def mpass_setup(ha) -> dict:
    grid = ha.geometry.build_axi_grid(*MPASS_GRID, "graded-polar")
    radial = ha.geometry.build_radial_grid(RADIAL_CELLS, "graded")
    _ready(ha, [grid, radial], [ALPHA_NEAR], P_NEAR)
    return {"grid": grid, "radial": radial,
            "params": ha.ProblemParams(ALPHA_NEAR, P_NEAR)}


def mpass_round(ha, ctx) -> dict:
    grid, params = ctx["grid"], ctx["params"]
    mp = ha.mountain_pass
    times: dict = {}
    failures: list = []

    def beta():
        u0 = ha.profiles.instanton(ha.InstantonParams(INSTANTON_EPS, 0), grid)
        u1 = ha.profiles.instanton(ha.InstantonParams(INSTANTON_EPS, 1), grid)
        path = mp.straight_path(u0, u1, PATH_SEGMENTS, ALPHA_NEAR, P_NEAR)
        return mp.mountain_pass(path, params, tol=MPASS_TOL)

    result = _attempt(failures, lambda: _timed(times, "mpass_s", beta))
    s_rad = _attempt(failures, lambda: _timed(
        times, "radial_s", lambda: ha.minimize.solve_radial(params, ctx["radial"])))
    failed = int(result is None or not result.converged)
    failed += int(s_rad is None or not s_rad.converged)
    return {
        "outputs": {"beta": result, "S_rad": s_rad},
        "times": times,
        "attempted": 2,
        "failed": failed,
        "failures": failures,
        "levels": {"beta": None if result is None else result.beta,
                   "S_rad": None if s_rad is None else s_rad.report.quotient},
    }


def mpass_check(ha, ctx, out) -> list:
    result, s_rad = out["outputs"]["beta"], out["outputs"]["S_rad"]
    if result is None or s_rad is None:
        return [("both solves returned", False, str(out["failures"]))]
    lo, hi = result.endpoint_levels
    gap = 0.01 * ha.sobolev_constant(3)
    resid = ha.residual_pde(ha.functional.scaled_critical_field(result.w, result.beta),
                            result.beta, ALPHA_NEAR, P_NEAR)
    asym = ha.asymmetry_index(result.w)
    beta_c = oracle.level_check(result.w, result.beta, ALPHA_NEAR, P_NEAR)
    rad_c = oracle.level_check(s_rad.field, s_rad.report.quotient, ALPHA_NEAR, P_NEAR)
    return [
        ("mountain pass converged", result.converged, f"{result.iterations} sweeps"),
        ("argmax residual <= 1e-5", resid <= MPASS_TOL, f"{resid:.2e}"),
        ("beta >= max endpoint level + 0.01 S_crit", result.beta >= max(lo, hi) + gap,
         f"beta={result.beta:.6f} endpoints=({lo:.6f}, {hi:.6f})"),
        ("beta <= sum of endpoint levels",
         result.beta <= (lo + hi) * (1.0 + 1e-9), ""),
        ("S_rad converged", s_rad.converged, ""),
        ("beta < S_rad", result.beta < s_rad.report.quotient,
         f"S_rad={s_rad.report.quotient:.6f}"),
        ("argmax asymmetry >= 0.3", asym >= 0.3, f"{asym:.3f}"),
        ("beta matches the oracle", beta_c["ok"],
         f"{beta_c['level']:.12g} vs {beta_c['oracle']:.12g} tol {beta_c['tol']:.1e}"),
        ("S_rad matches the oracle", rad_c["ok"],
         f"{rad_c['level']:.12g} vs {rad_c['oracle']:.12g} tol {rad_c['tol']:.1e}"),
    ]


WORKLOADS = {
    "near-critical": (near_setup, near_round, near_check),
    "alpha-sweep": (sweep_setup, sweep_round, sweep_check),
    "mountain-pass": (mpass_setup, mpass_round, mpass_check),
}
