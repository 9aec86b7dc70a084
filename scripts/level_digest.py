"""Bitwise digest of the levels, counters and fields the solvers produce.

Prints one sorted JSON object. Two commits that compute the same numbers
print the same bytes, so `diff` of two runs' output checks that a change
kept every level, iteration count, SolveStats counter and field bitwise:

* at 128x48 (alpha = 1, p = 5.5): S, the outer-start local minimum
  (index 0) and T with ctol 1e-4; T again at 96x32;
* the 96x32 and 48x16 bubble passes (eps 1e-3, 12 segments, tol 1e-5);
* S_rad on the 2000-cell radial grid;
* the records of the perfbench alpha-sweep spec (S_rad and S over alpha
  20..320 at p = 4 on 48x16), timings dropped;
* a 48x16 sweep of S, T and beta at alpha = 1, 2 (p = 5.5), with the
  chain_check report of each record;
* the payload and exit code of each solve command run through cli.main
  (alpha = 1, p = 5.5; 48x16, and 100 cells radial) and of a 48x16
  `mountain-pass --maxit 5`, wall times dropped.

A solve prints the repr of its level and residual, its iterations,
converged flag, init tag, every SolveStats counter and the sha256 of its
field; a pass prints its level, iterations, converged flag, counters,
field hash, endpoint levels and the straight path's maximum. Thread
counts of the BLAS can move the last bits, so compare runs made under
one setting:

    OPENBLAS_NUM_THREADS=1 python scripts/level_digest.py > digest.json

Run it from a checkout root; it imports the package from ./src. Takes
about 6 s on two cores.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys

sys.path.insert(0, "src")

from henon_annulus import cli  # noqa: E402
from henon_annulus import harness as hn  # noqa: E402
from henon_annulus import minimize as mz  # noqa: E402
from henon_annulus.geometry import ProblemParams, build_axi_grid, build_radial_grid  # noqa: E402

ALPHA, P, EPS, SEGMENTS, PASS_TOL = 1.0, 5.5, 1e-3, 12, 1e-5


def field_hash(u) -> str:
    return hashlib.sha256(u.values.tobytes()).hexdigest()


def solve_digest(result) -> dict:
    return {
        "level": repr(result.report.quotient),
        "residual": repr(result.report.residual),
        "iterations": result.report.iterations,
        "converged": result.converged,
        "init_tag": result.init_tag,
        "stats": dataclasses.asdict(result.stats),
        "field": field_hash(result.field),
    }


def pass_digest(result) -> dict:
    return {
        "level": repr(result.beta),
        "iterations": result.iterations,
        "converged": result.converged,
        "stats": dataclasses.asdict(result.stats),
        "field": field_hash(result.w),
        "endpoint_levels": [repr(level) for level in result.endpoint_levels],
        "straight_max": repr(result.straight_max),
    }


def records_digest(records) -> list:
    out = []
    for record in records:
        data = record.to_json_dict()
        del data["timings"]
        out.append(data)
    return out


def cli_digest(*argv: str) -> dict:
    """The exit code and printed payload of a command, its wall time dropped."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(list(argv))
    payload = json.loads(printed.getvalue())
    del payload["elapsed"]
    return {"exit": code, "payload": payload}


params = ProblemParams(ALPHA, P)
digest = {}
near = build_axi_grid(128, 48, "graded-polar")
digest["S@128x48"] = solve_digest(mz.solve_ground(params, near))
digest["lambda0@128x48"] = solve_digest(mz.solve_lambda(params, near, index=0))
digest["T@128x48"] = solve_digest(mz.solve_sigma(params, near, ctol=1e-4))
digest["T@96x32"] = solve_digest(mz.solve_sigma(params, build_axi_grid(96, 32, "graded-polar")))
for nr, nt in ((96, 32), (48, 16)):
    _, result = hn.bubble_pass(params, build_axi_grid(nr, nt, "graded-polar"), EPS, SEGMENTS,
                               tol=PASS_TOL)
    digest[f"beta@{nr}x{nt}"] = pass_digest(result)
digest["S_rad@2000"] = solve_digest(mz.solve_radial(params, build_radial_grid(2000, "graded")))

alpha_sweep = hn.SweepSpec(axis="alpha", values=(20.0, 40.0, 80.0, 160.0, 320.0), fixed=4.0,
                           levels=("S_rad", "S"), n_radial=2000, nr=48, ntheta=16)
digest["alpha_sweep"] = records_digest(hn.run_sweep(alpha_sweep))

chain = hn.SweepSpec(axis="alpha", values=(1.0, 2.0), fixed=P, levels=("S", "T", "beta"),
                     nr=48, ntheta=16, eps=EPS)
records = hn.run_sweep(chain)
digest["chain_sweep"] = records_digest(records)
digest["chain_check"] = [hn.chain_check(record) for record in records]

point = ("--alpha", str(ALPHA), "--p", str(P))
small = ("--nr", "48", "--ntheta", "16")
digest["cli"] = {
    "solve-radial": cli_digest("solve-radial", *point, "--nr", "100"),
    **{command: cli_digest(command, *point, *small)
       for command in ("solve-ground", "solve-sigma", "solve-lambda")},
    "mountain-pass": cli_digest("mountain-pass", *point, *small, "--eps", str(EPS),
                                "--maxit", "5"),
}

print(json.dumps(digest, indent=1, sort_keys=True))
