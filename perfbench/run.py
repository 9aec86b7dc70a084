"""Benchmark of the henon_annulus level solvers, one workload per process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload near-critical --seed 1 --seconds 30 --trace 0

The package is imported from ./src. The run times its own set-up in
fresh processes, then repeats whole rounds of the workload's solves for
about --seconds seconds, checks the outputs, writes a result file under
perfbench/results/ and prints one JSON line as its last line of output.
With --trace 0 that line holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see README.md). --seed is recorded and
changes nothing: every input is a fixed parameter point.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0
MODULES = ("diagnostics", "functional", "geometry", "harness", "minimize",
           "mountain_pass", "profiles")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "PYTHONHASHSEED")


def _import_package(root: Path):
    """henon_annulus from <root>/src, or None when the checkout lacks it.

    The namespace holds the package's public names and, under their own
    names, its modules (the package's `mountain_pass` is the function,
    here it is the module).
    """
    src = root / "src"
    if not (src / "henon_annulus" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    package = importlib.import_module("henon_annulus")
    names = {name: getattr(package, name) for name in package.__all__}
    names.update({m: importlib.import_module(f"henon_annulus.{m}") for m in MODULES})
    return types.SimpleNamespace(**names)


def _setup_seconds(workload: str) -> list[float]:
    """Wall time of fresh processes that import, set up and exit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-only"],
            check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
    return samples


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _machine(ha) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "sweep_pool_workers": ha.harness.MAX_WORKERS,
        "platform": platform.platform(),
    }


def _layer_metrics(tracer, stop: int) -> dict:
    """The per-layer figures of the spans before `stop` (set-up and round 1)."""
    totals = spans.layer_totals(tracer.spans, stop)

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    # top-level spans on the sweep pool's threads: the work of its points
    main = threading.main_thread().ident
    pool = [s for s in tracer.spans[:stop] if s[3] != main and s[4] is None]
    busy = sum(s[2] - s[1] for s in pool)
    cpu = sum(s[6] for s in pool)
    sweep_wall = get("harness.run_sweep", "total_s")
    iterations = get("minimize.solve", "iterations") + get("minimize.solve_radial", "iterations")
    newton = get("functional.weighted_linearized_matrix", "calls")

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for layer in ("functional.weighted_force", "functional.weighted_pnorm_p",
                  "functional.weighted_linearized_matrix", "minimize.lu_factor",
                  "minimize.lu_solve", "functional.functional_gradient",
                  "functional.energies", "weight.radial_rule", "profiles.instanton"):
        values[f"{layer}.calls"] = (get(layer, "calls"), "count")
        values[f"{layer}.self_s"] = (get(layer, "self_s"), "s")
    values.update({
        "functional.normalize.calls": (get("functional.normalize", "calls"), "count"),
        "mountain_pass.self_s": (get("mountain_pass", "self_s"), "s"),
        "mountain_pass.sweeps": (get("mountain_pass", "iterations"), "count"),
        "minimize.iterations": (iterations, "count"),
        "minimize.solve.self_s": (get("minimize.solve", "self_s"), "s"),
        "minimize.solve_radial.self_s": (get("minimize.solve_radial", "self_s"), "s"),
        "harness.run_sweep.wall_s": (sweep_wall, "s"),
        "harness.point_busy_s": (busy, "s"),
        "harness.point_cpu_s": (cpu, "s"),
        "geometry.build.self_s": (get("geometry.build", "self_s"), "s"),
        "weight.theta_rule.calls": (get("weight.theta_rule", "calls"), "count"),
        "functional.stiffness.self_s": (get("functional.stiffness", "self_s"), "s"),
        "diagnostics.concentration_report.self_s":
            (get("diagnostics.concentration_report", "self_s"), "s"),
        "ratio.normalize_per_iteration":
            (ratio(get("functional.normalize", "calls"), iterations), "ratio"),
        "ratio.lu_factor_per_newton_step":
            (ratio(get("minimize.lu_factor", "calls"), newton), "ratio"),
        "ratio.pool_occupancy": (ratio(busy, sweep_wall), "ratio"),
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, set up the workload's grids and exit")
    args = parser.parse_args(argv)

    setup, run_round, check = WORKLOADS[args.workload]
    root = Path.cwd()
    ha = _import_package(root)
    if ha is None:
        print(f"no henon_annulus package under {root / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(ha)
        return 0

    setup_samples = _setup_seconds(args.workload)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(ha, tracer)
        tracer.enabled = True
    ctx = setup(ha)

    # Whole rounds until the next one would end past --seconds. A traced
    # run needs three: round 1 (with the set-up) gives the per-layer
    # figures; the later rounds alternate untraced and traced, and their
    # difference is the tracing overhead.
    rounds = []
    layer_stop = 0
    peak_rss_mb = 0.0
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.enabled = len(rounds) % 2 == 0
        start = time.perf_counter()
        out = run_round(ha, ctx)
        out["wall_s"] = time.perf_counter() - start
        out["traced"] = bool(tracer is not None and tracer.enabled)
        rounds.append(out)
        if len(rounds) == 1:
            # set-up plus one round is the same work in every run; later
            # rounds add what the program's caches keep from each round
            peak_rss_mb = _peak_rss_mb()
            if tracer is not None:
                layer_stop = len(tracer.spans)
        walls = [r["wall_s"] for r in rounds]
        elapsed = time.perf_counter() - begin
        enough = len(rounds) >= (3 if tracer is not None else 1)
        if enough and elapsed + statistics.median(walls) > args.seconds:
            break
    if tracer is not None:
        tracer.enabled = False
    final_rss_mb = _peak_rss_mb()

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    first = rounds[0]
    clauses = check(ha, ctx, first)
    same = all(repr(r["levels"]) == repr(first["levels"]) for r in rounds)
    clauses.append(("every round reproduces the first round's levels bitwise", same,
                    f"{len(rounds)} rounds"))
    correct = all(ok for _, ok, _ in clauses)

    walls = [r["wall_s"] for r in rounds]
    solves = {key: statistics.median(r["times"][key] for r in rounds)
              for key in first["times"]}
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "levels_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = _layer_metrics(tracer, layer_stop)
        # the per-point timings run_sweep records, summed (0 off the sweep)
        metrics["harness.recorded_timings_s"] = (first.get("recorded_timings_s", 0.0), "s")
        traced = [r["wall_s"] for r in rounds[2::2]]
        untraced = [r["wall_s"] for r in rounds[1::2]]
        metrics["trace.traced_round_s"] = (statistics.median(traced), "s")
        metrics["trace.untraced_round_s"] = (statistics.median(untraced), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(untraced), "s")

    RESULTS.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(ha),
        "setup_samples_s": setup_samples,
        "rounds": [{"wall_s": r["wall_s"], "traced": r["traced"], "times": r["times"],
                    "failed": r["failed"], "failures": r["failures"]} for r in rounds],
        "solve_medians_s": solves,
        "peak_rss_mb_after_all_rounds": final_rss_mb,
        "levels": first["levels"],
        "checks": [{"clause": c, "ok": ok, "detail": d} for c, ok, d in clauses],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(RESULTS / f"TRACE_{args.workload}_seed{args.seed}.jsonl")
    for c, ok, d in clauses:
        print(f"{'ok  ' if ok else 'FAIL'} {c} {d}".rstrip())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
