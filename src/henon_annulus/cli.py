"""Command-line front end: single solves, sweeps, diagnostics, and fits.

Every subcommand prints one result object (JSON by default, a flat CSV row
set with --format csv) and communicates outcome through the exit code:

    0   success (all requested solves converged)
    2   a solve finished without meeting its convergence contract
    3   the request itself was invalid (bad flag, bad grid, bad spec file)

--log-level sends the package's log records at that level and above to
stderr (DEBUG shows each Newton teleport of the descent).

A plain-text configuration file (``key = value`` per line, ``#`` comments)
may supply any long flag via --config; values given on the command line
win. Field snapshots requested with --snapshot are CSV nodal dumps with
header ``r,theta,value`` (radial snapshots drop the theta column).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import logging
import sys
import time

from . import harness as hn
from . import minimize as mz
from .diagnostics import CutoffSpec, asymmetry_index, concentration_report
from .errors import HenonAnnulusError, NonConvergenceError
from .geometry import ProblemParams, build_axi_grid, build_radial_grid
from .mountain_pass import mountain_pass, path_crossing, straight_path
from .profiles import InstantonParams, instanton

EXIT_OK = 0
EXIT_NONCONVERGED = 2
EXIT_INVALID = 3

DEFAULT_RADIAL_CELLS = hn.DEFAULT_RADIAL_CELLS
DEFAULT_NR = hn.DEFAULT_NR
DEFAULT_NTHETA = hn.DEFAULT_NTHETA
MPASS_TOL = 1e-5
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 3."""

    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def read_config(path: str) -> dict[str, str]:
    """key = value lines; blank lines and # comments ignored."""
    table: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as source:
        for lineno, raw in enumerate(source, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            table[key.strip().lower().replace("-", "_")] = value.strip()
    return table


def _resolve(args: argparse.Namespace, name: str, cast, default):
    """CLI value if given, else config-file value, else the default."""
    given = getattr(args, name, None)
    if given is not None:
        return given
    config = getattr(args, "_config_table", {})
    if name in config:
        return cast(config[name])
    return default


def build_parser() -> _Parser:
    parser = _Parser(prog="henon-annulus", description=__doc__.split("\n")[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=float, default=None, help="weight exponent alpha >= 0")
    common.add_argument("--p", type=float, default=None, help="nonlinearity exponent, 2 < p < 2N/(N-2)")
    common.add_argument("--dim", type=int, default=None, help="ambient dimension N (default 3)")
    common.add_argument("--nr", type=int, default=None, help="radial cells")
    common.add_argument("--ntheta", type=int, default=None, help="angular cells (axisymmetric grids)")
    common.add_argument("--tol", type=float, default=None, help="convergence tolerance")
    common.add_argument("--ctol", type=float, default=None, help="balanced-set constraint tolerance")
    common.add_argument("--eps", type=float, default=None, help="instanton concentration parameter")
    common.add_argument("--delta", type=float, default=None, help="boundary cutoff width for diagnostics")
    common.add_argument("--seed", type=int, default=None, help="seed recorded with sweep results")
    common.add_argument("--out", default=None, help="write the result here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default=None, help="output format (default json)")
    common.add_argument("--config", default=None, help="key = value file supplying any flag; CLI wins")
    common.add_argument("--snapshot", default=None, help="write the solution field as CSV to this path")
    common.add_argument("--log-level", dest="log_level", type=str.upper, choices=LOG_LEVELS,
                        default=None, help="log to stderr from this level (default WARNING)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve-radial", parents=[common], help="radial minimizer S_rad")
    sub.add_parser("solve-ground", parents=[common], help="global minimizer S on the axisymmetric grid")
    sub.add_parser("solve-sigma", parents=[common], help="balanced-energy minimizer T")
    sub.add_parser("solve-lambda", parents=[common], help="inner-heavy local minimizer")

    mpass = sub.add_parser("mountain-pass", parents=[common], help="path level beta between the two instantons")
    mpass.add_argument("--segments", type=int, default=None, help="path segments (default 12)")
    mpass.add_argument("--maxit", type=int, default=None, help="sweep budget")
    mpass.add_argument("--trace", default=None, help="CSV trace of (iteration, node, quotient)")

    sweep = sub.add_parser("sweep", parents=[common], help="solve a family of parameter points")
    sweep.add_argument("--axis", choices=("alpha", "p"), default=None, help="parameter that varies")
    sweep.add_argument("--values", default=None, help="comma-separated ascending values")
    sweep.add_argument("--levels", default=None, help="comma-separated subset of S_rad,S,T,beta")
    sweep.add_argument("--n-radial", dest="n_radial", type=int, default=None, help="radial cells for S_rad points")

    sub.add_parser("diagnose", parents=[common], help="concentration report for the ground state")

    fit = sub.add_parser("fit", parents=[common], help="log-log slope of a level against alpha")
    fit.add_argument("records", help="JSONL sweep records")
    fit.add_argument("--level", default=None, help="level tag to fit (default S_rad)")
    fit.add_argument("--force", action="store_true", help="fit despite non-converged records")
    return parser


def _emit(payload: dict, args: argparse.Namespace, csv_rows=None) -> None:
    """JSON object by default; csv_rows (header + rows) when --format csv."""
    fmt = _resolve(args, "format", str, "json")
    out = _resolve(args, "out", str, None)
    if fmt == "csv" and csv_rows is not None:
        buffer = io.StringIO()
        import csv as _csv

        writer = _csv.writer(buffer)
        writer.writerows(csv_rows)
        text = buffer.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as sink:
            sink.write(text)


def _level_rows(result: mz.SolveResult) -> list[list[str]]:
    return [
        ["alpha", "p", "level_tag", "value", "converged", "grid"],
        [
            f"{result.params.alpha:.17g}",
            f"{result.params.p:.17g}",
            result.report.level_tag,
            f"{result.report.quotient:.17g}",
            str(bool(result.converged)).lower(),
            result.report.grid,
        ],
    ]


def _point_params(args: argparse.Namespace) -> ProblemParams:
    alpha = _resolve(args, "alpha", float, None)
    p = _resolve(args, "p", float, None)
    if alpha is None or p is None:
        raise ValueError("--alpha and --p are required for this command")
    dim = _resolve(args, "dim", int, 3)
    # p = 2 has no variational content (linear eigenvalue); permitted on the
    # command line purely as the closed-form validation case.
    return ProblemParams(alpha, p, dim=dim, validation_mode=(p == 2.0))


def _radial_grid(args: argparse.Namespace, dim: int):
    n = _resolve(args, "nr", int, DEFAULT_RADIAL_CELLS)
    return build_radial_grid(n, "graded", dim=dim)


def _axi_grid(args: argparse.Namespace):
    nr = _resolve(args, "nr", int, DEFAULT_NR)
    ntheta = _resolve(args, "ntheta", int, DEFAULT_NTHETA)
    return build_axi_grid(nr, ntheta, "graded-polar")


def _finish_solve(result: mz.SolveResult, args: argparse.Namespace, elapsed: float) -> int:
    payload = result.to_json_dict()
    payload["elapsed"] = elapsed
    snapshot = _resolve(args, "snapshot", str, None)
    if snapshot is not None:
        hn.write_snapshot(result.field, snapshot)
    _emit(payload, args, csv_rows=_level_rows(result))
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def _cmd_solve_radial(args: argparse.Namespace) -> int:
    params = _point_params(args)
    grid = _radial_grid(args, params.dim)
    tol = _resolve(args, "tol", float, mz.DEFAULT_TOL)
    started = time.perf_counter()
    result = mz.solve_radial(params, grid, tol=tol)
    return _finish_solve(result, args, time.perf_counter() - started)


def _cmd_solve_ground(args: argparse.Namespace) -> int:
    params = _point_params(args)
    grid = _axi_grid(args)
    tol = _resolve(args, "tol", float, mz.DEFAULT_TOL)
    started = time.perf_counter()
    result = mz.solve_ground(params, grid, tol=tol)
    return _finish_solve(result, args, time.perf_counter() - started)


def _cmd_solve_sigma(args: argparse.Namespace) -> int:
    params = _point_params(args)
    grid = _axi_grid(args)
    tol = _resolve(args, "tol", float, mz.DEFAULT_TOL)
    ctol = _resolve(args, "ctol", float, 1e-4)
    started = time.perf_counter()
    result = mz.solve_sigma(params, grid, tol=tol, ctol=ctol)
    return _finish_solve(result, args, time.perf_counter() - started)


def _cmd_solve_lambda(args: argparse.Namespace) -> int:
    params = _point_params(args)
    grid = _axi_grid(args)
    tol = _resolve(args, "tol", float, mz.DEFAULT_TOL)
    eps = _resolve(args, "eps", float, 1e-3)
    started = time.perf_counter()
    result = mz.solve_lambda(params, grid, tol=tol, eps=eps)
    return _finish_solve(result, args, time.perf_counter() - started)


def _cmd_mountain_pass(args: argparse.Namespace) -> int:
    params = _point_params(args)
    grid = _axi_grid(args)
    eps = _resolve(args, "eps", float, 1e-3)
    segments = _resolve(args, "segments", int, hn.PATH_SEGMENTS)
    tol = _resolve(args, "tol", float, MPASS_TOL)
    maxit = _resolve(args, "maxit", int, 2000)
    trace = _resolve(args, "trace", str, None)

    started = time.perf_counter()
    u0 = instanton(InstantonParams(eps, 0), grid)
    u1 = instanton(InstantonParams(eps, 1), grid)
    path = straight_path(u0, u1, segments, params.alpha, params.p)
    crossing = path_crossing(path)
    result = mountain_pass(path, params, tol=tol, maxit=maxit, trace_csv=trace)
    elapsed = time.perf_counter() - started

    payload = {
        "params": {"dim": params.dim, "alpha": params.alpha, "p": params.p},
        "eps": eps,
        "segments": segments,
        "beta": result.beta,
        "converged": result.converged,
        "iterations": result.iterations,
        "endpoint_levels": list(result.endpoint_levels),
        "straight_max": result.straight_max,
        "stats": dataclasses.asdict(result.stats),
        "crossing_index": crossing,
        "asymmetry_index": asymmetry_index(result.w),
        "grid": grid.descriptor,
        "elapsed": elapsed,
    }
    snapshot = _resolve(args, "snapshot", str, None)
    if snapshot is not None:
        hn.write_snapshot(result.w, snapshot)
    rows = [
        ["alpha", "p", "level_tag", "value", "converged", "grid"],
        [
            f"{params.alpha:.17g}",
            f"{params.p:.17g}",
            "beta",
            f"{result.beta:.17g}",
            str(bool(result.converged)).lower(),
            grid.descriptor,
        ],
    ]
    _emit(payload, args, csv_rows=rows)
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def _parse_values(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _cmd_sweep(args: argparse.Namespace) -> int:
    axis = _resolve(args, "axis", str, None)
    values_text = _resolve(args, "values", str, None)
    if axis is None or values_text is None:
        raise ValueError("sweep requires --axis and --values")
    fixed = _resolve(args, "p" if axis == "alpha" else "alpha", float, None)
    if fixed is None:
        flag = "--p" if axis == "alpha" else "--alpha"
        raise ValueError(f"sweep over {axis} requires the fixed value {flag}")
    levels_text = _resolve(args, "levels", str, "S_rad")
    spec = hn.SweepSpec(
        axis=axis,
        values=_parse_values(values_text),
        fixed=fixed,
        levels=tuple(part.strip() for part in levels_text.split(",") if part.strip()),
        dim=_resolve(args, "dim", int, 3),
        n_radial=_resolve(args, "n_radial", int, DEFAULT_RADIAL_CELLS),
        nr=_resolve(args, "nr", int, DEFAULT_NR),
        ntheta=_resolve(args, "ntheta", int, DEFAULT_NTHETA),
        tol=_resolve(args, "tol", float, mz.DEFAULT_TOL),
        ctol=_resolve(args, "ctol", float, 1e-4),
        eps=_resolve(args, "eps", float, 1e-3),
        delta=_resolve(args, "delta", float, 0.25),
        seed=_resolve(args, "seed", int, 0),
    )
    fmt = _resolve(args, "format", str, "json")
    out = _resolve(args, "out", str, None)

    # JSONL goes through the sweep's own append-only sink; the CSV summary
    # is derived from the finished records.
    records = hn.run_sweep(spec, out_path=out if fmt == "json" else None)
    if fmt == "csv":
        hn.write_levels_csv(records, out if out is not None else sys.stdout)
    elif out is None:
        text = "\n".join(json.dumps(r.to_json_dict(), sort_keys=True) for r in records)
        sys.stdout.write(text + "\n")

    ok = all(
        entry.get("value") is not None and (entry.get("converged") or tag == "beta")
        for record in records
        for tag, entry in record.levels.items()
    )
    return EXIT_OK if ok else EXIT_NONCONVERGED


def _cmd_diagnose(args: argparse.Namespace) -> int:
    params = _point_params(args)
    grid = _axi_grid(args)
    tol = _resolve(args, "tol", float, mz.DEFAULT_TOL)
    delta = _resolve(args, "delta", float, 0.25)
    started = time.perf_counter()
    result = mz.solve_ground(params, grid, tol=tol)
    report = concentration_report(result.field, params.alpha, params.p, CutoffSpec(delta))
    payload = {
        "params": {"dim": params.dim, "alpha": params.alpha, "p": params.p},
        "level": result.report.quotient,
        "level_tag": result.report.level_tag,
        "converged": result.converged,
        "grid": result.report.grid,
        "concentration": report.to_dict(),
        "elapsed": time.perf_counter() - started,
    }
    snapshot = _resolve(args, "snapshot", str, None)
    if snapshot is not None:
        hn.write_snapshot(result.field, snapshot)
    _emit(payload, args, csv_rows=_level_rows(result))
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def _cmd_fit(args: argparse.Namespace) -> int:
    records = hn.load_records(args.records)
    level = _resolve(args, "level", str, "S_rad")
    force = bool(getattr(args, "force", False))
    slope, r_squared = hn.fit_exponent(records, level, force=force)
    payload = {
        "level": level,
        "slope": slope,
        "r_squared": r_squared,
        "records": len(records),
    }
    rows = [
        ["level", "slope", "r_squared", "records"],
        [level, f"{slope:.17g}", f"{r_squared:.17g}", str(len(records))],
    ]
    _emit(payload, args, csv_rows=rows)
    return EXIT_OK


_COMMANDS = {
    "solve-radial": _cmd_solve_radial,
    "solve-ground": _cmd_solve_ground,
    "solve-sigma": _cmd_solve_sigma,
    "solve-lambda": _cmd_solve_lambda,
    "mountain-pass": _cmd_mountain_pass,
    "sweep": _cmd_sweep,
    "diagnose": _cmd_diagnose,
    "fit": _cmd_fit,
}


@contextlib.contextmanager
def _stderr_logging(level: str):
    """Send the package's log records at level and above to stderr."""
    if level not in LOG_LEVELS:
        raise ValueError(f"log level must be one of {', '.join(LOG_LEVELS)}, got {level!r}")
    logger = logging.getLogger("henon_annulus")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = logger.level
    logger.setLevel(level)
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config_path = getattr(args, "config", None)
    try:
        args._config_table = read_config(config_path) if config_path else {}
        with _stderr_logging(_resolve(args, "log_level", str.upper, "WARNING")):
            return _COMMANDS[args.command](args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (HenonAnnulusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> int:
    """Console-script hook: exit status is the return value of main."""
    return main()


if __name__ == "__main__":
    sys.exit(main())
