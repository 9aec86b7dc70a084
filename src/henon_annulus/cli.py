"""Command-line front end: single solves, mountain passes, sweeps and fits.

Every subcommand prints JSON: one object for a solve, a pass or a fit, and
one record per line for a sweep (a sweep that solves S carries the ground
state's concentration report in each record). `sweep --format csv` prints
one row per (alpha, p, level) instead; no other command has a table to
print. The exit code tells the outcome:

    0   success (all requested solves converged)
    2   a solve finished without meeting its convergence contract (a
        sweep exits 2 when any level did not converge, beta included)
    3   the request itself was invalid (bad flag, bad grid, bad spec file)

Each subcommand accepts only the options its handler reads, and an option
left unset is not passed on: its default is the one of the function that
reads it.

--log-level sends the package's log records at that level and above to
stderr (DEBUG shows each Newton teleport of the descent and each sweep of
the mountain pass, with every path node's quotient).

An argument @FILE stands for the arguments in FILE, which then go through
the same parser as the command line (``henon-annulus solve-sigma
@run.args --alpha 2``). A line holds one or more arguments in shell
syntax and ``#`` starts a comment. A later argument wins, so options
after @FILE override it. Any argument that starts with ``@``, an option's
value included, is read as a file. An unknown option, a bad value or a
missing file exits 3, as on the command line.

Field snapshots requested with --snapshot are CSV nodal dumps with header
``r,theta,value`` (radial snapshots drop the theta column).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import shlex
import sys
import time
from dataclasses import dataclass
from typing import Callable

from . import harness as hn
from . import minimize as mz
from .diagnostics import asymmetry_index
from .errors import HenonAnnulusError, NonConvergenceError
from .geometry import ProblemParams, build_axi_grid, build_radial_grid
from .mountain_pass import path_crossing
from .profiles import BUBBLE_EPS

EXIT_OK = 0
EXIT_NONCONVERGED = 2
EXIT_INVALID = 3

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")

# Every option any command takes, by dest. Each is None unless given, so a
# handler passes on only what the arguments set.
_OPTIONS = {
    "out": {"help": "write the result here instead of stdout"},
    "format": {"choices": ("json", "csv"),
               "help": "json records (default) or one csv row per level"},
    "log_level": {"type": str.upper, "choices": LOG_LEVELS,
                  "help": "log to stderr from this level (default WARNING; DEBUG shows "
                          "the descent's teleports and the pass's sweeps)"},
    "alpha": {"type": float, "help": "weight exponent alpha >= 0"},
    "p": {"type": float, "help": "nonlinearity exponent, 2 < p < 2N/(N-2)"},
    "dim": {"type": int, "help": "ambient dimension N (default 3)"},
    "nr": {"type": int, "help": "radial cells"},
    "ntheta": {"type": int, "help": "angular cells"},
    "tol": {"type": float, "help": "convergence tolerance"},
    "snapshot": {"help": "write the solution field as CSV to this path"},
    "ctol": {"type": float, "help": "balanced-set constraint tolerance"},
    "eps": {"type": float, "help": "instanton concentration parameter"},
    "delta": {"type": float, "help": "boundary cutoff width for the concentration report"},
    "segments": {"type": int, "help": f"path segments (default {hn.PATH_SEGMENTS})"},
    "maxit": {"type": int, "help": "sweep budget"},
    "axis": {"choices": ("alpha", "p"), "help": "parameter that varies"},
    "values": {"help": "comma-separated ascending values"},
    "levels": {"help": "comma-separated subset of S_rad,S,T,beta"},
    "n_radial": {"type": int, "help": "radial cells for S_rad points"},
    "level": {"help": "level tag to fit (default S_rad)"},
    "force": {"action": "store_true", "help": "fit despite non-converged records"},
}

_IO = ("out", "log_level")
# Only the radial level is posed for general N; the axisymmetric grid is 3-D.
_POINT = ("alpha", "p", "nr", "tol", "snapshot")
_RADIAL_POINT = _POINT + ("dim",)
_AXI_POINT = _POINT + ("ntheta",)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 3.

    Arguments of an @FILE are split per line in shell syntax, # comments
    dropped.
    """

    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")

    def convert_arg_line_to_args(self, arg_line):
        try:
            return shlex.split(arg_line, comments=True)
        except ValueError as exc:
            self.error(f"argument file line {arg_line!r}: {exc}")


def _or(value, default):
    return default if value is None else value


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named options that the arguments set."""
    values = {name: getattr(args, name) for name in names}
    return {name: value for name, value in values.items() if value is not None}


def _split(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _emit(payload: dict, args: argparse.Namespace) -> None:
    """The payload as one JSON object, to --out or stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as sink:
            sink.write(text)


def _finish(payload: dict, args: argparse.Namespace, field) -> int:
    """Snapshot the field if asked, emit the payload, map convergence to a code."""
    if args.snapshot is not None:
        hn.write_snapshot(field, args.snapshot)
    _emit(payload, args)
    return EXIT_OK if payload["converged"] else EXIT_NONCONVERGED


def _point_params(args: argparse.Namespace, *extras: str) -> ProblemParams:
    if args.alpha is None or args.p is None:
        raise ValueError("--alpha and --p are required for this command")
    return ProblemParams(args.alpha, args.p, **_given(args, *extras))


def _axi_grid(args: argparse.Namespace):
    return build_axi_grid(
        _or(args.nr, hn.DEFAULT_NR), _or(args.ntheta, hn.DEFAULT_NTHETA), "graded-polar"
    )


@dataclass(frozen=True)
class _Command:
    help: str
    handler: Callable[[argparse.Namespace], int]
    options: tuple[str, ...]


def _solve(help: str, axi: bool, solver: Callable, *extras: str) -> _Command:
    """One solve command: its grid, its solver and the solver's own options."""

    def handler(args: argparse.Namespace) -> int:
        if axi:
            params = _point_params(args)
            grid = _axi_grid(args)
        else:
            params = _point_params(args, "dim")
            grid = build_radial_grid(
                _or(args.nr, hn.DEFAULT_RADIAL_CELLS), "graded", dim=params.dim
            )
        started = time.perf_counter()
        result = solver(params, grid, **_given(args, "tol", *extras))
        payload = result.to_json_dict()
        payload["elapsed"] = time.perf_counter() - started
        return _finish(payload, args, result.field)

    return _Command(help, handler, _IO + (_AXI_POINT if axi else _RADIAL_POINT) + extras)


def _cmd_mountain_pass(args: argparse.Namespace) -> int:
    params = _point_params(args)
    grid = _axi_grid(args)
    eps = _or(args.eps, BUBBLE_EPS)
    segments = _or(args.segments, hn.PATH_SEGMENTS)

    started = time.perf_counter()
    path, result = hn.bubble_pass(params, grid, eps, segments, **_given(args, "tol", "maxit"))
    crossing = path_crossing(path)
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
    return _finish(payload, args, result.w)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.axis is None or args.values is None:
        raise ValueError("sweep requires --axis and --values")
    fixed_name = "p" if args.axis == "alpha" else "alpha"
    fixed = {"alpha": args.alpha, "p": args.p}[fixed_name]
    if fixed is None:
        raise ValueError(f"sweep over {args.axis} requires the fixed value --{fixed_name}")
    options = _given(args, "dim", "n_radial", "nr", "ntheta", "tol", "ctol", "eps",
                     "delta")
    if args.levels is not None:
        options["levels"] = _split(args.levels)
    spec = hn.SweepSpec(
        axis=args.axis,
        values=tuple(float(part) for part in _split(args.values)),
        fixed=fixed,
        **options,
    )
    fmt, out = _or(args.format, "json"), args.out

    # JSONL goes through the sweep's own append-only sink; the CSV summary
    # is derived from the finished records.
    records = hn.run_sweep(spec, out_path=out if fmt == "json" else None)
    if fmt == "csv":
        hn.write_levels_csv(records, out if out is not None else sys.stdout)
    elif out is None:
        text = "\n".join(json.dumps(r.to_json_dict(), sort_keys=True) for r in records)
        sys.stdout.write(text + "\n")

    ok = all(
        entry.get("value") is not None and entry.get("converged")
        for record in records
        for entry in record.levels.values()
    )
    return EXIT_OK if ok else EXIT_NONCONVERGED


def _cmd_fit(args: argparse.Namespace) -> int:
    records = hn.load_records(args.records)
    level = _or(args.level, "S_rad")
    slope, r_squared = hn.fit_exponent(records, level, **_given(args, "force"))
    payload = {
        "level": level,
        "slope": slope,
        "r_squared": r_squared,
        "records": len(records),
    }
    _emit(payload, args)
    return EXIT_OK


# The parser is built from this table, so a command accepts exactly the
# options its handler reads.
_COMMANDS = {
    "solve-radial": _solve("radial minimizer S_rad", False, mz.solve_radial),
    "solve-ground": _solve("global minimizer S on the axisymmetric grid", True, mz.solve_ground),
    "solve-sigma": _solve("balanced-energy minimizer T", True, mz.solve_sigma, "ctol"),
    "solve-lambda": _solve("inner-heavy local minimizer", True, mz.solve_lambda, "eps"),
    "mountain-pass": _Command(
        "path level beta between the two instantons", _cmd_mountain_pass,
        _IO + _AXI_POINT + ("eps", "segments", "maxit"),
    ),
    "sweep": _Command(
        "solve a family of parameter points", _cmd_sweep,
        _IO + ("format", "alpha", "p", "dim", "nr", "ntheta", "tol", "ctol", "eps", "delta",
               "axis", "values", "levels", "n_radial"),
    ),
    "fit": _Command(
        "log-log slope of a level against alpha", _cmd_fit, _IO + ("level", "force")
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="henon-annulus", description=__doc__.split("\n")[0], fromfile_prefix_chars="@"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        if name == "fit":
            cmd.add_argument("records", help="JSONL sweep records")
        for dest in command.options:
            flag = "--" + dest.replace("_", "-")
            cmd.add_argument(flag, dest=dest, default=None, **_OPTIONS[dest])
        cmd.set_defaults(handler=command.handler)
    return parser


@contextlib.contextmanager
def _stderr_logging(level: str):
    """Send the package's log records at level and above to stderr."""
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
    args = build_parser().parse_args(argv)
    try:
        with _stderr_logging(_or(args.log_level, "WARNING")):
            return args.handler(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (HenonAnnulusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
