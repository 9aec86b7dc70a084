"""Parameter sweeps, scaling fits, level-ordering checks, persistence.

A sweep walks one parameter axis (alpha at fixed p, or p at fixed alpha),
runs the requested level solvers at every point, and collects one record
per point with the levels, the ground-state concentration report, and
timings. Points run one after another in the calling thread, in
ascending parameter order, so each point's timings are its own wall time;
every level travels with the grid descriptor and tolerance it was
computed under. Failed solves are recorded with their flags, not dropped.

Downstream of a sweep live the two paper-facing reductions: fit_exponent
recovers the growth exponent of a level along an alpha sweep from a
log-log least-squares line, and chain_check tests the level ordering
S <= S_rad, S <= T, beta >= endpoint levels, beta >= T that the
variational structure forces.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import functional as fn
from . import minimize as mz
from . import mountain_pass as mp
from .diagnostics import concentration_report
from .errors import (
    ConfigurationError,
    ContractViolationError,
    HenonAnnulusError,
)
from .geometry import (
    AxiGrid,
    DiscreteField,
    ProblemParams,
    RadialGrid,
    build_axi_grid,
    build_radial_grid,
)
from .profiles import CutoffSpec, InstantonParams, instanton

LEVEL_CHOICES = ("S_rad", "S", "T", "beta")
DEFAULT_RADIAL_CELLS = 2000
DEFAULT_NR = 256
DEFAULT_NTHETA = 96
# Points run in the calling thread; the benchmark records this value.
MAX_WORKERS = 1
PATH_SEGMENTS = 12
CHAIN_TOL = 1e-8


@dataclass(frozen=True)
class SweepSpec:
    """One-axis parameter sweep: which levels to compute, where, how."""

    axis: str
    values: tuple[float, ...]
    fixed: float
    levels: tuple[str, ...] = ("S_rad",)
    dim: int = 3
    n_radial: int = DEFAULT_RADIAL_CELLS
    nr: int = DEFAULT_NR
    ntheta: int = DEFAULT_NTHETA
    tol: float = mz.DEFAULT_TOL
    ctol: float = 1e-4
    eps: float = 1e-3
    delta: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.axis not in ("alpha", "p"):
            raise ConfigurationError(f"unknown sweep axis {self.axis!r}")
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ConfigurationError("sweep needs at least one parameter value")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigurationError("sweep values must be strictly ascending")
        object.__setattr__(self, "values", values)
        if not self.levels:
            raise ConfigurationError("sweep needs at least one level")
        for name in self.levels:
            if name not in LEVEL_CHOICES:
                raise ConfigurationError(f"unknown level {name!r}")
        # refused before any solve, by the checks T, beta and the
        # concentration report would apply at every point
        mz.check_ctol(self.ctol)
        InstantonParams(self.eps, 0)
        CutoffSpec(self.delta)

    def point_params(self, value: float) -> ProblemParams:
        if self.axis == "alpha":
            return ProblemParams(alpha=value, p=self.fixed, dim=self.dim)
        return ProblemParams(alpha=self.fixed, p=value, dim=self.dim)


@dataclass(frozen=True)
class ResultRecord:
    """Everything one sweep point produced, serialization-stable."""

    alpha: float
    p: float
    dim: int
    seed: int
    levels: dict = field(default_factory=dict)
    concentration: dict | None = None
    timings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "p": self.p,
            "dim": self.dim,
            "seed": self.seed,
            "levels": self.levels,
            "concentration": self.concentration,
            "timings": self.timings,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ResultRecord":
        return cls(
            alpha=float(data["alpha"]),
            p=float(data["p"]),
            dim=int(data["dim"]),
            seed=int(data["seed"]),
            levels=data["levels"],
            concentration=data.get("concentration"),
            timings=data.get("timings", {}),
        )


def _level_entry(result: mz.SolveResult, tol: float) -> dict:
    return {
        "value": result.report.quotient,
        "converged": result.converged,
        "grid": result.report.grid,
        "tol": tol,
        "iterations": result.report.iterations,
        "residual": result.report.residual,
        "init_tag": result.init_tag,
        "stats": dataclasses.asdict(result.stats),
    }


def _failed_entry(grid_label: str, tol: float, exc: HenonAnnulusError) -> dict:
    return {
        "value": None,
        "converged": False,
        "grid": grid_label,
        "tol": tol,
        "error": f"{type(exc).__name__}: {exc}",
    }


def _solve_point(
    spec: SweepSpec, value: float, radial_grid: RadialGrid, axi_grid: AxiGrid
) -> ResultRecord:
    params = spec.point_params(value)
    levels: dict = {}
    timings: dict = {}
    concentration = None
    ground_field: DiscreteField | None = None

    def timed(tag, thunk):
        start = time.perf_counter()
        try:
            return thunk()
        finally:
            timings[tag] = time.perf_counter() - start

    if "S_rad" in spec.levels:
        try:
            res = timed("S_rad", lambda: mz.solve_radial(params, radial_grid, tol=spec.tol))
            levels["S_rad"] = _level_entry(res, spec.tol)
        except HenonAnnulusError as exc:
            levels["S_rad"] = _failed_entry(radial_grid.descriptor, spec.tol, exc)
    if "S" in spec.levels:
        try:
            res = timed("S", lambda: mz.solve_ground(params, axi_grid, tol=spec.tol))
            levels["S"] = _level_entry(res, spec.tol)
            ground_field = res.field
        except HenonAnnulusError as exc:
            levels["S"] = _failed_entry(axi_grid.descriptor, spec.tol, exc)
    if "T" in spec.levels:
        try:
            res = timed(
                "T",
                lambda: mz.solve_sigma(params, axi_grid, tol=spec.tol, ctol=spec.ctol),
            )
            entry = _level_entry(res, spec.tol)
            entry["constraint_defect"] = res.constraint_defect
            levels["T"] = entry
        except HenonAnnulusError as exc:
            levels["T"] = _failed_entry(axi_grid.descriptor, spec.tol, exc)
    if "beta" in spec.levels:
        try:
            def run_beta():
                u0 = instanton(InstantonParams(spec.eps, 0), axi_grid)
                u1 = instanton(InstantonParams(spec.eps, 1), axi_grid)
                path = mp.straight_path(u0, u1, PATH_SEGMENTS, params.alpha, params.p)
                return mp.mountain_pass(path, params)

            res = timed("beta", run_beta)
            levels["beta"] = {
                "value": res.beta,
                "converged": res.converged,
                "grid": axi_grid.descriptor,
                "tol": spec.tol,
                "iterations": res.iterations,
                "endpoints": list(res.endpoint_levels),
                "straight_max": res.straight_max,
            }
        except HenonAnnulusError as exc:
            levels["beta"] = _failed_entry(axi_grid.descriptor, spec.tol, exc)

    if ground_field is not None:
        try:
            report = concentration_report(
                ground_field, params.alpha, params.p, CutoffSpec(spec.delta)
            )
            concentration = report.to_dict()
        except HenonAnnulusError as exc:
            concentration = {"error": f"{type(exc).__name__}: {exc}"}

    return ResultRecord(
        alpha=params.alpha,
        p=params.p,
        dim=params.dim,
        seed=spec.seed,
        levels=levels,
        concentration=concentration,
        timings=timings,
    )


def run_sweep(spec: SweepSpec, out_path: str | None = None) -> list[ResultRecord]:
    """Solve every sweep point in turn; persist whatever finished even on failure.

    Points run one after another in the calling thread, in ascending
    parameter order, which is also the order of the returned list and of
    the persisted records.
    """
    needs_axi = any(name != "S_rad" for name in spec.levels)
    radial_grid = build_radial_grid(spec.n_radial, "graded", dim=spec.dim)
    axi_grid = build_axi_grid(spec.nr, spec.ntheta, "graded-polar") if needs_axi else None

    records: list[ResultRecord] = []
    try:
        for value in spec.values:
            records.append(_solve_point(spec, value, radial_grid, axi_grid))
    finally:
        if out_path is not None and records:
            append_records(records, out_path)
    return records


def append_records(records: list[ResultRecord], path: str) -> None:
    """Append records to a JSON-lines file (the sink is append-only)."""
    with open(path, "a", encoding="utf-8") as sink:
        for record in records:
            sink.write(json.dumps(record.to_json_dict()) + "\n")


def load_records(path: str) -> list[ResultRecord]:
    records = []
    with open(path, encoding="utf-8") as source:
        for line in source:
            line = line.strip()
            if line:
                records.append(ResultRecord.from_json_dict(json.loads(line)))
    return records


def fit_exponent(
    records: list[ResultRecord], level: str, *, force: bool = False
) -> tuple[float, float]:
    """Slope and r-squared of log(level) against log(alpha).

    Refuses sweeps containing non-converged or failed entries for the
    chosen level unless force=True; a fit over unreliable points would
    silently corrupt the scaling-exponent claims downstream.
    """
    if level not in LEVEL_CHOICES:
        raise ConfigurationError(f"unknown level {level!r}")
    if len(records) < 3:
        raise ConfigurationError("exponent fit needs at least 3 records")
    xs, ys = [], []
    for record in records:
        entry = record.levels.get(level)
        if entry is None:
            raise ContractViolationError(
                f"record at alpha={record.alpha:g} has no {level} level"
            )
        if not entry.get("converged", False) and not force:
            raise ContractViolationError(
                f"non-converged {level} at alpha={record.alpha:g}; "
                "pass force=True to fit anyway"
            )
        value = entry.get("value")
        if value is None or value <= 0.0 or record.alpha <= 0.0:
            raise ContractViolationError(
                f"unusable {level} value at alpha={record.alpha:g}"
            )
        xs.append(math.log(record.alpha))
        ys.append(math.log(value))
    xs_arr, ys_arr = np.array(xs), np.array(ys)
    slope, intercept = np.polyfit(xs_arr, ys_arr, 1)
    predicted = slope * xs_arr + intercept
    ss_res = float(np.sum((ys_arr - predicted) ** 2))
    ss_tot = float(np.sum((ys_arr - ys_arr.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r_squared


def chain_check(record: ResultRecord, *, tol: float = CHAIN_TOL) -> dict[str, str]:
    """Level-ordering report: each inequality is pass, fail, or skipped.

    S_rad, S, T take part only when converged (their values are otherwise
    meaningless); beta takes part whenever present, because the path
    maximum upper-bounds the pass level by construction even when the
    argmax node is not yet critical.
    """

    def usable(name):
        entry = record.levels.get(name)
        if entry is None or entry.get("value") is None:
            return None
        if name != "beta" and not entry.get("converged", False):
            return None
        return entry

    def slack(x):
        return tol * max(1.0, abs(x))

    report = {}
    s_rad, s, t, beta = (usable(n) for n in LEVEL_CHOICES)
    if s and s_rad:
        ok = s["value"] <= s_rad["value"] + slack(s_rad["value"])
        report["S<=S_rad"] = "pass" if ok else "fail"
    else:
        report["S<=S_rad"] = "skipped"
    if s and t:
        ok = s["value"] <= t["value"] + slack(t["value"])
        report["S<=T"] = "pass" if ok else "fail"
    else:
        report["S<=T"] = "skipped"
    if beta and beta.get("endpoints"):
        ok = beta["value"] >= max(beta["endpoints"]) - slack(beta["value"])
        report["beta>=endpoints"] = "pass" if ok else "fail"
    else:
        report["beta>=endpoints"] = "skipped"
    if beta and t:
        ok = beta["value"] >= t["value"] - slack(t["value"])
        report["beta>=T"] = "pass" if ok else "fail"
    else:
        report["beta>=T"] = "skipped"
    return report


def write_levels_csv(records: list[ResultRecord], path) -> None:
    """Flat one-row-per-level summary for plotting.

    ``path`` is a filename or any open text stream (the CLI passes stdout).
    """
    if hasattr(path, "write"):
        _write_levels_rows(records, path)
        return
    with open(path, "w", encoding="utf-8", newline="") as sink:
        _write_levels_rows(records, sink)


def _write_levels_rows(records: list[ResultRecord], sink) -> None:
    writer = csv.writer(sink)
    writer.writerow(["alpha", "p", "level_tag", "value", "converged", "grid"])
    for record in records:
        for tag in LEVEL_CHOICES:
            entry = record.levels.get(tag)
            if entry is None:
                continue
            value = entry.get("value")
            writer.writerow(
                [
                    f"{record.alpha:.17g}",
                    f"{record.p:.17g}",
                    tag,
                    "" if value is None else f"{value:.17g}",
                    str(bool(entry.get("converged", False))).lower(),
                    entry.get("grid", ""),
                ]
            )


def write_snapshot(u: DiscreteField, path: str) -> None:
    """Nodal field dump: commented grid header, then coordinate rows."""
    grid = u.grid
    with open(path, "w", encoding="utf-8", newline="") as sink:
        sink.write(f"# grid: {grid.descriptor}\n")
        if isinstance(grid, RadialGrid):
            sink.write(f"# r_nodes: {grid.nodes.size}\n")
            sink.write("r,value\n")
            for r, v in zip(grid.nodes, u.values):
                sink.write(f"{r:.17g},{v:.17g}\n")
        else:
            sink.write(f"# r_nodes: {grid.r_nodes.size}\n")
            sink.write(f"# theta_nodes: {grid.theta_nodes.size}\n")
            sink.write("r,theta,value\n")
            rr, tt = grid.node_mesh()
            for r, t, v in zip(rr.ravel(), tt.ravel(), u.values):
                sink.write(f"{r:.17g},{t:.17g},{v:.17g}\n")
