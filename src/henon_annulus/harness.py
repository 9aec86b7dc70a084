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
S <= S_rad, S <= T, beta >= endpoint levels, beta >= T. Every path between
the bubbles crosses the balanced set, so beta >= T holds when T is the
balanced minimum; on coarse grids at alpha >= 2 the computed T is not.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

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
from .profiles import BUBBLE_EPS, DEFAULT_DELTA, CutoffSpec, InstantonParams, instanton

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
    ctol: float = mz.DEFAULT_CTOL
    eps: float = BUBBLE_EPS
    delta: float = DEFAULT_DELTA

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
        # refused before any solve: every point's parameters, and the
        # checks T, beta and the concentration report would apply there
        for value in values:
            self.point_params(value)
        if self.dim != 3 and set(self.levels) - {"S_rad"}:
            raise ConfigurationError(
                f"levels S, T and beta are posed on the 3-D annulus, not dim {self.dim}"
            )
        mz.check_tolerance("tol", self.tol)
        mz.check_tolerance("ctol", self.ctol)
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
    levels: dict = field(default_factory=dict)
    concentration: dict | None = None
    timings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ResultRecord":
        """Refuses alpha, p not finite numbers, dim not an int, bad levels."""
        for key in ("alpha", "p"):
            if not _finite_number(data[key]):
                raise TypeError(f"{key} must be a finite number, got {data[key]!r}")
        if isinstance(data["dim"], bool) or not isinstance(data["dim"], int):
            raise TypeError(f"dim must be an int, got {data['dim']!r}")
        _check_levels(data["levels"])
        return cls(
            alpha=float(data["alpha"]),
            p=float(data["p"]),
            dim=int(data["dim"]),
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


def bubble_pass(params: ProblemParams, grid: AxiGrid, eps: float = BUBBLE_EPS,
                segments: int = PATH_SEGMENTS, **options):
    """(path, result) of the pass from the outer bubble u0 to the inner bubble
    u1 at eps along a straight path; options (tol, maxit) go to mountain_pass."""
    u0 = instanton(InstantonParams(eps, 0), grid)
    u1 = instanton(InstantonParams(eps, 1), grid)
    path = mp.straight_path(u0, u1, segments, params.alpha, params.p)
    return path, mp.mountain_pass(path, params, **options)


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
            _, res = timed("beta", lambda: bubble_pass(params, axi_grid, spec.eps))
            levels["beta"] = {
                "value": res.beta,
                "converged": res.converged,
                "grid": axi_grid.descriptor,
                "tol": mp.PASS_TOL,
                "iterations": res.iterations,
                "endpoints": list(res.endpoint_levels),
                "straight_max": res.straight_max,
                "stats": dataclasses.asdict(res.stats),
            }
        except HenonAnnulusError as exc:
            levels["beta"] = _failed_entry(axi_grid.descriptor, mp.PASS_TOL, exc)

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


def _finite_number(value) -> bool:
    """True for a JSON number that is finite and not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


def _check_levels(levels) -> None:
    """Refuse levels that do not map each tag to an object whose value is
    a finite number or null and whose converged, if present, is a bool."""
    if not isinstance(levels, dict):
        raise TypeError("levels must map each level tag to an object")
    for tag, entry in levels.items():
        if not isinstance(entry, dict):
            raise TypeError("levels must map each level tag to an object")
        value = entry.get("value")
        if value is not None and not _finite_number(value):
            raise TypeError(f"{tag} value must be a finite number or null, got {value!r}")
        if not isinstance(entry.get("converged", False), bool):
            raise TypeError(f"{tag} converged must be a bool, got {entry['converged']!r}")


def load_records(path: str) -> list[ResultRecord]:
    """The records of a JSON-lines file; a malformed line names path:line."""
    records = []
    with open(path, encoding="utf-8") as source:
        for lineno, line in enumerate(source, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise TypeError("not a JSON object")
                records.append(ResultRecord.from_json_dict(data))
            except KeyError as exc:
                raise ConfigurationError(f"{path}:{lineno}: record lacks {exc}") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigurationError(f"{path}:{lineno}: {exc}") from None
    return records


def fit_exponent(
    records: list[ResultRecord], level: str, *, force: bool = False
) -> tuple[float, float]:
    """Slope and r-squared of log(level) against log(alpha).

    Needs records at three or more distinct alpha (a p sweep has one), all
    of one sweep: the same p and dim, and the level computed on one grid
    (records are appended to one file, so two sweeps can share it).
    Refuses sweeps containing non-converged or failed entries for the
    chosen level unless force=True; a fit over unreliable points would
    silently corrupt the scaling-exponent claims downstream.
    """
    if level not in LEVEL_CHOICES:
        raise ConfigurationError(f"unknown level {level!r}")
    if len({record.alpha for record in records}) < 3:
        raise ConfigurationError("exponent fit needs records at 3 or more distinct alpha")
    sweeps = {(record.p, record.dim) for record in records}
    if len(sweeps) > 1:
        raise ConfigurationError(f"records mix sweeps: (p, dim) = {sorted(sweeps)}")
    xs, ys, grids = [], [], set()
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
        grids.add(entry.get("grid"))
    if len(grids) > 1:
        raise ConfigurationError(f"{level} entries mix grids: {sorted(grids, key=str)}")
    xs_arr, ys_arr = np.array(xs), np.array(ys)
    slope, intercept = np.polyfit(xs_arr, ys_arr, 1)
    predicted = slope * xs_arr + intercept
    ss_res = float(np.sum((ys_arr - predicted) ** 2))
    ss_tot = float(np.sum((ys_arr - ys_arr.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r_squared


def chain_check(record: ResultRecord, *, tol: float = CHAIN_TOL) -> dict[str, str]:
    """Level-ordering report: each inequality is pass, fail, or skipped.

    A row passes when lower <= upper + tol * max(1, |reference|) and is
    skipped when a side is missing. S_rad, S, T take part only when converged
    (their values are otherwise meaningless); beta takes part whenever
    present, because the path maximum upper-bounds the pass level by
    construction even when the argmax node is not yet critical.
    """

    def value(name):
        entry = record.levels.get(name)
        if entry is None or (name != "beta" and not entry.get("converged", False)):
            return None
        return entry.get("value")

    s_rad, s, t, beta = (value(n) for n in LEVEL_CHOICES)
    endpoints = record.levels["beta"].get("endpoints") if beta is not None else None
    report = {}
    for name, lower, upper, reference in (
        ("S<=S_rad", s, s_rad, s_rad),
        ("S<=T", s, t, t),
        ("beta>=endpoints", max(endpoints) if endpoints else None, beta, beta),
        ("beta>=T", t, beta, t),
    ):
        if lower is None or upper is None:
            report[name] = "skipped"
        else:
            ok = lower <= upper + tol * max(1.0, abs(reference))
            report[name] = "pass" if ok else "fail"
    return report


def write_levels_csv(records: list[ResultRecord], path) -> None:
    """Flat one-row-per-level summary for plotting.

    One row per (alpha, p, level_tag, value, converged, grid), levels in
    LEVEL_CHOICES order; a failed level has an empty value cell. ``path``
    is a filename or any open text stream (the CLI passes stdout).
    """
    rows = [["alpha", "p", "level_tag", "value", "converged", "grid"]]
    for record in records:
        for tag in LEVEL_CHOICES:
            entry = record.levels.get(tag)
            if entry is None:
                continue
            value = entry.get("value")
            rows.append([
                f"{record.alpha:.17g}",
                f"{record.p:.17g}",
                tag,
                "" if value is None else f"{value:.17g}",
                str(bool(entry.get("converged", False))).lower(),
                entry.get("grid", ""),
            ])
    if hasattr(path, "write"):
        csv.writer(path).writerows(rows)
        return
    with open(path, "w", encoding="utf-8", newline="") as sink:
        csv.writer(sink).writerows(rows)


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
