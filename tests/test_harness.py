"""Sweep orchestration, persistence, exponent fits, and the level chain."""

import io
import json
import math
import time

import pytest

from henon_annulus import minimize
from henon_annulus import (
    ConfigurationError,
    ContractViolationError,
    DiscreteField,
    DomainError,
    ResultRecord,
    SweepSpec,
    chain_check,
    fit_exponent,
    load_records,
    run_sweep,
    write_levels_csv,
    write_snapshot,
)
from henon_annulus.harness import LEVEL_CHOICES, append_records


def _record(alpha, levels):
    return ResultRecord(alpha=alpha, p=4.0, dim=3, seed=0, levels=levels)


def _entry(value, converged=True, **extra):
    entry = {"value": value, "converged": converged, "grid": "synthetic", "tol": 1e-10}
    entry.update(extra)
    return entry


class TestSweepSpec:
    def test_point_params_both_axes(self):
        spec = SweepSpec(axis="alpha", values=(1.0, 2.0), fixed=4.0)
        params = spec.point_params(2.0)
        assert (params.alpha, params.p) == (2.0, 4.0)
        spec = SweepSpec(axis="p", values=(3.0, 4.0), fixed=1.0)
        params = spec.point_params(3.0)
        assert (params.alpha, params.p) == (1.0, 3.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(axis="beta", values=(1.0,), fixed=4.0)
        with pytest.raises(ConfigurationError):
            SweepSpec(axis="alpha", values=(), fixed=4.0)
        with pytest.raises(ConfigurationError):
            SweepSpec(axis="alpha", values=(2.0, 1.0), fixed=4.0)
        with pytest.raises(ConfigurationError):
            SweepSpec(axis="alpha", values=(1.0, 1.0), fixed=4.0)
        with pytest.raises(ConfigurationError):
            SweepSpec(axis="alpha", values=(1.0,), fixed=4.0, levels=())
        with pytest.raises(ConfigurationError):
            SweepSpec(axis="alpha", values=(1.0,), fixed=4.0, levels=("ground",))

    @pytest.mark.parametrize(
        "name,value,error",
        [
            ("ctol", 0.0, ConfigurationError),
            ("ctol", -1e-4, ConfigurationError),
            ("ctol", math.nan, ConfigurationError),
            ("ctol", math.inf, ConfigurationError),
            ("eps", 0.0, DomainError),
            ("eps", 0.5, DomainError),
            ("delta", 0.0, ConfigurationError),
            ("delta", 0.5, ConfigurationError),
        ],
    )
    def test_refuses_malformed_tolerances(self, name, value, error):
        # refused up front, whichever levels the sweep asks for
        with pytest.raises(error):
            SweepSpec(axis="alpha", values=(1.0,), fixed=4.0, **{name: value})


@pytest.fixture(scope="module")
def radial_sweep():
    spec = SweepSpec(axis="alpha", values=(2.0, 4.0, 8.0), fixed=4.0, n_radial=200)
    return spec, run_sweep(spec)


def _without_timings(record):
    d = record.to_json_dict()
    d.pop("timings")
    return d


class TestRunSweep:
    def test_ordered_and_converged(self, radial_sweep):
        spec, records = radial_sweep
        assert [r.alpha for r in records] == [2.0, 4.0, 8.0]
        for record in records:
            entry = record.levels["S_rad"]
            assert entry["converged"]
            assert entry["value"] > 0.0
            assert entry["stats"]["teleports_tried"] >= entry["stats"]["teleports_accepted"]
            assert "S_rad" in record.timings
            assert record.concentration is None

    def test_levels_increase_along_alpha(self, radial_sweep):
        _, records = radial_sweep
        values = [r.levels["S_rad"]["value"] for r in records]
        assert values == sorted(values)

    def test_jsonl_round_trip(self, radial_sweep, tmp_path):
        _, records = radial_sweep
        path = tmp_path / "records.jsonl"
        append_records(records, str(path))
        loaded = load_records(str(path))
        assert [r.to_json_dict() for r in loaded] == [
            r.to_json_dict() for r in records
        ]
        append_records(records[:1], str(path))
        assert len(load_records(str(path))) == 4

    def test_out_path_written_by_sweep(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        spec = SweepSpec(axis="alpha", values=(2.0, 4.0, 8.0), fixed=4.0, n_radial=100)
        records = run_sweep(spec, out_path=str(out))
        with open(out) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert lines == [r.to_json_dict() for r in records]

    def test_deterministic(self, radial_sweep):
        # identical levels, fields, and diagnostics on a rerun; only the
        # wall-clock timings may differ
        spec, records = radial_sweep
        again = run_sweep(spec)
        assert [_without_timings(r) for r in again] == [
            _without_timings(r) for r in records
        ]

    def test_timings_within_wall_time(self):
        # each point's timings are its own wall time, so together they fit
        # inside the sweep's
        spec = SweepSpec(axis="alpha", values=(2.0, 4.0, 8.0, 16.0), fixed=4.0, n_radial=400)
        t0 = time.perf_counter()
        records = run_sweep(spec)
        wall = time.perf_counter() - t0
        recorded = sum(sum(r.timings.values()) for r in records)
        assert 0.0 < recorded <= wall

    def test_failure_persists_finished_points(self, tmp_path, monkeypatch):
        solved = []
        real = minimize.solve_radial

        def failing(params, grid, **kwargs):
            solved.append(params.alpha)
            if params.alpha == 4.0:
                raise RuntimeError("solver crashed")
            return real(params, grid, **kwargs)

        monkeypatch.setattr(minimize, "solve_radial", failing)
        out = tmp_path / "sweep.jsonl"
        spec = SweepSpec(axis="alpha", values=(2.0, 4.0, 8.0), fixed=4.0, n_radial=100)
        with pytest.raises(RuntimeError, match="solver crashed"):
            run_sweep(spec, out_path=str(out))
        (record,) = load_records(str(out))
        assert record.alpha == 2.0
        assert record.levels["S_rad"]["converged"]
        assert solved == [2.0, 4.0]

    def test_ground_point_has_concentration(self):
        spec = SweepSpec(
            axis="alpha",
            values=(1.0,),
            fixed=4.0,
            levels=("S",),
            n_radial=100,
            nr=48,
            ntheta=16,
        )
        (record,) = run_sweep(spec)
        assert record.levels["S"]["converged"]
        assert record.concentration is not None
        assert {"lambda", "xi", "barycenter"} <= set(record.concentration)


class TestFitExponent:
    def test_exact_power_law(self):
        records = [
            _record(a, {"S_rad": _entry(3.7 * a**1.5)}) for a in (2.0, 4.0, 8.0, 16.0)
        ]
        slope, r2 = fit_exponent(records, "S_rad")
        assert slope == pytest.approx(1.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_refuses_unconverged_unless_forced(self):
        records = [
            _record(2.0, {"S_rad": _entry(10.0)}),
            _record(4.0, {"S_rad": _entry(20.0, converged=False)}),
            _record(8.0, {"S_rad": _entry(40.0)}),
        ]
        with pytest.raises(ContractViolationError):
            fit_exponent(records, "S_rad")
        slope, _ = fit_exponent(records, "S_rad", force=True)
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_requires_three_records(self):
        records = [_record(a, {"S_rad": _entry(a)}) for a in (2.0, 4.0)]
        with pytest.raises(ConfigurationError):
            fit_exponent(records, "S_rad")

    def test_unknown_level(self):
        with pytest.raises(ConfigurationError):
            fit_exponent([], "ground")

    def test_missing_level_entry(self):
        records = [_record(a, {}) for a in (2.0, 4.0, 8.0)]
        with pytest.raises(ContractViolationError):
            fit_exponent(records, "S_rad")

    def test_failed_value_rejected(self):
        records = [
            _record(2.0, {"S_rad": _entry(10.0)}),
            _record(4.0, {"S_rad": _entry(None, converged=True)}),
            _record(8.0, {"S_rad": _entry(40.0)}),
        ]
        with pytest.raises(ContractViolationError):
            fit_exponent(records, "S_rad", force=True)


class TestChainCheck:
    def test_all_pass(self):
        record = _record(
            1.0,
            {
                "S_rad": _entry(15.0),
                "S": _entry(14.0),
                "T": _entry(17.0),
                "beta": _entry(17.5, endpoints=[14.0, 15.1]),
            },
        )
        assert chain_check(record) == {
            "S<=S_rad": "pass",
            "S<=T": "pass",
            "beta>=endpoints": "pass",
            "beta>=T": "pass",
        }

    def test_violations_fail(self):
        record = _record(
            1.0,
            {
                "S_rad": _entry(14.0),
                "S": _entry(15.0),
                "T": _entry(13.0),
                "beta": _entry(12.0, endpoints=[14.0, 15.1]),
            },
        )
        report = chain_check(record)
        assert report["S<=S_rad"] == "fail"
        assert report["S<=T"] == "fail"
        assert report["beta>=endpoints"] == "fail"
        assert report["beta>=T"] == "fail"

    def test_missing_or_unconverged_skips(self):
        record = _record(
            1.0,
            {
                "S_rad": _entry(15.0, converged=False),
                "S": _entry(14.0),
                "beta": _entry(17.5),
            },
        )
        report = chain_check(record)
        assert report["S<=S_rad"] == "skipped"
        assert report["S<=T"] == "skipped"
        assert report["beta>=endpoints"] == "skipped"
        assert report["beta>=T"] == "skipped"

    def test_unconverged_beta_still_bounds(self):
        # the path maximum upper-bounds the pass level even mid-descent,
        # so a non-converged beta still participates
        record = _record(
            1.0,
            {
                "T": _entry(17.0),
                "beta": _entry(17.5, converged=False, endpoints=[14.0, 15.1]),
            },
        )
        report = chain_check(record)
        assert report["beta>=T"] == "pass"
        assert report["beta>=endpoints"] == "pass"

    def test_near_tie_within_tolerance(self):
        record = _record(
            1.0, {"S_rad": _entry(15.0), "S": _entry(15.0 + 1e-10), "T": _entry(15.0)}
        )
        report = chain_check(record)
        assert report["S<=S_rad"] == "pass"


class TestWriters:
    def test_levels_csv_file_and_stream(self, tmp_path):
        record = _record(
            1.0,
            {
                "S_rad": _entry(15.0),
                "beta": _entry(None, converged=False, endpoints=[1.0, 2.0]),
            },
        )
        buf = io.StringIO()
        write_levels_csv([record], buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "alpha,p,level_tag,value,converged,grid"
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "S_rad"
        assert lines[2].split(",")[3] == ""

        path = tmp_path / "levels.csv"
        write_levels_csv([record], str(path))
        assert path.read_text().strip().splitlines() == lines

    def test_level_rows_follow_declared_order(self):
        record = _record(1.0, {tag: _entry(1.0) for tag in LEVEL_CHOICES})
        buf = io.StringIO()
        write_levels_csv([record], buf)
        tags = [line.split(",")[2] for line in buf.getvalue().strip().splitlines()[1:]]
        assert tuple(tags) == LEVEL_CHOICES

    def test_snapshot_radial(self, radial_grid, tmp_path):
        u = DiscreteField.sampled(radial_grid, lambda r: (r - 1.0) * (3.0 - r))
        path = tmp_path / "radial.csv"
        write_snapshot(u, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == f"# grid: {radial_grid.descriptor}"
        assert lines[2] == "r,value"
        assert len(lines) == 3 + radial_grid.nodes.size

    def test_snapshot_axi(self, axi_grid_small, tmp_path):
        u = DiscreteField.sampled(axi_grid_small, lambda r, t: (r - 1.0) * (3.0 - r))
        path = tmp_path / "axi.csv"
        write_snapshot(u, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == f"# grid: {axi_grid_small.descriptor}"
        assert lines[3] == "r,theta,value"
        assert len(lines) == 4 + u.values.size
