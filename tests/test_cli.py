"""Command-line surface: subcommands, exit codes, argument files, formats."""

import argparse
import csv
import importlib
import json
import logging
import math

import pytest

from henon_annulus import ConfigurationError, NonConvergenceError, cli, minimize
from henon_annulus.cli import (
    EXIT_INVALID,
    EXIT_NONCONVERGED,
    EXIT_OK,
    build_parser,
    main,
)


def _run_json(argv, out_path):
    rc = main([*argv, "--out", str(out_path)])
    with open(out_path) as fh:
        return rc, json.load(fh)


def _exit_code(argv) -> int:
    """main's code, whether it returns it or the parser raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


SMALL_AXI = ["--nr", "48", "--ntheta", "16"]


def _command_dests() -> dict[str, set[str]]:
    """Every subcommand's option and positional dests, as the parser has them."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {a.dest for a in cmd._actions if a.dest != "help"}
        for name, cmd in sub.choices.items()
    }


def _pass_sweeps(caplog):
    """(sweep, argmax node, quotients) of each mountain-pass DEBUG record."""
    sweeps = []
    for record in caplog.records:
        if record.name == "henon_annulus.mountain_pass" and record.levelno == logging.DEBUG:
            number, argmax, text = record.args
            sweeps.append((number, argmax, [float(q) for q in text.split()]))
    return sweeps


def _unconverged_records(path):
    rows = []
    for alpha in (2.0, 4.0, 8.0):
        rows.append(
            {
                "alpha": alpha,
                "p": 4.0,
                "dim": 3,
                "levels": {"S_rad": {"value": 5.0 * alpha, "converged": alpha != 4.0}},
                "concentration": None,
                "timings": {},
            }
        )
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


def _option_values(tmp_path) -> dict:
    """A test value for every option and positional of any command."""
    return {
        "out": str(tmp_path / "out"), "format": "json",
        "log_level": "warning", "alpha": "1", "p": "4", "dim": "3", "nr": "48",
        "ntheta": "16", "tol": "1e-10", "snapshot": str(tmp_path / "snap.csv"),
        "ctol": "1e-4", "eps": "1e-3", "delta": "0.25",
        "segments": "9", "maxit": "1",
        "axis": "alpha", "values": "2,4", "levels": "S_rad", "n_radial": "100",
        "level": "S_rad",
        "records": str(_unconverged_records(tmp_path / "records.jsonl")),
    }


def _all_options(command, values) -> list[tuple[str, ...]]:
    """Every argument of the command with its test value, positional first."""
    dests = _command_dests()[command]
    options = [(values["records"],)] if "records" in dests else []
    for dest in sorted(dests - {"records"}):
        flag = "--" + dest.replace("_", "-")
        options.append((flag,) if dest == "force" else (flag, values[dest]))
    return options


def _payload(path) -> list[dict]:
    """The JSON objects a command wrote, without their wall times."""
    text = path.read_text()
    try:
        objects = [json.loads(text)]
    except json.JSONDecodeError:
        objects = [json.loads(line) for line in text.splitlines()]
    for obj in objects:
        obj.pop("elapsed", None)
        obj.pop("timings", None)
    return objects


class TestSolveCommands:
    def test_solve_radial_payload(self, tmp_path):
        rc, payload = _run_json(
            ["solve-radial", "--alpha", "1", "--p", "4", "--nr", "100"],
            tmp_path / "out.json",
        )
        assert rc == EXIT_OK
        assert payload["level_tag"] == "S_rad"
        assert payload["converged"] is True
        assert payload["params"] == {"dim": 3, "alpha": 1.0, "p": 4.0}
        assert payload["value"] > 0.0
        assert payload["elapsed"] >= 0.0
        assert payload["grid"].startswith("radial(n=100,")

    def test_linear_validation_case(self, tmp_path):
        rc, payload = _run_json(
            ["solve-radial", "--alpha", "0", "--p", "2", "--nr", "200"],
            tmp_path / "out.json",
        )
        assert rc == EXIT_OK
        assert payload["value"] == pytest.approx(math.pi**2 / 4.0, rel=1e-3)

    def test_solve_ground(self, tmp_path):
        rc, payload = _run_json(
            ["solve-ground", "--alpha", "1", "--p", "4", *SMALL_AXI],
            tmp_path / "out.json",
        )
        assert rc == EXIT_OK
        assert payload["level_tag"] == "S"
        assert payload["converged"] is True

    def test_solve_sigma(self, tmp_path):
        rc, payload = _run_json(
            ["solve-sigma", "--alpha", "1", "--p", "4", *SMALL_AXI],
            tmp_path / "out.json",
        )
        assert rc == EXIT_OK
        assert payload["level_tag"] == "T"
        assert abs(payload["constraint_defect"]) < 1e-2

    def test_solve_lambda(self, tmp_path):
        rc, payload = _run_json(
            ["solve-lambda", "--alpha", "1", "--p", "5.5", *SMALL_AXI],
            tmp_path / "out.json",
        )
        assert rc == EXIT_OK
        assert payload["level_tag"] == "lambda"
        assert payload["escaped"] is False

    def test_radial_snapshot(self, tmp_path):
        snap = tmp_path / "field.csv"
        rc = main(
            [
                "solve-radial", "--alpha", "1", "--p", "4", "--nr", "100",
                "--out", str(tmp_path / "o.json"), "--snapshot", str(snap),
            ]
        )
        assert rc == EXIT_OK
        lines = snap.read_text().splitlines()
        assert lines[0].startswith("# grid: radial(")
        assert lines[2] == "r,value"
        assert len(lines) == 3 + 101

    def test_axi_snapshot(self, tmp_path):
        snap = tmp_path / "field.csv"
        rc = main(
            [
                "solve-ground", "--alpha", "1", "--p", "4", *SMALL_AXI,
                "--out", str(tmp_path / "o.json"), "--snapshot", str(snap),
            ]
        )
        assert rc == EXIT_OK
        lines = snap.read_text().splitlines()
        assert lines[3] == "r,theta,value"
        assert len(lines) == 4 + 49 * 17

    def test_csv_format(self, tmp_path):
        # one result is one JSON object; only a sweep has a table to print
        out = tmp_path / "out.csv"
        argv = ["solve-radial", "--alpha", "1", "--p", "4", "--nr", "100"]
        assert _exit_code([*argv, "--format", "csv", "--out", str(out)]) == EXIT_INVALID
        assert not out.exists()


class TestLevelTable:
    # command: (the minimize solver it runs, its grid options, the grid)
    SOLVERS = {
        "solve-radial": ("solve_radial", ["--nr", "100"], "radial(n=100,graded(40),N=3)"),
        "solve-ground": ("solve_ground", SMALL_AXI, "axi(48x16,graded(r40,t30))"),
        "solve-sigma": ("solve_sigma", SMALL_AXI, "axi(48x16,graded(r40,t30))"),
        "solve-lambda": ("solve_lambda", SMALL_AXI, "axi(48x16,graded(r40,t30))"),
    }

    @pytest.mark.parametrize("command", sorted(SOLVERS))
    def test_solver_is_looked_up_at_call_time(self, command, tmp_path, monkeypatch):
        # a patch on minimize reaches the command as it reaches the sweep,
        # and the command solves on its level's grid kind: graded radial
        # for S_rad, graded-polar axisymmetric for the others
        solver, grid_args, descriptor = self.SOLVERS[command]
        real = getattr(minimize, solver)
        calls = []

        def recorder(params, grid, **options):
            calls.append((grid, options))
            return real(params, grid, **options)

        monkeypatch.setattr(minimize, solver, recorder)
        rc, payload = _run_json([command, "--alpha", "1", "--p", "5.5", *grid_args],
                                tmp_path / "out.json")
        assert rc == EXIT_OK
        ((grid, options),) = calls
        assert options == {}
        assert grid.descriptor == descriptor == payload["grid"]


class TestMountainPass:
    def test_budgeted_run_reports_nonconvergence(self, tmp_path, caplog):
        rc, payload = _run_json(
            [
                "mountain-pass", "--alpha", "1", "--p", "4", *SMALL_AXI,
                "--segments", "9", "--maxit", "3", "--log-level", "debug",
            ],
            tmp_path / "out.json",
        )
        assert rc == EXIT_NONCONVERGED
        assert payload["converged"] is False
        assert payload["value"] >= max(payload["endpoints"]) * (1 - 1e-12)
        assert payload["value"] <= payload["straight_max"] * (1 + 1e-12)
        assert 1 <= payload["crossing_index"] <= payload["segments"]
        assert 0.0 <= payload["asymmetry_index"] <= 1.0
        sweeps = _pass_sweeps(caplog)
        assert [number for number, _, _ in sweeps] == [1, 2, 3]
        # the per-sweep path maximum never increases, and ends at beta
        maxima = [max(quotients) for _, _, quotients in sweeps]
        assert all(b <= a * (1.0 + 1e-10) for a, b in zip(maxima, maxima[1:]))
        assert maxima[-1] == payload["value"]
        assert all(len(quotients) == 10 for _, _, quotients in sweeps)
        stats = payload["stats"]
        assert set(stats) == {
            "inverse_power_steps", "gradient_steps", "backtracks", "teleports_tried",
            "teleports_accepted", "teleports_refused", "shift_increases", "linear_solves",
            "krylov_iterations", "krylov_capped",
        }
        assert all(isinstance(v, int) and v >= 0 for v in stats.values())
        assert stats["teleports_accepted"] + stats["teleports_refused"] == stats["teleports_tried"]


def _key_order(line: str) -> list[list[str]]:
    """The keys of every object of a JSON line in the order written, inner
    objects first."""
    keys: list[list[str]] = []
    json.loads(line, object_pairs_hook=lambda pairs: keys.append([k for k, _ in pairs]))
    return keys


class TestDefaultOutputs:
    def test_solve_payload_to_stdout(self, tmp_path, capsys):
        argv = ["solve-radial", "--alpha", "1", "--p", "4", "--nr", "100"]
        assert main(argv) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        rc, written = _run_json(argv, tmp_path / "out.json")
        assert rc == EXIT_OK
        assert printed["params"] == {"dim": 3, "alpha": 1.0, "p": 4.0}
        printed.pop("elapsed")
        written.pop("elapsed")
        assert printed == written

    def test_sweep_stdout_matches_out_file(self, tmp_path, capsys):
        # one serializer for both sinks: the same keys in the same order,
        # the same records up to their wall times
        argv = ["sweep", "--axis", "alpha", "--values", "2,4", "--p", "4", "--n-radial", "100"]
        assert main(argv) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        out = tmp_path / "records.jsonl"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        written = out.read_text().splitlines()
        assert len(printed) == len(written) == 2
        assert [_key_order(line) for line in printed] == [_key_order(line) for line in written]
        stdout_file = tmp_path / "stdout.jsonl"
        stdout_file.write_text("\n".join(printed) + "\n")
        assert _payload(stdout_file) == _payload(out)

    def test_nonconvergence_exits_nonconverged(self, monkeypatch, capsys):
        # a residual bound no field meets: solve_ground raises
        # NonConvergenceError, which main maps to exit 2
        monkeypatch.setattr(minimize, "RESIDUAL_TOL", -1.0)
        assert main(["solve-ground", "--alpha", "1", "--p", "4", *SMALL_AXI]) == EXIT_NONCONVERGED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no initial guess converged: ")


class TestSweepAndFit:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "levels.csv"
        rc = main(
            [
                "sweep", "--axis", "alpha", "--values", "2,4,8", "--p", "4",
                "--n-radial", "100", "--format", "csv", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["alpha", "p", "level_tag", "value", "converged", "grid"]
        assert [r[0] for r in rows[1:]] == ["2", "4", "8"]
        assert all(r[4] == "true" for r in rows[1:])

    def test_sweep_jsonl_then_fit(self, tmp_path):
        records = tmp_path / "records.jsonl"
        rc = main(
            [
                "sweep", "--axis", "alpha", "--values", "2,4,8", "--p", "4",
                "--n-radial", "100", "--out", str(records),
            ]
        )
        assert rc == EXIT_OK
        lines = [json.loads(line) for line in records.read_text().splitlines() if line]
        assert [entry["alpha"] for entry in lines] == [2.0, 4.0, 8.0]

        rc, payload = _run_json(["fit", str(records)], tmp_path / "fit.json")
        assert rc == EXIT_OK
        assert payload["records"] == 3
        assert payload["level"] == "S_rad"
        assert math.isfinite(payload["slope"])
        assert 0.0 <= payload["r_squared"] <= 1.0

    def _entry_and_payload(self, tmp_path, level, command, point):
        """The sweep's entry for level at alpha = 1, tol dropped, and the
        payload of command at the same point."""
        rc, single = _run_json([command, "--alpha", "1", *point], tmp_path / "one.json")
        assert rc == EXIT_OK
        out = tmp_path / "records.jsonl"
        rc = main(["sweep", "--axis", "alpha", "--values", "1", *point, "--levels", level,
                   "--out", str(out)])
        assert rc == EXIT_OK
        (record,) = [json.loads(line) for line in out.read_text().splitlines()]
        entry = record["levels"][level]
        entry.pop("tol")
        return entry, single

    # Both front ends print one result's to_json_dict(): every key of the
    # sweep entry but tol is in the payload, with the same value bit for bit.
    def test_sweep_beta_is_the_mountain_pass(self, tmp_path):
        entry, single = self._entry_and_payload(
            tmp_path, "beta", "mountain-pass", ["--p", "5.5", *SMALL_AXI, "--eps", "1e-3"])
        assert set(entry) == {"value", "converged", "iterations", "endpoints", "straight_max",
                              "grid", "stats"}
        assert {key: single[key] for key in entry} == entry

    def test_sweep_ground_is_solve_ground(self, tmp_path):
        entry, single = self._entry_and_payload(
            tmp_path, "S", "solve-ground", ["--p", "4", *SMALL_AXI])
        assert set(entry) == {"value", "level_tag", "converged", "constraint_defect",
                              "iterations", "residual", "grid", "init_tag", "escaped", "stats"}
        assert {key: single[key] for key in entry} == entry

    def test_unconverged_beta_exits_nonconverged(self, tmp_path, monkeypatch):
        # a pass cut after one sweep is recorded unconverged, and the sweep
        # exits 2 as `mountain-pass --maxit 1` does
        passes = importlib.import_module("henon_annulus.mountain_pass")
        full = passes.mountain_pass
        monkeypatch.setattr(
            passes, "mountain_pass", lambda path, params: full(path, params, maxit=1)
        )
        out = tmp_path / "records.jsonl"
        rc = main(
            [
                "sweep", "--axis", "alpha", "--values", "1", "--p", "4", *SMALL_AXI,
                "--levels", "beta", "--out", str(out),
            ]
        )
        (record,) = [json.loads(line) for line in out.read_text().splitlines()]
        beta = record["levels"]["beta"]
        assert beta["converged"] is False and beta["iterations"] == 1
        assert beta["value"] is not None
        assert rc == EXIT_NONCONVERGED

    def test_failed_level_is_recorded(self, tmp_path, monkeypatch):
        def stalled(params, grid, **kwargs):
            raise NonConvergenceError("every start stalled")

        monkeypatch.setattr(minimize, "solve_ground", stalled)
        out = tmp_path / "records.jsonl"
        rc = main(
            [
                "sweep", "--axis", "alpha", "--values", "1", "--p", "4", *SMALL_AXI,
                "--n-radial", "100", "--levels", "S_rad,S", "--out", str(out),
            ]
        )
        assert rc == EXIT_NONCONVERGED
        (record,) = [json.loads(line) for line in out.read_text().splitlines()]
        ground = record["levels"]["S"]
        assert ground["value"] is None and ground["converged"] is False
        assert ground["error"] == "NonConvergenceError: every start stalled"
        # the other level of the point is still solved and recorded
        assert record["levels"]["S_rad"]["converged"] is True
        assert record["levels"]["S_rad"]["value"] > 0.0
        assert record["concentration"] is None

    def test_fit_refuses_mixed_sweeps(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        for p, n in (("4", "100"), ("3", "200")):
            argv = ["sweep", "--axis", "alpha", "--values", "2,4,8", "--p", p,
                    "--n-radial", n, "--out", str(records)]
            assert main(argv) == EXIT_OK
        assert main(["fit", str(records)]) == EXIT_INVALID
        assert "mix" in capsys.readouterr().err

    def test_fit_refuses_unconverged_without_force(self, tmp_path):
        records = _unconverged_records(tmp_path / "records.jsonl")
        assert main(["fit", str(records)]) == EXIT_INVALID
        rc, payload = _run_json(["fit", str(records), "--force"], tmp_path / "f.json")
        assert rc == EXIT_OK
        assert payload["slope"] == pytest.approx(1.0, abs=1e-12)

    def test_fit_skips_blank_lines(self, tmp_path):
        records = _unconverged_records(tmp_path / "records.jsonl")
        plain = _run_json(["fit", str(records), "--force"], tmp_path / "plain.json")
        first, *rest = records.read_text().splitlines()
        records.write_text("\n" + first + "\n  \n\t\n" + "\n\n".join(rest) + "\n\n")
        spaced = _run_json(["fit", str(records), "--force"], tmp_path / "spaced.json")
        assert spaced == plain
        assert spaced[1]["records"] == 3


class TestLogLevel:
    def test_debug_reaches_stderr(self, tmp_path, capsys):
        rc = main(
            [
                "solve-lambda", "--alpha", "1", "--p", "5.5", *SMALL_AXI,
                "--log-level", "debug", "--out", str(tmp_path / "o.json"),
            ]
        )
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert "DEBUG henon_annulus.minimize: teleport from" in err
        assert "accepted" in err

    def test_default_level_is_quiet(self, tmp_path, capsys):
        rc = main(
            [
                "solve-lambda", "--alpha", "1", "--p", "5.5", *SMALL_AXI,
                "--out", str(tmp_path / "o.json"),
            ]
        )
        assert rc == EXIT_OK
        assert "teleport" not in capsys.readouterr().err

    def test_bad_level_exits_invalid(self):
        with pytest.raises(SystemExit) as err:
            main(["solve-radial", "--alpha", "1", "--p", "4", "--log-level", "LOUD"])
        assert err.value.code == EXIT_INVALID

    def test_bad_level_in_config_exits_invalid(self, tmp_path):
        args = tmp_path / "run.args"
        args.write_text("--log-level chatty\n")
        argv = ["solve-radial", "--alpha", "1", "--p", "4", f"@{args}"]
        assert _exit_code(argv) == EXIT_INVALID


class TestConfigFile:
    """An @FILE's arguments go through the parser as if typed in its place."""

    def test_config_supplies_and_cli_overrides(self, tmp_path):
        args = tmp_path / "run.args"
        args.write_text("# fixture arguments\n--alpha 1.0\n--p 4.0 --nr 100\n")
        rc, payload = _run_json(["solve-radial", f"@{args}"], tmp_path / "a.json")
        assert rc == EXIT_OK
        assert payload["params"]["alpha"] == 1.0

        rc, payload = _run_json(
            ["solve-radial", f"@{args}", "--alpha", "2"], tmp_path / "b.json"
        )
        assert rc == EXIT_OK
        assert payload["params"]["alpha"] == 2.0

    def test_hyphenated_keys_and_comments(self, tmp_path):
        args = tmp_path / "run.args"
        args.write_text("--n-radial 100  # small grid\n\n  # only a comment\n--axis 'alpha'\n")
        parsed = build_parser().parse_args(["sweep", f"@{args}"])
        assert (parsed.n_radial, parsed.axis) == (100, "alpha")

    def test_malformed_config_exits_invalid(self, tmp_path, capsys):
        args = tmp_path / "run.args"
        for text in ('--alpha "1.0\n', "alpha = 1.0\np = 4\n"):
            args.write_text(text)
            assert _exit_code(["solve-radial", f"@{args}"]) == EXIT_INVALID
        assert "alpha = 1.0" in capsys.readouterr().err

    def test_missing_file_exits_invalid(self, tmp_path, capsys):
        missing = tmp_path / "absent.args"
        argv = ["solve-radial", "--alpha", "1", "--p", "4", f"@{missing}"]
        assert _exit_code(argv) == EXIT_INVALID
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key",
        [("solve-sigma", "ctl"), ("solve-radial", "segments"), ("solve-radial", "config")],
    )
    def test_key_naming_no_option_exits_invalid(self, tmp_path, capsys, command, key):
        args = tmp_path / "run.args"
        args.write_text(f"--alpha 1\n--p 4\n--{key} 1e-9\n")
        assert _exit_code([command, *SMALL_AXI[:2], f"@{args}"]) == EXIT_INVALID
        assert f"--{key}" in capsys.readouterr().err

    def test_bad_choice_in_config_exits_invalid(self, tmp_path):
        args = tmp_path / "run.args"
        args.write_text("--format xml\n")
        argv = ["solve-radial", "--alpha", "1", "--p", "4", "--nr", "100", f"@{args}"]
        assert _exit_code(argv) == EXIT_INVALID

    def test_force_from_config(self, tmp_path):
        records = _unconverged_records(tmp_path / "records.jsonl")
        args = tmp_path / "run.args"
        args.write_text("--force\n")
        rc, payload = _run_json(["fit", str(records), f"@{args}"], tmp_path / "f.json")
        assert rc == EXIT_OK
        assert payload["slope"] == pytest.approx(1.0, abs=1e-12)

        args.write_text("# no switch\n")
        assert main(["fit", str(records), f"@{args}"]) == EXIT_INVALID
        args.write_text("--force maybe\n")
        assert _exit_code(["fit", str(records), f"@{args}"]) == EXIT_INVALID

    @pytest.mark.parametrize("command", sorted(_command_dests()))
    def test_file_matches_command_line(self, command, tmp_path):
        options = [
            pair for pair in _all_options(command, _option_values(tmp_path))
            if pair[0] != "--out"
        ]
        args = tmp_path / "run.args"
        # one option per line, the switch and the positional included
        args.write_text("".join(f"{' '.join(pair)}\n" for pair in options))
        outcomes = []
        for tail, out in (
            ([part for pair in options for part in pair], tmp_path / "line.out"),
            ([f"@{args}"], tmp_path / "file.out"),
        ):
            outcomes.append((_exit_code([command, *tail, "--out", str(out)]), _payload(out)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] in (EXIT_OK, EXIT_NONCONVERGED)


class TestExitCodes:
    def test_missing_required_params(self):
        assert main(["solve-radial"]) == EXIT_INVALID

    def test_invalid_alpha(self):
        assert main(["solve-radial", "--alpha", "-1", "--p", "4"]) == EXIT_INVALID

    def test_supercritical_p(self):
        assert main(["solve-radial", "--alpha", "1", "--p", "7"]) == EXIT_INVALID

    def test_nan_p_names_p(self, capsys):
        assert main(["solve-radial", "--alpha", "1", "--p", "nan"]) == EXIT_INVALID
        assert "p must be >= 2" in capsys.readouterr().err

    def test_nonpositive_ctol(self):
        argv = ["solve-sigma", "--alpha", "1", "--p", "4", *SMALL_AXI, "--ctol", "0"]
        assert main(argv) == EXIT_INVALID

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-radial", "--alpha", "1", "--p", "4", "--nr", "100", "--tol", "-1"],
            ["solve-radial", "--alpha", "1", "--p", "4", "--nr", "100", "--tol", "nan"],
            ["mountain-pass", "--alpha", "1", "--p", "4", *SMALL_AXI, "--tol", "nan"],
        ],
        ids=["radial-negative", "radial-nan", "pass-nan"],
    )
    def test_malformed_tol_exits_invalid(self, argv, capsys):
        # refused before any descent or sweep, not run to its budget
        assert main(argv) == EXIT_INVALID
        assert "tol must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("maxit", ["0", "-1"])
    def test_pass_budget_below_one_exits_invalid(self, tmp_path, capsys, maxit):
        out = tmp_path / "out.json"
        argv = ["mountain-pass", "--alpha", "1", "--p", "4", *SMALL_AXI, "--maxit", maxit]
        assert main([*argv, "--out", str(out)]) == EXIT_INVALID
        assert "maxit must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--p", "4"], "sweep requires --axis and --values"),
            (["--axis", "alpha", "--p", "4"], "sweep requires --axis and --values"),
            (["--values", "2,4", "--p", "4"], "sweep requires --axis and --values"),
            (["--axis", "alpha", "--values", "2,4"],
             "sweep over alpha requires the fixed value --p"),
            (["--axis", "p", "--values", "3,4", "--p", "4"],
             "sweep over p requires the fixed value --alpha"),
        ],
        ids=["no-axis-no-values", "no-values", "no-axis", "alpha-without-p", "p-without-alpha"],
    )
    def test_incomplete_sweep_exits_invalid(self, tmp_path, capsys, argv, message):
        out = tmp_path / "f.jsonl"
        assert main(["sweep", *argv, "--n-radial", "100", "--out", str(out)]) == EXIT_INVALID
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_descending_sweep_values(self):
        rc = main(["sweep", "--axis", "alpha", "--values", "8,4,2", "--p", "4"])
        assert rc == EXIT_INVALID

    def test_unknown_flag_exits_invalid(self):
        with pytest.raises(SystemExit) as err:
            main(["solve-radial", "--nope", "1"])
        assert err.value.code == EXIT_INVALID

    def test_unknown_command_exits_invalid(self):
        with pytest.raises(SystemExit) as err:
            main(["solve-everything"])
        assert err.value.code == EXIT_INVALID

    def test_missing_records_file(self, tmp_path):
        assert main(["fit", str(tmp_path / "absent.jsonl")]) == EXIT_INVALID

    @pytest.mark.parametrize(
        "line",
        [
            json.dumps({"p": 4.0, "dim": 3, "levels": {}}),
            "[1, 2]",
            json.dumps({"alpha": 2.0, "p": 4.0, "dim": 3, "levels": {"S_rad": []}}),
            json.dumps({"alpha": 2.0, "p": 4.0, "dim": 3, "levels": [{"value": 10.0}]}),
            json.dumps({"alpha": 16.0, "p": 4.0, "dim": 3,
                        "levels": {"S_rad": {"value": "x", "converged": True}}}),
            json.dumps({"alpha": 16.0, "p": 4.0, "dim": 3,
                        "levels": {"S_rad": {"value": 80.0, "converged": "yes"}}}),
            json.dumps({"alpha": 16.0, "p": 4.0, "dim": 3,
                        "levels": {"S_rad": {"value": math.nan, "converged": True}}}),
            json.dumps({"alpha": 16.0, "p": 4.0, "dim": 3,
                        "levels": {"S_rad": {"value": math.inf, "converged": True}}}),
            json.dumps({"alpha": "2", "p": 4.0, "dim": 3,
                        "levels": {"S_rad": {"value": 10.0, "converged": True}}}),
            json.dumps({"alpha": True, "p": 4.0, "dim": 3,
                        "levels": {"S_rad": {"value": 5.0, "converged": True}}}),
            json.dumps({"alpha": 16.0, "p": 4.0, "dim": 3.9,
                        "levels": {"S_rad": {"value": 80.0, "converged": True}}}),
            json.dumps({"alpha": 16.0, "p": math.nan, "dim": 3,
                        "levels": {"S_rad": {"value": 80.0, "converged": True}}}),
        ],
        ids=["no-alpha", "not-an-object", "level-not-an-object", "levels-not-an-object",
             "value-not-a-number",
             "converged-not-a-bool", "value-nan", "value-infinity", "alpha-a-string",
             "alpha-a-bool", "dim-not-an-int", "p-nan"],
    )
    def test_malformed_records_exit_invalid(self, tmp_path, capsys, line):
        records = _unconverged_records(tmp_path / "records.jsonl")
        records.write_text(records.read_text() + line + "\n")
        assert main(["fit", str(records), "--force"]) == EXIT_INVALID
        (message,) = capsys.readouterr().err.splitlines()
        assert message.startswith("error: ") and f"{records}:4" in message

    @pytest.mark.parametrize(
        "argv",
        [
            ["--axis", "p", "--values", "4,7", "--alpha", "1", "--levels", "S_rad"],
            ["--axis", "alpha", "--values", "1,2", "--p", "3", "--dim", "4", "--levels", "S",
             *SMALL_AXI],
            ["--axis", "alpha", "--values", "1,2", "--p", "4", "--tol", "nan"],
        ],
        ids=["supercritical-point", "axisymmetric-dim-4", "nan-tol"],
    )
    def test_bad_sweep_refused_before_any_solve(self, tmp_path, monkeypatch, argv):
        solved = []

        def solver(params, grid, **kwargs):
            solved.append(params)
            raise ConfigurationError("no point should be solved")

        monkeypatch.setattr(minimize, "solve_radial", solver)
        monkeypatch.setattr(minimize, "solve_ground", solver)
        out = tmp_path / "f.jsonl"
        assert main(["sweep", *argv, "--n-radial", "100", "--out", str(out)]) == EXIT_INVALID
        assert solved == []
        assert not out.exists()


class TestOptionSurface:
    EXPECTED_COUNTS = {
        "solve-radial": 8,
        "solve-ground": 8,
        "solve-sigma": 9,
        "solve-lambda": 9,
        "mountain-pass": 11,
        "sweep": 16,
        "fit": 4,
    }

    def test_option_counts(self):
        dests = _command_dests()
        counts = {name: len(options - {"records"}) for name, options in dests.items()}
        assert counts == self.EXPECTED_COUNTS
        assert sum(counts.values()) == 65
        assert {name for name, options in dests.items() if "dim" in options} == {
            "solve-radial", "sweep"
        }
        assert {name for name, options in dests.items() if "format" in options} == {"sweep"}
        assert not any("seed" in options for options in dests.values())

    def test_diagnose_is_an_unknown_command(self, capsys):
        # a one-point `sweep --levels S` records S and its concentration report
        argv = ["diagnose", "--alpha", "4", "--p", "4", *SMALL_AXI]
        assert _exit_code(argv) == EXIT_INVALID
        assert "diagnose" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-radial", "--alpha", "1", "--p", "4", "--nr", "100", "--ntheta", "3"],
            ["solve-radial", "--alpha", "1", "--p", "4", "--nr", "100", "--ctol", "-1"],
            ["solve-radial", "--alpha", "1", "--p", "4", "--nr", "100", "--eps", "5"],
            ["solve-radial", "--alpha", "1", "--p", "4", "--nr", "100", "--delta", "9"],
            ["solve-radial", "--alpha", "1", "--p", "4", "--nr", "100", "--seed", "7"],
            ["mountain-pass", "--alpha", "1", "--p", "4", *SMALL_AXI, "--ctol", "-1"],
            ["mountain-pass", "--alpha", "1", "--p", "4", *SMALL_AXI, "--seed", "7"],
            ["sweep", "--axis", "alpha", "--values", "2,4", "--p", "4", "--seed", "7"],
            ["fit", "records.jsonl", "--format", "csv"],
            ["sweep", "--axis", "alpha", "--values", "2,4", "--p", "4", "--snapshot", "f.csv"],
            ["fit", "records.jsonl", "--alpha", "1"],
            ["solve-ground", "--alpha", "1", "--p", "4", *SMALL_AXI, "--dim", "3"],
            ["mountain-pass", "--alpha", "1", "--p", "4", *SMALL_AXI, "--trace", "t.csv"],
        ],
    )
    def test_option_the_command_does_not_read_exits_invalid(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_INVALID


class _Recording(argparse.Namespace):
    """Namespace that notes each public attribute read once _reads is set."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("_reads")
        if reads is not None and not name.startswith("_"):
            reads.add(name)
        return object.__getattribute__(self, name)


class TestOptionContract:
    """Each command reads every option its parser accepts, and no other.

    Every command runs once through main on a small grid with all of its
    options given; the namespace records what the program reads after
    parsing. An option the program never reads would be accepted and
    silently ignored; one it reads but the parser lacks would crash.
    """

    @pytest.mark.parametrize("command", sorted(_command_dests()))
    def test_reads_match_options(self, command, tmp_path, monkeypatch):
        dests = _command_dests()[command]
        values = _option_values(tmp_path)
        assert dests <= set(values) | {"force"}, "give the new option a test value"
        argv = [command] + [part for pair in _all_options(command, values) for part in pair]

        seen = []
        real_build = cli.build_parser

        def recording_parser():
            parser = real_build()
            parse = parser.parse_args

            def parse_recording(args=None):
                namespace = parse(args, namespace=_Recording())
                namespace._reads = set()
                seen.append(namespace)
                return namespace

            parser.parse_args = parse_recording
            return parser

        monkeypatch.setattr(cli, "build_parser", recording_parser)
        try:
            rc = main(argv)
        except AttributeError as exc:
            pytest.fail(f"{command} reads an option its parser lacks: {exc}")
        assert rc in (EXIT_OK, EXIT_NONCONVERGED)
        (namespace,) = seen
        read = namespace._reads - {"command", "handler"}
        assert sorted(dests - read) == [], "accepted but never read"
        assert sorted(read - dests) == [], "read but not accepted"
