import contextlib
import copy
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reformgame
import reformgame.cli
from reformgame import (
    PARAM_RANGES,
    ConvergenceError,
    LeaderType,
    PosteriorConvention,
    ThresholdConvention,
    bundled_path,
    equilibrium_report,
    estimate_equilibrium,
    grid_sweep,
    run_command,
    write_results,
)
from reformgame.sweep import SWEEPABLE_PARAMETERS

from conftest import any_model_params
from test_scenario import solve_payload, write_json, write_with_raw_number


def run(argv):
    return run_command([str(a) for a in argv])


class TestSolve:
    def test_baseline_to_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run(["solve", "--scenario", bundled_path("baseline.json"), "--out", out])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "0.117647058824" in text
        stdout = capsys.readouterr().out
        assert "kappa_star = 0.117647058824" in stdout

    def test_no_out_still_prints_summary(self, capsys):
        assert run(["solve", "--scenario", bundled_path("baseline.json")]) == 0
        assert "equilibrium" in capsys.readouterr().out

    def test_convention_override(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(
            [
                "solve",
                "--scenario",
                bundled_path("baseline.json"),
                "--convention",
                "paper-literal",
                "--out",
                out,
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["convention"] == "paper-literal"
        assert payload["closed_form_gap"] == pytest.approx(32 / 561, rel=1e-9)

    @pytest.mark.parametrize("posterior,p2", [("paper", 0.0), ("bayes", 1.0)])
    def test_zero_effective_gain(self, tmp_path, capsys, posterior, p2):
        payload = solve_payload(params={"leader_type": "partisan", "G2": 1.0, "p2": p2,
                                        "posterior_convention": posterior})
        assert run(["solve", "--scenario", write_json(tmp_path, payload)]) == 0
        assert "kappa_star = 0, x_star = 0.16," in capsys.readouterr().out

    def test_no_followers_at_the_float_gain_bound(self, tmp_path, capsys):
        payload = solve_payload(params={"kappa_max": 0.8, "theta": 0.0,
                                        "Gamma_gain": 1.9999999999999998})
        scenario = write_json(tmp_path, payload)
        assert run(["validate", "--scenario", scenario]) == 0
        assert run(["solve", "--scenario", scenario]) == 0
        assert "kappa_star = 0, x_star = 0," in capsys.readouterr().out

    def test_theta_near_zero_at_the_float_gain_bound(self, tmp_path, capsys):
        # The old closed form's denominator rounded to 0 here (exit 1).
        payload = solve_payload(params={"kappa_max": 0.8, "theta": 1e-17,
                                        "Gamma_gain": 1.9999999999999998})
        assert run(["solve", "--scenario", write_json(tmp_path, payload)]) == 0
        assert "kappa_star = 0.0537714349965, " in capsys.readouterr().out

    def test_posterior_override_changes_partisan_solution(self, tmp_path):
        payload = solve_payload(params={"leader_type": "partisan", "G2": 1.0})
        scenario = write_json(tmp_path, payload)
        out_paper = tmp_path / "paper.json"
        out_bayes = tmp_path / "bayes.json"
        assert run(["solve", "--scenario", scenario, "--out", out_paper,
                    "--format", "json"]) == 0
        assert run(["solve", "--scenario", scenario, "--posterior", "bayes",
                    "--out", out_bayes, "--format", "json"]) == 0
        gain_paper = json.loads(out_paper.read_text())["effective_gain"]
        gain_bayes = json.loads(out_bayes.read_text())["effective_gain"]
        assert gain_paper == pytest.approx(4 / 7, rel=1e-9)
        assert gain_bayes == pytest.approx(0.75, rel=1e-9)


class TestValidate:
    def test_valid_scenario(self, capsys):
        assert run(["validate", "--scenario", bundled_path("baseline.json")]) == 0
        assert "parameters valid" in capsys.readouterr().out

    def test_label_prints_quoted(self, tmp_path, capsys):
        # A control byte in the label reaches stdout escaped, never raw.
        scenario = write_json(tmp_path, solve_payload(label="x\u001b[31my"))
        assert run(["validate", "--scenario", scenario]) == 0
        out = capsys.readouterr().out
        assert "\x1b" not in out
        assert out == ("scenario 'x\\x1b[31my': parameters valid "
                       "(non-partisan policy maker, run = solve)\n")

    def test_gain_bound_violation_exits_one(self, capsys):
        code = run(["validate", "--scenario", bundled_path("bad_gain_bound.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "participant_gain_bound" in err
        assert "a*gamma*Gamma_gain must be < kappa_max" in err


class TestSimulate:
    def test_bundled_scenario(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = run(
            ["simulate", "--scenario", bundled_path("baseline_simulate.json"), "--out", out]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("mean_x,")
        assert "mean_x" in capsys.readouterr().out

    def test_flags_supply_missing_section(self, tmp_path):
        scenario = write_json(tmp_path, solve_payload())
        out = tmp_path / "sim.csv"
        code = run(
            [
                "simulate",
                "--scenario",
                scenario,
                "--agents",
                2000,
                "--replications",
                2,
                "--seed",
                7,
                "--out",
                out,
            ]
        )
        assert code == 0
        assert out.exists()

    def test_missing_settings_exit_two(self, tmp_path, capsys):
        scenario = write_json(tmp_path, solve_payload())
        code = run(["simulate", "--scenario", scenario])
        assert code == 2
        assert "abm" in capsys.readouterr().err

    def test_impossible_population_size_exits_one(self, tmp_path, capsys):
        huge = 10**20
        base = bundled_path("baseline_simulate.json")
        payload = json.loads(base.read_text(encoding="utf-8"))
        payload["abm"]["n"] = huge
        for argv in (["--scenario", base, "--agents", huge],
                     ["--scenario", write_json(tmp_path, payload)]):
            assert run(["simulate", *argv]) == 1
            lines = capsys.readouterr().err.splitlines()
            assert lines == [f"error: population size n must lie in [1, {sys.maxsize // 8}], "
                             f"got {huge}"]

    def test_unallocatable_population_size_exits_one(self, out_of_memory, capsys):
        argv = ["simulate", "--scenario", bundled_path("baseline_simulate.json"),
                "--agents", 10**12]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: population size n = 1000000000000 does not fit in memory\n"

    def test_impossible_replication_count_exits_one(self, tmp_path, capsys):
        # np.empty raised an uncaught "Maximum allowed dimension exceeded".
        huge = 10**20
        base = bundled_path("baseline_simulate.json")
        payload = json.loads(base.read_text(encoding="utf-8"))
        payload["abm"]["replications"] = huge
        for argv in (["--scenario", base, "--replications", huge],
                     ["--scenario", write_json(tmp_path, payload)]):
            assert run(["simulate", *argv]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: replications must lie in [2, {sys.maxsize // 8}], got {huge}"]

    def test_unallocatable_replication_count_exits_one(self, no_result_arrays, capsys):
        argv = ["simulate", "--scenario", bundled_path("baseline_simulate.json"),
                "--replications", 10**15]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: replications = 1000000000000000 does not fit in memory\n"

    def test_seed_override_changes_output(self, tmp_path):
        base = bundled_path("baseline_simulate.json")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run(["simulate", "--scenario", base, "--out", out_a]) == 0
        assert run(["simulate", "--scenario", base, "--seed", 999, "--out", out_b]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()


class TestSweep:
    def test_bundled_scenario(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--scenario", bundled_path("baseline_sweep.json"), "--out", out])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 10  # header + nine grid points
        assert "Increasing" in capsys.readouterr().out

    def test_sweep_requires_section(self, tmp_path):
        scenario = write_json(tmp_path, solve_payload())
        assert run(["sweep", "--scenario", scenario]) == 2

    def test_unknown_parameter_exits_two(self, tmp_path, capsys):
        payload = solve_payload(run="sweep", sweep={"parameter_name": "zeta", "values": [0.1]})
        scenario = write_json(tmp_path, payload)
        out = tmp_path / "sweep.csv"
        for command in ("validate", "sweep"):
            assert run([command, "--scenario", scenario, "--out", out]) == 2
            assert capsys.readouterr().err.splitlines() == [
                "error: sweep.parameter_name must be one of: a, phi, theta, gamma, kappa_max, "
                "Gamma_gain, p1, p2, s, q, w, G2, G3; got 'zeta'"
            ]
            assert not out.exists()

    def test_skipped_points_reach_stderr_and_the_result(self, tmp_path, capsys):
        # kappa_max/(a*gamma) = 2.5: the grid crosses Gamma_gain's range at
        # 0 and the participant gain bound at 2.5.
        grid = [-1.0, 0.0, 1.0, 2.0, 2.4, 2.5, 3.0]
        payload = solve_payload(run="sweep",
                                sweep={"parameter_name": "Gamma_gain", "values": grid})
        scenario = write_json(tmp_path, payload)
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--scenario", scenario, "--format", "json", "--out", out]) == 0
        captured = capsys.readouterr()
        assert captured.out == "sweep over Gamma_gain (3 points): kappa_star is Increasing\n"
        bound = "participant_gain_bound: a*gamma*Gamma_gain must be < kappa_max = 1.0"
        skipped = [
            [-1.0, "field_range: Gamma_gain must be > 0, got -1.0"],
            [0.0, "field_range: Gamma_gain must be > 0, got 0.0"],
            [2.5, f"{bound}, got 1.0 (Gamma_gain = 2.5)"],
            [3.0, f"{bound}, got 1.2000000000000002 (Gamma_gain = 3.0)"],
        ]
        assert captured.err.splitlines() == [
            f"  skipped Gamma_gain = {value:g}: {reason}" for value, reason in skipped]
        result = json.loads(out.read_text(encoding="utf-8"))
        assert result["values"] == [1.0, 2.0, 2.4]
        assert result["skipped"] == skipped


class TestCaseData:
    def test_bundled_table_to_json(self, tmp_path, capsys):
        out = tmp_path / "case.json"
        code = run(
            [
                "case-data",
                "--scenario",
                bundled_path("bancarization.json"),
                "--format",
                "json",
                "--out",
                out,
            ]
        )
        assert code == 0
        records = json.loads(out.read_text(encoding="utf-8"))
        assert len(records) == 6
        assert [r["rate_percent"] for r in records] == [3.1, 33.8, 70.0, 73.9, 75.6, 82.6]
        assert "82.6%" in capsys.readouterr().out

    def test_non_utf8_table_exits_two(self, tmp_path, capsys):
        table = tmp_path / "bad.csv"
        table.write_bytes(b"year,banked_count,total_active\n2011,\xff,3\n")
        payload = solve_payload(run="case-data", case_data={"path": "bad.csv"})
        assert run(["case-data", "--scenario", write_json(tmp_path, payload)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {str(table)!r}: not valid UTF-8 ('utf-8' codec can't decode byte 0xff "
            "in position 36: invalid start byte)"
        ]

    def test_byte_order_mark_table(self, tmp_path, capsys):
        table = tmp_path / "bom.csv"
        table.write_bytes(b"\xef\xbb\xbf" + bundled_path("bancarization.csv").read_bytes())
        payload = solve_payload(run="case-data", case_data={"path": "bom.csv"})
        scenario = write_json(tmp_path, payload)
        assert run(["case-data", "--scenario", scenario]) == 0
        bom_stdout = capsys.readouterr().out
        assert run(["case-data", "--scenario", bundled_path("bancarization.json")]) == 0
        assert bom_stdout == capsys.readouterr().out
        # Past the mark, a byte that is not UTF-8 still exits 2; its position
        # is its offset in the file, the mark's three bytes included.
        table.write_bytes(b"\xef\xbb\xbfyear,banked_count,total_active\n2011,\xff,3\n")
        assert run(["case-data", "--scenario", scenario]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {str(table)!r}: not valid UTF-8 ('utf-8' codec can't decode byte 0xff "
            "in position 39: invalid start byte)"
        ]


BUNDLED_SCENARIOS = sorted(p.name for p in bundled_path("baseline.json").parent.glob("*.json"))


class TestOutFile:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("scenario", BUNDLED_SCENARIOS)
    @pytest.mark.parametrize("command", ["solve", "simulate", "sweep", "validate", "case-data"])
    def test_written_only_by_a_run_with_a_record(self, tmp_path, capsys, command, scenario, fmt):
        # A failed run and validate, which has no record, leave no --out file.
        out = tmp_path / f"out.{fmt}"
        code = run([command, "--scenario", bundled_path(scenario), "--format", fmt, "--out", out])
        capsys.readouterr()
        assert out.exists() == (code == 0 and command != "validate")


MAX_ARRAY = sys.maxsize // 8

# A defect of one bundled scenario that its command rejects before it
# computes: the section edited, the exit code, and the message, in which
# {dir} stands for the scenario's directory.
DEFECTS = [
    pytest.param("baseline_sweep.json", "sweep", {"values": [0.3, 0.2]}, 1,
                 "sweep grid values must be strictly increasing", id="grid-out-of-order"),
    pytest.param("baseline_simulate.json", "abm", {"n": 999}, 1,
                 "need at least 1000 agents per replication, got 999", id="n-999"),
    pytest.param("baseline_simulate.json", "abm", {"n": MAX_ARRAY + 1}, 1,
                 f"population size n must lie in [1, {MAX_ARRAY}], got {MAX_ARRAY + 1}",
                 id="n-beyond-arrays"),
    *(pytest.param("baseline_simulate.json", "abm", {"replications": reps}, 1,
                   f"replications must lie in [2, {MAX_ARRAY}], got {reps}",
                   id=f"replications-{reps}")
      for reps in (0, 1, MAX_ARRAY + 1)),
    pytest.param("bancarization.json", "case_data", {"path": "absent.csv"}, 2,
                 "case_data.path names no file: '{dir}/absent.csv'", id="table-missing"),
    pytest.param("bancarization.json", "case_data", {"path": "tables"}, 2,
                 "case_data.path names no file: '{dir}/tables'", id="table-is-a-directory"),
    pytest.param("bancarization.json", "case_data", {"path": "a\x00b"}, 2,
                 "case_data.path names no file: '{dir}/a\\x00b'", id="table-path-with-nul"),
]


class TestValidateMatchesCommand:
    @pytest.mark.parametrize("scenario,section,edit,code,message", DEFECTS)
    def test_validate_exits_as_the_command(self, tmp_path, capsys, scenario, section, edit,
                                           code, message):
        payload = json.loads(bundled_path(scenario).read_text(encoding="utf-8"))
        payload[section].update(edit)
        (tmp_path / "tables").mkdir()
        path = write_json(tmp_path, payload)
        out = tmp_path / "out.csv"
        for command in ("validate", payload["run"]):
            assert run([command, "--scenario", path, "--out", out]) == code
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message.format(dir=tmp_path)}\n"
            assert not out.exists()


# The flags each command reads, in --help order (-h aside), and a scenario
# it runs on.
COMMAND_FLAGS = {
    "solve": ["--scenario", "--out", "--format", "--convention", "--posterior"],
    "simulate": ["--scenario", "--out", "--format", "--convention", "--posterior",
                 "--seed", "--agents", "--replications"],
    "sweep": ["--scenario", "--out", "--format", "--convention", "--posterior"],
    "validate": ["--scenario", "--out", "--format"],
    "case-data": ["--scenario", "--out", "--format"],
}
COMMAND_SCENARIO = {"solve": "baseline.json", "simulate": "baseline_simulate.json",
                    "sweep": "baseline_sweep.json", "validate": "baseline.json",
                    "case-data": "bancarization.json"}
FLAG_VALUE = {"--convention": "paper-literal", "--posterior": "bayes", "--seed": "1",
              "--agents": "5", "--replications": "5"}


class TestFlagsPerCommand:
    @pytest.mark.parametrize("command,unread,before", [
        pytest.param(command, [flag, FLAG_VALUE[flag]], False, id=f"{command}-{flag}")
        for command, flags in COMMAND_FLAGS.items() for flag in FLAG_VALUE if flag not in flags
    ] + [pytest.param("validate", ["--bogus"], True, id="before-validate")])
    def test_unread_flag_exits_two(self, tmp_path, capsys, command, unread, before):
        # A flag given before the command belongs to no command, so it gets
        # the top-level usage line.
        out = tmp_path / "out.csv"
        argv = [command, "--scenario", bundled_path(COMMAND_SCENARIO[command]), "--out", out]
        assert run(unread + argv if before else argv[:3] + unread + argv[3:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage = "[-h] {solve,simulate,sweep,validate,case-data} " if before else f"{command} "
        assert captured.err.startswith(f"usage: reformgame {usage}")
        assert f"error: unrecognized arguments: {' '.join(unread)}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_help_lists_only_its_flags(self, capsys, command):
        assert run([command, "--help"]) == 0
        help_text = capsys.readouterr().out
        assert re.findall(r"^  (--[a-z-]+)", help_text, re.MULTILINE) == COMMAND_FLAGS[command]


class TestErrorPaths:
    @pytest.mark.parametrize("defect", ["table-missing", "scenario-not-json", "table-empty",
                                        "table-header"])
    def test_control_bytes_in_a_path_are_escaped(self, tmp_path, capsys, defect):
        # A path or a table header holding a NUL or an escape byte is quoted
        # in the message, so no control byte reaches the terminal raw, and
        # the exit code stays 2.
        header = "year,bank\x1b[31med,total"
        readable = defect in ("table-empty", "table-header")
        table = "t\x1b[31m.csv" if readable else "a\x00\x1b[31mb.csv"
        payload = solve_payload(run="case-data", case_data={"path": table})
        scenario = write_json(tmp_path, payload, name="s\x1b[31m.json")
        if defect == "scenario-not-json":
            scenario.write_text("{", encoding="utf-8")
        if readable:
            (tmp_path / table).write_text("" if defect == "table-empty" else f"{header}\n",
                                          encoding="utf-8")
        # validate checks only that the table exists; case-data reads it.
        for command in ("case-data",) if readable else ("validate", "case-data"):
            code = run([command, "--scenario", scenario])
            err = capsys.readouterr().err
            assert code == 2, err
            named = scenario if defect == "scenario-not-json" else tmp_path / table
            assert repr(str(named)) in err
            if defect == "table-header":
                assert err.endswith(f", got {header!r}\n"), err
            assert not re.search(r"[\x00-\x09\x0b-\x1f\x7f]", err), err

    def test_missing_scenario_file(self, capsys):
        # No file name holds a NUL byte, so such a path names no file too.
        for path in ("/no/such/file.json", "a\x00b.json"):
            assert run(["solve", "--scenario", path]) == 2
            assert capsys.readouterr().err == (
                f"error: [Errno 2] No such file or directory: {path!r}\n")

    def test_malformed_scenario(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert run(["solve", "--scenario", path]) == 2

    def test_non_utf8_scenario_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_bytes(b'{"label": "\xff"}')
        assert run(["validate", "--scenario", scenario]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {str(scenario)!r}: not valid JSON ('utf-8' codec can't decode byte 0xff "
            "in position 11: invalid start byte)"
        ]

    def test_over_deep_scenario_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "deep.json"
        scenario.write_text("[" * 100_000, encoding="utf-8")
        assert run(["validate", "--scenario", scenario]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {str(scenario)!r}: nested too deeply to parse"
        ]

    def test_nan_param_is_a_parse_error(self, tmp_path, capsys):
        for literal in ("NaN", "Infinity", "-Infinity"):
            scenario = write_with_raw_number(tmp_path, solve_payload(params={"w": "X"}), literal)
            assert run(["solve", "--scenario", scenario]) == 2
            err = capsys.readouterr().err
            assert f"{literal} is not a JSON number) at params.w" in err

    def test_repeated_key_exits_two(self, tmp_path, capsys):
        payload = solve_payload(params={"w": "X"})
        scenario = write_with_raw_number(tmp_path, payload, '5.0, "w": 1.0')
        assert run(["solve", "--scenario", scenario]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: duplicate field params.w"]

    def test_param_beyond_float_range_exits_one(self, tmp_path, capsys):
        scenario = write_with_raw_number(tmp_path, solve_payload(params={"w": "X"}), "1e400")
        assert run(["solve", "--scenario", scenario]) == 1
        assert "field_range: w must be a finite number, got inf" in capsys.readouterr().err

    def test_nan_sweep_value_exits_two(self, tmp_path, capsys):
        payload = solve_payload(run="sweep",
                                sweep={"parameter_name": "theta", "values": [0.1, "X"]})
        out = tmp_path / "sweep.json"
        for literal in ("NaN", "Infinity", "-Infinity"):
            scenario = write_with_raw_number(tmp_path, payload, literal)
            assert run(["sweep", "--scenario", scenario, "--format", "json", "--out", out]) == 2
            assert f"{literal} is not a JSON number) at sweep.values[1]" in capsys.readouterr().err
            assert not out.exists()

    def test_solver_cap_exits_three(self, tmp_path, capsys, monkeypatch):
        # Contraction modulus 0.99899: iterating from 0 hit the 10,000-step
        # cap here; the extrapolated start solves it.
        payload = solve_payload(params={"theta": 0.001, "Gamma_gain": 0.99999 * 2.5})
        scenario = write_json(tmp_path, payload)
        assert run(["validate", "--scenario", scenario]) == 0
        assert run(["solve", "--scenario", scenario]) == 0
        capsys.readouterr()

        def capped(params):
            raise ConvergenceError("no fixed point within 10000 iterations "
                                   "(residual 1.000e-09, contraction modulus L = 0.99899)")

        monkeypatch.setattr(reformgame.cli, "equilibrium_report", capped)
        assert run(["solve", "--scenario", scenario]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: no fixed point within 10000 iterations "
                         "(residual 1.000e-09, contraction modulus L = 0.99899)"]

    def test_unknown_flag(self, capsys):
        assert run(["solve", "--bogus", "x"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate", "--scenario", "x.json"]) == 2

    def test_unwritable_output(self, tmp_path):
        code = run(
            [
                "solve",
                "--scenario",
                bundled_path("baseline.json"),
                "--out",
                tmp_path / "missing_dir" / "r.csv",
            ]
        )
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()


# What a fuzz edit may set a value to: a wrong type, a number beyond the
# float or the array range, a value at a rule's bound, a reversed or an
# invalid grid, and paths that name the case table, nothing, a directory or
# no path at all (a NUL byte).
FUZZ_VALUES = [None, True, 2**70, 10**400, 1e308, 5e-324, "x", "", "a\x00b", [], [0.3, 0.2],
               [2.0, 3.0], [0.1, 0.9], -1, 0, 1, 2, 999, 1000, 0.5, MAX_ARRAY + 1,
               "bancarization.csv", "tables"]
# Fuzzed scenarios start from the bundled ones, the Monte Carlo shrunk to
# its smallest valid size.
FUZZ_BASES = {name: json.loads(bundled_path(name).read_text(encoding="utf-8"))
              for name in BUNDLED_SCENARIOS}
FUZZ_BASES["baseline_simulate.json"]["abm"].update(n=1000, replications=2)
# What a fuzz edit may set a field to that passes the field's own check (an
# unbounded range capped at 2, the Monte Carlo kept small). A set edit
# draws from here three times in four, so that many fuzzed files pass
# validate and must then run.
IN_RANGE = {
    **{("params", name): st.floats(lo, min(hi, 2.0))
       for name, (lo, hi, _) in PARAM_RANGES.items()},
    **{("params", field): st.sampled_from([choice.value for choice in choices])
       for field, choices in (("leader_type", LeaderType),
                              ("threshold_convention", ThresholdConvention),
                              ("posterior_convention", PosteriorConvention))},
    ("abm", "n"): st.integers(1000, 2000),
    ("abm", "replications"): st.integers(2, 3),
    ("abm", "seed"): st.integers(0, 2**64),
    ("sweep", "parameter_name"): st.sampled_from(list(PARAM_RANGES)),
    ("sweep", "values"): st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4,
                                  unique=True).map(sorted),
    ("case_data", "path"): st.just("bancarization.csv"),
    ("label",): st.text(max_size=5),
}


def _paths(node, prefix=()):
    """The path of every key and list item in a JSON document, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario with one to three edits: a key dropped or renamed,
    or a value replaced, most often by one in the field's range."""
    payload = copy.deepcopy(FUZZ_BASES[draw(st.sampled_from(BUNDLED_SCENARIOS))])
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(list(_paths(payload))))
        node = payload
        for parent in parents:
            node = node[parent]
        edit = draw(st.sampled_from(["drop", "rename", "set"]))
        if edit == "drop":
            del node[key]
        elif edit == "rename" and isinstance(node, dict):
            node[key + "_"] = node.pop(key)
        elif (*parents, key) in IN_RANGE and draw(st.integers(0, 3)):
            node[key] = draw(IN_RANGE[(*parents, key)])
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
        if not payload:
            break
    return payload


def affordable(payload) -> bool:
    """False when simulate would really draw more than 1e5 agents or run
    more than 10 replications; the loader admits sizes up to sys.maxsize // 8."""
    abm = payload.get("abm")
    if not isinstance(abm, dict):
        return True
    n, reps = abm.get("n"), abm.get("replications")
    return not any(type(v) is int and cap < v <= MAX_ARRAY
                   for v, cap in ((n, 10**5), (reps, 10)))


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


class TestExitCodeContract:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=mutated_scenarios())
    def test_mutated_scenarios(self, payload):
        # Every command ends in a documented code, and one that fails says
        # why. A file validate accepts is not rejected by its own command
        # with 1 or 2, but for what the README documents: a sweep grid with
        # no valid point (sweep_grid). The other documented cases are out of
        # reach here: arrays too large for memory at these sizes, and a
        # malformed case table, which no edit names.
        with tempfile.TemporaryDirectory() as workdir:
            workdir = Path(workdir)
            shutil.copy(bundled_path("bancarization.csv"), workdir)
            (workdir / "tables").mkdir()
            path = write_json(workdir, payload)
            results = {}
            for command in COMMAND_FLAGS:
                if command == "simulate" and not affordable(payload):
                    continue
                code, err = run_captured([command, "--scenario", path,
                                          "--out", workdir / f"{command}.out"])
                assert code in (0, 1, 2, 3), (command, code)
                if code:
                    assert err.startswith(("error: ", "usage: ")), (command, err)
                results[command] = code, err
        if results["validate"][0] == 0 and payload["run"] in results:
            code, err = results[payload["run"]]
            assert code not in (1, 2) or code == 1 and "error: sweep_grid: " in err, \
                (payload["run"], err)


class TestAcceptedScenariosRun:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(params=any_model_params(), name=st.sampled_from(SWEEPABLE_PARAMETERS),
           seed=st.integers(0, 2**64 - 1), fmt=st.sampled_from(["csv", "json"]))
    def test_every_model_params_runs(self, params, name, seed, fmt):
        # A scenario file holding any valid parameter set runs solve, a sweep
        # at the base value and a small simulate to exit 0, and --out holds
        # the bytes write_results gives for the in-process result, on a rerun too.
        fields = {key: getattr(value, "value", value) for key, value in vars(params).items()}
        runs = {
            "solve": ({}, equilibrium_report(params).equilibrium),
            "sweep": ({"sweep": {"parameter_name": name, "values": [fields[name]]}},
                      grid_sweep(params, name, [fields[name]])),
            "simulate": ({"abm": {"n": 1000, "replications": 2, "seed": seed}},
                         estimate_equilibrium(params, n=1000, replications=2, seed=seed)),
        }
        with tempfile.TemporaryDirectory() as workdir:
            workdir = Path(workdir)
            for command, (section, result) in runs.items():
                path = write_json(workdir, {"label": "any", "run": command,
                                            "params": fields, **section})
                expected = workdir / "expected"
                write_results(result, expected, fmt)
                for attempt in ("run", "rerun"):
                    out = workdir / f"{command}.{attempt}"
                    code, err = run_captured(
                        [command, "--scenario", path, "--out", out, "--format", fmt])
                    assert (code, err) == (0, ""), command
                    assert out.read_bytes() == expected.read_bytes(), (command, attempt)


# Runs in a fresh interpreter: imports the CLI, probes the package for a
# dunder name, then runs the commands lightest first, reporting after each
# stage its exit code and which of the optional modules have loaded.
COLD_START = """
import json, sys
import reformgame
from reformgame import bundled_path
from reformgame.cli import run_command

assert not hasattr(reformgame, "__wrapped__")  # a dunder probe loads nothing

def loaded():
    return sorted(m for m in ("reformgame.abm", "reformgame.sweep", "numpy", "csv")
                  if m in sys.modules)

out = sys.argv[1]
runs = [("solve", "baseline.json"), ("validate", "baseline.json"),
        ("solve", "bad_gain_bound.json"), ("case-data", "bancarization.json"),
        ("sweep", "baseline_sweep.json"), ("simulate", "baseline_simulate.json")]
stages = [["import", None, loaded()]]
for command, scenario in runs:
    code = run_command([command, "--scenario", str(bundled_path(scenario)),
                        "--out", f"{out}/{command}.csv"])
    stages.append([command, code, loaded()])
print(json.dumps(stages))
"""

# What each stage of COLD_START leaves loaded: csv from case-data on, sweep
# from sweep on, and the Monte Carlo engine with numpy only from simulate.
COLD_STAGES = [
    ["import", None, []],
    ["solve", 0, []],
    ["validate", 0, []],
    ["solve", 1, []],
    ["case-data", 0, ["csv"]],
    ["sweep", 0, ["csv", "reformgame.sweep"]],
    ["simulate", 0, ["csv", "numpy", "reformgame.abm", "reformgame.sweep"]],
]

# Runs validate and then the given command on one scenario file, reporting
# after each its exit code and which of the optional modules have loaded.
VALIDATE_THEN_RUN = """
import json, sys
from reformgame.cli import run_command

scenario, run = sys.argv[1:]
stages = []
for command in ("validate", run):
    code = run_command([command, "--scenario", scenario])
    loaded = [m for m in ("numpy", "reformgame.abm", "reformgame.sweep") if m in sys.modules]
    stages.append([command, code, loaded])
print(json.dumps(stages))
"""

BUNDLED_SCENARIOS = sorted(
    path.name for path in bundled_path("baseline.json").parent.glob("*.json"))


class TestModuleEntryPoint:
    @staticmethod
    def python(*args, cwd=None):
        src = str(Path(reformgame.__file__).parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        return subprocess.run([sys.executable, *args], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=60)

    def test_runs_without_warnings(self):
        argv = ["validate", "--scenario", str(bundled_path("baseline.json"))]
        proc = self.python("-m", "reformgame.cli", *argv)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "parameters valid" in proc.stdout

    def test_only_simulate_loads_numpy(self, tmp_path):
        proc = self.python("-c", COLD_START, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == COLD_STAGES
        golden = Path(__file__).parent / "golden" / "simulate.csv"
        assert (tmp_path / "simulate.csv").read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_bundled_scenario_exits_and_loads_as_expected(self, tmp_path, name):
        # A fresh interpreter in an empty directory, so that a relative
        # case_data.path must resolve against its scenario's directory.
        scenario = bundled_path(name)
        run = json.loads(scenario.read_text(encoding="utf-8"))["run"]
        proc = self.python("-c", VALIDATE_THEN_RUN, str(scenario), run, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        code = 1 if name == "bad_gain_bound.json" else 0  # breaks the participant gain bound
        # validate loads what checks the run's section; only simulate loads numpy.
        section = {"simulate": ["reformgame.abm"], "sweep": ["reformgame.sweep"]}.get(run, [])
        assert json.loads(proc.stdout.splitlines()[-1]) == [
            ["validate", code, section],
            [run, code, ["numpy", *section] if run == "simulate" else section],
        ], proc.stderr


class TestDeterminism:
    def test_solve_twice_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = bundled_path("baseline.json")
        assert run(["solve", "--scenario", base, "--out", out_a]) == 0
        assert run(["solve", "--scenario", base, "--out", out_b]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_simulate_twice_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = bundled_path("baseline_simulate.json")
        assert run(["simulate", "--scenario", base, "--out", out_a]) == 0
        assert run(["simulate", "--scenario", base, "--out", out_b]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
