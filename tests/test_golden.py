"""Byte-for-byte golden outputs of every bundled scenario.

Each file under ``tests/golden`` is the ``--out`` file that ``run_command``
writes for one bundled scenario in one format. A change that alters any of
them must say which output changes and why, and replace the golden file.
"""

from pathlib import Path

import pytest

from reformgame import bundled_path, run_command

GOLDEN = Path(__file__).parent / "golden"

RUNS = [
    ("solve", "baseline.json"),
    ("simulate", "baseline_simulate.json"),
    ("sweep", "baseline_sweep.json"),
    ("case-data", "bancarization.json"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command,scenario", RUNS)
def test_bundled_output_matches_golden(tmp_path, capsys, command, scenario, fmt):
    out = tmp_path / f"out.{fmt}"
    code = run_command(
        [command, "--scenario", str(bundled_path(scenario)), "--format", fmt, "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{command}.{fmt}").read_bytes()


def test_bad_gain_bound_golden(capsys):
    code = run_command(["solve", "--scenario", str(bundled_path("bad_gain_bound.json"))])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: participant_gain_bound: a*gamma*Gamma_gain must be < kappa_max = 1.0, "
        "got 1.2000000000000002 (Gamma_gain = 3.0)\n"
    )
