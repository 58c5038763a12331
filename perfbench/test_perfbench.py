"""Self-tests of the benchmark: ``python -m pytest perfbench``.

A tiny-size run of every workload must emit every metric BENCHMARK.json
names, and a deliberately wrong expected value must trip each workload's
correctness check, so the checks are not vacuous.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import TINY, WORKLOADS, oracle  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def rg():
    return run.load_program()


def first_op(rg, name: str, tmp_path: Path):
    wl = WORKLOADS[name]
    inputs = wl.build(rg, 11, TINY, tmp_path)
    prepared = wl.prepare(inputs, 0)
    return wl, inputs, prepared, wl.run(rg, prepared)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    _, result = run.run(workload, seed=5, seconds=0.2, trace=trace, sizes_name="tiny")
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_analytic_check_trips_on_a_wrong_closed_form(rg, tmp_path):
    wl, _, prepared, series = first_op(rg, "analytic", tmp_path)
    assert wl.check(prepared, series) is None

    def off_by_a_little(p):
        kappa, x = oracle(p)
        return kappa + 1e-9, x

    assert "closed form" in wl.check(prepared, series, off_by_a_little)


@pytest.mark.parametrize("workload,shift", [("mc_baseline", 0.02), ("mc_near_bound", 0.2)])
def test_mc_check_trips_on_a_wrong_expected_fraction(rg, tmp_path, workload, shift):
    wl, inputs, prepared, estimate = first_op(rg, workload, tmp_path)
    assert wl.check(prepared, estimate) is None
    assert wl.check(prepared, estimate, inputs.expected_x + shift) is not None
    assert wl.check(prepared, replace(estimate, mean_x=estimate.mean_x + shift)) is not None


def test_near_bound_check_trips_on_an_inflated_stderr(rg, tmp_path):
    wl, inputs, prepared, estimate = first_op(rg, "mc_near_bound", tmp_path)
    inflated = replace(estimate, stderr_x=2 * inputs.stderr_ceiling)
    assert "stderr_x" in wl.check(prepared, inflated)


def test_cli_check_trips_on_wrong_outputs(rg, tmp_path):
    wl = WORKLOADS["cli_cold"]
    inputs = wl.build(rg, 11, TINY, tmp_path)
    prepared = wl.prepare(inputs, -inputs.start)  # the first command of the cycle
    result = wl.run(rg, prepared)
    _, cmd = prepared
    assert cmd.name == "solve-csv"
    assert wl.check(prepared, result) is None
    assert wl.check(prepared, result, inputs.solve_kappa + 1e-9) is not None
    assert wl.check(prepared, replace(result, out=result.out + b"\n")) is not None
    assert wl.check((inputs, replace(cmd, exit_code=1)), result) is not None
    bad = next(c for c in inputs.commands if c.name == "bad-gain")
    assert wl.check((inputs, bad), replace(result, exit_code=0)) is not None


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(v) for v in range(1, 1001)]) == (99.0, 990.0)
    assert run.tail([1.0, 2.0, 3.0]) == (50.0, 2.0)


def test_end_to_end_times_are_scaled_to_reference_speed():
    loop = run.Loop(latencies_ns=[100_000_000, 300_000_000], speed=[0.5, 0.5], attempted=2)
    metrics, _ = run.end_to_end(loop, [(0.4, 0.5), (0.2, 2.0)])
    assert metrics["op_p50_ms"] == pytest.approx(100.0)
    assert metrics["ops_per_s"] == pytest.approx(10.0)
    assert metrics["setup_s"] == pytest.approx(0.3)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", sum, range(1000)))
    (outer,), (inner,) = tracer.durations["outer"], tracer.durations["inner"]
    assert tracer.self_times["outer"][0] == outer - inner
    assert tracer.self_times["inner"][0] == inner
    ids = {name: (span_id, parent) for span_id, parent, name, _, _ in tracer.spans}
    assert ids["inner"][1] == ids["outer"][0] and ids["outer"][1] == 0


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
