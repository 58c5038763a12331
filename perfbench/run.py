"""Benchmark of the reformgame package in this checkout.

Runs one workload for a fixed time with one closed-loop client and prints
its metrics::

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 30 --trace 0

Workloads: analytic, mc_baseline, mc_near_bound, cli_cold (see
``workloads.py``). ``--trace 0`` reports the end-to-end metrics: setup_s,
ops_per_s, op_p50_ms, op_tail_ms and peak_rss_mb. ``--trace 1`` runs each
operation twice, untraced and then traced, and reports the per-layer metrics
of ``layers.py`` plus the tracing overhead; it writes the spans to
``perfbench/out/``.

Every operation's output is checked. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report with the program's
location and commit, the machine, and each metric with its unit. The program
is imported from this checkout's ``src``, never from an installed copy; if it
is not there the run exits with code 2 and prints no result.

This host's speed moves by up to ~1.6x in phases that last from seconds to
minutes, separately on each CPU, which would swamp any change to the program.
So the run pins itself, and with it every child process, to one CPU, times a
fixed calibration loop (``calibration_ms``) right before and right after
each untraced operation and each set-up probe, and scales that operation's
time by ``REFERENCE_MS`` over the loop's mean time around it. The end-to-end
times are therefore "ms (or s) at reference speed": what the operation would
take on a host where the loop takes ``REFERENCE_MS``. The report lines give
the unscaled wall times next to them.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

from layers import layer_metrics, probe_cli, run_probes
from spans import Tracer
from workloads import SIZES, WORKLOADS, Sizes, Workload, program_env

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MODULES = ("model", "equilibrium", "sweep", "abm", "scenario", "cli")
# BENCHMARK.json names every metric with its unit; --trace 0 reports its
# end_to_end list and --trace 1 its per_layer list.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# op_tail_ms is the highest of these with at least TAIL_BEYOND samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# The calibration loop and the time it takes at reference speed: about its
# median on the 2-vCPU Xeon this benchmark was written on, where it ranged
# from 1.1 to 1.7 ms with the host's speed.
CALIBRATION_LOOPS = 20_000
REFERENCE_MS = 1.3


class SetupError(RuntimeError):
    """The program or the benchmark's inputs could not be set up."""


def load_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    init = SRC / "reformgame" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no reformgame source in this checkout ({init} is missing)")
    sys.path.insert(0, str(SRC))
    import reformgame

    for module in MODULES:
        importlib.import_module(f"reformgame.{module}")
    check_origin(reformgame.__file__)
    return reformgame


def check_origin(path: str) -> None:
    expected = (SRC / "reformgame" / "__init__.py").resolve()
    if Path(path).resolve() != expected:
        raise SetupError(f"reformgame resolved to {path}, not {expected}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return proc.stdout.strip() or f"unknown ({proc.stderr.strip()})"


def machine() -> dict[str, object]:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), cpu)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches[f"L{level} {kind}"] = size
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches or "unknown",
    }


def pin_to_one_cpu() -> int:
    """Run this process, and the children it starts, on one CPU only.

    The calibration loop then runs on the CPU that the timed work runs on,
    child processes included, and the kernel cannot move work between CPUs
    whose speeds differ.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibration_ms() -> float:
    """Time of a fixed pure-Python loop, the fastest of three, in ms."""
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / 1e6


def calibrated(fn: Callable[[], object]):
    """Run ``fn`` between two calibration loops.

    Returns its result and the factor that scales its time to reference speed.
    """
    before = calibration_ms()
    result = fn()
    return result, REFERENCE_MS / ((before + calibration_ms()) / 2)


@contextlib.contextmanager
def workdir(workload: str):
    """A scratch directory inside the checkout, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=OUT) as path:
        yield Path(path)


def setup_probe(workload: str, seed: int, sizes: Sizes) -> None:
    """Child side of setup_s: import the package, build the inputs, report the time."""
    rg = load_program()
    with workdir(workload) as tmp:
        WORKLOADS[workload].build(rg, seed, sizes, tmp)
        print(json.dumps({"ready": time.monotonic(), "program": rg.__file__}), flush=True)


def measure_setup(workload: str, seed: int, sizes_name: str) -> float:
    """Seconds from starting a fresh interpreter until its inputs are built.

    CLOCK_MONOTONIC is shared by all processes, so the child's ready time
    and the parent's start time are on one clock. Returns wall seconds.
    """
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload,
            "--seed", str(seed), "--sizes", sizes_name]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, env=program_env(SRC),
                          cwd=ROOT, timeout=150)
    if proc.returncode != 0:
        raise SetupError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
    record = json.loads(proc.stdout.splitlines()[-1])
    check_origin(record["program"])
    return record["ready"] - start


@dataclass
class Loop:
    """What one closed-loop run recorded."""

    latencies_ns: list[int] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)  # per untraced op, see calibrated()
    traced_ns: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    child_rss_kb: int = 0

    def record(self, elapsed: int, result, problem: str | None, traced: bool) -> None:
        self.attempted += 1
        (self.traced_ns if traced else self.latencies_ns).append(elapsed)
        if problem is not None:
            self.failures.append(problem)
        self.child_rss_kb = max(self.child_rss_kb, getattr(result, "max_rss_kb", 0))


def timed_op(rg, wl: Workload, prepared, tracer: Tracer | None):
    start = time.perf_counter_ns()
    try:
        if tracer is None:
            result = wl.run(rg, prepared)
        else:
            result = tracer.call("op", wl.run, rg, prepared)
    except Exception as exc:  # a raising operation is a failed one, not a crash
        return time.perf_counter_ns() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter_ns() - start, result, wl.check(prepared, result)


def op_loop(rg, wl: Workload, inputs, seconds: float, tracer: Tracer | None,
            pauses: int = 0, pause: Callable[[], None] | None = None) -> Loop:
    """Issue operations one after another until ``seconds`` have passed.

    With a tracer each operation runs untraced and then traced on the same
    input, so the two latency lists compare like with like. ``pause`` is
    called ``pauses`` times between operations, spread evenly over the run,
    so that what it measures sees the host's speed over the whole run.
    """
    loop = Loop()
    start = time.perf_counter()
    deadline = start + seconds
    due = [start + seconds * (k + 0.5) / pauses for k in range(pauses)]
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        while due and time.perf_counter() >= due[0]:
            due.pop(0)
            pause()
        prepared = wl.prepare(inputs, i)
        outcome, factor = calibrated(lambda: timed_op(rg, wl, prepared, None))
        loop.record(*outcome, traced=False)
        loop.speed.append(factor)
        if tracer is not None:
            prepared = wl.prepare(inputs, i)
            tracer.install(rg)
            try:
                loop.record(*timed_op(rg, wl, prepared, tracer), traced=True)
            finally:
                tracer.uninstall()
        i += 1
    for _ in due:
        pause()
    return loop


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    percentile = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= TAIL_BEYOND),
                      50.0)
    rank = -(-round(percentile * 10) * n // 1000)  # nearest rank: ceil(percentile/100 * n)
    return percentile, ordered[max(rank, 1) - 1]


def end_to_end(loop: Loop, setup_times: list[tuple[float, float]]
               ) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics at reference speed; ``setup_times`` holds
    (wall seconds, scale factor) pairs."""
    wall_ms = [ns / 1e6 for ns in loop.latencies_ns]
    lat_ms = [ms * factor for ms, factor in zip(wall_ms, loop.speed)]
    completed = loop.attempted - len(loop.failures)
    percentile, tail_ms = tail(lat_ms)
    setup_s = [wall * factor for wall, factor in setup_times]
    if loop.child_rss_kb:
        rss_kb, rss_from = loop.child_rss_kb, "largest child process"
    else:
        rss_kb, rss_from = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "this process"
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": completed / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": rss_kb / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_s)} fresh interpreters spread over the run: "
                   + ", ".join(f"{t:.4f}" for t in setup_s)
                   + f"; wall median {statistics.median([w for w, _ in setup_times]):.4f}",
        "ops_per_s": f"{completed} ops / {sum(lat_ms) / 1e3:.3f} s busy, closed loop, 1 client; "
                     f"wall {completed / (sum(wall_ms) / 1e3):.4f}",
        "op_p50_ms": f"{len(lat_ms)} samples; wall {statistics.median(wall_ms):.4f}",
        "op_tail_ms": f"p{percentile:g} of {len(lat_ms)} samples; wall {tail(wall_ms)[1]:.4f}",
        "peak_rss_mb": rss_from,
    }
    lines = [f"{name:<13} {value:12.4f} {UNITS[name]:<6} {notes[name]}"
             for name, value in metrics.items()]
    return metrics, lines


def run(workload: str, seed: int, seconds: float, trace: bool, sizes_name: str = "full"):
    """Run one workload; return (report lines, result object)."""
    sizes = SIZES[sizes_name]
    wl = WORKLOADS[workload]
    rg = load_program()
    report = [
        f"workload {workload}: op = {wl.op}; seed {seed}; {seconds:g} s; "
        f"trace {int(trace)}; sizes {sizes_name}",
        f"program {rg.__file__} at commit {git_commit()}",
        "machine " + json.dumps(machine()),
    ]
    cpu = pin_to_one_cpu()
    report += [
        f"pinned to CPU {cpu}; times at reference speed, where the calibration loop "
        f"takes {REFERENCE_MS} ms",
    ]
    setup_times: list[tuple[float, float]] = []
    with workdir(workload) as tmp:
        inputs = wl.build(rg, seed, sizes, tmp)
        tracer = Tracer() if trace else None
        loop = op_loop(rg, wl, inputs, seconds, tracer, 0 if trace else sizes.setup_probes,
                       lambda: setup_times.append(
                           calibrated(lambda: measure_setup(workload, seed, sizes_name))))
        if trace:
            params = wl.params(rg, inputs)
            source = run_probes(rg, tracer, params, sizes, tmp, seed)
            cli = probe_cli(rg, params, sizes, tmp, seed)
    if trace:
        overhead = statistics.median(loop.traced_ns) / statistics.median(loop.latencies_ns)
        layers = layer_metrics(source, cli, overhead)
        metrics = {m["name"]: layers[m["name"]] for m in SPEC["per_layer"]}
        report += [f"{name:<46} {value:14.4f} {UNITS[name]}" for name, value in metrics.items()]
        report.append("self time of the traced operations (ms): name, calls, raised, total, self")
        report += [f"  {r['name']:<36} {r['calls']:>9} {r['raised']:>7} "
                   f"{r['total_ms']:12.2f} {r['self_ms']:12.2f}" for r in tracer.summary()]
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        tracer.write(spans_path, f"{workload} seed {seed}")
        report.append(f"spans of the traced operations: {spans_path} "
                      f"({len(tracer.spans)} kept, {tracer.dropped} beyond the cap)")
    else:
        metrics, lines = end_to_end(loop, setup_times)
        report += lines
    failed = len(loop.failures)
    report.append(f"failed_ratio  {failed}/{loop.attempted} = {failed / loop.attempted:.4g}")
    report += [f"  failure: {problem}" for problem in loop.failures[:10]]
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=sorted(SIZES), default="full",
                        help="problem sizes; 'tiny' is for the benchmark's self-tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up in a fresh interpreter")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, SIZES[args.sizes])
            return 0
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.sizes)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
