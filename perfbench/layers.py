"""Per-layer metrics of a traced run.

The traced operations give the numbers for every layer they reach. A layer
the workload's operation does not reach is measured by a probe: direct calls
of that layer's public functions on the workload's own parameter set, each
probe under its own tracer so that probes never mix into each other's
numbers. The ``cli`` layer is always probed with fresh interpreters and
in-process ``run_command`` calls, because an operation in a child process
cannot be traced from here.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

from spans import Tracer
from workloads import (
    Sizes,
    program_env,
    run_in_process,
    run_process,
    scenario_file,
    sweep_grid,
)

CLI_COMMANDS = ("solve", "sweep", "simulate", "validate")


def probe_equilibrium(rg, tracer: Tracer, params, sizes: Sizes, workdir: Path,
                      rng: random.Random) -> None:
    for _ in range(40 * sizes.probe_reps):
        tracer.call("probe", lambda: (rg.validate_params(params),
                                      rg.closed_form_threshold(params),
                                      rg.equilibrium_report(params)))


def probe_sweep(rg, tracer, params, sizes, workdir, rng) -> None:
    grid = sweep_grid(params, "theta", sizes.grid_points)
    for _ in range(sizes.probe_reps):
        tracer.call("probe", rg.grid_sweep, params, "theta", grid)


def probe_abm(rg, tracer, params, sizes, workdir, rng) -> None:
    for _ in range(2):
        tracer.call("probe", rg.estimate_equilibrium, params, n=sizes.agents,
                    replications=sizes.replications, seed=rng.getrandbits(63))


def probe_realize(rg, tracer, params, sizes, workdir, rng) -> None:
    for _ in range(200 * sizes.probe_reps):
        rg.realize_world(params.p1, params.p2, rng.getrandbits(63))


def probe_scenario(rg, tracer, params, sizes, workdir, rng) -> None:
    path = scenario_file(workdir / "probe.json", params, "solve")
    result = rg.solve_fixed_point(params)
    for _ in range(20 * sizes.probe_reps):
        rg.load_scenario(path)
        rg.write_results(result, workdir / "probe.csv", "csv")
        rg.write_results(result, workdir / "probe.out.json", "json")


# Each probe with the traced names it stands in for when the operation lacks them.
PROBES: tuple[tuple[Callable[..., None], tuple[str, ...]], ...] = (
    (probe_equilibrium, ("model.validate_params", "equilibrium.closed_form_threshold",
                         "equilibrium.solve_fixed_point", "equilibrium.equilibrium_report")),
    (probe_sweep, ("sweep.grid_sweep",)),
    (probe_abm, ("abm.spawn_population", "abm.best_response_cascade", "abm.simulate_once",
                 "abm.estimate_equilibrium")),
    (probe_realize, ("abm.realize_world",)),
    (probe_scenario, ("scenario.load_scenario", "scenario.write_results")),
)


def run_probes(rg, op_tracer: Tracer, params, sizes: Sizes, workdir: Path,
               seed: int) -> dict[str, Tracer]:
    """Probe every layer the traced operations left without spans.

    Returns, for each traced name, the tracer its numbers come from.
    """
    rng = random.Random(seed)
    source: dict[str, Tracer] = {}
    for probe, names in PROBES:
        tracer = op_tracer
        if not all(op_tracer.has(name) for name in names):
            tracer = Tracer(span_cap=0)
            tracer.install(rg)
            try:
                probe(rg, tracer, params, sizes, workdir, rng)
            finally:
                tracer.uninstall()
        for name in names:
            source[name] = op_tracer if op_tracer.has(name) else tracer
    return source


def probe_cli(rg, params, sizes: Sizes, workdir: Path, seed: int) -> dict[str, float]:
    """Interpreter start, import cost and each command in and out of process."""
    env = program_env(Path(rg.__file__).parents[1])
    reps = sizes.probe_reps

    def wall_ms(argv: list[str]) -> float:
        start = time.perf_counter_ns()
        result = run_process(argv, env, workdir)
        elapsed = (time.perf_counter_ns() - start) / 1e6
        if result.exit_code != 0:
            raise RuntimeError(f"{argv[1:]} exited {result.exit_code}: {result.stderr.strip()}")
        return elapsed

    python = sys.executable
    interpreter = statistics.median(wall_ms([python, "-c", "pass"]) for _ in range(reps))
    imported = statistics.median(
        wall_ms([python, "-c", "import reformgame.cli"]) for _ in range(reps))
    numpy = run_process([python, "-c", "import sys, reformgame.cli; "
                                       "print(int('numpy' in sys.modules))"], env, workdir)
    metrics = {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imported - interpreter,
        "cli.numpy_on_import": float(numpy.stdout.strip()),
    }

    solve = scenario_file(workdir / "cli_solve.json", params, "solve")
    scenarios = {
        "solve": solve,
        "sweep": scenario_file(workdir / "cli_sweep.json", params, "sweep", sweep={
            "parameter_name": "theta", "values": [i / 10 for i in range(1, 10)]}),
        "simulate": scenario_file(workdir / "cli_simulate.json", params, "simulate", abm={
            "n": 10_000, "replications": 5, "seed": random.Random(seed).randrange(2**31)}),
        "validate": solve,
    }
    in_process = process = 0.0
    for command in CLI_COMMANDS:
        argv = [command, "--scenario", str(scenarios[command]),
                "--out", str(workdir / f"cli_{command}.csv")]
        samples = []
        for _ in range(reps):
            start = time.perf_counter_ns()
            code, _, err = run_in_process(rg, argv)
            samples.append((time.perf_counter_ns() - start) / 1e6)
            if code != 0:
                raise RuntimeError(f"in-process {command} exited {code}: {err.strip()}")
        metrics[f"cli.run_command.{command}.ms_p50"] = statistics.median(samples)
        in_process += statistics.median(samples)
        process += statistics.median(
            wall_ms([python, "-m", "reformgame.cli", *argv]) for _ in range(reps))
    metrics["cli.process_overhead_share"] = 1.0 - in_process / process
    return metrics


def layer_metrics(source: dict[str, Tracer], cli: dict[str, float],
                  overhead_ratio: float) -> dict[str, float]:
    """Compute every per-layer metric from the tracers that measured each name."""

    def p50_us(name: str, self_time: bool = False) -> float:
        return source[name].p50_ns(name, self_time) / 1e3

    def counts(name: str, key: str) -> list[float]:
        return source[name].counts[name][key]

    solve = "equilibrium.solve_fixed_point"
    sweep = "sweep.grid_sweep"
    sweep_tracer = source[sweep]
    points = counts(sweep, "points")
    writes = source["scenario.write_results"]
    formats = counts("scenario.write_results", "json")
    write_ns = writes.durations["scenario.write_results"]
    estimate = "abm.estimate_equilibrium"
    abm = source[estimate]
    metrics = {
        "model.validate_params.us_p50": p50_us("model.validate_params"),
        "equilibrium.closed_form_threshold.us_p50": p50_us("equilibrium.closed_form_threshold"),
        f"{solve}.us_p50": p50_us(solve),
        f"{solve}.self_us_p50": p50_us(solve, self_time=True),
        f"{solve}.iterations_mean": statistics.fmean(counts(solve, "iterations")),
        f"{solve}.iterations_max": max(counts(solve, "iterations")),
        "equilibrium.equilibrium_report.us_p50": p50_us("equilibrium.equilibrium_report"),
        f"{sweep}.us_per_point": statistics.median(
            d / 1e3 / n for d, n in zip(sweep_tracer.durations[sweep], points)),
        f"{sweep}.self_us_per_point": statistics.median(
            d / 1e3 / n for d, n in zip(sweep_tracer.self_times[sweep], points)),
        f"{sweep}.kept_ratio": statistics.fmean(counts(sweep, "kept_ratio")),
        "abm.spawn_population.ms_p50": p50_us("abm.spawn_population") / 1e3,
        "abm.spawn_population.bytes_computed":
            statistics.fmean(counts("abm.spawn_population", "bytes")),
        "abm.best_response_cascade.ms_p50": p50_us("abm.best_response_cascade") / 1e3,
        "abm.best_response_cascade.rounds_mean":
            statistics.fmean(counts("abm.best_response_cascade", "rounds")),
        "abm.best_response_cascade.rounds_max":
            max(counts("abm.best_response_cascade", "rounds")),
        "abm.simulate_once.ms_p50": p50_us("abm.simulate_once") / 1e3,
        f"{estimate}.self_ms_p50": p50_us(estimate, self_time=True) / 1e3,
        "abm.realize_world.us_p50": p50_us("abm.realize_world"),
        "abm.probe_coverage": (abm.total_ns("abm.spawn_population")
                               + abm.total_ns("abm.best_response_cascade"))
                              / abm.total_ns(estimate),
        "scenario.load_scenario.us_p50": p50_us("scenario.load_scenario"),
        "scenario.write_results.us_p50": p50_us("scenario.write_results"),
        "scenario.write_results.csv.us_p50":
            statistics.median(d for d, j in zip(write_ns, formats) if not j) / 1e3,
        "scenario.write_results.json.us_p50":
            statistics.median(d for d, j in zip(write_ns, formats) if j) / 1e3,
        "trace.overhead_ratio": overhead_ratio,
        **cli,
    }
    return {name: float(value) for name, value in metrics.items()}
