"""Seeded inputs, operations and correctness checks of the benchmark workloads.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned and was checked. Inputs come only from
the workload seed, through the standard-library ``random`` module, so the
benchmark itself never imports numpy; only the program does.

The workloads and why each exists:

* ``analytic``: one 1001-point ``grid_sweep`` per operation over a random
  valid base parameter set. Validation, the solver and per-point overhead do
  all the work, with no numpy and no I/O.
* ``mc_baseline``: ``estimate_equilibrium`` at 100k agents x 20 replications
  on the baseline parameters. Sampling dominates; the cascade is ~10 rounds.
* ``mc_near_bound``: the same operation with a contraction modulus of ~0.94.
  The cascade dominates (~110 rounds) and the solver takes 524 iterations.
* ``cli_cold``: one fresh ``python -m reformgame.cli`` process per operation,
  cycling through solve (CSV and JSON), sweep, simulate, validate and a
  scenario that must be rejected. Interpreter start and imports dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

BASELINE = {
    "a": 0.5, "phi": 2.0, "theta": 0.2, "gamma": 0.8, "kappa_max": 1.0,
    "Gamma_gain": 1.0, "p1": 0.3, "p2": 0.4, "s": 0.5, "q": 1.0, "w": 1.0,
    "G2": 0.0, "G3": 1.0,
}
# Contraction modulus a*Gamma*gamma*(1-theta)/kappa_max = 0.942.
NEAR_BOUND = {**BASELINE, "a": 0.9, "gamma": 0.95, "theta": 0.05, "Gamma_gain": 1.16}

# Tolerances of the acceptance criteria the checks reuse.
ORACLE_TOL = 1e-10  # criterion 1: fixed point vs the derived closed form
BOUND_SLACK = 1e-15  # criterion 2: x* <= gamma, psi* <= a/phi
BASELINE_GAP = 0.01  # criterion 3: |mean_x - x*| at the baseline

# Fields confined to [0, 1] or (0, 1); their sweep grid spans value +/- 1.
UNIT_FIELDS = frozenset({"a", "gamma", "theta", "p1", "p2", "s"})


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one run; TINY keeps the self-tests fast.

    Near the gain bound the estimate's spread is wide and not quite normal,
    so mc_near_bound allows ``near_bound_z`` times the estimate's own
    standard error, and that standard error may not exceed
    ``stderr_ceiling``, so an inflated one cannot loosen the check. Both are
    set with a margin over seeded studies of |mean_x - x*| / stderr_x and of
    stderr_x: at 100k x 20, 2720 seeds gave |z| up to 4.2 and stderr_x up
    to 0.0077; at 20k x 10, 400 seeds gave |z| up to 5.0 and stderr_x up to
    0.029.
    """

    grid_points: int
    agents: int
    replications: int
    pool: int
    setup_probes: int
    probe_reps: int
    near_bound_z: float
    stderr_ceiling: float


FULL = Sizes(grid_points=1001, agents=100_000, replications=20, pool=1024,
             setup_probes=15, probe_reps=5, near_bound_z=6.0, stderr_ceiling=0.015)
TINY = Sizes(grid_points=21, agents=20_000, replications=10, pool=8,
             setup_probes=1, probe_reps=1, near_bound_z=8.0, stderr_ceiling=0.06)
SIZES = {"full": FULL, "tiny": TINY}


def oracle(p) -> tuple[float, float]:
    """Equilibrium (kappa*, x*) from the derived-consistent closed form.

    Written here from the model's equations rather than taken from the
    program, so that the checks do not trust the code they measure.
    """
    gain = p.Gamma_gain
    if p.leader_type.value == "partisan":
        if p.posterior_convention.value == "paper":
            belief = p.p2 / (p.p2 + (1.0 - p.s) * (1.0 - p.p2))
        else:
            belief = (1.0 - p.p2) / ((1.0 - p.p2) + (1.0 - p.s) * p.p2)
        gain *= belief
    if gain == 0.0:  # nobody but the followers joins
        return 0.0, p.gamma * p.theta
    kappa = p.theta / (1.0 / (p.a * p.gamma * gain) - (1.0 - p.theta) / p.kappa_max)
    x = p.gamma * (p.theta + (1.0 - p.theta) * kappa / p.kappa_max)
    return kappa, x


# --------------------------------------------------------------------------
# analytic


@dataclass(frozen=True)
class SweepInput:
    base: Any
    name: str
    points: int


def random_base(rg, rng: random.Random):
    """A valid parameter set with a contraction modulus of at most ~0.95.

    Gains are drawn as a fraction of their strict upper bounds. theta is at
    least 0.05, so every valid point of a sweep keeps the modulus below
    1 - theta <= 0.95 and the solver converges well inside its iteration cap.
    """
    a = rng.uniform(0.05, 0.95)
    gamma = rng.uniform(0.05, 0.95)
    kappa_max = rng.uniform(0.5, 5.0)
    p1 = rng.uniform(0.0, 0.9)
    q = rng.uniform(0.5, 3.0)
    leader = rng.choice(list(rg.LeaderType))
    reformer_bound = q / ((1.0 - p1) * a * gamma)
    return rg.ModelParams(
        a=a,
        phi=rng.uniform(1.1, 5.0),
        theta=rng.uniform(0.05, 0.95),
        gamma=gamma,
        kappa_max=kappa_max,
        Gamma_gain=rng.uniform(0.05, 0.95) * kappa_max / (a * gamma),
        p1=p1,
        p2=rng.uniform(0.05, 0.95),
        s=rng.uniform(0.05, 0.95),
        q=q,
        w=rng.uniform(0.0, 2.0),
        G2=rng.uniform(0.05, 0.95) * reformer_bound if leader is rg.LeaderType.PARTISAN else 0.0,
        G3=rng.uniform(0.05, 0.95) * reformer_bound,
        leader_type=leader,
        threshold_convention=rng.choice(list(rg.ThresholdConvention)),
        posterior_convention=rng.choice(list(rg.PosteriorConvention)),
    )


def sweep_grid(base, name: str, points: int) -> list[float]:
    """An evenly spaced grid centred exactly on the base value.

    Unit-interval fields span value +/- 1 and the others value +/- (value +
    0.5), so every grid crosses a field-range bound (and often a gain bound
    too) and some points are rejected, while the centre is always valid.
    """
    value = float(getattr(base, name))
    half = 1.0 if name in UNIT_FIELDS else value + 0.5
    mid = points // 2
    return [value + half * (i - mid) / mid for i in range(points)]


def build_analytic(rg, seed: int, sizes: Sizes, workdir: Path) -> list[SweepInput]:
    """Random bases; the swept field runs through every sweepable field in a
    fresh random order per round, so each seed gets the same mix of fields."""
    rng = random.Random(seed)
    fields = list(rg.sweep.SWEEPABLE_PARAMETERS)
    pool = []
    while len(pool) < sizes.pool:
        rng.shuffle(fields)
        pool += [SweepInput(random_base(rg, rng), name, sizes.grid_points) for name in fields]
    return pool[:sizes.pool]


def prepare_analytic(inputs: list[SweepInput], i: int) -> tuple[SweepInput, list[float]]:
    item = inputs[i % len(inputs)]
    return item, sweep_grid(item.base, item.name, item.points)


def run_analytic(rg, prepared: tuple[SweepInput, list[float]]):
    item, grid = prepared
    return rg.grid_sweep(item.base, item.name, grid)


def check_analytic(prepared: tuple[SweepInput, list[float]], series,
                   reference=oracle) -> str | None:
    item, grid = prepared
    if len(series.values) + len(series.skipped) != len(grid):
        return f"{len(series.values)} kept + {len(series.skipped)} skipped != {len(grid)} points"
    centre = grid[len(grid) // 2]
    if centre not in series.values:
        return f"valid base value {item.name} = {centre} was skipped"
    for value, point in zip(series.values, series.outputs):
        p = replace(item.base, **{item.name: value})
        kappa, _ = reference(p)
        if not abs(point.kappa_star - kappa) <= ORACLE_TOL:
            return f"{item.name} = {value}: kappa_star {point.kappa_star!r} vs closed form {kappa!r}"
        if not (point.kappa_star < p.kappa_max
                and p.gamma * p.theta - BOUND_SLACK <= point.x_star <= p.gamma + BOUND_SLACK
                and 0.0 <= point.psi_star <= p.a / p.phi + BOUND_SLACK):
            return f"{item.name} = {value}: equilibrium {point} outside its bounds"
    return None


# --------------------------------------------------------------------------
# mc_baseline and mc_near_bound


@dataclass(frozen=True)
class McInput:
    params: Any
    agents: int
    replications: int
    seeds: list[int]
    expected_x: float
    near_bound: bool
    z: float
    stderr_ceiling: float


def _build_mc(fields: dict[str, Any], near_bound: bool):
    def build(rg, seed: int, sizes: Sizes, workdir: Path) -> McInput:
        rng = random.Random(seed)
        params = rg.ModelParams(**fields)
        return McInput(
            params=params,
            agents=sizes.agents,
            replications=sizes.replications,
            seeds=[rng.getrandbits(63) for _ in range(4096)],
            expected_x=oracle(params)[1],
            near_bound=near_bound,
            z=sizes.near_bound_z,
            stderr_ceiling=sizes.stderr_ceiling,
        )
    return build


def prepare_mc(inputs: McInput, i: int) -> tuple[McInput, int]:
    return inputs, inputs.seeds[i % len(inputs.seeds)]


def run_mc(rg, prepared: tuple[McInput, int]):
    inputs, seed = prepared
    return rg.estimate_equilibrium(inputs.params, n=inputs.agents,
                                   replications=inputs.replications, seed=seed)


def check_mc(prepared: tuple[McInput, int], est,
             expected_x: float | None = None) -> str | None:
    inputs, _ = prepared
    if expected_x is None:
        expected_x = inputs.expected_x
    if (est.replications, est.agents_per_replication) != (inputs.replications, inputs.agents):
        return f"estimate reports {est.replications} x {est.agents_per_replication}"
    if not abs(est.analytic_x - expected_x) <= ORACLE_TOL:
        return f"analytic_x {est.analytic_x!r} vs closed form {expected_x!r}"
    if not 0.0 <= est.mean_success_rate <= 1.0:
        return f"success rate {est.mean_success_rate!r} outside [0, 1]"
    gap = abs(est.mean_x - expected_x)
    if inputs.near_bound:
        if not 0.0 < est.stderr_x <= inputs.stderr_ceiling:
            return f"stderr_x {est.stderr_x!r} outside (0, {inputs.stderr_ceiling}]"
        if not gap <= inputs.z * est.stderr_x:
            return f"|mean_x - x*| = {gap:.4g} exceeds {inputs.z} x stderr {est.stderr_x:.3g}"
    elif not gap < BASELINE_GAP:
        return f"|mean_x - x*| = {gap:.4g} >= {BASELINE_GAP}"
    return None


# --------------------------------------------------------------------------
# cli_cold


@dataclass(frozen=True)
class CliCommand:
    name: str
    argv: list[str]
    exit_code: int
    out: Path | None
    reference: bytes | None
    must_print: str


@dataclass(frozen=True)
class CliInput:
    commands: list[CliCommand]
    start: int
    env: dict[str, str]
    workdir: Path
    solve_kappa: float


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    out: bytes | None
    stdout: str
    stderr: str
    max_rss_kb: int


def program_env(src: Path) -> dict[str, str]:
    """Environment for a child interpreter that imports the package from ``src``."""
    return {**os.environ, "PYTHONPATH": str(src)}


def run_in_process(rg, argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in this process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rg.cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def run_process(argv: list[str], env: dict[str, str], cwd: Path) -> CliResult:
    """Run one process to completion; collect its exit code, output and peak RSS."""
    with open(cwd / "stdout.txt", "w+b") as out, open(cwd / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliResult(proc.returncode, None, out.read().decode(), err.read().decode(),
                         usage.ru_maxrss)


def scenario_file(path: Path, params, run: str, **section) -> Path:
    """Write a scenario for ``params`` in the documented schema."""
    fields = {name: getattr(params, name) for name in BASELINE}
    for name in ("leader_type", "threshold_convention", "posterior_convention"):
        fields[name] = getattr(params, name).value
    path.write_text(json.dumps({"label": path.stem, "run": run, "params": fields, **section},
                               indent=2), encoding="utf-8")
    return path


def bundled_copy(rg, name: str, dest: Path, **sections) -> Path:
    raw = json.loads(rg.bundled_path(name).read_text(encoding="utf-8"))
    for key, value in sections.items():
        raw[key] = {**raw[key], **value}
    path = dest / name
    path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
    return path


def build_cli(rg, seed: int, sizes: Sizes, workdir: Path) -> CliInput:
    """Copies of the bundled scenarios, the command cycle and its expected outputs.

    The expected ``--out`` bytes come from running the same commands in this
    process, so each fresh process must agree with the in-process results
    and with every rerun.
    """
    rng = random.Random(seed)
    solve = bundled_copy(rg, "baseline.json", workdir)
    sweep = bundled_copy(rg, "baseline_sweep.json", workdir)
    simulate = bundled_copy(rg, "baseline_simulate.json", workdir,
                            abm={"seed": rng.randrange(2**31)})
    bad = bundled_copy(rg, "bad_gain_bound.json", workdir)
    specs = [
        ("solve-csv", ["solve", "--scenario", str(solve)], "csv", 0, "kappa_star"),
        ("solve-json", ["solve", "--scenario", str(solve), "--format", "json"], "json", 0,
         "kappa_star"),
        ("sweep", ["sweep", "--scenario", str(sweep)], "csv", 0, "Increasing"),
        ("simulate", ["simulate", "--scenario", str(simulate)], "csv", 0, "mean_x"),
        ("validate", ["validate", "--scenario", str(solve)], None, 0, "parameters valid"),
        ("bad-gain", ["solve", "--scenario", str(bad)], None, 1, "participant_gain_bound"),
    ]
    commands = []
    for name, argv, fmt, exit_code, must_print in specs:
        out = reference = None
        if fmt:
            ref_path = workdir / f"{name}.reference.{fmt}"
            code, _, stderr = run_in_process(rg, argv + ["--out", str(ref_path)])
            if code != exit_code:
                raise RuntimeError(f"in-process {name} exited {code}: {stderr.strip()}")
            reference = ref_path.read_bytes()
            out = workdir / f"{name}.{fmt}"
            argv = argv + ["--out", str(out)]
        commands.append(CliCommand(name, argv, exit_code, out, reference, must_print))
    return CliInput(
        commands=commands,
        start=rng.randrange(len(commands)),
        env=program_env(Path(rg.__file__).parents[1]),
        workdir=workdir,
        solve_kappa=oracle(rg.ModelParams(**BASELINE))[0],
    )


def prepare_cli(inputs: CliInput, i: int) -> tuple[CliInput, CliCommand]:
    cmd = inputs.commands[(inputs.start + i) % len(inputs.commands)]
    if cmd.out is not None:
        cmd.out.unlink(missing_ok=True)
    return inputs, cmd


def run_cli(rg, prepared: tuple[CliInput, CliCommand]) -> CliResult:
    inputs, cmd = prepared
    argv = [sys.executable, "-m", "reformgame.cli", *cmd.argv]
    result = run_process(argv, inputs.env, inputs.workdir)
    if cmd.out is not None and cmd.out.exists():
        result = replace(result, out=cmd.out.read_bytes())
    return result


def check_cli(prepared: tuple[CliInput, CliCommand], result: CliResult,
              expected_kappa: float | None = None) -> str | None:
    inputs, cmd = prepared
    if expected_kappa is None:
        expected_kappa = inputs.solve_kappa
    if result.exit_code != cmd.exit_code:
        return f"{cmd.name}: exit code {result.exit_code}, expected {cmd.exit_code}"
    if cmd.must_print not in result.stdout + result.stderr:
        return f"{cmd.name}: output lacks {cmd.must_print!r}"
    if result.out != cmd.reference:
        return f"{cmd.name}: --out differs from the in-process result"
    if cmd.name == "solve-csv":
        header, row = result.out.decode().splitlines()[:2]
        kappa = float(row.split(",")[header.split(",").index("kappa_star")])
        if not abs(kappa - expected_kappa) <= ORACLE_TOL:
            return f"solve: kappa_star {kappa!r} vs closed form {expected_kappa!r}"
    return None


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """How to build a workload's inputs, run one operation and check it.

    ``prepare`` picks the i-th operation's input outside the timed region,
    ``run`` is the timed operation and ``check`` returns a failure message
    or None. ``params`` gives the parameter set the layer probes of a traced
    run use for layers the operation does not reach.
    """

    op: str
    build: Callable[..., Any]
    prepare: Callable[[Any, int], Any]
    run: Callable[[Any, Any], Any]
    check: Callable[[Any, Any], str | None]
    params: Callable[[Any, Any], Any]


WORKLOADS = {
    "analytic": Workload(
        "1001-point grid_sweep", build_analytic, prepare_analytic, run_analytic,
        check_analytic, lambda rg, inputs: inputs[0].base,
    ),
    "mc_baseline": Workload(
        "estimate_equilibrium(100k agents x 20), baseline parameters",
        _build_mc(BASELINE, near_bound=False), prepare_mc, run_mc, check_mc,
        lambda rg, inputs: inputs.params,
    ),
    "mc_near_bound": Workload(
        "estimate_equilibrium(100k agents x 20), near the gain bound",
        _build_mc(NEAR_BOUND, near_bound=True), prepare_mc, run_mc, check_mc,
        lambda rg, inputs: inputs.params,
    ),
    "cli_cold": Workload(
        "fresh python -m reformgame.cli process", build_cli, prepare_cli, run_cli,
        check_cli, lambda rg, inputs: rg.ModelParams(**BASELINE),
    ),
}
