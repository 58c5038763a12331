"""Command-line entry point.

Subcommands: solve, simulate, sweep, validate, case-data. Every run is
driven by a scenario file; each command takes only the flags it reads. The
loader applies the flags and every check a run needs, so validate is the
loader alone and a handler only computes and prints. Human-readable
summaries go to stdout, machine output only to --out. Exit codes: 0
success, 1 model-parameter violation, 2 I/O, scenario-file or usage
problem, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys

from .equilibrium import ConvergenceError, EquilibriumResult, equilibrium_report
from .model import DomainError, PosteriorConvention, ThresholdConvention
from .scenario import (
    _OVERRIDABLE,
    BancarizationSeries,
    RunKind,
    Scenario,
    ScenarioError,
    ingest_case_table,
    load_scenario,
    write_results,
)

EXIT_OK = 0
EXIT_INVALID_PARAMS = 1
EXIT_IO = 2
EXIT_SOLVER = 3


def build_parser() -> argparse.ArgumentParser:
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    files.add_argument("--out", help="write machine-readable results to this path")
    files.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format for --out (default csv)")
    # Each flag that overrides a scenario field stores under the field's name.
    conventions = argparse.ArgumentParser(add_help=False)
    conventions.add_argument("--convention", dest="threshold_convention",
                             choices=tuple(c.value for c in ThresholdConvention),
                             help="override the threshold convention")
    conventions.add_argument("--posterior", dest="posterior_convention",
                             choices=tuple(c.value for c in PosteriorConvention),
                             help="override the posterior convention")
    monte_carlo = argparse.ArgumentParser(add_help=False)
    monte_carlo.add_argument("--seed", type=int, help="override the scenario's master seed")
    monte_carlo.add_argument("--agents", dest="n", metavar="AGENTS", type=int,
                             help="agents per replication")
    monte_carlo.add_argument("--replications", type=int, help="number of replications")

    parser = argparse.ArgumentParser(
        prog="reformgame",
        description="Equilibrium and Monte Carlo toolkit for the reform participation game",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, parents, help_text in (
        ("solve", _cmd_solve, [files, conventions], "solve the analytic equilibrium"),
        ("simulate", _cmd_simulate, [files, conventions, monte_carlo],
         "Monte Carlo estimate of the equilibrium"),
        ("sweep", _cmd_sweep, [files, conventions], "comparative-statics grid sweep"),
        # validate writes no record; it keeps --out and --format only because
        # perfbench/layers.py::probe_cli passes --out to it.
        ("validate", _cmd_validate, [files], "validate a scenario file"),
        ("case-data", _cmd_case_data, [files], "ingest a banked-payroll case table"),
    ):
        command = sub.add_parser(name, parents=parents, help=help_text)
        run = None if name == "validate" else RunKind(name)  # None: the file's run
        command.set_defaults(handler=handler, command_parser=command, run=run)
    return parser


def _cmd_validate(scenario: Scenario) -> None:
    print(f"scenario {scenario.label!r}: parameters valid "
          f"({scenario.params.leader_type.value} policy maker, run = {scenario.run.value})")


def _cmd_solve(scenario: Scenario) -> EquilibriumResult:
    report = equilibrium_report(scenario.params)
    eq = report.equilibrium
    print(
        f"equilibrium ({eq.convention.value}): kappa_star = {eq.kappa_star:.12g}, "
        f"x_star = {eq.x_star:.12g}, psi_star = {eq.psi_star:.12g}"
    )
    print(
        f"  effective_gain = {eq.effective_gain:.12g}, iterations = {eq.iterations}, "
        f"residual = {eq.residual:.3g}, closed_form_gap = {eq.closed_form_gap:.3g}"
    )
    print(
        f"  info_cost = {report.info_cost:.12g}, "
        f"partisan_cost = {report.partisan_cost:.12g}"
    )
    return eq


def _cmd_simulate(scenario: Scenario):  # -> abm.AbmEstimate
    from .abm import estimate_equilibrium
    est = estimate_equilibrium(scenario.params, **vars(scenario.abm))
    print(
        f"simulated {est.replications} x {est.agents_per_replication} agents: "
        f"mean_x = {est.mean_x:.6f} "
        f"(stderr {est.stderr_x:.2g}), analytic x_star = {est.analytic_x:.6f}, "
        f"gap = {est.abs_gap:.6f}, success rate = {est.mean_success_rate:.3f}"
    )
    return est


def _cmd_sweep(scenario: Scenario):  # -> sweep.SweepSeries
    from .sweep import grid_sweep
    series = grid_sweep(scenario.params, scenario.sweep.parameter_name,
                        scenario.sweep.values)
    print(
        f"sweep over {series.parameter_name} ({len(series.values)} points): "
        f"kappa_star is {series.monotonicity.value}"
    )
    for value, reason in series.reasons():
        print(f"  skipped {series.parameter_name} = {value:g}: {reason}", file=sys.stderr)
    return series


def _cmd_case_data(scenario: Scenario) -> tuple[BancarizationSeries, ...]:
    rows = ingest_case_table(scenario.case_data.path)
    for row in rows:
        print(
            f"{row.year}: {row.banked_count} / {row.total_active} banked "
            f"({row.rate_percent:.1f}%)"
        )
    return rows


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args, unread = parser.parse_known_args(argv)
        if unread:  # with the top-level usage line if any precede the command
            reader = parser if argv.index(args.command) else args.command_parser
            reader.error(f"unrecognized arguments: {' '.join(unread)}")
    except SystemExit as exc:  # argparse prints usage itself
        code = exc.code if isinstance(exc.code, int) else EXIT_IO
        return EXIT_OK if code == 0 else EXIT_IO

    try:
        overrides = {name: getattr(args, name) for name in _OVERRIDABLE
                     if getattr(args, name, None) is not None}
        scenario = load_scenario(args.scenario, args.run, **overrides)
        result = args.handler(scenario)
        if args.out and result is not None:  # validate has no record
            write_results(result, args.out, args.format)
    except DomainError as exc:  # includes ParameterError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_PARAMS
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
