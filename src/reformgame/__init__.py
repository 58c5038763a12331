"""Equilibrium and Monte Carlo toolkit for a leader-follower reform game.

The package solves the participation equilibrium of an institutional-reform
coordination game (closed forms and a contraction fixed point), validates
it with a seeded agent-based Monte Carlo engine, runs comparative-statics
sweeps, reads scenario files and writes result files. See the README for the
model and the CLI.
"""

from .model import (
    BOUNDARY_MARGIN,
    Beneficiary,
    DomainError,
    GAIN_ALLOCATION,
    LeaderType,
    ModelParams,
    PARAM_RANGES,
    ParameterError,
    PosteriorConvention,
    RELATIONAL_CHECKS,
    ThresholdConvention,
    WorldState,
    info_acquisition_cost,
    optimal_info_effort,
    partisan_participation_cost,
    posterior_change_state,
    state_probabilities,
    success_probability,
    validate_params,
)
from .equilibrium import (
    ConvergenceError,
    EquilibriumReport,
    EquilibriumResult,
    best_response_map,
    closed_form_threshold,
    effective_gain,
    equilibrium_report,
    solve_fixed_point,
)
from .abm import (
    AbmEstimate,
    Population,
    SimOutcome,
    best_response_cascade,
    derive_seed,
    estimate_equilibrium,
    realize_world,
    simulate_once,
    spawn_population,
)
from .sweep import (
    Monotonicity,
    SuccessResponse,
    SWEEPABLE_PARAMETERS,
    SweepPoint,
    SweepSeries,
    finite_difference_sensitivity,
    grid_sweep,
    monotonicity_check,
    success_response_series,
)
from .scenario import (
    AbmSettings,
    BancarizationSeries,
    CaseDataSettings,
    CaseTableError,
    RunKind,
    Scenario,
    ScenarioError,
    ScenarioParseError,
    ScenarioSchemaError,
    SweepSettings,
    bundled_path,
    ingest_case_table,
    load_scenario,
    write_results,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The CLI loads on first use: importing it here would make
    # `python -m reformgame.cli` run cli.py twice, once as reformgame.cli
    # and once as __main__.
    if name == "run_command":
        from .cli import run_command

        return run_command
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
