"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import json
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from reformgame import (
    LeaderType,
    PosteriorConvention,
    ThresholdConvention,
    best_response_map,
    bundled_path,
    closed_form_threshold,
    effective_gain,
    estimate_equilibrium,
    finite_difference_sensitivity,
    grid_sweep,
    ingest_case_table,
    posterior_change_state,
    run_command,
    solve_fixed_point,
    success_response_series,
)
from reformgame.sweep import Monotonicity, monotonicity_check

from conftest import make_params, random_valid_params

MASTER_SEED = 20260810  # documented seed for every randomized criterion


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_c01_oracle_equivalence():
    with criterion(1, "fixed point matches the derived closed form on 1000 random sets"):
        rng = np.random.default_rng(MASTER_SEED)
        worst = 0.0
        for _ in range(1000):
            params = random_valid_params(
                rng, threshold_convention=ThresholdConvention.DERIVED_CONSISTENT
            )
            gap = abs(
                solve_fixed_point(params).kappa_star
                - closed_form_threshold(params)
            )
            worst = max(worst, gap)
        assert worst <= 1e-10, f"worst oracle gap {worst:.3e}"


def test_c02_contraction_and_bounds():
    with criterion(2, "best-response map is a contraction and equilibria respect bounds"):
        rng = np.random.default_rng(MASTER_SEED)
        for _ in range(1000):
            params = random_valid_params(rng)
            modulus = (
                params.a
                * effective_gain(params)
                * params.gamma
                * (1.0 - params.theta)
                / params.kappa_max
            )
            assert modulus < 1.0
            pairs = rng.uniform(0.0, params.kappa_max, size=(10, 2))
            for k1, k2 in pairs:
                if k1 == k2:
                    continue
                ratio = abs(
                    best_response_map(params, k1) - best_response_map(params, k2)
                ) / abs(k1 - k2)
                assert ratio <= modulus * (1.0 + 1e-9)
            result = solve_fixed_point(params)
            assert result.kappa_star < params.kappa_max
            assert result.x_star <= params.gamma + 1e-15
            assert result.psi_star <= params.a / params.phi + 1e-15


def test_c03_abm_validation():
    with criterion(3, "Monte Carlo participation matches the analytic fixed point"):
        estimate = estimate_equilibrium(
            make_params(), n=100_000, replications=20, seed=MASTER_SEED
        )
        target = 0.2352941176
        assert abs(estimate.mean_x - target) < 0.01, (
            f"mean_x {estimate.mean_x:.6f} vs {target}"
        )


def test_c04_comparative_statics():
    with criterion(4, "threshold rises in theta/gamma/Gamma/a, falls in kappa_max"):
        base = make_params()
        grids = {
            "theta": [i / 10 for i in range(1, 10)],
            "gamma": [0.1, 0.3, 0.5, 0.7, 0.9],
            "Gamma_gain": [0.5, 1.0, 1.5, 2.0],
            "a": [0.1, 0.3, 0.5, 0.7, 0.9],
        }
        for name, grid in grids.items():
            series = grid_sweep(base, name, grid)
            assert series.monotonicity is Monotonicity.INCREASING, name
            assert series.skipped == ()
        falling = grid_sweep(base, "kappa_max", [1.5, 2.0, 2.5, 3.0])
        assert falling.monotonicity is Monotonicity.DECREASING
        # Documented deviation: the literal plus-sign closed form rises with
        # kappa_max instead.
        literal = [
            closed_form_threshold(
                replace(base, kappa_max=v, threshold_convention=ThresholdConvention.PAPER_LITERAL)
            )
            for v in (1.5, 2.0, 2.5, 3.0)
        ]
        assert monotonicity_check(literal) is Monotonicity.INCREASING


def test_c05_leadership_dominance():
    with criterion(5, "a partisan's threshold never exceeds the non-partisan's"):
        rng = np.random.default_rng(MASTER_SEED)
        for _ in range(200):
            partisan = random_valid_params(rng, leader_type=LeaderType.PARTISAN)
            non_partisan = replace(
                partisan, leader_type=LeaderType.NON_PARTISAN, G2=0.0
            )
            k_p = solve_fixed_point(partisan).kappa_star
            k_np = solve_fixed_point(non_partisan).kappa_star
            psi_p = solve_fixed_point(partisan).psi_star
            psi_np = solve_fixed_point(non_partisan).psi_star
            assert k_p <= k_np + 1e-15
            assert psi_p <= psi_np + 1e-15
            belief = posterior_change_state(
                partisan.s, partisan.p2, partisan.posterior_convention
            )
            if belief < 1.0 and partisan.theta > 0.0:
                assert k_p < k_np


def test_c06_posterior_boundaries():
    with criterion(6, "posterior hits its exact boundary values"):
        for p2 in (0.1, 0.5, 0.9):
            assert posterior_change_state(1.0, p2, PosteriorConvention.PAPER) == 1.0
            assert posterior_change_state(0.0, p2, PosteriorConvention.PAPER) == p2
            assert posterior_change_state(0.0, p2, PosteriorConvention.BAYES) == 1.0 - p2


def test_c07_success_response_shapes():
    with criterion(7, "success probability is linear in a, convex in x, falling in phi"):
        response = success_response_series(
            a_values=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            phi_values=[1.2, 1.5, 2.0, 3.0, 5.0],
            x_values=[i / 10 for i in range(11)],
        )
        assert response.certainty.monotonicity is Monotonicity.INCREASING
        psi_a = response.certainty.psi_star
        second = [psi_a[i + 2] - 2 * psi_a[i + 1] + psi_a[i] for i in range(len(psi_a) - 2)]
        assert all(abs(d) < 1e-12 for d in second), "panel in a must be linear"
        assert response.complementarity.monotonicity is Monotonicity.DECREASING
        psi_x = response.participation.psi_star
        assert response.participation.monotonicity is Monotonicity.INCREASING
        second_x = [
            psi_x[i + 2] - 2 * psi_x[i + 1] + psi_x[i] for i in range(len(psi_x) - 2)
        ]
        assert all(d > 0 for d in second_x), "panel in x must be convex"


def test_c08_sensitivity_check():
    with criterion(8, "finite-difference threshold sensitivity in theta"):
        value = finite_difference_sensitivity(make_params(), "theta", h=1e-6)
        target = 0.519031
        assert abs(value - target) / target <= 1e-4, f"{value} vs {target}"


def test_c09_case_table_reproduction():
    with criterion(9, "bundled banked-payroll table reproduces the six printed rates"):
        rows = ingest_case_table(bundled_path("bancarization.csv"))
        assert [r.rate_percent for r in rows] == [3.1, 33.8, 70.0, 73.9, 75.6, 82.6]
        for row in rows:
            raw = 100.0 * row.banked_count / row.total_active
            assert abs(raw - row.rate_percent) <= 0.05


def test_c10_cli_determinism(tmp_path):
    with criterion(10, "solve and simulate produce byte-identical outputs on reruns"):
        solve_scenario = str(bundled_path("baseline.json"))
        sim_scenario = str(bundled_path("baseline_simulate.json"))
        pairs = []
        for name, args in (
            ("solve", ["solve", "--scenario", solve_scenario]),
            ("simulate", ["simulate", "--scenario", sim_scenario]),
        ):
            files = []
            for attempt in ("one", "two"):
                out = tmp_path / f"{name}_{attempt}.csv"
                assert run_command(args + ["--out", str(out)]) == 0
                files.append(out.read_bytes())
            pairs.append(files)
        for first, second in pairs:
            assert first == second

        # JSON output must be deterministic too.
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            assert run_command(
                ["solve", "--scenario", solve_scenario, "--out", str(out),
                 "--format", "json"]
            ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        json.loads(out_a.read_text(encoding="utf-8"))
