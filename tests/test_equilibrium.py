import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reformgame import (
    ConvergenceError,
    DomainError,
    LeaderType,
    ModelParams,
    ParameterError,
    PosteriorConvention,
    ThresholdConvention,
    best_response_map,
    closed_form_threshold,
    effective_gain,
    equilibrium_report,
    grid_sweep,
    info_acquisition_cost,
    posterior_change_state,
    solve_fixed_point,
    success_probability,
)
from reformgame import equilibrium
from reformgame.sweep import SWEEPABLE_PARAMETERS

from conftest import count_calls, make_params, random_valid_params

# Baseline closed forms, exact rationals:
#   kappa* = 0.2 / (2.5 - 0.8) = 2/17, x* = 4/17, psi* = 4/289.
KAPPA_STAR = 2 / 17
X_STAR = 4 / 17
PSI_STAR = 4 / 289


def assert_consistent(params, result):
    """x* is the aggregation at kappa*, and psi* the success probability at
    x*, bit for bit."""
    share = params.theta + (1.0 - params.theta) * (result.kappa_star / params.kappa_max)
    assert result.x_star == params.gamma * share
    assert result.psi_star == success_probability(params.a, params.phi, result.x_star)


class TestBestResponseMap:
    def test_seed_value_at_zero(self):
        assert best_response_map(make_params(), 0.0) == pytest.approx(0.08, rel=1e-12)

    def test_fixed_point_is_stationary(self):
        assert best_response_map(make_params(), KAPPA_STAR) == pytest.approx(
            KAPPA_STAR, rel=1e-12
        )

    def test_no_follower_core_means_no_seed(self):
        assert best_response_map(make_params(theta=0.0), 0.0) == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(DomainError):
            best_response_map(make_params(), -0.01)

    def test_nan_threshold_rejected(self):
        with pytest.raises(DomainError, match="^threshold kappa must be >= 0, got nan$"):
            best_response_map(make_params(), math.nan)

    def test_saturates_above_kappa_max(self):
        params = make_params()
        assert best_response_map(params, 5.0) == best_response_map(params, params.kappa_max)

    def test_contraction_on_random_parameter_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = random_valid_params(rng)
            modulus = (
                params.a
                * effective_gain(params)
                * params.gamma
                * (1.0 - params.theta)
                / params.kappa_max
            )
            assert modulus < 1.0
            for _ in range(5):
                k1, k2 = rng.uniform(0.0, params.kappa_max, size=2)
                if k1 == k2:
                    continue
                ratio = abs(
                    best_response_map(params, k1) - best_response_map(params, k2)
                ) / abs(k1 - k2)
                assert ratio <= modulus * (1.0 + 1e-9)


class TestClosedForm:
    def test_derived_consistent_baseline(self):
        assert closed_form_threshold(make_params()) == pytest.approx(KAPPA_STAR, rel=1e-12)

    def test_literal_baseline(self):
        value = closed_form_threshold(
            replace(make_params(), threshold_convention=ThresholdConvention.PAPER_LITERAL)
        )
        assert value == pytest.approx(0.2 / 3.3, rel=1e-12)

    def test_zero_followers_zero_threshold(self):
        for convention in ThresholdConvention:
            params = make_params(theta=0.0, threshold_convention=convention)
            assert closed_form_threshold(params) == 0.0

    def test_convention_defaults_to_params(self):
        literal = make_params(threshold_convention=ThresholdConvention.PAPER_LITERAL)
        assert closed_form_threshold(literal) == pytest.approx(0.2 / 3.3, rel=1e-12)


class TestSolveFixedPoint:
    def test_baseline_equilibrium(self):
        result = solve_fixed_point(make_params())
        assert result.kappa_star == pytest.approx(KAPPA_STAR, abs=1e-12)
        assert result.x_star == pytest.approx(X_STAR, abs=1e-12)
        assert result.psi_star == pytest.approx(PSI_STAR, abs=1e-12)
        assert result.effective_gain == 1.0
        assert result.convention is ThresholdConvention.DERIVED_CONSISTENT
        assert result.residual <= 1e-12
        assert result.closed_form_gap <= 1e-10

    def test_empty_follower_core_collapses_to_zero(self):
        result = solve_fixed_point(make_params(theta=0.0))
        assert result.kappa_star == 0.0
        assert result.x_star == 0.0
        assert result.psi_star == 0.0
        assert result.closed_form_gap == 0.0

    @pytest.mark.parametrize(
        "posterior,p2", [(PosteriorConvention.PAPER, 0.0), (PosteriorConvention.BAYES, 1.0)]
    )
    @pytest.mark.parametrize("convention", list(ThresholdConvention))
    def test_zero_effective_gain(self, posterior, p2, convention):
        # The majority's posterior is 0, so only the reached followers join.
        params = make_params(
            leader_type=LeaderType.PARTISAN, G2=1.0, p2=p2,
            posterior_convention=posterior, threshold_convention=convention,
        )
        assert effective_gain(params) == 0.0
        assert closed_form_threshold(params) == 0.0
        result = solve_fixed_point(params)
        assert result.kappa_star == 0.0
        assert result.x_star == pytest.approx(params.gamma * params.theta, rel=1e-15)
        assert result.closed_form_gap == 0.0

    @pytest.mark.parametrize("convention", list(ThresholdConvention))
    def test_no_followers_at_the_float_gain_bound(self, convention):
        # Gamma_gain is the float just below kappa_max/(a*gamma) = 2, where
        # the closed form's denominator 1/(a*gamma*Gamma_gain) - 1/kappa_max
        # rounds to 0.
        params = make_params(kappa_max=0.8, theta=0.0, Gamma_gain=1.9999999999999998,
                             threshold_convention=convention)
        assert 1.0 / (params.a * params.gamma * params.Gamma_gain) == 1.0 / params.kappa_max
        assert closed_form_threshold(params) == 0.0
        result = solve_fixed_point(params)
        assert result.kappa_star == 0.0
        assert result.x_star == 0.0
        assert result.closed_form_gap == 0.0

    def test_partisan_discount(self):
        params = make_params(leader_type=LeaderType.PARTISAN, G2=1.0)
        result = solve_fixed_point(params)
        # Gamma_eff = 4/7, so kappa* = 0.2 / (4.375 - 0.8) = 0.0559440559...
        assert result.effective_gain == pytest.approx(4 / 7, rel=1e-12)
        assert result.kappa_star == pytest.approx(0.2 / 3.575, rel=1e-10)

    def test_psi_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            params = random_valid_params(rng)
            assert_consistent(params, solve_fixed_point(params))

    def test_bounds_hold(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            params = random_valid_params(rng)
            result = solve_fixed_point(params)
            assert 0.0 <= result.kappa_star < params.kappa_max
            assert result.x_star <= params.gamma + 1e-15
            assert result.psi_star <= params.a / params.phi + 1e-15

    def test_matches_derived_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            params = random_valid_params(
                rng, threshold_convention=ThresholdConvention.DERIVED_CONSISTENT
            )
            result = solve_fixed_point(params)
            expected = closed_form_threshold(params)
            assert abs(result.kappa_star - expected) <= 1e-11

    def test_non_convergence_guard(self, monkeypatch):
        # The first polish step at the baseline moves by ~1e-17; the second
        # reaches residual 0.
        assert solve_fixed_point(make_params()).residual == 0.0
        monkeypatch.setattr(equilibrium, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="^no fixed point within 1 iterations "):
            solve_fixed_point(make_params())

    @pytest.mark.parametrize("convention", list(ThresholdConvention))
    def test_computes_the_gain_once(self, monkeypatch, convention):
        # The closed form the gap is measured to reuses the solve's scale.
        params = make_params(Gamma_gain=2.2, G3=3.0, G2=2.0, leader_type=LeaderType.PARTISAN,
                             threshold_convention=convention)
        gains = count_calls(monkeypatch, "effective_gain", owner="equilibrium")
        posteriors = count_calls(monkeypatch, "posterior_change_state")
        result = solve_fixed_point(params)
        assert (len(gains), len(posteriors)) == (1, 1)
        assert abs(result.kappa_star - closed_form_threshold(params)) == result.closed_form_gap

    def test_few_polish_steps(self):
        # The solver starts at the affine map's limit, so only the polish
        # steps remain (iterating from 0 took 34 at the baseline).
        assert solve_fixed_point(make_params()).iterations == 2
        rng = np.random.default_rng(29)
        steps = [solve_fixed_point(random_valid_params(rng)).iterations for _ in range(2000)]
        assert max(steps) <= 6

    @pytest.mark.parametrize("theta,Gamma_gain,kappa_max", [
        (0.001, 0.99999 * 2.5, 1.0),  # L = 0.99899: 10,000 steps from 0 did not converge
        (1e-17, 1.9999999999999998, 0.8),  # the float just below the gain bound
    ])
    def test_near_the_gain_bound(self, theta, Gamma_gain, kappa_max):
        params = make_params(theta=theta, Gamma_gain=Gamma_gain, kappa_max=kappa_max)
        result = solve_fixed_point(params)
        assert 0.0 < result.kappa_star < params.kappa_max
        assert result.iterations <= 2
        assert result.kappa_star == pytest.approx(closed_form_threshold(params), rel=1e-12)


class TestEquilibriumReport:
    def test_derived_gap_is_tiny(self):
        report = equilibrium_report(make_params())
        assert report.equilibrium.closed_form_gap <= 1e-10

    def test_literal_gap_is_the_sign_flip(self):
        report = equilibrium_report(
            make_params(threshold_convention=ThresholdConvention.PAPER_LITERAL)
        )
        # |2/17 - 2/33| = 32/561
        assert report.equilibrium.closed_form_gap == pytest.approx(32 / 561, rel=1e-9)

    def test_empty_core_all_zero(self):
        report = equilibrium_report(make_params(theta=0.0))
        assert report.equilibrium.kappa_star == 0.0
        assert report.equilibrium.closed_form_gap == 0.0

    def test_cost_report_non_partisan(self):
        report = equilibrium_report(make_params())
        # Effort for G3 = 1: 0.7*0.5*0.8 = 0.28; cost = 0.5 * 0.28^2.
        assert report.info_cost == pytest.approx(0.5 * 0.28**2, rel=1e-12)
        assert report.partisan_cost == pytest.approx(0.5 * 1.0 * 0.04, rel=1e-12)

    def test_cost_report_partisan_takes_larger_effort(self):
        params = make_params(leader_type=LeaderType.PARTISAN, G2=3.0, G3=1.0)
        report = equilibrium_report(params)
        effort_g2 = 0.7 * 0.5 * 0.8 * 3.0  # larger than the G3 effort
        assert report.info_cost == pytest.approx(
            info_acquisition_cost(params.q, effort_g2), rel=1e-12
        )


class TestLeadershipDominance:
    def test_partisan_weakly_below_non_partisan(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            partisan = random_valid_params(rng, leader_type=LeaderType.PARTISAN)
            non_partisan = make_like_non_partisan(partisan)
            k_p = solve_fixed_point(partisan).kappa_star
            k_np = solve_fixed_point(non_partisan).kappa_star
            belief = posterior_change_state(
                partisan.s, partisan.p2, partisan.posterior_convention
            )
            assert k_p <= k_np + 1e-15
            if belief < 1.0 and partisan.theta > 0.0:
                assert k_p < k_np

    def test_equality_at_unit_posterior(self):
        # Under the published posterior, p2 = 1 forces the belief to 1.
        partisan = make_params(
            leader_type=LeaderType.PARTISAN,
            G2=1.0,
            p2=1.0,
            posterior_convention=PosteriorConvention.PAPER,
        )
        non_partisan = make_like_non_partisan(partisan)
        assert solve_fixed_point(partisan).kappa_star == pytest.approx(
            solve_fixed_point(non_partisan).kappa_star, rel=1e-12
        )


def make_like_non_partisan(params):
    from dataclasses import replace

    return replace(params, leader_type=LeaderType.NON_PARTISAN, G2=0.0)


class TestComparativeStatics:
    @pytest.mark.parametrize(
        "name,grid",
        [
            ("theta", (0.1, 0.3, 0.5, 0.7, 0.9)),
            ("gamma", (0.2, 0.4, 0.6, 0.8)),
            ("Gamma_gain", (0.5, 1.0, 1.5, 2.0)),
            ("a", (0.2, 0.4, 0.6, 0.8)),
        ],
    )
    def test_increasing_parameters(self, name, grid):
        values = [
            solve_fixed_point(make_params(**{name: v})).kappa_star for v in grid
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_decreasing_in_cost_ceiling(self):
        values = [
            solve_fixed_point(make_params(kappa_max=v)).kappa_star
            for v in (1.5, 2.0, 2.5, 3.0)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_literal_form_rises_with_cost_ceiling(self):
        # Documented deviation: the published plus-sign form is increasing in
        # kappa_max, against the stated comparative statics.
        values = [
            closed_form_threshold(
                make_params(kappa_max=v, threshold_convention=ThresholdConvention.PAPER_LITERAL)
            )
            for v in (1.5, 2.0, 2.5, 3.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


FLOAT_MAX = sys.float_info.max
OPEN_UNIT = st.floats(1e-12, 1.0 - 1e-12)


@st.composite
def any_model_params(draw):
    """A valid parameter set from anywhere in the float range.

    ``kappa_max`` spans subnormals to the largest float, ``theta`` hits 0
    and values just above it, and ``Gamma_gain`` is often the last float
    below ``kappa_max/(a*gamma)``.
    """
    a, gamma = draw(OPEN_UNIT), draw(OPEN_UNIT)
    kappa_max = draw(st.floats(5e-324, FLOAT_MAX))
    theta = draw(st.sampled_from([0.0, 5e-324, 1e-17, 1e-12]) | st.floats(0.0, 1.0))
    bound = min(kappa_max / (a * gamma), FLOAT_MAX)
    gain = draw(st.just(math.nextafter(bound, 0.0))
                | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
                    lambda share: share * bound))
    leader_type = draw(st.sampled_from(LeaderType))
    p1, q = draw(st.floats(0.0, 1.0)), draw(st.floats(5e-324, FLOAT_MAX))
    reformer_bound = min(q / ((1.0 - p1) * a * gamma), FLOAT_MAX) if p1 < 1.0 else q
    shares = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    fields = dict(
        a=a, phi=draw(st.floats(1.0, FLOAT_MAX, exclude_min=True)), theta=theta,
        gamma=gamma, kappa_max=kappa_max, Gamma_gain=gain, p1=p1,
        p2=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)), s=draw(OPEN_UNIT),
        q=q, w=draw(st.floats(0.0, FLOAT_MAX)),
        G2=draw(shares) * reformer_bound if leader_type is LeaderType.PARTISAN else 0.0,
        G3=draw(shares) * reformer_bound, leader_type=leader_type,
        threshold_convention=draw(st.sampled_from(ThresholdConvention)),
        posterior_convention=draw(st.sampled_from(PosteriorConvention)),
    )
    try:
        return ModelParams(**fields)
    except ParameterError:
        assume(False)


class TestEveryModelParams:
    @given(params=any_model_params())
    # Float spacing at the threshold (~3e-8) far above an absolute 1e-12.
    @example(params=make_params(kappa_max=2.5e8, theta=1e-12,
                                Gamma_gain=math.nextafter(2.5e8 / 0.4, 0.0)))
    # theta*s*kappa_max would overflow; the closed form's ratio does not.
    @example(params=make_params(kappa_max=1e200, Gamma_gain=1e200))
    # A subnormal kappa_max: kappa*/kappa_max must be formed before scaling.
    @example(params=make_params(kappa_max=1e-317, theta=0.75,
                                Gamma_gain=math.nextafter(1e-317 / 0.4, 0.0)))
    @settings(max_examples=300, deadline=None)
    def test_report_is_finite_and_in_range(self, params):
        report = equilibrium_report(params)
        eq = report.equilibrium
        values = (eq.kappa_star, eq.x_star, eq.psi_star, eq.closed_form_gap,
                  report.info_cost, report.partisan_cost)
        assert all(math.isfinite(v) for v in values), values
        assert 0.0 <= eq.kappa_star <= params.kappa_max
        assert params.gamma * params.theta - 1e-15 <= eq.x_star <= params.gamma + 1e-15
        assert_consistent(params, eq)

    @given(params=any_model_params(), name=st.sampled_from(SWEEPABLE_PARAMETERS))
    @settings(max_examples=100, deadline=None)
    def test_one_point_sweep_keeps_the_point(self, params, name):
        value = getattr(params, name)
        series = grid_sweep(params, name, [value])
        assert series.values == (value,)
        assert series.skipped == ()
