import math
import sys
import warnings
from dataclasses import fields, replace
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reformgame import (
    GAIN_ALLOCATION,
    Beneficiary,
    DomainError,
    LeaderType,
    ModelParams,
    ParameterError,
    PosteriorConvention,
    WorldState,
    bundled_path,
    equilibrium_report,
    estimate_equilibrium,
    grid_sweep,
    info_acquisition_cost,
    optimal_info_effort,
    partisan_participation_cost,
    posterior_change_state,
    run_command,
    solve_fixed_point,
    state_probabilities,
    success_probability,
    validate_params,
)
from reformgame.model import _CHOICE_FIELDS, PARAM_RANGES, RELATIONAL_CHECKS

from conftest import BASELINE, count_calls, count_checks, make_params, random_valid_params

NUMERIC_FIELDS = [f.name for f in fields(ModelParams) if f.type == "float"]


class TestSuccessProbability:
    def test_zero_participation(self):
        assert success_probability(0.5, 2.0, 0.0) == 0.0

    def test_hand_value(self):
        # (1/2) * 0.5 * 0.6**2 = 0.09
        assert success_probability(0.5, 2.0, 0.6) == pytest.approx(0.09, rel=1e-12)

    def test_full_participation_hits_upper_bound(self):
        assert success_probability(0.5, 2.0, 1.0) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize(
        "a,phi,x",
        [(0.0, 2.0, 0.5), (1.0, 2.0, 0.5), (0.5, 1.0, 0.5), (0.5, 2.0, -0.1), (0.5, 2.0, 1.1)],
    )
    def test_domain_errors(self, a, phi, x):
        with pytest.raises(DomainError):
            success_probability(a, phi, x)

    @given(
        a=st.floats(1e-6, 1 - 1e-6),
        phi=st.floats(1.0 + 1e-6, 10.0),
        x=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300)
    def test_bounded_by_a_over_phi(self, a, phi, x):
        psi = success_probability(a, phi, x)
        assert 0.0 <= psi <= a / phi < 1.0

    def test_increasing_in_x(self):
        grid = [i / 20 for i in range(21)]
        values = [success_probability(0.5, 2.0, x) for x in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_linear_in_a(self):
        values = [success_probability(a, 2.0, 0.5) for a in (0.2, 0.4, 0.6, 0.8)]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d > 0 for d in diffs)
        assert all(abs(d - diffs[0]) < 1e-12 for d in diffs)

    def test_decreasing_in_phi_for_interior_x(self):
        values = [success_probability(0.5, phi, 0.5) for phi in (1.5, 2.0, 3.0, 5.0)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestCosts:
    def test_info_cost_examples(self):
        assert info_acquisition_cost(1.0, 0.0) == 0.0
        assert info_acquisition_cost(1.0, 0.56) == pytest.approx(0.1568, rel=1e-12)
        assert info_acquisition_cost(2.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_partisan_cost_examples(self):
        assert partisan_participation_cost(2.0, 0.0) == 0.0
        assert partisan_participation_cost(2.0, 0.3) == pytest.approx(0.09, rel=1e-12)
        assert partisan_participation_cost(1.0, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            info_acquisition_cost(0.0, 0.5)
        with pytest.raises(DomainError):
            info_acquisition_cost(1.0, 1.5)
        with pytest.raises(DomainError):
            partisan_participation_cost(-0.1, 0.5)
        with pytest.raises(DomainError):
            partisan_participation_cost(1.0, -0.2)

    @pytest.mark.parametrize("cost,name,value", [
        (partisan_participation_cost, "w", math.nan),
        (partisan_participation_cost, "w", math.inf),
        (partisan_participation_cost, "w", -math.inf),
        (info_acquisition_cost, "q", math.nan),
        (info_acquisition_cost, "q", math.inf),
    ])
    def test_non_finite_scale(self, cost, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be a finite number, got {value}$"):
            cost(value, 0.5)

    @pytest.mark.parametrize("cost,message", [
        (partisan_participation_cost, "w must be >= 0, got -0.1"),
        (info_acquisition_cost, "q must be > 0, got -0.1"),
    ])
    def test_negative_scale_message(self, cost, message):
        with pytest.raises(DomainError, match=f"^{message}$") as err:
            cost(-0.1, 0.5)
        assert err.type is DomainError  # not a field's ParameterError

    @given(q=st.floats(0.1, 10.0), t=st.floats(0.0, 0.5))
    @settings(max_examples=200)
    def test_info_cost_quadratic_scaling(self, q, t):
        assert info_acquisition_cost(q, 2 * t) == pytest.approx(
            4 * info_acquisition_cost(q, t), rel=1e-12, abs=1e-300
        )

    @given(w=st.floats(0.0, 10.0), t=st.floats(0.0, 0.5))
    @settings(max_examples=200)
    def test_partisan_cost_quadratic_scaling(self, w, t):
        assert partisan_participation_cost(w, 2 * t) == pytest.approx(
            4 * partisan_participation_cost(w, t), rel=1e-12, abs=1e-300
        )


class TestPosterior:
    def test_collapses_to_one_at_full_alignment(self):
        assert posterior_change_state(1.0, 0.4, PosteriorConvention.PAPER) == 1.0

    def test_reduces_to_p2_at_zero_alignment(self):
        assert posterior_change_state(0.0, 0.4, PosteriorConvention.PAPER) == pytest.approx(
            0.4, rel=1e-12
        )

    def test_hand_value(self):
        # 0.4 / (0.4 + 0.5 * 0.6) = 4/7
        assert posterior_change_state(0.5, 0.4, PosteriorConvention.PAPER) == pytest.approx(
            4 / 7, rel=1e-12
        )

    def test_bayes_hand_value(self):
        # 0.6 / (0.6 + 0.5 * 0.4) = 0.75
        assert posterior_change_state(0.5, 0.4, PosteriorConvention.BAYES) == pytest.approx(
            0.75, rel=1e-12
        )

    @pytest.mark.parametrize("p2", [0.1, 0.5, 0.9])
    def test_boundary_values_exact(self, p2):
        assert posterior_change_state(1.0, p2, PosteriorConvention.PAPER) == 1.0
        assert posterior_change_state(0.0, p2, PosteriorConvention.PAPER) == p2
        assert posterior_change_state(0.0, p2, PosteriorConvention.BAYES) == 1.0 - p2

    def test_empty_denominator(self):
        with pytest.raises(DomainError):
            posterior_change_state(1.0, 0.0, PosteriorConvention.PAPER)
        with pytest.raises(DomainError):
            posterior_change_state(1.0, 1.0, PosteriorConvention.BAYES)

    def test_increasing_in_alignment(self):
        grid = [i / 10 for i in range(11)]
        for p2 in (0.2, 0.5, 0.8):
            values = [posterior_change_state(s, p2, PosteriorConvention.PAPER) for s in grid]
            assert all(b > a for a, b in zip(values, values[1:]))
            assert values[0] == pytest.approx(p2, rel=1e-12)
            assert values[-1] == 1.0

    @given(s=st.floats(0.0, 1.0), p2=st.floats(0.01, 0.99))
    @settings(max_examples=200)
    def test_stays_in_unit_interval(self, s, p2):
        for convention in PosteriorConvention:
            assert 0.0 <= posterior_change_state(s, p2, convention) <= 1.0


class TestStateProbabilities:
    def test_status_quo_certain(self):
        assert state_probabilities(1.0, 0.7) == (1.0, 0.0, 0.0)

    def test_majority_state_certain(self):
        assert state_probabilities(0.0, 0.0) == (0.0, 0.0, 1.0)

    def test_hand_values(self):
        p = state_probabilities(0.3, 0.4)
        assert p == pytest.approx((0.3, 0.28, 0.42), rel=1e-12)

    @pytest.mark.parametrize("p1,p2,expected", [
        (True, 0.5, (1.0, 0.0, 0.0)),  # returned (True, 0.0, 0.0)
        (1, 0, (1.0, 0.0, 0.0)),
        (Fraction(1, 4), np.float32(0.5), (0.25, 0.375, 0.375)),
    ], ids=["bool", "int", "fraction-float32"])
    def test_returns_floats(self, p1, p2, expected):
        probs = state_probabilities(p1, p2)
        assert probs == expected
        assert all(type(p) is float for p in probs)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            state_probabilities(-0.1, 0.5)
        with pytest.raises(DomainError):
            state_probabilities(0.5, 1.2)

    @given(p1=st.floats(0.0, 1.0), p2=st.floats(0.0, 1.0))
    @settings(max_examples=300)
    def test_simplex(self, p1, p2):
        probs = state_probabilities(p1, p2)
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert math.isclose(sum(probs), 1.0, abs_tol=1e-12)


class TestOptimalInfoEffort:
    def test_no_gain_no_effort(self):
        params = make_params(leader_type=LeaderType.NON_PARTISAN, G2=0.0)
        assert optimal_info_effort(params, WorldState.E2) == 0.0

    def test_interior_effort(self):
        params = make_params(
            leader_type=LeaderType.PARTISAN, p1=0.3, a=0.5, gamma=0.8, G2=2.0, q=1.0
        )
        assert optimal_info_effort(params, WorldState.E2) == pytest.approx(0.56, rel=1e-12)

    def test_near_bound_still_interior(self):
        # Reformer bound is 1/(0.7*0.5*0.8) = 3.571..., so G = 3.5 is allowed.
        params = make_params(G3=3.5)
        assert optimal_info_effort(params, WorldState.E3) == pytest.approx(0.98, rel=1e-12)
        assert optimal_info_effort(params, WorldState.E3) < 1.0

    def test_monotone_in_gain_and_ability(self):
        efforts = [
            optimal_info_effort(make_params(G3=g), WorldState.E3) for g in (0.5, 1.0, 2.0, 3.0)
        ]
        assert all(b > a for a, b in zip(efforts, efforts[1:]))
        efforts_q = [
            optimal_info_effort(make_params(q=q), WorldState.E3) for q in (0.5, 1.0, 2.0)
        ]
        assert all(b < a for a, b in zip(efforts_q, efforts_q[1:]))

    def test_rejects_status_quo_state_and_bad_q(self):
        with pytest.raises(DomainError):
            optimal_info_effort(make_params(), WorldState.E1)
        # A state's value is not the state: "E2" must not get E3's effort.
        with pytest.raises(DomainError, match=r"^state must be a WorldState, got 'E2'$"):
            optimal_info_effort(make_params(), "E2")
        with pytest.raises(DomainError):
            optimal_info_effort(make_params(q=0.0), WorldState.E3)

    @pytest.mark.parametrize("state", ["E1", "E3", None])
    def test_rejects_a_state_that_is_not_a_world_state(self, state):
        # Compared by identity, any of these would have got E3's effort.
        with pytest.raises(DomainError) as err:
            optimal_info_effort(make_params(), state)
        assert str(err.value) == f"state must be a WorldState, got {state!r}"


class TestValidateParams:
    def test_baseline_accepted(self):
        params = make_params()
        assert validate_params(params) is params

    def test_participant_gain_bound(self):
        # kappa_max/(a*gamma) = 2.5, so a gain of 3 must be rejected.
        with pytest.raises(ParameterError) as err:
            validate_params(make_params(Gamma_gain=3.0))
        assert err.value.constraint == "participant_gain_bound"
        assert "a*gamma*Gamma_gain must be < kappa_max" in str(err.value)

    def test_participant_gain_bound_is_strict(self):
        with pytest.raises(ParameterError):
            validate_params(make_params(Gamma_gain=2.5))
        validate_params(make_params(Gamma_gain=2.4999))

    def test_participant_gain_bound_is_checked_as_the_product(self):
        # Gamma_gain is the last float below kappa_max/(a*gamma) = 29.629...,
        # yet a*gamma*Gamma_gain rounds to kappa_max, so the threshold's
        # denominator kappa_max - a*gamma*Gamma_gain would be 0.
        gain = math.nextafter(0.8 / (0.03 * 0.9), 0.0)
        assert 0.03 * 0.9 * gain >= 0.8
        with pytest.raises(ParameterError) as err:
            make_params(a=0.03, gamma=0.9, kappa_max=0.8, Gamma_gain=gain)
        assert err.value.constraint == "participant_gain_bound"
        # The message names the product it tested, not the quotient the
        # gain is below.
        assert str(err.value) == (
            "participant_gain_bound: a*gamma*Gamma_gain must be < kappa_max = 0.8, "
            f"got 0.8 (Gamma_gain = {gain})"
        )

    def test_reformer_gain_bound(self):
        # q/((1-p1)*a*gamma) = 3.571...
        with pytest.raises(ParameterError) as err:
            validate_params(make_params(G3=3.6))
        assert err.value.constraint == "reformer_gain_bound"
        assert str(err.value) == (
            "reformer_gain_bound: G3 must be < q/((1-p1)*a*gamma) = 3.5714285714285716, got 3.6")
        with pytest.raises(ParameterError) as err:
            validate_params(
                make_params(leader_type=LeaderType.PARTISAN, G2=4.0, G3=1.0)
            )
        assert err.value.constraint == "reformer_gain_bound"
        assert str(err.value) == (
            "reformer_gain_bound: G2 must be < q/((1-p1)*a*gamma) = 3.5714285714285716, got 4.0")

    def test_leader_gain_profile(self):
        with pytest.raises(ParameterError) as err:
            validate_params(make_params(G2=0.1))
        assert err.value.constraint == "leader_gain_profile"
        assert str(err.value) == (
            "leader_gain_profile: a non-partisan policy maker requires G2 = 0 and G3 > 0, "
            "got G2 = 0.1, G3 = 1.0")
        with pytest.raises(ParameterError) as err:
            validate_params(make_params(G3=0.0))
        assert err.value.constraint == "leader_gain_profile"
        assert str(err.value) == (
            "leader_gain_profile: a non-partisan policy maker requires G2 = 0 and G3 > 0, "
            "got G2 = 0.0, G3 = 0.0")
        with pytest.raises(ParameterError) as err:
            validate_params(make_params(leader_type=LeaderType.PARTISAN, G2=0.0))
        assert err.value.constraint == "leader_gain_profile"
        assert str(err.value) == (
            "leader_gain_profile: a partisan policy maker requires G2 > 0 and G3 > 0, "
            "got G2 = 0.0, G3 = 1.0")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"a": 0.0},
            {"a": 1e-13},
            {"a": 1.0},
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"s": 0.0},
            {"s": 1.0},
            {"theta": -0.1},
            {"theta": 1.1},
            {"phi": 1.0},
            {"kappa_max": 0.0},
            {"Gamma_gain": 0.0},
            {"q": 0.0},
            {"w": -1.0},
            {"p1": 1.5},
            {"p2": -0.5},
            {"G3": -1.0},
        ]
        + [
            {name: bad}
            for name in NUMERIC_FIELDS
            for bad in (math.nan, math.inf, -math.inf)
        ],
    )
    def test_field_ranges(self, overrides):
        with pytest.raises(ParameterError) as err:
            validate_params(make_params(**overrides))
        assert err.value.constraint == "field_range"
        (name,) = overrides
        assert str(err.value).startswith(f"field_range: {name} ")

    # Unchecked, a plain string computed the wrong thing ("paper-literal"
    # gave the derived closed form, "non-partisan" was solved as a partisan),
    # a Decimal failed in the solver and the other numeric values raised a
    # bare TypeError.
    @pytest.mark.parametrize("overrides,kind", [
        ({"threshold_convention": "paper-literal"}, "a ThresholdConvention member"),
        ({"leader_type": "non-partisan", "G2": 0.5}, "a LeaderType member"),
        ({"leader_type": "dictator", "G2": 0.5}, "a LeaderType member"),
        ({"leader_type": None, "G2": 0.5}, "a LeaderType member"),
        ({"posterior_convention": "bayes"}, "a PosteriorConvention member"),
        ({"a": "0.5"}, "a real number"),
        ({"q": 1j}, "a real number"),
        ({"w": None}, "a real number"),
        ({"kappa_max": Decimal("1.0")}, "a real number"),
    ], ids=["literal-string", "non-partisan-string", "unknown-leader", "no-leader",
            "bayes-string", "a-string", "q-complex", "w-none", "kappa_max-decimal"])
    def test_field_types(self, overrides, kind):
        name = next(iter(overrides))
        with pytest.raises(ParameterError) as err:
            make_params(**overrides)
        assert err.value.constraint == "field_range"
        assert str(err.value) == (
            f"field_range: {name} must be {kind}, got {overrides[name]!r}"
        )

    @pytest.mark.parametrize("value", [math.inf, -math.inf, 10**400],
                             ids=["inf", "-inf", "10**400"])
    def test_non_finite_value_message(self, value):
        with pytest.raises(ParameterError) as err:
            make_params(w=value)
        assert str(err.value) == f"field_range: w must be a finite number, got {value}"

    @pytest.mark.parametrize("value", [10**5000, -(10**5000)], ids=["10**5000", "-10**5000"])
    def test_int_too_long_to_print_is_named(self, value):
        # str() of an int past sys.get_int_max_str_digits() digits raises
        # ValueError, so the message gives the limit in place of the digits.
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ParameterError) as err:
            make_params(w=value)
        assert str(err.value) == (
            f"field_range: w must be a finite number, got a number of more than {limit} digits")
        with pytest.raises(DomainError) as err:
            info_acquisition_cost(value, 0.5)
        assert str(err.value) == (
            f"q must be a finite number, got a number of more than {limit} digits")

    def test_other_real_types_accepted(self):
        params = make_params(q=np.int64(1), w=Fraction(1, 2))
        assert validate_params(params) is params

    @pytest.mark.parametrize("name", NUMERIC_FIELDS)
    def test_float32_field_stored_as_float(self, name):
        # Kept as float32, a field warned on the range check's cast of the
        # largest float and then ran the solve in single precision.
        value = np.float32(getattr(BASELINE, name))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = make_params(**{name: value})
            assert type(getattr(params, name)) is float
            assert solve_fixed_point(params) == solve_fixed_point(
                make_params(**{name: float(value)}))

    def test_theta_endpoints_allowed(self):
        validate_params(make_params(theta=0.0))
        validate_params(make_params(theta=1.0))

    def test_p1_certain_status_quo_skips_reformer_bound(self):
        # With p1 = 1 no change state occurs and the reformer bound is vacuous.
        validate_params(make_params(p1=1.0, G3=100.0, Gamma_gain=1.0))

    def test_relational_checks_read_exactly_their_fields(self):
        # A sweep point runs only the rows whose field list names its varied
        # field, so each list must cover every field its check reads.
        class Recorder:
            def __init__(self, params):
                self.params, self.read = params, set()

            def __getitem__(self, name):
                self.read.add(name)
                return vars(self.params)[name]

        rng = np.random.default_rng(5)
        bases = [random_valid_params(rng, leader_type=leader)
                 for leader in LeaderType for _ in range(20)]
        for name, (check, reads) in RELATIONAL_CHECKS.items():
            seen = set()
            for base in bases:
                recorder = Recorder(base)
                check(recorder)
                seen |= recorder.read
            assert seen == set(reads), name


class TestValidOnConstruction:
    def test_replace_checks_the_gain_bound(self):
        with pytest.raises(ParameterError) as err:
            replace(BASELINE, Gamma_gain=3.0)
        assert err.value.constraint == "participant_gain_bound"

    @pytest.fixture
    def validations(self, monkeypatch):
        """Every validate_params call, through any module that binds it."""
        return count_calls(monkeypatch, "validate_params")

    def test_one_validation_per_sweep_point(self, validations, monkeypatch):
        # A point is checked against its field's range and the relational
        # checks that read the field, not by a full validate_params; no
        # relational check reads theta.
        checks = count_checks(monkeypatch)
        grid = [-0.1, 0.0, 0.2, 0.5, 1.0, 1.5]  # two points out of range
        series = grid_sweep(BASELINE, "theta", grid)
        assert len(series.values) + len(series.skipped) == len(grid)
        assert [value for value, _ in series.skipped] == [-0.1, 1.5]
        assert validations == []
        assert checks == {name: [] for name in RELATIONAL_CHECKS}

    def test_construction_runs_every_relational_check_once(self, monkeypatch):
        checks = count_checks(monkeypatch)
        params = replace(BASELINE, theta=0.3)
        assert {name: len(calls) for name, calls in checks.items()} == {
            "leader_gain_profile": 1, "participant_gain_bound": 1, "reformer_gain_bound": 1}
        assert all(calls == [vars(params)] for calls in checks.values())

    def test_built_params_are_not_revalidated(self, validations):
        solve_fixed_point(BASELINE)
        equilibrium_report(BASELINE)
        estimate_equilibrium(BASELINE, n=1000, replications=2, seed=1)
        assert validations == []

    @pytest.mark.parametrize("flags", [[], ["--convention", "paper-literal",
                                            "--posterior", "bayes"]])
    def test_one_validation_per_cli_run(self, validations, flags, capsys):
        argv = ["solve", "--scenario", str(bundled_path("baseline.json")), *flags]
        assert run_command(argv) == 0
        capsys.readouterr()
        assert len(validations) == 1


class TestFieldDeclarations:
    """ModelParams's declarations are the one list of its fields and rules."""

    @pytest.mark.parametrize("params", [
        BASELINE,
        random_valid_params(np.random.default_rng(5), LeaderType.PARTISAN,
                            posterior_convention=PosteriorConvention.BAYES),
    ], ids=["baseline", "partisan-bayes"])
    def test_positional_construction_in_declaration_order(self, params):
        values = [getattr(params, f.name) for f in fields(ModelParams)]
        assert ModelParams(*values) == ModelParams(**vars(params)) == params

    @pytest.mark.parametrize("name", NUMERIC_FIELDS)
    def test_a_missing_numeric_field_is_named(self, name):
        values = dict(vars(BASELINE))
        del values[name]
        with pytest.raises(TypeError, match=rf"missing 1 required positional argument: '{name}'$"):
            ModelParams(**values)

    @pytest.mark.parametrize("changes,message", [
        ({"theta": 1.5}, "field_range: theta must lie in [0.0, 1.0], got 1.5"),
        ({"s": 1.0}, "field_range: s must lie in [1e-12, 1 - 1e-12], got 1.0"),
        ({"q": math.inf}, "field_range: q must be a finite number, got inf"),
        ({"leader_type": "partisan"},
         "field_range: leader_type must be a LeaderType member, got 'partisan'"),
    ], ids=["theta", "s", "q", "leader_type"])
    def test_replace_checks_the_declared_rules(self, changes, message):
        with pytest.raises(ParameterError) as err:
            replace(BASELINE, **changes)
        assert str(err.value) == message

    def test_tables_follow_the_declarations(self):
        hints = get_type_hints(ModelParams)
        assert list(PARAM_RANGES) == [name for name, kind in hints.items() if kind is float]
        assert _CHOICE_FIELDS == {name: kind for name, kind in hints.items()
                                  if isinstance(kind, type) and issubclass(kind, Enum)}
        # Every field is validated by one table or the other.
        assert list(hints) == list(PARAM_RANGES) + list(_CHOICE_FIELDS)


class TestGainAllocation:
    def test_mapping_rows(self):
        assert GAIN_ALLOCATION == {
            WorldState.E1: Beneficiary.LOBBYISTS_ONLY,
            WorldState.E2: Beneficiary.MINORITY_PLUS_POLICY_MAKER,
            WorldState.E3: Beneficiary.MAJORITY_INCLUDING_MINORITY,
        }
