import gc
import math
import operator
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reformgame import (
    DomainError,
    LeaderType,
    ModelParams,
    Monotonicity,
    ParameterError,
    PosteriorConvention,
    ResponseCurve,
    ThresholdConvention,
    closed_form_threshold,
    finite_difference_sensitivity,
    grid_sweep,
    monotonicity_check,
    solve_fixed_point,
    success_probability,
    success_response_series,
)
from reformgame.model import PARAM_RANGES, RELATIONAL_CHECKS
from reformgame.sweep import SWEEPABLE_PARAMETERS, SweepPoint

from conftest import (
    BASELINE,
    count_calls,
    count_checks,
    make_params,
    random_valid_params,
)

# Near both gain bounds: a*gamma*Gamma_gain = 0.88 against kappa_max = 1, and
# G3 = 3 against q/((1-p1)*a*gamma) = 3.57, so grids over a, gamma, p1, q,
# kappa_max, Gamma_gain and the gains cross a relational bound.
TIGHT = make_params(Gamma_gain=2.2, G3=3.0)
TIGHT_PARTISAN = make_params(Gamma_gain=2.2, G3=3.0, G2=2.0, leader_type=LeaderType.PARTISAN)


class TestMonotonicityCheck:
    @pytest.mark.parametrize(
        "series,verdict",
        [
            ([1.0, 2.0, 3.0], Monotonicity.INCREASING),
            ([3.0, 2.0, 1.0], Monotonicity.DECREASING),
            ([3.0, 2.0, 3.0], Monotonicity.NON_MONOTONE),
            ([5.0, 5.0, 5.0], Monotonicity.CONSTANT),
            ([5.0], Monotonicity.CONSTANT),
            # Strict classification: an internal tie is not "increasing".
            ([1.0, 1.0, 2.0], Monotonicity.NON_MONOTONE),
            # Pairs compare exactly: one float spacing is a step.
            ([1.0, 1.0 + 2**-52], Monotonicity.INCREASING),
            ([1.0, 1.0 + 1e-14, 1.0 - 1e-14], Monotonicity.NON_MONOTONE),
            ((1.0, 2.0, 3.0), Monotonicity.INCREASING),
            (np.array([3.0, 2.0, 1.0]), Monotonicity.DECREASING),
            (np.array([3.0, 2.0, 3.0]), Monotonicity.NON_MONOTONE),
            (np.array([5.0, 5.0]), Monotonicity.CONSTANT),
            ([2.0, 2.0], Monotonicity.CONSTANT),
            ([1.0, 2.0, 2.0], Monotonicity.NON_MONOTONE),
            ([3.0, 2.0, 2.0], Monotonicity.NON_MONOTONE),
            # Signed zeros compare equal.
            ([-0.0, 0.0], Monotonicity.CONSTANT),
        ],
    )
    def test_verdicts(self, series, verdict):
        assert monotonicity_check(series) is verdict

    def test_empty_series_rejected(self):
        with pytest.raises(DomainError):
            monotonicity_check([])

    @pytest.mark.parametrize("series,index", [
        ([1.0, math.nan, 2.0], 1),
        ([math.nan], 0),
        ([3.0, 2.0, math.nan], 2),
        ([math.nan, 3.0, 2.0, 1.0], 0),
        ((1.0, math.nan), 1),
        (np.array([1.0, 2.0, math.nan]), 2),
    ])
    def test_nan_rejected_with_its_index(self, series, index):
        with pytest.raises(DomainError, match=f"NaN at index {index}$"):
            monotonicity_check(series)


class TestGridSweep:
    def test_follower_share_increases_threshold(self):
        series = grid_sweep(make_params(), "theta", [i / 10 for i in range(1, 10)])
        assert series.monotonicity is Monotonicity.INCREASING
        assert len(series.outputs) == 9
        assert series.skipped == ()

    def test_cost_ceiling_decreases_threshold(self):
        series = grid_sweep(make_params(), "kappa_max", [1.5, 2.0, 2.5, 3.0])
        assert series.monotonicity is Monotonicity.DECREASING

    def test_singleton_grid_is_constant(self):
        series = grid_sweep(make_params(), "theta", [0.3])
        assert len(series.values) == 1
        assert series.monotonicity is Monotonicity.CONSTANT

    def test_invalid_points_skipped_with_reason(self):
        # The participant gain bound is 2.5 at the baseline.
        series = grid_sweep(make_params(), "Gamma_gain", [2.0, 2.4, 2.6])
        assert series.values == (2.0, 2.4)
        assert len(series.skipped) == 1
        assert series.skipped == ((2.6, "participant_gain_bound"),)
        ((value, reason),) = series.reasons()
        assert value == 2.6
        assert reason.startswith("participant_gain_bound: ")

    def test_no_reasons_when_nothing_is_skipped(self):
        series = grid_sweep(make_params(), "theta", [0.1, 0.5, 0.9])
        assert series.skipped == series.reasons() == ()

    def test_all_invalid_grid_is_an_error(self):
        with pytest.raises(ParameterError) as err:
            grid_sweep(make_params(), "Gamma_gain", [2.6, 3.0])
        assert err.value.constraint == "sweep_grid"

    @pytest.mark.parametrize("name,grid,first", [
        ("Gamma_gain", [-1.0, 2.6], "field_range: Gamma_gain must be > 0, got -1.0"),
        ("theta", [1.5, 2.0], "field_range: theta must lie in [0.0, 1.0], got 1.5"),
        # Fields the solver's kernel does not read, which a sweep solves once.
        ("w", [-math.inf, -1.0], "field_range: w must be a finite number, got -inf"),
        ("q", [-1.0, 0.1], "field_range: q must be > 0, got -1.0"),
        ("G3", [4.0, 5.0],
         "reformer_gain_bound: G3 must be < q/((1-p1)*a*gamma) = 3.5714285714285716, got 4.0"),
        ("G2", [1.0, 2.0], "leader_gain_profile: a non-partisan policy maker "
         "requires G2 = 0 and G3 > 0, got G2 = 1.0, G3 = 1.0"),
        ("s", [0.0, 1.0], "field_range: s must lie in [1e-12, 1 - 1e-12], got 0.0"),
        # A one-point grid has no pair to compare, so NaN reaches the sweep.
        ("theta", [math.nan], "field_range: theta must be a finite number, got nan"),
    ])
    def test_all_invalid_grid_names_the_first_rejection(self, name, grid, first):
        with pytest.raises(ParameterError) as err:
            grid_sweep(make_params(), name, grid)
        assert err.value.constraint == "sweep_grid"
        assert str(err.value) == (
            f"sweep_grid: no valid grid point for {name}; first rejection: {first}")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(DomainError):
            grid_sweep(make_params(), "zeta", [0.1, 0.2])

    @pytest.mark.parametrize("k", [-60, -40, 40, 60])
    def test_verdicts_do_not_depend_on_cost_units(self, k):
        # Criterion 4's grids with kappa_max and Gamma_gain in other units.
        # A power-of-two scale is exact, so every kappa_star scales exactly
        # and every verdict must stay the one at unit scale.
        grids = {
            "theta": [i / 10 for i in range(1, 10)],
            "gamma": [0.1, 0.3, 0.5, 0.7, 0.9],
            "Gamma_gain": [0.5, 1.0, 1.5, 2.0],
            "a": [0.1, 0.3, 0.5, 0.7, 0.9],
            "kappa_max": [1.5, 2.0, 2.5, 3.0],
        }
        unit = 2.0**k
        scaled_base = make_params(kappa_max=unit, Gamma_gain=unit)
        for name, grid in grids.items():
            expected = grid_sweep(make_params(), name, grid)
            if name in ("kappa_max", "Gamma_gain"):
                grid = [value * unit for value in grid]
            series = grid_sweep(scaled_base, name, grid)
            assert series.monotonicity is expected.monotonicity, name
            assert series.kappa_star == tuple(kappa * unit for kappa in expected.kappa_star)

    def test_grid_must_strictly_increase(self):
        with pytest.raises(DomainError):
            grid_sweep(make_params(), "theta", [0.3, 0.2])
        with pytest.raises(DomainError):
            grid_sweep(make_params(), "theta", [0.3, 0.3])
        with pytest.raises(DomainError):
            grid_sweep(make_params(), "theta", [0.1, 0.3, math.nan, 0.2])
        with pytest.raises(DomainError):
            grid_sweep(make_params(), "theta", [])

    @pytest.mark.parametrize("grid", [[-0.0, 0.0], [0.1, 0.2, math.nan], [0.1, 0.2, 0.2, 0.3]],
                             ids=["signed-zeros", "trailing-nan", "repeated-value"])
    def test_grid_rejects_each_non_increasing_pair(self, grid):
        with pytest.raises(DomainError, match=r"^sweep grid values must be strictly increasing$"):
            grid_sweep(make_params(), "theta", grid)

    def test_points_compute_no_costs(self, monkeypatch):
        # A point needs only the equilibrium, not the cost report.
        efforts = count_calls(monkeypatch, "optimal_info_effort")
        series = grid_sweep(make_params(), "theta", [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        assert len(series.values) == 6
        assert efforts == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_points_equal_the_solver_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        for name in SWEEPABLE_PARAMETERS:
            base = random_valid_params(rng)
            center = getattr(base, name)
            # Around the base value, crossing a validity bound for most fields.
            grid = sorted({center + d for d in (-0.5, -0.01, 0.0, 0.01, 0.5, 50.0)})
            series = grid_sweep(base, name, grid)
            assert center in series.values
            for value, point in zip(series.values, series.outputs):
                eq = solve_fixed_point(replace(base, **{name: value}))
                got = (point.kappa_star, point.x_star, point.psi_star)
                assert [v.hex() for v in got] == [
                    v.hex() for v in (eq.kappa_star, eq.x_star, eq.psi_star)]

    def test_one_validation_and_no_result_record_per_point(self, monkeypatch):
        # A point runs its field's range check and only the relational
        # checks that read the field: none for theta, and only the
        # participant gain bound for Gamma_gain. A row runs only as a
        # bisection probe: a rejected in-range value takes its key from the
        # probes and runs no row for a text. A skipped point builds no
        # exception, and the scratch point the sweep overwrites leaves the
        # base as it was.
        base = make_params()
        base_fields, base_hash = dict(vars(base)), hash(base)
        validations = count_calls(monkeypatch, "validate_params")
        results = count_calls(monkeypatch, "EquilibriumResult", owner="equilibrium")
        checks = count_checks(monkeypatch)
        errors = []
        real_init = ParameterError.__init__

        def counting_init(self, *args):
            errors.append(args)
            real_init(self, *args)

        monkeypatch.setattr(ParameterError, "__init__", counting_init)
        grid = [-0.5, -0.1, 0.0, 0.3, 0.7, 1.0, 1.2]  # three points out of range
        series = grid_sweep(base, "theta", grid)
        assert (len(series.values), len(series.skipped)) == (4, 3)
        assert checks == {name: [] for name in RELATIONAL_CHECKS}

        grid = [-1.0, 0.0, 1.0, 2.0, 2.4, 2.6, 3.0, math.inf]  # the bound is 2.5
        series = grid_sweep(base, "Gamma_gain", grid)
        assert series.values == (1.0, 2.0, 2.4)
        assert [value for value, _ in series.skipped] == [-1.0, 0.0, 2.6, 3.0, math.inf]
        # Probes: the run's first value passes, so bisection over the rest
        # finds the first failure, 2.6, and no row runs on 2.6 or 3.0 again.
        assert [p["Gamma_gain"] for p in checks["participant_gain_bound"]] == [1.0, 2.6, 2.4]
        assert checks["leader_gain_profile"] == checks["reformer_gain_bound"] == []

        # G3 = 0 breaks the leader gain profile, 3.6 the reformer bound 3.57.
        series = grid_sweep(base, "G3", [-1.0, 0.0, 1.0, 3.6])
        assert series.values == (1.0,)
        assert series.skipped == ((-1.0, "field_range"), (0.0, "leader_gain_profile"),
                                  (3.6, "reformer_gain_bound"))
        # Probes: the leader row fails at 0.0, so bisection finds its first
        # pass, 1.0; the reformer row passes at 1.0 and bisection finds its
        # first failure, 3.6. The rejected 0.0 and 3.6 run no row again.
        assert [p["G3"] for p in checks["leader_gain_profile"]] == [0.0, 3.6, 1.0]
        assert [p["G3"] for p in checks["reformer_gain_bound"]] == [1.0, 3.6]

        assert errors == []
        assert (vars(base), hash(base)) == (base_fields, base_hash)
        assert base == BASELINE
        assert validations == []
        assert results == []
        solve_fixed_point(base)  # the counter sees a solve's record
        assert len(results) == 1
        with pytest.raises(ParameterError):
            make_params(G3=3.6)
        assert len(errors) == 1  # the counter sees the constructor's error

    @pytest.mark.parametrize("base", [TIGHT, TIGHT_PARTISAN], ids=["non-partisan", "partisan"])
    def test_same_as_a_loop_of_constructor_and_solver(self, base):
        seen = set()
        for name in SWEEPABLE_PARAMETERS:
            lo, hi, _ = PARAM_RANGES[name]
            grid = sorted({-math.inf, -1.0, lo, *(i / 100 for i in range(101)),
                           1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 10.0, 1e6, hi, math.inf})
            values, outputs, skipped = [], [], []
            for value in grid:
                try:
                    params = ModelParams(**{**vars(base), name: value})
                except ParameterError as exc:
                    skipped.append((value, exc))
                    continue
                eq = solve_fixed_point(params)
                values.append(value)
                outputs.append(tuple(v.hex() for v in (eq.kappa_star, eq.x_star, eq.psi_star)))
            series = grid_sweep(base, name, grid)
            assert series.values == tuple(values), name
            assert [tuple(getattr(p, f.name).hex() for f in fields(SweepPoint))
                    for p in series.outputs] == outputs, name
            _assert_skips(series, skipped)
            assert str(skipped[-1][1]) == f"field_range: {name} must be a finite number, got inf"
            # Each grid crosses a relational bound when a check reads the field.
            hit = {exc.constraint for _, exc in skipped} - {"field_range"}
            assert bool(hit) == any(name in reads for _, reads in RELATIONAL_CHECKS.values())
            seen |= hit
        assert seen == set(RELATIONAL_CHECKS)

    @pytest.mark.parametrize("base,name", [
        (BASELINE, "w"), (BASELINE, "q"), (BASELINE, "p1"), (BASELINE, "G3"),
        (BASELINE, "s"), (BASELINE, "p2"), (TIGHT_PARTISAN, "G2"), (TIGHT_PARTISAN, "G3"),
        (TIGHT_PARTISAN, "w"),
    ])
    @pytest.mark.parametrize("points", [1, 2, 101])
    def test_fields_the_kernel_does_not_read_solve_once(self, monkeypatch, base, name, points):
        kernel = count_calls(monkeypatch, "_fixed_point", owner="equilibrium")
        center = getattr(base, name)
        grid = [center * (1.0 + i / 1000) for i in range(points)]
        series = grid_sweep(base, name, grid)
        assert len(series.values) == points
        assert len(kernel) == 1
        assert set(series.kappa_star) == {solve_fixed_point(base).kappa_star}

    def test_theta_sweep_computes_the_gain_once(self, monkeypatch):
        gains = count_calls(monkeypatch, "effective_gain", owner="equilibrium")
        series = grid_sweep(TIGHT_PARTISAN, "theta", [i / 100 for i in range(101)])
        assert len(series.values) == 101
        assert len(gains) == 1

    def test_outputs_align_with_values(self):
        series = grid_sweep(make_params(), "gamma", [0.2, 0.5, 0.8])
        assert len(series.outputs) == len(series.values)
        for value, point in zip(series.values, series.outputs):
            expected = closed_form_threshold(make_params(gamma=value))
            assert point.kappa_star == pytest.approx(expected, abs=1e-10)

    def test_long_sweep_runs_no_garbage_collection(self):
        # A kept point appends three floats, which the collector does not
        # track; one tracked object per point would start a collection
        # within 1001 points on every supported Python.
        grid = [i / 1000 for i in range(1001)]
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(record)
        try:
            series = grid_sweep(BASELINE, "theta", grid)
        finally:
            gc.callbacks.remove(record)
        assert len(series.values) == 1001
        assert starts == []


def _sweep_values(lo: float, hi: float, center: float):
    """Values for one field: in range, anywhere, +-inf, NaN, and multiples of
    the base value, which cross the relational bounds of the random bases."""
    return (st.floats(lo, hi) | st.floats() | st.sampled_from([math.inf, -math.inf, math.nan])
            | st.floats(0.0, 3.0).map(lambda f: f * center))


class TestPointBuilder:
    def test_instances_keep_a_dict(self):
        # validate_params and grid_sweep read a parameter set as vars(params).
        assert "__slots__" not in vars(ModelParams)
        assert list(vars(BASELINE)) == [f.name for f in fields(ModelParams)]


def _loop_sweep(base, name, grid):
    """What grid_sweep must return, from the constructor and the solver at
    each value: the kept values, their solved columns and each skipped value
    with the constructor's error."""
    values, columns, skipped = [], [], []
    for value in grid:
        try:
            params = ModelParams(**{**vars(base), name: value})
        except ParameterError as exc:
            skipped.append((value, exc))
            continue
        eq = solve_fixed_point(params)
        values.append(value)
        columns.append((eq.kappa_star, eq.x_star, eq.psi_star))
    return values, columns, skipped


def _assert_skips(series, skipped):
    """The series skips each value the constructor rejected, under the
    error's constraint, and its reasons() are the errors' texts."""
    assert series.skipped == tuple((value, exc.constraint) for value, exc in skipped)
    assert series.reasons() == tuple((value, str(exc)) for value, exc in skipped)


@st.composite
def sweep_grids(draw, name, leader_type):
    """A random valid base of the leader type and either convention of each
    kind, with a grid over one field: a doubling ladder about the base
    value, which crosses a gain bound drawn at most 0.95 of the way to it;
    both ends of the field's range and the float past each; and a few
    values from anywhere."""
    base = random_valid_params(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        leader_type=leader_type,
        threshold_convention=draw(st.sampled_from(ThresholdConvention)),
        posterior_convention=draw(st.sampled_from(PosteriorConvention)),
    )
    lo, hi, _ = PARAM_RANGES[name]
    center = getattr(base, name)
    grid = {center * 2.0**k for k in range(-6, 7)}
    grid |= {lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)}
    grid |= set(draw(st.lists(_sweep_values(lo, hi, center), max_size=8)))
    return base, sorted(value for value in grid if value == value)


class TestGridSweepEquivalence:
    @pytest.mark.parametrize("leader_type", list(LeaderType))
    @pytest.mark.parametrize("name", SWEEPABLE_PARAMETERS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_same_as_a_loop_of_constructor_and_solver(self, name, leader_type, data):
        # Covers every field under both conventions of each kind, partisan
        # s and p2 sweeps under the BAYES posterior included.
        base, grid = data.draw(sweep_grids(name, leader_type))
        values, columns, skipped = _loop_sweep(base, name, grid)
        if not values:
            with pytest.raises(ParameterError) as err:
                grid_sweep(base, name, grid)
            assert str(err.value) == (f"sweep_grid: no valid grid point for {name}; "
                                      f"first rejection: {str(skipped[0][1])}")
            return
        series = grid_sweep(base, name, grid)
        assert [v.hex() for v in series.values] == [v.hex() for v in values]
        got = zip(series.kappa_star, series.x_star, series.psi_star)
        assert [[v.hex() for v in point] for point in got] == [
            [v.hex() for v in point] for point in columns]
        _assert_skips(series, skipped)
        assert series.monotonicity is monotonicity_check([point[0] for point in columns])


class TestBisectedRangeEnds:
    # grid_sweep finds the values outside the range by bisection, and
    # reasons() builds their texts from one head per side; the loop builds
    # each point.
    @pytest.mark.parametrize("base", [TIGHT, TIGHT_PARTISAN], ids=["non-partisan", "partisan"])
    def test_every_kind_of_skip_in_one_grid(self, base):
        lo, hi, _ = PARAM_RANGES["a"]  # both ends are points
        grid = [-math.inf, -1.0, 0.0, 5e-13, lo, 0.3, 0.5, 0.58, 0.9, hi, 1.0 - 5e-13, 1.0,
                2.0, math.inf]
        values, _, skipped = _loop_sweep(base, "a", grid)
        series = grid_sweep(base, "a", grid)
        assert series.values == tuple(values) == (lo, 0.3, 0.5)
        _assert_skips(series, skipped)
        assert [key for _, key in series.skipped] == (
            ["field_range"] * 4 + ["participant_gain_bound"] * 3 + ["field_range"] * 4)
        texts = [text for _, text in series.reasons()]
        assert texts[0] == "field_range: a must be a finite number, got -inf"
        assert texts[1] == "field_range: a must lie in [1e-12, 1 - 1e-12], got -1.0"
        assert texts[-2] == "field_range: a must lie in [1e-12, 1 - 1e-12], got 2.0"
        assert texts[-1] == "field_range: a must be a finite number, got inf"

    @pytest.mark.parametrize("name,grid,first", [
        ("a", [-math.inf, -1.0, 0.0], "field_range: a must be a finite number, got -inf"),
        ("a", [-1.0, 0.0], "field_range: a must lie in [1e-12, 1 - 1e-12], got -1.0"),
        ("a", [1.0, 2.0, math.inf], "field_range: a must lie in [1e-12, 1 - 1e-12], got 1.0"),
        ("w", [math.inf], "field_range: w must be a finite number, got inf"),
        ("G3", [-3.0, -5e-324], "field_range: G3 must be >= 0, got -3.0"),
    ])
    def test_grid_wholly_outside_the_range(self, name, grid, first):
        _, _, skipped = _loop_sweep(make_params(), name, grid)
        assert str(skipped[0][1]) == first
        with pytest.raises(ParameterError) as err:
            grid_sweep(make_params(), name, grid)
        assert str(err.value) == (
            f"sweep_grid: no valid grid point for {name}; first rejection: {first}")


class TestBisectedKeptRun:
    # A row runs on a kept value only as a bisection probe: the kept run's
    # first value, then at most ceil(log2(m)) probes in a run of m values.
    @pytest.mark.parametrize("name,grid", [
        ("G3", [(i - 200) * 0.005 for i in range(1001)]),  # holds 0.0, crosses 3.57
        ("Gamma_gain", [i * 0.005 for i in range(1001)]),  # crosses 0 and 2.5
    ])
    def test_rows_run_logarithmically_often_on_kept_values(self, monkeypatch, name, grid):
        lo, hi, _ = PARAM_RANGES[name]
        m = sum(lo <= value <= hi for value in grid)
        base = make_params()
        checks = count_checks(monkeypatch)
        series = grid_sweep(base, name, grid)
        kept = set(series.values)
        assert 0 < len(kept) < m
        for constraint, (_, reads) in RELATIONAL_CHECKS.items():
            on_kept = [p for p in checks[constraint] if p[name] in kept]
            assert len(on_kept) <= 2 + math.ceil(math.log2(m)), constraint
            assert bool(checks[constraint]) == (name in reads), constraint

    def test_rejected_values_run_no_row(self, monkeypatch):
        # The bound is 2.5, so about half the in-range values are rejected;
        # every row run is a bisection probe, kept or rejected alike.
        grid = [i * 0.005 for i in range(1001)]
        m = len(grid) - 1  # 0.0 is outside Gamma_gain's range
        base = make_params()
        checks = count_checks(monkeypatch)
        series = grid_sweep(base, "Gamma_gain", grid)
        rejected = [value for value, key in series.skipped if key == "participant_gain_bound"]
        assert 400 < len(rejected) < 600
        assert sum(map(len, checks.values())) <= 2 + math.ceil(math.log2(m))


def _flip_values(f, name):
    """The values of field ``name`` at which a row that reads it meets its
    bound with equality, the other fields held at ``f``'s."""
    a, gamma, gain, kappa_max = f["a"], f["gamma"], f["Gamma_gain"], f["kappa_max"]
    p1, q = f["p1"], f["q"]
    gains = [g for g in (f["G2"], f["G3"]) if g > 0.0]
    bound = q / ((1.0 - p1) * a * gamma) if p1 < 1.0 else math.inf
    return {
        "Gamma_gain": [kappa_max / (a * gamma)],
        "kappa_max": [a * gamma * gain],
        "a": [kappa_max / (gamma * gain)] + [q / ((1.0 - p1) * gamma * g) for g in gains],
        "gamma": [kappa_max / (a * gain)] + [q / ((1.0 - p1) * a * g) for g in gains],
        "q": [(1.0 - p1) * a * gamma * g for g in gains],
        "p1": [1.0 - q / (a * gamma * g) for g in gains],
        "G2": [0.0, bound],
        "G3": [0.0, bound],
    }[name]


_ROW_FIELDS = [(constraint, name) for constraint, (_, reads) in RELATIONAL_CHECKS.items()
               for name in reads if name in SWEEPABLE_PARAMETERS]


class TestRelationalRowsAreMonotone:
    # The rule above RELATIONAL_CHECKS, which grid_sweep's bisection rests
    # on: along a strictly increasing run of in-range values of a field a
    # row reads, the row's verdict changes at most once. A row that breaks
    # it fails here, whether or not a sweep happens to cross its flip.
    @pytest.mark.parametrize("posterior", list(PosteriorConvention))
    @pytest.mark.parametrize("leader_type", list(LeaderType))
    @pytest.mark.parametrize("constraint,name", _ROW_FIELDS)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_verdict_changes_at_most_once(self, constraint, name, leader_type, posterior,
                                          seed, data):
        base = vars(random_valid_params(np.random.default_rng(seed), leader_type=leader_type,
                                        posterior_convention=posterior))
        check, _ = RELATIONAL_CHECKS[constraint]
        lo, hi, _ = PARAM_RANGES[name]
        values = {lo, hi, base[name]}
        values |= set(data.draw(st.lists(st.floats(lo, hi), max_size=20)))
        for flip in _flip_values(base, name):
            values |= {flip, math.nextafter(flip, -math.inf), math.nextafter(flip, math.inf)}
            if math.isfinite(flip):
                scales = data.draw(st.lists(st.floats(0.5, 2.0), max_size=10))
                values |= {flip * scale for scale in scales}
        run = sorted(value for value in values if lo <= value <= hi)
        passes = [check({**base, name: value}) is None for value in run]
        assert sum(map(operator.ne, passes, passes[1:])) <= 1, list(zip(run, passes))


class TestSuccessResponseSeries:
    def test_certainty_panel_values(self):
        response = success_response_series([0.2, 0.4, 0.6, 0.8], [2.0], [0.5])
        psi = list(response.certainty.psi_star)
        assert psi == pytest.approx([0.025, 0.05, 0.075, 0.1], rel=1e-12)
        assert response.certainty.monotonicity is Monotonicity.INCREASING

    def test_certainty_panel_is_linear(self):
        response = success_response_series([0.1, 0.3, 0.5, 0.7, 0.9], [2.0], [0.5])
        psi = list(response.certainty.psi_star)
        second_diffs = [psi[i + 2] - 2 * psi[i + 1] + psi[i] for i in range(len(psi) - 2)]
        assert all(abs(d) < 1e-12 for d in second_diffs)

    def test_complementarity_panel_decreasing(self):
        response = success_response_series([0.5], [1.5, 2.0, 3.0], [0.5])
        assert response.complementarity.monotonicity is Monotonicity.DECREASING

    def test_participation_panel_increasing_and_convex(self):
        grid = [i / 10 for i in range(11)]
        response = success_response_series([0.5], [2.0], grid)
        psi = list(response.participation.psi_star)
        assert response.participation.monotonicity is Monotonicity.INCREASING
        second_diffs = [psi[i + 2] - 2 * psi[i + 1] + psi[i] for i in range(len(psi) - 2)]
        assert all(d > 0 for d in second_diffs)

    def test_zero_participation_kills_success(self):
        for a in (0.2, 0.5, 0.8):
            for phi in (1.5, 2.0, 4.0):
                assert success_probability(a, phi, 0.0) == 0.0
        response = success_response_series([0.5], [2.0], [0.0])
        assert response.participation.psi_star == (0.0,)

    def test_panels_hold_only_the_response_columns(self):
        response = success_response_series([0.5], [2.0], [0.25, 0.5])
        assert response.participation == ResponseCurve(
            values=(0.25, 0.5), psi_star=(0.015625, 0.0625),
            monotonicity=Monotonicity.INCREASING)
        assert ResponseCurve._fields == ("values", "psi_star", "monotonicity")

    def test_empty_grid_rejected(self):
        for panel, grids in (("certainty grid (a)", ([], [2.0], [0.5])),
                             ("complementarity grid (phi)", ([0.5], [], [0.5])),
                             ("participation grid (x)", ([0.5], [2.0], []))):
            with pytest.raises(DomainError, match=rf"^{re.escape(panel)} is empty$"):
                success_response_series(*grids)

    @pytest.mark.parametrize("panel,grids", [
        ("certainty grid (a)", ([0.8, 0.2], [2.0], [0.5])),
        ("certainty grid (a)", ([0.2, 0.2], [2.0], [0.5])),
        ("complementarity grid (phi)", ([0.5], [3.0, 1.5], [0.5])),
        ("complementarity grid (phi)", ([0.5], [1.5, math.nan, 3.0], [0.5])),
        ("participation grid (x)", ([0.5], [2.0], [0.9, 0.1]))])
    def test_grid_must_strictly_increase(self, panel, grids):
        # A reversed grid would read psi's rise in a as a fall.
        message = rf"^{re.escape(panel)} values must be strictly increasing$"
        with pytest.raises(DomainError, match=message):
            success_response_series(*grids)


class TestFiniteDifferenceSensitivity:
    def test_follower_share_at_baseline(self):
        # Analytic derivative of theta/D(theta): (D - theta/kappa_max)/D^2
        # with D = 2.5 - 0.8 = 1.7, giving 1.5/2.89.
        value = finite_difference_sensitivity(make_params(), "theta", h=1e-6)
        assert value == pytest.approx(1.5 / 2.89, rel=1e-6)

    def test_reach_is_positive(self):
        assert finite_difference_sensitivity(make_params(), "gamma", h=1e-6) > 0.0

    def test_boundary_falls_back_to_one_sided(self):
        # theta - h would leave [0, 1]; the one-sided difference applies.
        # Derivative of theta/(1.5 + theta) at 0 is 1/1.5.
        value = finite_difference_sensitivity(make_params(theta=0.0), "theta", h=1e-6)
        assert value == pytest.approx(2 / 3, rel=1e-5)

    def test_gain_bound_falls_back_to_one_sided(self):
        # Gamma_gain + h breaks the participant gain bound, here
        # Gamma_gain < kappa_max/(a*gamma) = 2.5; the lower side applies.
        base, h = make_params(Gamma_gain=2.5 - 5e-7), 1e-6
        with pytest.raises(ParameterError, match="^participant_gain_bound: "):
            make_params(Gamma_gain=base.Gamma_gain + h)
        lower = make_params(Gamma_gain=base.Gamma_gain - h)
        expected = (closed_form_threshold(base) - closed_form_threshold(lower)) / h
        assert finite_difference_sensitivity(base, "Gamma_gain", h) == expected

    @pytest.mark.parametrize(
        "name,analytic",
        [
            ("theta", 1.5 / 2.89),
            ("gamma", 0.2 * 2.5 / (0.8 * 2.89)),
            ("a", 0.2 * 2.5 / (0.5 * 2.89)),
            ("Gamma_gain", 0.2 * 2.5 / (1.0 * 2.89)),
            ("kappa_max", -0.2 * 0.8 / 2.89),
        ],
    )
    def test_matches_analytic_derivatives(self, name, analytic):
        value = finite_difference_sensitivity(make_params(), name, h=1e-6)
        assert abs(value - analytic) / abs(analytic) < 1e-4

    def test_step_must_be_positive(self):
        with pytest.raises(DomainError):
            finite_difference_sensitivity(make_params(), "theta", h=0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_step_must_be_finite(self, h):
        with pytest.raises(DomainError) as err:
            finite_difference_sensitivity(make_params(), "theta", h=h)
        assert type(err.value) is DomainError
        assert str(err.value) == f"step h must be finite and > 0, got {h}"

    @pytest.mark.parametrize("theta,h", [
        (0.2, 1e-17),  # returned 0.0, where h = 1e-8 gives 0.519
        (0.5, 3e-17),  # 0.5 - h moves to the float below, 0.5 + h rounds back
    ])
    def test_step_below_the_float_spacing(self, theta, h):
        with pytest.raises(DomainError) as err:
            finite_difference_sensitivity(make_params(theta=theta), "theta", h=h)
        assert type(err.value) is DomainError
        assert str(err.value) == f"step h = {h} is below the float spacing of theta = {theta}"

    def test_unknown_parameter_rejected(self):
        with pytest.raises(DomainError):
            finite_difference_sensitivity(make_params(), "zeta", h=1e-6)

    def test_both_sides_invalid_is_an_error(self):
        with pytest.raises(ParameterError) as err:
            finite_difference_sensitivity(make_params(), "s", h=0.6)
        assert err.value.constraint == "sensitivity_stencil"

    def test_respects_threshold_convention(self):
        literal = make_params(threshold_convention=ThresholdConvention.PAPER_LITERAL)
        # d/d theta of theta/(3.5 - theta) at 0.2: (3.3 + 0.2)/3.3^2
        value = finite_difference_sensitivity(literal, "theta", h=1e-6)
        assert value == pytest.approx(3.5 / 3.3**2, rel=1e-6)


# The reason in parentheses is Python's own and varies by version.
@pytest.mark.parametrize("call,name", [
    (lambda: grid_sweep(make_params(), "q", [10**400]), "sweep grid value"),
    (lambda: grid_sweep(make_params(), "q", [0.5, 1j]), "sweep grid value"),
    (lambda: success_response_series([0.5], [2.0 + 0j], [0.5]),
     "complementarity grid (phi) value"),
    (lambda: finite_difference_sensitivity(make_params(), "q", 10**400), "step h"),
    (lambda: finite_difference_sensitivity(make_params(), "q", 1e-6j), "step h"),
], ids=["int-grid-overflow", "complex-grid", "complex-phi-grid", "int-h-overflow", "complex-h"])
def test_unconvertible_inputs_rejected_by_name(call, name):
    with pytest.raises(DomainError) as err:
        call()
    assert type(err.value) is DomainError
    assert str(err.value).startswith(f"{name}: not a real number within float range (")
