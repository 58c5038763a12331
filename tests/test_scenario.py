import json
from dataclasses import fields, replace
from importlib import resources

import pytest

from reformgame import (
    AbmSettings,
    BancarizationSeries,
    CaseDataSettings,
    CaseTableError,
    DomainError,
    LeaderType,
    ModelParams,
    Monotonicity,
    ParameterError,
    PosteriorConvention,
    RunKind,
    Scenario,
    ScenarioParseError,
    ScenarioSchemaError,
    SweepSeries,
    SweepSettings,
    ThresholdConvention,
    bundled_path,
    equilibrium_report,
    estimate_equilibrium,
    grid_sweep,
    ingest_case_table,
    load_scenario,
    write_results,
)
from reformgame.scenario import _SECTIONS

from conftest import BASELINE, make_params

BASE_PARAMS_JSON = {
    "a": 0.5,
    "phi": 2.0,
    "theta": 0.2,
    "gamma": 0.8,
    "kappa_max": 1.0,
    "Gamma_gain": 1.0,
    "p1": 0.3,
    "p2": 0.4,
    "s": 0.5,
    "q": 1.0,
    "w": 1.0,
    "G2": 0.0,
    "G3": 1.0,
    "leader_type": "non-partisan",
}


BUNDLED_FILES = ("bad_gain_bound.json", "bancarization.csv", "bancarization.json",
                 "baseline.json", "baseline_simulate.json", "baseline_sweep.json")


class TestBundledPath:
    @pytest.mark.parametrize("name", BUNDLED_FILES)
    def test_the_package_data_file(self, name):
        path = bundled_path(name)
        assert path == resources.files("reformgame") / "data" / name
        assert path.is_file()

    def test_unknown_name_rejected(self):
        with pytest.raises(FileNotFoundError, match="^no bundled data file named 'nope.json'$"):
            bundled_path("nope.json")


def write_json(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def write_with_raw_number(tmp_path, payload, text):
    """Write a scenario whose "X" placeholder is replaced by raw JSON text."""
    path = write_json(tmp_path, payload)
    path.write_text(path.read_text().replace('"X"', text), encoding="utf-8")
    return path


def solve_payload(**overrides):
    params = dict(BASE_PARAMS_JSON)
    params.update(overrides.pop("params", {}))
    payload = {"label": "test", "run": "solve", "params": params}
    payload.update(overrides)
    return payload


class TestLoadScenario:
    def test_bundled_baseline(self):
        scenario = load_scenario(bundled_path("baseline.json"))
        assert scenario.label == "baseline"
        assert scenario.run is RunKind.SOLVE
        assert scenario.params == BASELINE
        assert scenario.abm is None and scenario.sweep is None

    def test_conventions_default_when_omitted(self, tmp_path):
        scenario = load_scenario(write_json(tmp_path, solve_payload()))
        assert scenario.params.threshold_convention is ThresholdConvention.DERIVED_CONSISTENT
        assert scenario.params.posterior_convention is PosteriorConvention.PAPER

    def test_convention_defaults_are_the_declared_ones(self):
        # The params section repeats the two conventions' defaults; they
        # must stay those of ModelParams's declarations.
        _, specs = _SECTIONS["params"]
        optional = {spec[0]: spec[2] for spec in specs if len(spec) == 3}
        declared = {f.name: f.default for f in fields(ModelParams)}
        assert list(optional) == ["threshold_convention", "posterior_convention"]
        assert optional == {name: declared[name] for name in optional}

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioParseError):
            load_scenario(path)
        # CR LF and a lone CR each end one line, as in a text-mode read.
        for end in ("\r\n", "\r"):
            path.write_bytes(f'{{{end}"label": x{end}}}'.encode())
            with pytest.raises(ScenarioParseError, match=r"line 2 column 10 \(char 11\)\)$"):
                load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "absent.json")

    def test_missing_param_named(self, tmp_path):
        payload = solve_payload()
        del payload["params"]["theta"]
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(write_json(tmp_path, payload))
        assert err.value.field == "params.theta"

    def test_unknown_param_named(self, tmp_path):
        payload = solve_payload(params={"zeta": 1.0})
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(write_json(tmp_path, payload))
        assert "zeta" in err.value.field

    def test_unknown_top_level_field(self, tmp_path):
        payload = solve_payload()
        payload["extra"] = 1
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(write_json(tmp_path, payload))
        assert "extra" in err.value.field

    def test_param_must_be_number(self, tmp_path):
        payload = solve_payload(params={"a": "0.5"})
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(write_json(tmp_path, payload))
        assert err.value.field == "params.a"

    def test_bad_run_value(self, tmp_path):
        payload = solve_payload()
        payload["run"] = "explore"
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(write_json(tmp_path, payload))
        assert err.value.field == "run"

    def test_bad_enum_value(self, tmp_path):
        payload = solve_payload(params={"leader_type": "monarch"})
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(write_json(tmp_path, payload))
        assert err.value.field == "params.leader_type"

    def test_simulate_requires_abm_section(self, tmp_path):
        payload = solve_payload()
        payload["run"] = "simulate"
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(write_json(tmp_path, payload))
        assert err.value.field == "abm"

    def test_solve_rejects_extraneous_section(self, tmp_path):
        payload = solve_payload(abm={"n": 1000, "replications": 2, "seed": 1})
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(write_json(tmp_path, payload))
        assert err.value.field == "abm"

    def test_sweep_values_must_be_numbers(self, tmp_path):
        payload = solve_payload(sweep={"parameter_name": "theta", "values": [0.1, "x"]})
        payload["run"] = "sweep"
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(write_json(tmp_path, payload))
        assert err.value.field == "sweep.values"

    def test_model_violation_names_the_bound(self):
        with pytest.raises(ParameterError) as err:
            load_scenario(bundled_path("bad_gain_bound.json"))
        assert err.value.constraint == "participant_gain_bound"
        assert "a*gamma*Gamma_gain must be < kappa_max" in str(err.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_literals_are_parse_errors(self, tmp_path, literal):
        path = write_with_raw_number(tmp_path, solve_payload(params={"w": "X"}), literal)
        with pytest.raises(ScenarioParseError, match=literal) as err:
            load_scenario(path)
        assert err.value.field == "params.w"
        assert str(err.value).endswith(f"({literal} is not a JSON number) at params.w")
        payload = solve_payload(run="sweep",
                                sweep={"parameter_name": "theta", "values": [0.1, 0.2, "X"]})
        with pytest.raises(ScenarioParseError, match=literal) as err:
            load_scenario(write_with_raw_number(tmp_path, payload, literal))
        assert err.value.field == "sweep.values[2]"

    def test_literal_without_a_location_is_still_rejected(self, tmp_path):
        # A later duplicate key drops the literal from the parsed document.
        path = write_with_raw_number(tmp_path, solve_payload(params={"w": "X"}), "NaN, \"w\": 1.0")
        with pytest.raises(ScenarioParseError, match="NaN is not a JSON number") as err:
            load_scenario(path)
        assert err.value.field is None

    def test_repeated_param_key_named(self, tmp_path):
        path = write_with_raw_number(tmp_path, solve_payload(params={"w": "X"}), '5.0, "w": 1.0')
        with pytest.raises(ScenarioSchemaError, match="duplicate field params.w") as err:
            load_scenario(path)
        assert err.value.field == "params.w"

    def test_repeated_top_level_key_named(self, tmp_path):
        path = write_with_raw_number(tmp_path, solve_payload(label="X"), '"a", "label": "b"')
        with pytest.raises(ScenarioSchemaError, match="duplicate field label") as err:
            load_scenario(path)
        assert err.value.field == "label"

    def test_numbers_beyond_the_float_range_named(self, tmp_path):
        huge = 10**400
        with pytest.raises(ScenarioSchemaError) as err:
            load_scenario(write_json(tmp_path, solve_payload(params={"w": huge})))
        assert err.value.field == "params.w"
        payload = solve_payload(run="sweep",
                                sweep={"parameter_name": "theta", "values": [0.1, "X"]})
        for value in (str(huge), "1e400"):
            with pytest.raises(ScenarioSchemaError) as err:
                load_scenario(write_with_raw_number(tmp_path, payload, value))
            assert err.value.field == "sweep.values"

    def test_scenario_must_be_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ScenarioSchemaError):
            load_scenario(path)


MISSING = object()

SIMULATE = solve_payload(run="simulate", abm={"n": 1000, "replications": 2, "seed": 1})
SWEEP = solve_payload(run="sweep", sweep={"parameter_name": "theta", "values": [0.1, 0.2]})
CASE = solve_payload(run="case-data", case_data={"path": "bancarization.csv"})


def edit(payload, section, **changes):
    """A copy of payload with keys of one section (None: the top level) set or removed."""
    out = json.loads(json.dumps(payload))
    target = out if section is None else out[section]
    for key, value in changes.items():
        if value is MISSING:
            del target[key]
        else:
            target[key] = value
    return out


def rejection(name, payload, error, field, message, raw=None):
    return pytest.param(payload, raw, error, field, message, id=name)


def field_cases(section, base, key, kind):
    """Missing and mistyped cases for one field of a section."""
    where = f"{section}.{key}"
    wrong = {"int": ["2", True, 2.5], "str": [1, True]}[kind]
    noun = {"int": "an integer", "str": "a string"}[kind]
    yield rejection(f"{where}-missing", edit(base, section, **{key: MISSING}),
                    ScenarioSchemaError, where, f"missing required field {where}")
    for value in wrong:
        yield rejection(f"{where}-{value!r}", edit(base, section, **{key: value}),
                        ScenarioSchemaError, where, f"{where} must be {noun}, got {value!r}")


def section_cases(section, base):
    """A section that is not an object, and one with an unknown key."""
    yield rejection(f"{section}-not-an-object", edit(base, None, **{section: [1]}),
                    ScenarioSchemaError, section, f"{section} must be an object")
    yield rejection(f"{section}-unknown-key", edit(base, section, extra=1),
                    ScenarioSchemaError, f"{section}.extra", f"unknown field 'extra' in {section}")


REJECTIONS = [
    # The top level.
    rejection("not-an-object", None, ScenarioSchemaError, "", "scenario must be a JSON object",
              raw="[1, 2]"),
    rejection("unknown-key", edit(solve_payload(), None, extra=1),
              ScenarioSchemaError, "extra", "unknown field 'extra' in scenario"),
    rejection("label-missing", edit(solve_payload(), None, label=MISSING),
              ScenarioSchemaError, "scenario.label", "missing required field scenario.label"),
    rejection("run-missing", edit(solve_payload(), None, run=MISSING),
              ScenarioSchemaError, "scenario.run", "missing required field scenario.run"),
    rejection("label-not-a-string", edit(solve_payload(), None, label=3),
              ScenarioSchemaError, "scenario.label", "scenario.label must be a string, got 3"),
    rejection("run-not-a-string", edit(solve_payload(), None, run=["solve"]),
              ScenarioSchemaError, "scenario.run",
              "scenario.run must be a string, got ['solve']"),
    rejection("run-unknown", edit(solve_payload(), None, run="explore"),
              ScenarioSchemaError, "run",
              "run must be one of: solve, simulate, sweep, case-data; got 'explore'"),
    rejection("params-missing", edit(solve_payload(), None, params=MISSING),
              ScenarioSchemaError, "params", "missing required field params"),
    # params.
    rejection("params-not-an-object", edit(solve_payload(), None, params=[1]),
              ScenarioSchemaError, "params", "params must be an object"),
    rejection("params-unknown-key", solve_payload(params={"zeta": 1.0}),
              ScenarioSchemaError, "params.zeta", "unknown field 'zeta' in params"),
    rejection("params.theta-missing", edit(solve_payload(), "params", theta=MISSING),
              ScenarioSchemaError, "params.theta", "missing required field params.theta"),
    rejection("params.a-string", solve_payload(params={"a": "0.5"}),
              ScenarioSchemaError, "params.a", "params.a must be a number, got '0.5'"),
    rejection("params.a-bool", solve_payload(params={"a": True}),
              ScenarioSchemaError, "params.a", "params.a must be a number, got True"),
    rejection("params.w-beyond-float", solve_payload(params={"w": 10**400}),
              ScenarioSchemaError, "params.w", "params.w is too large to be a float"),
    rejection("params.leader_type-missing", edit(solve_payload(), "params", leader_type=MISSING),
              ScenarioSchemaError, "params.leader_type",
              "missing required field params.leader_type"),
    rejection("params.leader_type-not-a-string", solve_payload(params={"leader_type": 1}),
              ScenarioSchemaError, "params.leader_type",
              "params.leader_type must be a string, got 1"),
    rejection("params.leader_type-unknown", solve_payload(params={"leader_type": "monarch"}),
              ScenarioSchemaError, "params.leader_type",
              "params.leader_type must be one of: partisan, non-partisan; got 'monarch'"),
    rejection("params.threshold_convention-not-a-string",
              solve_payload(params={"threshold_convention": None}),
              ScenarioSchemaError, "params.threshold_convention",
              "params.threshold_convention must be a string, got None"),
    rejection("params.threshold_convention-unknown",
              solve_payload(params={"threshold_convention": "paper"}),
              ScenarioSchemaError, "params.threshold_convention",
              "params.threshold_convention must be one of: paper-literal, derived-consistent; "
              "got 'paper'"),
    rejection("params.posterior_convention-not-a-string",
              solve_payload(params={"posterior_convention": 0}),
              ScenarioSchemaError, "params.posterior_convention",
              "params.posterior_convention must be a string, got 0"),
    rejection("params.posterior_convention-unknown",
              solve_payload(params={"posterior_convention": "paper-literal"}),
              ScenarioSchemaError, "params.posterior_convention",
              "params.posterior_convention must be one of: paper, bayes; got 'paper-literal'"),
    # abm, sweep and case_data.
    *section_cases("abm", SIMULATE),
    *field_cases("abm", SIMULATE, "n", "int"),
    *field_cases("abm", SIMULATE, "replications", "int"),
    *field_cases("abm", SIMULATE, "seed", "int"),
    *section_cases("sweep", SWEEP),
    *field_cases("sweep", SWEEP, "parameter_name", "str"),
    rejection("sweep.parameter_name-unknown", edit(SWEEP, "sweep", parameter_name="zeta"),
              ScenarioSchemaError, "sweep.parameter_name",
              "sweep.parameter_name must be one of: a, phi, theta, gamma, kappa_max, "
              "Gamma_gain, p1, p2, s, q, w, G2, G3; got 'zeta'"),
    *section_cases("case_data", CASE),
    *field_cases("case_data", CASE, "path", "str"),
    # sweep.values.
    rejection("sweep.values-missing", edit(SWEEP, "sweep", values=MISSING),
              ScenarioSchemaError, "sweep.values", "sweep.values must be a non-empty array"),
    rejection("sweep.values-not-a-list", edit(SWEEP, "sweep", values=0.1),
              ScenarioSchemaError, "sweep.values", "sweep.values must be a non-empty array"),
    rejection("sweep.values-empty", edit(SWEEP, "sweep", values=[]),
              ScenarioSchemaError, "sweep.values", "sweep.values must be a non-empty array"),
    rejection("sweep.values-string-element", edit(SWEEP, "sweep", values=[0.1, "x"]),
              ScenarioSchemaError, "sweep.values", "sweep.values[1] must be a number, got 'x'"),
    rejection("sweep.values-bool-element", edit(SWEEP, "sweep", values=[False]),
              ScenarioSchemaError, "sweep.values", "sweep.values[0] must be a number, got False"),
    rejection("sweep.values-beyond-float", edit(SWEEP, "sweep", values=[0.1, 0.2, 10**400]),
              ScenarioSchemaError, "sweep.values", "sweep.values[2] is too large to be a float"),
    rejection("sweep.values-infinite", edit(SWEEP, "sweep", values=[0.1, "X"]),
              ScenarioSchemaError, "sweep.values", "sweep.values must be finite numbers",
              raw="1e400"),
    # The run's section.
    rejection("simulate-without-abm", edit(SIMULATE, None, abm=MISSING),
              ScenarioSchemaError, "abm", "run = 'simulate' requires a 'abm' section"),
    rejection("sweep-without-sweep", edit(SWEEP, None, sweep=MISSING),
              ScenarioSchemaError, "sweep", "run = 'sweep' requires a 'sweep' section"),
    rejection("case-data-without-case_data", edit(CASE, None, case_data=MISSING),
              ScenarioSchemaError, "case_data",
              "run = 'case-data' requires a 'case_data' section"),
    rejection("solve-with-abm", edit(SIMULATE, None, run="solve"),
              ScenarioSchemaError, "abm", "section 'abm' is not allowed when run = 'solve'"),
    rejection("sweep-with-case_data", edit(SWEEP, None, case_data={"path": "x.csv"}),
              ScenarioSchemaError, "case_data",
              "section 'case_data' is not allowed when run = 'sweep'"),
    # Check order.
    rejection("unknown-key-before-bad-value", solve_payload(params={"a": "x", "zeta": 1.0}),
              ScenarioSchemaError, "params.zeta", "unknown field 'zeta' in params"),
    rejection("top-level-unknown-before-missing-label",
              edit(solve_payload(), None, label=MISSING, extra=1),
              ScenarioSchemaError, "extra", "unknown field 'extra' in scenario"),
    rejection("fields-in-table-order", edit(solve_payload(params={"leader_type": 1}), "params",
                                            G3=MISSING),
              ScenarioSchemaError, "params.G3", "missing required field params.G3"),
    rejection("params-before-sections", edit(SIMULATE, None, abm=[1], params=[1]),
              ScenarioSchemaError, "params", "params must be an object"),
    rejection("range-violation-before-missing-section",
              edit(edit(SIMULATE, "params", theta=2.0), None, abm=MISSING),
              ParameterError, "field_range", "field_range: theta must lie in [0.0, 1.0], got 2.0"),
    rejection("inside-boundary-margin", edit(SIMULATE, "params", a=1e-13),
              ParameterError, "field_range",
              "field_range: a must lie in [1e-12, 1 - 1e-12], got 1e-13"),
    rejection("sections-before-presence", edit(solve_payload(), None, sweep={"values": []}),
              ScenarioSchemaError, "sweep.parameter_name",
              "missing required field sweep.parameter_name"),
]


class TestRejections:
    """Every load_scenario rejection: its type, its field and its exact message.

    Each case loads with and without both convention overrides: the
    overrides replace file values only after those values pass their checks.
    """

    @pytest.mark.parametrize("overrides", [
        {},
        {"threshold_convention": ThresholdConvention.PAPER_LITERAL,
         "posterior_convention": PosteriorConvention.BAYES},
    ], ids=["file", "overridden"])
    @pytest.mark.parametrize("payload,raw,error,field,message", REJECTIONS)
    def test_rejection(self, tmp_path, overrides, payload, raw, error, field, message):
        if payload is None:
            path = tmp_path / "scenario.json"
            path.write_text(raw, encoding="utf-8")
        elif raw is not None:
            path = write_with_raw_number(tmp_path, payload, raw)
        else:
            path = write_json(tmp_path, payload)
        with pytest.raises(error) as err:
            load_scenario(path, **overrides)
        assert type(err.value) is error
        where = err.value.constraint if error is ParameterError else err.value.field
        assert (where, str(err.value)) == (field, message)


# The convention fields at their defaults, given explicitly.
CONVENTIONS = {"threshold_convention": "derived-consistent", "posterior_convention": "paper"}


class TestLoadRunKinds:
    """Each run kind loads from a hand-written payload to the expected Scenario."""

    @pytest.mark.parametrize(
        "payload,expected",
        [
            pytest.param(
                solve_payload(label="  solve it\n"),
                Scenario(label="solve it", run=RunKind.SOLVE, params=BASELINE),
                id="solve",
            ),
            pytest.param(
                solve_payload(label="\tsimulate it ", run="simulate",
                              params={"leader_type": "partisan", "G2": 0.7, **CONVENTIONS},
                              abm={"n": 2000, "replications": 3, "seed": 9}),
                Scenario(
                    label="simulate it",
                    run=RunKind.SIMULATE,
                    params=make_params(leader_type=LeaderType.PARTISAN, G2=0.7),
                    abm=AbmSettings(n=2000, replications=3, seed=9),
                ),
                id="simulate",
            ),
            pytest.param(
                solve_payload(label=" sweep it", run="sweep",
                              params={"theta": 1 / 3, **CONVENTIONS},
                              sweep={"parameter_name": "gamma", "values": [0.2, 0.4, 0.8]}),
                Scenario(
                    label="sweep it",
                    run=RunKind.SWEEP,
                    params=make_params(theta=1 / 3),
                    sweep=SweepSettings(parameter_name="gamma", values=(0.2, 0.4, 0.8)),
                ),
                id="sweep",
            ),
            pytest.param(
                solve_payload(label="case it  ", run="case-data", params=CONVENTIONS,
                              case_data={"path": "bancarization.csv"}),
                Scenario(
                    label="case it",
                    run=RunKind.CASE_DATA,
                    params=BASELINE,
                    case_data=CaseDataSettings(path="bancarization.csv"),
                ),
                id="case-data",
            ),
        ],
    )
    def test_hand_written_payload_loads(self, tmp_path, payload, expected):
        if expected.case_data is not None:
            # The table sits beside the scenario, which resolves its path.
            table = tmp_path / expected.case_data.path
            table.write_bytes(bundled_path("bancarization.csv").read_bytes())
            expected = replace(expected, case_data=CaseDataSettings(path=str(table)))
        assert load_scenario(write_json(tmp_path, payload)) == expected


class TestLoadForCommand:
    """What a command needs before it computes: the loader checks it all."""

    def test_sections_check_themselves(self):
        with pytest.raises(DomainError, match="^need at least 1000 agents per replication, "
                                              "got 999$"):
            AbmSettings(n=999, replications=2, seed=1)
        with pytest.raises(DomainError, match=r"^replications must lie in \[2, "):
            AbmSettings(n=1000, replications=1, seed=1)
        with pytest.raises(DomainError, match="^n must be an integer, got 1000.0$"):
            AbmSettings(n=1000.0, replications=2, seed=1)
        with pytest.raises(DomainError, match="^sweep grid values must be strictly increasing$"):
            SweepSettings(parameter_name="theta", values=(0.3, 0.2))

    def test_flags_supply_the_command_section(self, tmp_path):
        path = write_json(tmp_path, solve_payload())
        scenario = load_scenario(path, "simulate", n=2000, replications=3, seed=9)
        assert scenario.run is RunKind.SOLVE
        assert scenario.abm == AbmSettings(n=2000, replications=3, seed=9)
        for overrides, field in (({}, "abm.n"), ({"n": 2000, "seed": 9}, "abm.replications")):
            with pytest.raises(ScenarioSchemaError, match=f"^missing required field {field}$"):
                load_scenario(path, RunKind.SIMULATE, **overrides)
        with pytest.raises(ScenarioSchemaError,
                           match="^missing required field sweep.parameter_name$"):
            load_scenario(path, "sweep")
        assert load_scenario(path, "solve") == load_scenario(path)

    def test_flags_replace_checked_file_values(self, tmp_path):
        scenario = load_scenario(write_json(tmp_path, SIMULATE), n=2000, seed=5)
        assert scenario.abm == AbmSettings(n=2000, replications=2, seed=5)
        # Only the sizes that will run are checked against their bounds.
        assert load_scenario(write_json(tmp_path, edit(SIMULATE, "abm", n=999)),
                             n=1000).abm.n == 1000
        with pytest.raises(ScenarioSchemaError, match="^abm.n must be an integer, got 'x'$"):
            load_scenario(write_json(tmp_path, edit(SIMULATE, "abm", n="x")), n=1000)
        with pytest.raises(DomainError, match="^need at least 1000 agents"):
            load_scenario(write_json(tmp_path, SIMULATE), n=999)

    def test_only_the_flag_fields_can_be_overridden(self, tmp_path):
        with pytest.raises(TypeError, match="^cannot override scenario field 'a'$"):
            load_scenario(write_json(tmp_path, solve_payload()), a=0.3)

    def test_absolute_case_data_path_is_kept(self, tmp_path):
        table = str(bundled_path("bancarization.csv"))
        payload = solve_payload(run="case-data", case_data={"path": table})
        scenario = load_scenario(write_json(tmp_path, payload))
        assert scenario.case_data == CaseDataSettings(path=table)


# Results with the exact bytes write_results gives them in CSV and in JSON.
WRITTEN = [
    pytest.param(
        SweepSeries(
            base=BASELINE,
            parameter_name="theta",
            values=(0.1, 0.3),
            kappa_star=(2 / 17, 0.1),
            x_star=(4 / 17, 0.2),
            psi_star=(0.5, 1 / 3),
            monotonicity=Monotonicity.DECREASING,
            skipped=((1.5, "field_range"),),
        ),
        """\
parameter,value,kappa_star,x_star,psi_star
theta,0.1,0.117647058824,0.235294117647,0.5
theta,0.3,0.1,0.2,0.333333333333
""",
        """\
{
  "parameter_name": "theta",
  "values": [
    0.1,
    0.3
  ],
  "outputs": [
    {
      "kappa_star": 0.117647058824,
      "x_star": 0.235294117647,
      "psi_star": 0.5
    },
    {
      "kappa_star": 0.1,
      "x_star": 0.2,
      "psi_star": 0.333333333333
    }
  ],
  "monotonicity": "Decreasing",
  "target": "kappa_star",
  "skipped": [
    [
      1.5,
      "field_range: theta must lie in [0.0, 1.0], got 1.5"
    ]
  ]
}
""",
        id="sweep-with-a-skipped-point",
    ),
    pytest.param(
        SweepSeries(
            base=BASELINE,
            parameter_name="kappa_max",
            values=(1e-05, 1e11),
            kappa_star=(0.0, 1e11),
            x_star=(0.0, 1e-05),
            psi_star=(0.0, 1.0),
            monotonicity=Monotonicity.INCREASING,
        ),
        """\
parameter,value,kappa_star,x_star,psi_star
kappa_max,1e-05,0,0,0
kappa_max,100000000000,100000000000,1e-05,1
""",
        """\
{
  "parameter_name": "kappa_max",
  "values": [
    1e-05,
    100000000000.0
  ],
  "outputs": [
    {
      "kappa_star": 0.0,
      "x_star": 0.0,
      "psi_star": 0.0
    },
    {
      "kappa_star": 100000000000.0,
      "x_star": 1e-05,
      "psi_star": 1.0
    }
  ],
  "monotonicity": "Increasing",
  "target": "kappa_star",
  "skipped": []
}
""",
        id="grid-with-1e11-and-1e-5",
    ),
    pytest.param(
        (BancarizationSeries(2011, 26871, 874559, 3.1),
         BancarizationSeries(2012, 300000, 887574, 33.8)),
        """\
year,banked_count,total_active,rate_percent
2011,26871,874559,3.1
2012,300000,887574,33.8
""",
        """\
[
  {
    "year": 2011,
    "banked_count": 26871,
    "total_active": 874559,
    "rate_percent": 3.1
  },
  {
    "year": 2012,
    "banked_count": 300000,
    "total_active": 887574,
    "rate_percent": 33.8
  }
]
""",
        id="tuple-of-case-rows",
    ),
    pytest.param(
        [BancarizationSeries(2016, 747093, 904877, 82.6)],
        """\
year,banked_count,total_active,rate_percent
2016,747093,904877,82.6
""",
        """\
[
  {
    "year": 2016,
    "banked_count": 747093,
    "total_active": 904877,
    "rate_percent": 82.6
  }
]
""",
        id="one-row-case-list",
    ),
]


class TestWriteResults:
    def test_equilibrium_csv(self, tmp_path):
        result = equilibrium_report(BASELINE).equilibrium
        path = tmp_path / "eq.csv"
        write_results(result, path, "csv")
        text = path.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == (
            "convention,kappa_star,x_star,psi_star,effective_gain,"
            "iterations,residual,closed_form_gap"
        )
        assert len(lines) == 2
        assert lines[1].startswith("derived-consistent,0.117647058824,0.235294117647,")

    def test_equilibrium_json_mirrors_field_names(self, tmp_path):
        result = equilibrium_report(BASELINE).equilibrium
        path = tmp_path / "eq.json"
        write_results(result, path, "json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["kappa_star"] == pytest.approx(2 / 17, rel=1e-11)
        assert payload["convention"] == "derived-consistent"
        assert set(payload) == {
            "kappa_star",
            "x_star",
            "psi_star",
            "effective_gain",
            "convention",
            "iterations",
            "residual",
            "closed_form_gap",
        }

    def test_rewrites_are_byte_identical(self, tmp_path):
        result = equilibrium_report(BASELINE).equilibrium
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        write_results(result, first, "csv")
        write_results(result, second, "csv")
        assert first.read_bytes() == second.read_bytes()

    def test_sweep_csv_rows(self, tmp_path):
        series = grid_sweep(BASELINE, "theta", [0.1, 0.2, 0.3])
        path = tmp_path / "sweep.csv"
        write_results(series, path, "csv")
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "parameter,value,kappa_star,x_star,psi_star"
        assert len(lines) == 4
        assert lines[1].startswith("theta,0.1,")

    def test_singleton_sweep_csv(self, tmp_path):
        series = grid_sweep(BASELINE, "theta", [0.2])
        path = tmp_path / "sweep.csv"
        write_results(series, path, "csv")
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 2

    def test_abm_estimate_csv_columns(self, tmp_path):
        estimate = estimate_equilibrium(BASELINE, n=1000, replications=2, seed=3)
        path = tmp_path / "abm.csv"
        write_results(estimate, path, "csv")
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == (
            "mean_x,stderr_x,mean_success_rate,replications,"
            "agents_per_replication,analytic_x,abs_gap"
        )
        assert len(lines) == 2

    def test_case_rows_csv(self, tmp_path):
        rows = ingest_case_table(bundled_path("bancarization.csv"))
        path = tmp_path / "case.csv"
        write_results(list(rows), path, "csv")
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "year,banked_count,total_active,rate_percent"
        assert lines[1] == "2011,26871,874559,3.1"
        assert lines[-1] == "2016,747093,904877,82.6"

    @pytest.mark.parametrize("result,csv_text,json_text", WRITTEN)
    def test_exact_bytes(self, tmp_path, result, csv_text, json_text):
        for fmt, text in (("csv", csv_text), ("json", json_text)):
            path = tmp_path / f"out.{fmt}"
            write_results(result, path, fmt)
            assert path.read_bytes() == text.encode("utf-8")

    def test_unknown_format_rejected(self, tmp_path):
        # The format is checked before the result's type.
        for result in (equilibrium_report(BASELINE).equilibrium, object()):
            with pytest.raises(ValueError):
                write_results(result, tmp_path / "x.xml", "xml")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mixed_record_types_rejected(self, tmp_path, fmt):
        # A mixed list wrote one type's CSV header over the other's row, and
        # JSON objects of two shapes in one array.
        pair = [equilibrium_report(BASELINE).equilibrium,
                BancarizationSeries(2016, 747093, 904877, 82.6)]
        for records in (pair, pair[::-1], tuple(pair)):
            path = tmp_path / f"mixed.{fmt}"
            with pytest.raises(TypeError, match=(
                    f"^cannot write {type(records[1]).__name__} records with "
                    f"{type(records[0]).__name__} records in one result$")):
                write_results(records, path, fmt)
            assert not path.exists()

    def test_unknown_record_type_rejected(self, tmp_path):
        # A report is not a record: the CLI writes its equilibrium.
        for result in (object(), equilibrium_report(BASELINE), [], [object()]):
            for fmt in ("csv", "json"):
                with pytest.raises(TypeError):
                    write_results(result, tmp_path / f"x.{fmt}", fmt)


class TestIngestCaseTable:
    def test_bundled_rates(self):
        rows = ingest_case_table(bundled_path("bancarization.csv"))
        assert [r.rate_percent for r in rows] == [3.1, 33.8, 70.0, 73.9, 75.6, 82.6]
        assert rows[0] == BancarizationSeries(
            year=2011, banked_count=26871, total_active=874559, rate_percent=3.1
        )

    def test_byte_order_mark_is_skipped(self, tmp_path):
        bundled = bundled_path("bancarization.csv")
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + bundled.read_bytes())
        assert ingest_case_table(path) == ingest_case_table(bundled)

    def test_rates_match_raw_ratio_within_half_a_tenth(self):
        for row in ingest_case_table(bundled_path("bancarization.csv")):
            raw = 100.0 * row.banked_count / row.total_active
            assert abs(raw - row.rate_percent) <= 0.05

    def test_half_up_rounding(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "year,banked_count,total_active\n2000,5,1000\n2001,15,1000\n", encoding="utf-8"
        )
        rows = ingest_case_table(path)
        # 0.5% and 1.5% sit exactly on the half: both round up.
        assert [r.rate_percent for r in rows] == [0.5, 1.5]
        path.write_text("year,banked_count,total_active\n2000,1,8000\n", encoding="utf-8")
        # 0.0125% rounds half-up at one decimal to 0.0.
        assert ingest_case_table(path)[0].rate_percent == 0.0

    def test_zero_total_rejected_with_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "year,banked_count,total_active\n2000,10,100\n2001,5,0\n", encoding="utf-8"
        )
        with pytest.raises(CaseTableError) as err:
            ingest_case_table(path)
        assert err.value.row == 2

    def test_banked_above_total_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("year,banked_count,total_active\n2000,101,100\n", encoding="utf-8")
        with pytest.raises(CaseTableError) as err:
            ingest_case_table(path)
        assert err.value.row == 1

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("year,banked_count,total_active\n2000,abc,100\n", encoding="utf-8")
        with pytest.raises(CaseTableError) as err:
            ingest_case_table(path)
        assert err.value.row == 1

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("annee,banked,total\n2000,1,2\n", encoding="utf-8")
        with pytest.raises(CaseTableError):
            ingest_case_table(path)

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("year,banked_count,total_active\n", encoding="utf-8")
        with pytest.raises(CaseTableError):
            ingest_case_table(path)
