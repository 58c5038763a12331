"""Scenario files, result persistence, and the banked-payroll case table.

A scenario is a flat JSON object::

    {
      "label": "baseline",
      "run": "solve",                  # solve | simulate | sweep | case-data
      "params": { ... all model parameters ... },
      "abm":   {"n": 100000, "replications": 20, "seed": 42},   # simulate only
      "sweep": {"parameter_name": "theta", "values": [0.1, 0.2]},  # sweep only
      "case_data": {"path": "bancarization.csv"}                # case-data only
    }

``params`` carries every :class:`~reformgame.model.ModelParams` field by
name; the convention fields are optional and default to the
derived-consistent threshold and the published posterior. The run-specific
section must be present exactly when ``run`` requires it, and no key may
repeat within an object. Every numeric field must be a finite plain JSON
number: the non-standard literals ``NaN``, ``Infinity`` and ``-Infinity``
are a parse error naming where they sit, and a number beyond the float
range is rejected by name (``params`` fields through the ranges in
:data:`~reformgame.model.PARAM_RANGES`). Every section is read through one
field table, then checks itself as the run it feeds would; a relative
``case_data`` path resolves against the scenario's directory and must name
a file. Scenarios are only read, never written.

:func:`write_results` writes every result, as CSV or JSON, through one
encoder: a record's columns and keys are its dataclass fields in
declaration order, floats carry 12 significant digits, and there are no
timestamps, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Sequence

from .abm import AbmEstimate, _estimate_sizes
from .equilibrium import EquilibriumResult
from .model import (
    PARAM_RANGES,
    LeaderType,
    ModelParams,
    PosteriorConvention,
    ThresholdConvention,
)
from .sweep import SWEEPABLE_PARAMETERS, SweepSeries, _grid

__all__ = [
    "ScenarioError",
    "ScenarioParseError",
    "ScenarioSchemaError",
    "CaseTableError",
    "RunKind",
    "AbmSettings",
    "SweepSettings",
    "CaseDataSettings",
    "Scenario",
    "BancarizationSeries",
    "load_scenario",
    "write_results",
    "ingest_case_table",
    "bundled_path",
]


class ScenarioError(Exception):
    """Base class for scenario and data-file problems."""


class ScenarioParseError(ScenarioError):
    """The file is not well-formed JSON.

    ``field`` names where a non-standard literal (``NaN``, ``Infinity``,
    ``-Infinity``) sits, such as ``params.w`` or ``sweep.values[2]``; it
    is None for other syntax errors.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class ScenarioSchemaError(ScenarioError):
    """The JSON shape does not match the scenario schema.

    ``field`` names the offending entry (missing, unknown, or mistyped).
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class CaseTableError(ScenarioError):
    """A case-data CSV is malformed; ``row`` is the 1-based data row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class RunKind(str, Enum):
    SOLVE = "solve"
    SIMULATE = "simulate"
    SWEEP = "sweep"
    CASE_DATA = "case-data"


@dataclass(frozen=True)
class AbmSettings:
    """A simulate run's sizes and seed, checked as ``estimate_equilibrium`` checks them."""

    n: int
    replications: int
    seed: int

    def __post_init__(self) -> None:
        _estimate_sizes(self.n, self.replications, self.seed)


@dataclass(frozen=True)
class SweepSettings:
    """A sweep's parameter and grid, the grid checked as ``grid_sweep`` checks it."""

    parameter_name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        _grid(self.values, "sweep grid")


@dataclass(frozen=True)
class CaseDataSettings:
    path: str


@dataclass(frozen=True)
class Scenario:
    label: str
    run: RunKind
    params: ModelParams
    abm: AbmSettings | None = None
    sweep: SweepSettings | None = None
    case_data: CaseDataSettings | None = None


@dataclass(frozen=True)
class BancarizationSeries:
    """One year of the banked-payroll reform counts.

    ``rate_percent`` is 100 * banked_count / total_active rounded half-up
    to one decimal, matching the convention of the source table.
    """

    year: int
    banked_count: int
    total_active: int
    rate_percent: float


# The fields a caller, such as a command-line flag, may override.
_OVERRIDABLE = ("threshold_convention", "posterior_convention", "n", "replications", "seed")

_RUN_SECTION = {
    RunKind.SOLVE: None,
    RunKind.SIMULATE: "abm",
    RunKind.SWEEP: "sweep",
    RunKind.CASE_DATA: "case_data",
}


def bundled_path(name: str) -> Path:
    """Filesystem path of a data file shipped with the package."""
    path = Path(__file__).parent / "data" / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path


# Each section of a scenario: the type it builds and its fields in read
# order, as (key, kind) or, for an optional field, (key, kind, default). A
# kind is float, int, str, an Enum read from its string value, a tuple of
# strings that the value must be one of, or the type tuple: the non-empty
# array of finite numbers that sweep.values takes.
_SECTIONS: dict[str, tuple[type, tuple[tuple[Any, ...], ...]]] = {
    "params": (ModelParams, (
        *((name, float) for name in PARAM_RANGES),
        ("leader_type", LeaderType),
        ("threshold_convention", ThresholdConvention, ThresholdConvention.DERIVED_CONSISTENT),
        ("posterior_convention", PosteriorConvention, PosteriorConvention.PAPER),
    )),
    "abm": (AbmSettings, (("n", int), ("replications", int), ("seed", int))),
    "sweep": (SweepSettings, (("parameter_name", SWEEPABLE_PARAMETERS), ("values", tuple))),
    "case_data": (CaseDataSettings, (("path", str),)),
}


def _as_number(value: Any, field: str, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioSchemaError(field, f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioSchemaError(field, f"{label} is too large to be a float") from None


def _read(obj: dict, where: str, key: str, kind: Any, *default: Any) -> Any:
    """obj[key] as kind, or the default if given and key is absent; where names obj."""
    field = f"{where}.{key}"
    if kind is tuple:
        raw = obj.get(key)
        if not isinstance(raw, list) or not raw:
            raise ScenarioSchemaError(field, f"{field} must be a non-empty array")
        values = tuple(_as_number(v, field, f"{field}[{i}]") for i, v in enumerate(raw))
        if not all(math.isfinite(v) for v in values):
            raise ScenarioSchemaError(field, f"{field} must be finite numbers")
        return values
    if key not in obj:
        if default:
            return default[0]
        raise ScenarioSchemaError(field, f"missing required field {field}")
    value = obj[key]
    if kind is float:
        return _as_number(value, field, field)
    wanted, noun = (int, "an integer") if kind is int else (str, "a string")
    if isinstance(value, bool) or not isinstance(value, wanted):
        raise ScenarioSchemaError(field, f"{field} must be {noun}, got {value!r}")
    return value if kind in (int, str) else _choice(value, kind, field)


def _check_unknown(obj: dict, allowed: Sequence[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioSchemaError(
                f"{where}.{key}" if where else key,
                f"unknown field {key!r} in {where or 'scenario'}",
            )


def _choice(raw: str, choices: Any, where: str) -> Any:
    """raw as one of the choices: an Enum, built from its value, or a tuple of strings."""
    options = [getattr(choice, "value", choice) for choice in choices]
    if raw not in options:
        message = f"{where} must be one of: {', '.join(options)}; got {raw!r}"
        raise ScenarioSchemaError(where, message)
    return choices(raw) if isinstance(choices, type) else raw


def _parse_section(obj: Any, name: str, overrides: dict[str, Any]) -> Any:
    """Build a section's type from its object; overrides replace checked file values."""
    section_type, spec = _SECTIONS[name]
    if not isinstance(obj, dict):
        raise ScenarioSchemaError(name, f"{name} must be an object")
    _check_unknown(obj, [row[0] for row in spec], name)
    values = {}
    for key, kind, *default in spec:
        values[key] = _read(obj, name, key, kind, *([None] if key in overrides else default))
        if key in overrides:
            values[key] = _read(overrides, name, key, kind)
    return section_type(**values)


class _Literal(str):
    """A non-standard literal, left by the parser where it stood."""


class _Repeated(str):
    """A key given more than once in one object, left in place of its values."""


def _find(raw: Any, kind: type[str]) -> tuple[str, str] | None:
    """Location and text of the first marker of this kind in raw, depth first."""
    stack: list[tuple[str, Any]] = [("", raw)]
    while stack:
        where, node = stack.pop()
        if isinstance(node, kind):
            return where, node
        if isinstance(node, dict):
            children = [(f"{where}.{k}" if where else k, v) for k, v in node.items()]
        elif isinstance(node, list):
            children = [(f"{where}[{i}]", v) for i, v in enumerate(node)]
        else:
            continue
        stack.extend(reversed(children))
    return None


def load_scenario(path: str | Path, command: RunKind | str | None = None,
                  **overrides: Any) -> Scenario:
    """Load and fully validate a scenario file for a run of ``command``.

    Every check a run makes before it computes happens here. ``command``
    (a :class:`RunKind` or its value) defaults to the file's ``run``; the
    overrides alone may supply the section it needs. ``overrides``
    (``threshold_convention``, ``posterior_convention``, ``n``,
    ``replications``, ``seed``; any other raises TypeError) replace file
    values once those pass their checks.

    Raises :class:`ScenarioParseError` for malformed JSON (the
    non-standard ``NaN``/``Infinity`` literals named by location, a file
    not UTF-8, one nested too deeply), :class:`ScenarioSchemaError` naming
    the field of a shape violation, a repeated key, a missing section or a
    case-data path that names no file, and
    :class:`~reformgame.model.DomainError` for a section the run would
    reject (:class:`~reformgame.model.ParameterError` for ``params``).
    """
    for key in set(overrides).difference(_OVERRIDABLE):
        raise TypeError(f"cannot override scenario field {key!r}")
    path = Path(path)
    literals: list[_Literal] = []
    repeats: list[dict[str, _Repeated]] = []

    def keep_literal(literal: str) -> _Literal:
        literals.append(_Literal(literal))
        return literals[-1]

    def mark_repeats(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            repeats.append({key: _Repeated(key) for key in obj if keys.count(key) > 1})
            obj.update(repeats[-1])
        return obj

    try:
        text = path.read_text(encoding="utf-8")
        raw = json.loads(text, parse_constant=keep_literal, object_pairs_hook=mark_repeats)
    except ValueError as exc:  # UnicodeDecodeError too: JSON text is UTF-8
        raise ScenarioParseError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ScenarioParseError(f"{path}: nested too deeply to parse") from exc
    if literals:
        # A literal under a repeated key has no location.
        where, literal = _find(raw, _Literal) or ("", literals[0])
        message = f"{path}: not valid JSON ({literal} is not a JSON number)"
        raise ScenarioParseError(
            f"{message} at {where}" if where else message, field=where or None
        )
    if repeats:
        # Always found: an object missing from raw sat under a repeated key.
        where, _ = _find(raw, _Repeated)
        raise ScenarioSchemaError(where, f"duplicate field {where}")
    if not isinstance(raw, dict):
        raise ScenarioSchemaError("", "scenario must be a JSON object")

    _check_unknown(raw, ("label", "run", *_SECTIONS), "")
    label = _read(raw, "scenario", "label", str).strip()
    run = _choice(_read(raw, "scenario", "run", str), RunKind, "run")
    if "params" not in raw:
        raise ScenarioSchemaError("params", "missing required field params")
    sections = {name: _parse_section(raw[name], name, overrides)
                for name in _SECTIONS if name in raw}
    required = ("params", _RUN_SECTION[run])
    for name in _SECTIONS:
        if name in required and name not in sections:
            raise ScenarioSchemaError(name, f"run = {run.value!r} requires a {name!r} section")
        if name not in required and name in sections:
            raise ScenarioSchemaError(
                name, f"section {name!r} is not allowed when run = {run.value!r}"
            )
    if "case_data" in sections:
        table = path.parent / sections["case_data"].path
        if not table.is_file():
            raise ScenarioSchemaError("case_data.path", f"case_data.path names no file: {table}")
        sections["case_data"] = CaseDataSettings(path=str(table))
    needed = _RUN_SECTION[RunKind(command or run)]
    if needed is not None and needed not in sections:
        sections[needed] = _parse_section({}, needed, overrides)
    return Scenario(label=label, run=run, **sections)


_RECORDS = (EquilibriumResult, AbmEstimate, BancarizationSeries)

# The columns each kept sweep point is written with.
_POINT_COLUMNS = ("kappa_star", "x_star", "psi_star")


def _points(series: SweepSeries) -> list[dict[str, float]]:
    """A sweep's kept points, one dict of its three columns each."""
    columns = (getattr(series, name) for name in _POINT_COLUMNS)
    return [dict(zip(_POINT_COLUMNS, point)) for point in zip(*columns)]


def _json(value: Any) -> Any:
    """value as JSON data: floats at 12 significant digits, so that JSON and
    CSV report identical values; a sweep series by its written keys, with
    ``outputs`` zipped from its columns; dataclasses as objects of their
    fields in declaration order (a plain dataclass's instance dict); enums
    by value."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (list, tuple)):
        return [_json(item) for item in value]
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, SweepSeries):
        return _json({"parameter_name": value.parameter_name, "values": value.values,
                      "outputs": _points(value), "monotonicity": value.monotonicity,
                      "target": "kappa_star", "skipped": value.skipped})
    if is_dataclass(value):
        return _json(vars(value))
    if isinstance(value, Enum):
        return value.value
    return value


def _rows(result: Any) -> list[dict[str, Any]]:
    """A result's CSV rows: one per record, or per kept sweep point."""
    if isinstance(result, SweepSeries):
        return [{"parameter": result.parameter_name, "value": value, **point}
                for value, point in zip(result.values, _points(result))]
    records = result if isinstance(result, (list, tuple)) else [result]
    if not records or not all(isinstance(record, _RECORDS) for record in records):
        raise TypeError(f"no writer for results of type {type(result).__name__}")
    return [vars(record) for record in records]


def _text(cell: Any) -> str:
    # A float's CSV text has no trailing ".0": 1e11 is 100000000000.
    return f"{cell:.12g}" if isinstance(cell, float) else str(_json(cell))


def write_results(result: Any, path: str | Path, format: str = "csv") -> None:
    """Persist a result as CSV or JSON.

    Takes a sweep series, or an equilibrium result, a Monte Carlo estimate
    or case-table rows, alone or as a non-empty list or tuple; anything
    else, an equilibrium report included, raises TypeError. An unknown
    format raises ValueError before the result is looked at. A record's
    CSV columns and JSON keys are its dataclass fields in declaration
    order; a sweep's CSV has one row per kept point, and its JSON has the
    keys parameter_name, values, outputs (one object per kept point),
    monotonicity, target and skipped. Floats carry 12 significant digits and
    the output contains nothing run-dependent, so rewriting the same
    result yields byte-identical files.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown output format {format!r}; expected 'csv' or 'json'")
    rows = _rows(result)  # checks the result's type for both formats
    if format == "csv":
        lines = [",".join(rows[0]), *(",".join(map(_text, row.values())) for row in rows)]
        text = "\n".join(lines)
    else:
        text = json.dumps(_json(result), indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _rate_half_up_tenths(banked: int, total: int) -> float:
    # Integer arithmetic keeps the half-up rounding exact.
    tenths, remainder = divmod(banked * 1000, total)
    if 2 * remainder >= total:
        tenths += 1
    return tenths / 10.0


def ingest_case_table(path: str | Path) -> tuple[BancarizationSeries, ...]:
    """Read a banked-payroll CSV (year, banked_count, total_active).

    Computes the banked rate for each row with half-up rounding to one
    decimal. A leading UTF-8 byte order mark is skipped. Malformed rows,
    zero totals, and counts exceeding the total are rejected with their row
    number; a file that is not UTF-8, with its path and the bad byte's
    offset in the file.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CaseTableError(f"{path}: not valid UTF-8 ({exc})") from exc
    text = text.removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise CaseTableError(f"{path}: empty file")
    expected = ["year", "banked_count", "total_active"]
    if [h.strip() for h in header] != expected:
        raise CaseTableError(
            f"{path}: header must be {','.join(expected)}, got {','.join(header)}"
        )
    out: list[BancarizationSeries] = []
    for row_num, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise CaseTableError(f"expected 3 columns, got {len(row)}", row=row_num)
        try:
            year, banked, total = (int(cell.strip()) for cell in row)
        except ValueError:
            raise CaseTableError(f"non-integer value in {row!r}", row=row_num)
        if total <= 0:
            raise CaseTableError(f"total_active must be positive, got {total}", row=row_num)
        if banked < 0:
            raise CaseTableError(f"banked_count must be >= 0, got {banked}", row=row_num)
        if banked > total:
            raise CaseTableError(
                f"banked_count {banked} exceeds total_active {total}", row=row_num
            )
        out.append(
            BancarizationSeries(
                year=year,
                banked_count=banked,
                total_active=total,
                rate_percent=_rate_half_up_tenths(banked, total),
            )
        )
    if not out:
        raise CaseTableError(f"{path}: no data rows")
    return tuple(out)
