"""Comparative statics: parameter grids, response curves, sensitivities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

from .equilibrium import (
    _GAIN_FIELDS,
    _KERNEL_FIELDS,
    _fixed_point,
    closed_form_threshold,
    effective_gain,
)
from .model import (
    PARAM_RANGES,
    RELATIONAL_CHECKS,
    DomainError,
    ModelParams,
    ParameterError,
    _range_error,
    _range_message,
    success_probability,
)

__all__ = [
    "Monotonicity",
    "SweepPoint",
    "SweepSeries",
    "SWEEPABLE_PARAMETERS",
    "monotonicity_check",
    "grid_sweep",
    "ResponseCurve",
    "SuccessResponse",
    "success_response_series",
    "finite_difference_sensitivity",
]

# Numeric ModelParams fields a grid may vary.
SWEEPABLE_PARAMETERS = tuple(PARAM_RANGES)

# The base point at which success_response_series holds two inputs fixed.
BASE_A, BASE_PHI, BASE_X = 0.5, 2.0, 0.5


class Monotonicity(str, Enum):
    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    NON_MONOTONE = "NonMonotone"
    CONSTANT = "Constant"


@dataclass(frozen=True)
class SweepPoint:
    """One kept grid point's equilibrium, as ``SweepSeries.outputs`` views it.

    Nothing in the package reads it: it stays for the benchmark's check."""

    kappa_star: float
    x_star: float
    psi_star: float


@dataclass(frozen=True)
class SweepSeries:
    """Equilibrium quantities along one parameter grid.

    ``values`` keeps only the grid points that produced a valid model;
    points rejected by validation are listed in ``skipped`` with the
    violated constraint. ``kappa_star``, ``x_star`` and ``psi_star`` are
    columns of floats aligned with ``values``, so a series holds no object
    per point. ``monotonicity`` classifies the ``kappa_star`` column.
    """

    parameter_name: str
    values: tuple[float, ...]
    kappa_star: tuple[float, ...]
    x_star: tuple[float, ...]
    psi_star: tuple[float, ...]
    monotonicity: Monotonicity
    skipped: tuple[tuple[float, str], ...] = ()

    @property
    def outputs(self) -> tuple[SweepPoint, ...]:
        """The columns as one SweepPoint per kept point, built on each read."""
        return tuple(map(SweepPoint, self.kappa_star, self.x_star, self.psi_star))


def monotonicity_check(series: Sequence[float]) -> Monotonicity:
    """Classify a sequence as strictly increasing, strictly decreasing,
    constant, or non-monotone.

    Each consecutive pair is compared exactly, so a verdict does not depend
    on the units of the series. The classification is strict: a tie inside
    an otherwise rising or falling sequence counts as non-monotone. A
    singleton is constant. A NaN anywhere is rejected with its index.
    """
    if len(series) == 0:
        raise DomainError("cannot classify an empty series")
    for index, value in enumerate(series):
        if value != value:
            raise DomainError(f"cannot classify a series with NaN at index {index}")
    signs = {(cur > prev) - (cur < prev) for prev, cur in zip(series, series[1:])}
    if signs <= {0}:
        return Monotonicity.CONSTANT
    if signs == {1}:
        return Monotonicity.INCREASING
    if signs == {-1}:
        return Monotonicity.DECREASING
    return Monotonicity.NON_MONOTONE


def _floats(values: Iterable[float], name: str) -> list[float]:
    """values as floats; DomainError naming them if one has no float (a
    complex or non-numeric value) or is too large for one."""
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name}: not a real number within float range ({exc})") from None


def _grid(values: Iterable[float], name: str) -> list[float]:
    """values as floats; DomainError naming the grid unless each value is a
    real number within float range and the grid is non-empty and strictly
    increasing."""
    grid = _floats(values, f"{name} value")
    if not grid:
        raise DomainError(f"{name} is empty")
    if any(not b > a for a, b in zip(grid, grid[1:])):  # NaN fails too
        raise DomainError(f"{name} values must be strictly increasing")
    return grid


def _point_builder(base: ModelParams, parameter_name: str) -> Callable[[float], ModelParams]:
    """Build parameter sets that differ from ``base`` in one field only.

    Each call checks the value against the field's :data:`PARAM_RANGES` row,
    fills a fresh instance's ``__dict__`` from a copy of the base's fields
    (the dataclass ``__init__`` only assigns them one at a time), then runs
    the :data:`RELATIONAL_CHECKS` rows that read the field, in table order.
    Every other check reads only the base's values, which passed, so the
    result equals ``ModelParams(**fields)``, with the same hash and repr, or
    raises exactly what it raises, message included. ``grid_sweep`` checks
    the range row itself, without raising, and calls this only for a field
    that a relational check or ``effective_gain`` reads.
    """
    fields = dict(vars(base))
    lo, hi, _ = PARAM_RANGES[parameter_name]
    checks = [check for check, reads in RELATIONAL_CHECKS.values() if parameter_name in reads]

    def build(value: float) -> ModelParams:
        if not lo <= value <= hi:
            raise _range_error(parameter_name, value)
        fields[parameter_name] = value
        params = object.__new__(ModelParams)
        params.__dict__.update(fields)
        for check in checks:
            check(params)
        return params

    return build


def grid_sweep(
    base: ModelParams, parameter_name: str, values: Iterable[float]
) -> SweepSeries:
    """Solve the equilibrium at each grid value of one parameter.

    The grid must be non-empty and strictly increasing. Grid points whose
    parameter set fails validation are skipped and reported; a grid with no
    valid point at all is an error. The monotonicity verdict applies to
    kappa_star over the retained points.

    A point computes only what its varied field changes, and its numbers
    are those of ``solve_fixed_point`` bit for bit:

    - it checks the field's :data:`PARAM_RANGES` row without raising;
    - it builds a ``ModelParams`` (see ``_point_builder``) only when a
      :data:`RELATIONAL_CHECKS` row or ``effective_gain`` reads the field;
    - ``effective_gain`` and ``scale = a*gamma*Gamma_eff`` are computed once
      per sweep unless the field feeds them (``a``, ``gamma``,
      ``Gamma_gain``, and ``s`` and ``p2`` for a partisan);
    - the solver's kernel runs once per kept point, or once per sweep when
      it reads none of the field's effects (``p1``, ``q``, ``w``, ``G2``,
      ``G3``, and ``s`` and ``p2`` for a non-partisan).

    No ``EquilibriumResult`` or closed-form gap is built. A kept point
    appends its three floats to the series' columns and builds no record;
    the garbage collector does not track floats, so a long sweep starts no
    collection.
    """
    if parameter_name not in SWEEPABLE_PARAMETERS:
        raise DomainError(
            f"unknown sweep parameter {parameter_name!r}; "
            f"expected one of {', '.join(SWEEPABLE_PARAMETERS)}"
        )
    grid = _grid(values, "sweep grid")

    lo, hi, _ = PARAM_RANGES[parameter_name]
    feeds_gain = parameter_name in _GAIN_FIELDS[base.leader_type]
    feeds_scale = feeds_gain or parameter_name in ("a", "gamma")
    checked = feeds_gain or any(parameter_name in reads for _, reads in RELATIONAL_CHECKS.values())
    build = _point_builder(base, parameter_name) if checked else None
    # The kernel's arguments at the base; a point overwrites what it changes.
    gain = effective_gain(base)
    args = [base.a * base.gamma * gain, *(getattr(base, name) for name in _KERNEL_FIELDS)]
    slot = _KERNEL_FIELDS.index(parameter_name) + 1 if parameter_name in _KERNEL_FIELDS else 0
    solved = None if slot or feeds_gain else _fixed_point(*args)[:3]

    kept: list[float] = []
    kappas: list[float] = []
    xs: list[float] = []
    psis: list[float] = []
    skipped: list[tuple[float, str]] = []
    for value in grid:
        if not lo <= value <= hi:
            # The text of the error the ModelParams constructor would raise.
            skipped.append((value, f"field_range: {_range_message(parameter_name, value)}"))
            continue
        if build is not None:
            try:
                params = build(value)
            except ParameterError as exc:
                skipped.append((value, str(exc)))
                continue
            if feeds_gain:
                gain = effective_gain(params)
        if slot:
            args[slot] = value
        if feeds_scale:
            args[0] = args[4] * args[3] * gain  # a * gamma * gain, as the solver forms it
        kappa_star, x_star, psi_star = solved or _fixed_point(*args)[:3]
        kept.append(value)
        kappas.append(kappa_star)
        xs.append(x_star)
        psis.append(psi_star)
    if not kept:
        raise ParameterError(
            "sweep_grid",
            f"no valid grid point for {parameter_name}; first rejection: {skipped[0][1]}",
        )
    return SweepSeries(
        parameter_name=parameter_name,
        values=tuple(kept),
        kappa_star=tuple(kappas),
        x_star=tuple(xs),
        psi_star=tuple(psis),
        monotonicity=monotonicity_check(kappas),
        skipped=tuple(skipped),
    )


class ResponseCurve(NamedTuple):
    """The success probability along one input's grid: ``psi_star`` is
    aligned with ``values``, and ``monotonicity`` classifies it."""

    values: tuple[float, ...]
    psi_star: tuple[float, ...]
    monotonicity: Monotonicity


class SuccessResponse(NamedTuple):
    certainty: ResponseCurve
    complementarity: ResponseCurve
    participation: ResponseCurve


def success_response_series(
    a_values: Sequence[float],
    phi_values: Sequence[float],
    x_values: Sequence[float],
) -> SuccessResponse:
    """Success-probability curves against each of its three inputs.

    Produces one :class:`ResponseCurve` per input, holding the other two
    at the base point ``(BASE_A, BASE_PHI, BASE_X) = (0.5, 2.0, 0.5)``:
    linear and increasing in the certainty degree, decreasing in the
    complementarity degree for a fixed interior fraction, increasing and
    convex in the participating fraction. Each grid must be non-empty and
    strictly increasing, so that a verdict reads the curve left to right.
    """
    a_values = _grid(a_values, "certainty grid (a)")
    phi_values = _grid(phi_values, "complementarity grid (phi)")
    x_values = _grid(x_values, "participation grid (x)")
    psi_a = [success_probability(a, BASE_PHI, BASE_X) for a in a_values]
    psi_phi = [success_probability(BASE_A, phi, BASE_X) for phi in phi_values]
    psi_x = [success_probability(BASE_A, BASE_PHI, x) for x in x_values]
    panels = ((a_values, psi_a), (phi_values, psi_phi), (x_values, psi_x))
    return SuccessResponse(*(ResponseCurve(tuple(grid), tuple(psi), monotonicity_check(psi))
                             for grid, psi in panels))


def finite_difference_sensitivity(
    base: ModelParams, parameter_name: str, h: float
) -> float:
    """Numerical derivative of the equilibrium threshold in one parameter.

    Uses a central difference of the closed-form threshold under the base
    parameters' convention. When one side of the stencil leaves the valid
    parameter region (a boundary value such as theta = 0), the one-sided
    difference on the valid side is used instead. A step that leaves the
    parameter's value unchanged on either side is rejected.
    """
    if parameter_name not in SWEEPABLE_PARAMETERS:
        raise DomainError(f"unknown sensitivity parameter {parameter_name!r}")
    (h,) = _floats([h], "step h")
    if not 0.0 < h < math.inf:  # NaN fails too
        raise DomainError(f"step h must be finite and > 0, got {h}")

    center = float(getattr(base, parameter_name))
    if center + h == center or center - h == center:
        raise DomainError(
            f"step h = {h} is below the float spacing of {parameter_name} = {center}"
        )
    build = _point_builder(base, parameter_name)

    def threshold_at(value: float) -> float | None:
        try:
            return closed_form_threshold(build(value))
        except ParameterError:  # outside the valid parameter region
            return None

    upper, lower = threshold_at(center + h), threshold_at(center - h)
    if upper is not None and lower is not None:
        return (upper - lower) / (2.0 * h)
    if upper is not None:
        return (upper - closed_form_threshold(base)) / h
    if lower is not None:
        return (closed_form_threshold(base) - lower) / h
    raise ParameterError(
        "sensitivity_stencil",
        f"{parameter_name} = {center} +/- {h} leaves the valid parameter region on both sides",
    )
