"""Comparative statics: parameter grids, response curves, sensitivities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

from .equilibrium import DEFAULT_TOL, _fixed_point, closed_form_threshold
from .model import (
    PARAM_RANGES,
    RELATIONAL_CHECKS,
    DomainError,
    ModelParams,
    ParameterError,
    _range_error,
    success_probability,
)

__all__ = [
    "Monotonicity",
    "SweepPoint",
    "SweepSeries",
    "SWEEPABLE_PARAMETERS",
    "monotonicity_check",
    "grid_sweep",
    "SuccessResponse",
    "success_response_series",
    "finite_difference_sensitivity",
]

# Numeric ModelParams fields a grid may vary.
SWEEPABLE_PARAMETERS = tuple(PARAM_RANGES)

# Verdicts must not flip on solver noise; the solver tolerance is 1e-12.
MONOTONICITY_TOL = 1e-12


class Monotonicity(str, Enum):
    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    NON_MONOTONE = "NonMonotone"
    CONSTANT = "Constant"


@dataclass(frozen=True)
class SweepPoint:
    kappa_star: float
    x_star: float
    psi_star: float


@dataclass(frozen=True)
class SweepSeries:
    """Equilibrium quantities along one parameter grid.

    ``values`` keeps only the grid points that produced a valid model;
    points rejected by validation are listed in ``skipped`` with the
    violated constraint. ``monotonicity`` classifies the ``target`` column.
    """

    parameter_name: str
    values: tuple[float, ...]
    outputs: tuple[SweepPoint, ...]
    monotonicity: Monotonicity
    target: str = "kappa_star"
    skipped: tuple[tuple[float, str], ...] = ()


def monotonicity_check(series: Sequence[float]) -> Monotonicity:
    """Classify a sequence as strictly increasing, strictly decreasing,
    constant (all pairwise differences within MONOTONICITY_TOL), or
    non-monotone.

    The classification is strict: a tie inside an otherwise rising or
    falling sequence counts as non-monotone. A singleton is constant. A NaN
    anywhere is rejected with its index.
    """
    if len(series) == 0:
        raise DomainError("cannot classify an empty series")
    for index, value in enumerate(series):
        if value != value:
            raise DomainError(f"cannot classify a series with NaN at index {index}")
    signs = set()
    for prev, cur in zip(series, series[1:]):
        if cur - prev > MONOTONICITY_TOL:
            signs.add(1)
        elif prev - cur > MONOTONICITY_TOL:
            signs.add(-1)
        else:
            signs.add(0)
    if not signs or signs == {0}:
        return Monotonicity.CONSTANT
    if signs == {1}:
        return Monotonicity.INCREASING
    if signs == {-1}:
        return Monotonicity.DECREASING
    return Monotonicity.NON_MONOTONE


def _point_builder(base: ModelParams, parameter_name: str) -> Callable[[float], ModelParams]:
    """Build parameter sets that differ from ``base`` in one field only.

    Each call checks the value against the field's :data:`PARAM_RANGES` row,
    fills a fresh instance's ``__dict__`` from a copy of the base's fields
    (the dataclass ``__init__`` only assigns them one at a time), then runs
    the :data:`RELATIONAL_CHECKS` rows that read the field, in table order.
    Every other check reads only the base's values, which passed, so the
    result equals ``ModelParams(**fields)``, with the same hash and repr, or
    raises exactly what it raises, message included.
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

    Grid points whose parameter set fails validation are skipped and
    reported; a grid with no valid point at all is an error. The
    monotonicity verdict applies to kappa_star over the retained points.

    Each point runs only the checks its varied field can break (see
    ``_point_builder``) and is solved by the solver's kernel at the default
    tolerance: its numbers are those of ``solve_fixed_point``, but the
    ``EquilibriumResult`` and closed-form gap a point would drop are never
    built, and each ``SweepPoint`` is filled in without the dataclass
    ``__init__``.
    """
    if parameter_name not in SWEEPABLE_PARAMETERS:
        raise DomainError(
            f"unknown sweep parameter {parameter_name!r}; "
            f"expected one of {', '.join(SWEEPABLE_PARAMETERS)}"
        )
    grid = [float(v) for v in values]
    if not grid:
        raise DomainError("sweep grid is empty")
    if any(not b > a for a, b in zip(grid, grid[1:])):  # NaN fails too
        raise DomainError("sweep grid values must be strictly increasing")

    build = _point_builder(base, parameter_name)
    kept: list[float] = []
    points: list[SweepPoint] = []
    skipped: list[tuple[float, str]] = []
    for value in grid:
        try:
            params = build(value)
        except ParameterError as exc:
            skipped.append((value, str(exc)))
            continue
        kappa_star, x_star, psi_star = _fixed_point(params, DEFAULT_TOL)[:3]
        point = object.__new__(SweepPoint)
        point.__dict__.update(kappa_star=kappa_star, x_star=x_star, psi_star=psi_star)
        kept.append(value)
        points.append(point)
    if not kept:
        raise ParameterError(
            "sweep_grid",
            f"no valid grid point for {parameter_name}; first rejection: {skipped[0][1]}",
        )
    verdict = monotonicity_check([p.kappa_star for p in points])
    return SweepSeries(
        parameter_name=parameter_name,
        values=tuple(kept),
        outputs=tuple(points),
        monotonicity=verdict,
        target="kappa_star",
        skipped=tuple(skipped),
    )


class SuccessResponse(NamedTuple):
    certainty: SweepSeries
    complementarity: SweepSeries
    participation: SweepSeries


def _psi_series(name: str, grid: Sequence[float], psi: Sequence[float],
                x_of: Sequence[float]) -> SweepSeries:
    points = tuple(
        SweepPoint(kappa_star=math.nan, x_star=x, psi_star=p)
        for x, p in zip(x_of, psi)
    )
    return SweepSeries(
        parameter_name=name,
        values=tuple(float(v) for v in grid),
        outputs=points,
        monotonicity=monotonicity_check(list(psi)),
        target="psi_star",
    )


def success_response_series(
    a_values: Sequence[float],
    phi_values: Sequence[float],
    x_values: Sequence[float],
    base_a: float = 0.5,
    base_phi: float = 2.0,
    base_x: float = 0.5,
) -> SuccessResponse:
    """Success-probability curves against each of its three inputs.

    Produces one series per input, holding the other two at the base point:
    linear and increasing in the certainty degree, decreasing in the
    complementarity degree for a fixed interior fraction, increasing and
    convex in the participating fraction.
    """
    for grid, label in ((a_values, "a"), (phi_values, "phi"), (x_values, "x")):
        if not len(grid):
            raise DomainError(f"empty grid for {label}")
    psi_a = [success_probability(a, base_phi, base_x) for a in a_values]
    psi_phi = [success_probability(base_a, phi, base_x) for phi in phi_values]
    psi_x = [success_probability(base_a, base_phi, x) for x in x_values]
    return SuccessResponse(
        certainty=_psi_series("a", a_values, psi_a, [base_x] * len(a_values)),
        complementarity=_psi_series("phi", phi_values, psi_phi, [base_x] * len(phi_values)),
        participation=_psi_series("x", x_values, psi_x, list(x_values)),
    )


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
