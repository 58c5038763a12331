"""Comparative statics: parameter grids, response curves, sensitivities."""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .equilibrium import (
    _GAIN_FIELDS,
    _KERNEL_FIELDS,
    _fixed_point,
    _gain,
    closed_form_threshold,
    effective_gain,
)
from .model import (
    PARAM_RANGES,
    RELATIONAL_CHECKS,
    DomainError,
    ModelParams,
    ParameterError,
    _range_head,
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
    """Equilibrium quantities along one parameter grid about ``base``.

    ``values`` keeps only the grid points that produced a valid model;
    points rejected by validation are listed in ``skipped`` as
    ``(value, constraint)``, the key of the first rule the value breaks
    (``field_range`` or a :data:`RELATIONAL_CHECKS` key), and
    :meth:`reasons` gives their texts. ``kappa_star``, ``x_star`` and
    ``psi_star`` are columns of floats aligned with ``values``, so a series
    holds no object per point. ``monotonicity`` classifies the
    ``kappa_star`` column.
    """

    base: ModelParams
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

    def reasons(self) -> tuple[tuple[float, str], ...]:
        """``skipped`` with each key replaced by the text of the
        ``ParameterError`` that the constructor raises at that value."""
        return tuple(_reasons(self.base, self.parameter_name, self.skipped))


def _reasons(base: ModelParams, name: str,
             skipped: Iterable[tuple[float, str]]) -> Iterator[tuple[float, str]]:
    """Each ``(value, constraint)`` of a sweep of ``name`` about ``base`` as
    ``(value, text)``: a range's text is one head per side and the value's
    ``repr``, which ``_checked`` writes the same, and a relational row's is
    what the row returns at the point."""
    _, _, rule = PARAM_RANGES[name]
    finite = f"field_range: {_range_head(name, rule, True)}"
    infinite = f"field_range: {_range_head(name, rule, False)}"
    point = dict(vars(base))
    for value, constraint in skipped:
        if constraint == "field_range":
            yield value, f"{finite if math.isfinite(value) else infinite}{value!r}"
        else:
            point[name] = value
            yield value, f"{constraint}: {RELATIONAL_CHECKS[constraint][0](point)}"


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
    if not all(map(operator.eq, series, series)):  # only NaN differs from itself
        for index, value in enumerate(series):
            if value != value:
                raise DomainError(f"cannot classify a series with NaN at index {index}")
    tail = series[1:]
    # Free of NaN, a pair is equal, rising or falling; all() stops at the
    # first pair that breaks its rule, and a singleton is constant.
    if all(map(operator.eq, series, tail)):
        return Monotonicity.CONSTANT
    if all(map(operator.lt, series, tail)):
        return Monotonicity.INCREASING
    if all(map(operator.gt, series, tail)):
        return Monotonicity.DECREASING
    return Monotonicity.NON_MONOTONE


def _floats(values: Iterable[float], name: str) -> list[float]:
    """values as floats; DomainError naming them if one has no float (a
    complex or non-numeric value) or is too large for one."""
    try:
        return list(map(float, values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name}: not a real number within float range ({exc})") from None


def _grid(values: Iterable[float], name: str) -> list[float]:
    """values as floats; DomainError naming the grid unless each value is a
    real number within float range and the grid is non-empty and strictly
    increasing."""
    grid = _floats(values, f"{name} value")
    if not grid:
        raise DomainError(f"{name} is empty")
    if not all(map(operator.lt, grid, grid[1:])):  # NaN fails too
        raise DomainError(f"{name} values must be strictly increasing")
    return grid


def grid_sweep(
    base: ModelParams, parameter_name: str, values: Iterable[float]
) -> SweepSeries:
    """Solve the equilibrium at each grid value of one parameter.

    The grid must be non-empty and strictly increasing. Grid points whose
    parameter set fails validation are skipped and reported in ``skipped``
    by the key of the constraint the constructor would raise, with no text:
    ``SweepSeries.reasons()`` builds the texts. A grid with no valid point
    at all is an error, which quotes the first skipped point's text. The
    monotonicity verdict applies to kappa_star over the retained points.

    A point is the base's field mapping, ``dict(vars(base))``, copied once
    per sweep, with the varied field set to the point's value. It computes
    only what that field changes, and its numbers are those of
    ``solve_fixed_point`` bit for bit:

    - it compares no value with the field's :data:`PARAM_RANGES` row: the
      grid is strictly increasing, so the values outside the row are a
      prefix and a suffix of it, which bisection finds, each skipped as
      ``field_range``;
    - it runs only the :data:`RELATIONAL_CHECKS` rows that read the field,
      on the point's mapping; every other check reads only the base's
      values, which passed. A row's verdict changes at most once along the
      in-range values (the rule above the table), so the kept points are one
      run of the grid: each row tests the run's first value, and bisection
      finds where its verdict flips. The values a row cuts off the run pass
      every earlier row, so they are skipped under its key. No value runs a
      row except as one of those probes, and no skipped value is formatted;
    - ``effective_gain`` is computed once per sweep unless the field feeds
      it (``Gamma_gain``, and ``s`` and ``p2`` for a partisan);
    - the solver's kernel runs on the point's mapping once per kept point,
      or once per sweep when it reads none of the field's effects (``p1``,
      ``q``, ``w``, ``G2``, ``G3``, and ``s`` and ``p2`` for a
      non-partisan), whose columns repeat that one equilibrium.

    No ``ModelParams``, ``EquilibriumResult`` or closed-form gap is built.
    A solved kept point appends its three floats to the series' columns and
    builds no record; the garbage collector does not track floats, so a
    long sweep starts no collection.
    """
    if parameter_name not in SWEEPABLE_PARAMETERS:
        raise DomainError(
            f"unknown sweep parameter {parameter_name!r}; "
            f"expected one of {', '.join(SWEEPABLE_PARAMETERS)}"
        )
    grid = _grid(values, "sweep grid")

    lo, hi, _ = PARAM_RANGES[parameter_name]
    # _grid proved the grid strictly increasing, so the values outside the
    # row are a prefix and a suffix of it. A one-point grid can be NaN, which
    # no comparison passes: the searches end at +inf's place, past it.
    last = bisect_left(grid, math.inf)
    start, stop = bisect_left(grid, lo, 0, last), bisect_right(grid, hi, 0, last)
    feeds_gain = parameter_name in _GAIN_FIELDS[base.leader_type]
    checks = [(constraint, check) for constraint, (check, reads) in RELATIONAL_CHECKS.items()
              if parameter_name in reads]
    point = dict(vars(base))  # this sweep's own mapping; each probed point sets its value
    gain = effective_gain(base)
    solved = None  # the kernel runs once per sweep if it reads nothing the field changes
    if not (feeds_gain or parameter_name in _KERNEL_FIELDS):
        solved = _fixed_point(point, gain)[:3]

    # Each row's verdict changes at most once along the in-range run (the
    # rule above RELATIONAL_CHECKS), so the kept points are one run. Each row
    # that reads the field narrows it: from its verdict at the run's first
    # point, bisection finds where the verdict flips. The values it cuts off
    # pass every earlier row, so the row is their first failure.
    def flipped(index: int) -> bool:
        point[parameter_name] = grid[index]
        return (check(point) is None) is not passes_first

    kstart, kstop = start, stop
    # The skipped runs as (start, stop, constraint): those below the kept run
    # in grid order, and those above it from the grid's end down.
    below, above = [(0, start, "field_range")], [(stop, len(grid), "field_range")]
    for constraint, check in checks:
        if kstart == kstop:
            break
        point[parameter_name] = grid[kstart]
        passes_first = check(point) is None
        flip = bisect_left(range(stop), True, kstart + 1, kstop, key=flipped)
        if passes_first:
            above.append((flip, kstop, constraint))
            kstop = flip
        else:
            below.append((kstart, flip, constraint))
            kstart = flip
    skipped = []
    for a, b, constraint in below + above[::-1]:
        skipped += zip(grid[a:b], repeat(constraint))
    if kstart == kstop:
        _, first = next(_reasons(base, parameter_name, skipped))
        raise ParameterError(
            "sweep_grid", f"no valid grid point for {parameter_name}; first rejection: {first}")
    kept = grid[kstart:kstop]
    if solved is not None:
        kappas, xs, psis = ((column,) * len(kept) for column in solved)
    else:
        kappas, xs, psis = [], [], []
        for value in kept:
            point[parameter_name] = value
            if feeds_gain:
                gain = _gain(point)
            kappa_star, x_star, psi_star = _fixed_point(point, gain)[:3]
            kappas.append(kappa_star)
            xs.append(x_star)
            psis.append(psi_star)
    return SweepSeries(
        base=base,
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

    def threshold_at(value: float) -> float | None:
        try:
            return closed_form_threshold(replace(base, **{parameter_name: value}))
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
