"""Equilibrium participation threshold: fixed-point solver and closed forms.

A reached non-follower participates when their cost is below the threshold
``kappa* = a * Gamma_eff * E{x}``, where ``E{x}`` is the expected
participating fraction and ``Gamma_eff`` is the participant gain, discounted
by the posterior belief of a majority-benefiting state when the policy maker
is partisan. Aggregating over followers and non-followers gives
``x = gamma * (theta + (1 - theta) * kappa*/kappa_max)``. Under rational
expectations both hold at once, so the threshold is the unique fixed point
of the best-response map; the participant gain bound makes the map a
contraction with modulus ``a * Gamma_eff * gamma * (1 - theta) / kappa_max``
below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from .model import (
    _NON_NEGATIVE,
    LeaderType,
    ModelParams,
    ThresholdConvention,
    WorldState,
    _checked,
    _posterior,
    info_acquisition_cost,
    optimal_info_effort,
    partisan_participation_cost,
)

__all__ = [
    "ConvergenceError",
    "EquilibriumResult",
    "EquilibriumReport",
    "effective_gain",
    "best_response_map",
    "closed_form_threshold",
    "solve_fixed_point",
    "equilibrium_report",
]

# Cap on the solver's polish steps; a valid parameter set needs a handful.
MAX_ITER = 10_000


class ConvergenceError(RuntimeError):
    """The fixed-point iteration did not settle within the cap."""


@dataclass(frozen=True)
class EquilibriumResult:
    """Solved equilibrium of the participation game.

    ``kappa_star`` is the cost threshold below which reached non-followers
    participate (the demand for leadership), ``x_star`` the participating
    fraction, ``psi_star`` the implied success probability, and
    ``closed_form_gap`` the distance between the fixed point and the
    closed form selected by ``convention``. ``iterations`` counts the
    polish steps the solver applied after its extrapolated start, and
    ``residual`` is the size of the last one.
    """

    convention: ThresholdConvention
    kappa_star: float
    x_star: float
    psi_star: float
    effective_gain: float
    iterations: int
    residual: float
    closed_form_gap: float


@dataclass(frozen=True)
class EquilibriumReport:
    """An equilibrium with the standalone cost metrics attached.

    ``info_cost`` is the policy maker's information-acquisition cost at the
    optimal effort; ``partisan_cost`` is the ex-post participation cost of
    the follower core. Neither enters the equilibrium computation.
    """

    equilibrium: EquilibriumResult
    info_cost: float
    partisan_cost: float


# The numeric fields effective_gain reads, by leader type.
_GAIN_FIELDS: dict[LeaderType, tuple[str, ...]] = {
    LeaderType.NON_PARTISAN: ("Gamma_gain",),
    LeaderType.PARTISAN: ("Gamma_gain", "s", "p2"),
}


def effective_gain(params: ModelParams) -> float:
    """Participation gain as perceived by a reached non-follower.

    A non-partisan policy maker only calls in the majority-benefiting
    state, so the gain is ``Gamma_gain`` outright. A partisan also calls
    in the minority state, so the gain is discounted by the posterior
    belief that the state benefits the majority; only then does the gain
    read ``s`` and ``p2`` (see ``_GAIN_FIELDS``).
    """
    return _gain(vars(params))


def _gain(f: Mapping[str, Any]) -> float:
    """:func:`effective_gain` of a valid set's field mapping, so with no argument checks."""
    if f["leader_type"] is LeaderType.NON_PARTISAN:
        return f["Gamma_gain"]
    return f["Gamma_gain"] * _posterior(f["s"], f["p2"], f["posterior_convention"])


def best_response_map(params: ModelParams, kappa: float) -> float:
    """One round of the threshold best response.

    If non-followers currently participate up to cost ``kappa``, the
    participating fraction is ``gamma * (theta + (1-theta) * min(kappa,
    kappa_max)/kappa_max)`` and the next-round threshold is ``a * Gamma_eff``
    times that fraction. ``kappa`` must be a finite number >= 0.
    """
    kappa = _checked("kappa", kappa, _NON_NEGATIVE)
    gain = effective_gain(params)
    clipped = min(kappa, params.kappa_max)
    return (
        params.a
        * gain
        * params.gamma
        * (params.theta + (1.0 - params.theta) * clipped / params.kappa_max)
    )


def closed_form_threshold(params: ModelParams) -> float:
    """Closed-form equilibrium threshold under ``params.threshold_convention``.

    DERIVED_CONSISTENT solves the participation recursion exactly:
    ``theta / (1/(a*gamma*Gamma_eff) - (1-theta)/kappa_max)``, evaluated as
    ``kappa_max * theta*s / ((kappa_max - s) + s*theta)`` with
    ``s = a*gamma*Gamma_eff``. That takes no difference of nearly equal
    terms, and its ratio lies in [0, 1), so nothing overflows; the
    participant gain bound keeps ``kappa_max - s > 0``.
    PAPER_LITERAL flips the inner sign to ``+`` as printed in the published
    expression; that variant is increasing in kappa_max, contradicting the
    stated comparative statics, and is kept for reference only. To compare
    the two forms, call this on ``replace(params, threshold_convention=...)``.
    """
    return _closed_form(vars(params), effective_gain(params))


def _closed_form(f: Mapping[str, Any], gain: float) -> float:
    """:func:`closed_form_threshold` of a field mapping whose effective gain is ``gain``."""
    scale = f["a"] * f["gamma"] * gain
    theta, kappa_max = f["theta"], f["kappa_max"]
    if scale == 0.0:
        # A partisan call with no perceived gain (p2 = 0 under the PAPER
        # posterior, p2 = 1 under BAYES). With no followers (theta = 0)
        # both forms below give 0.0 on their own.
        return 0.0
    if f["threshold_convention"] is ThresholdConvention.PAPER_LITERAL:
        return theta / (1.0 / scale + (1.0 - theta) / kappa_max)
    share = theta * scale / ((kappa_max - scale) + scale * theta)
    return share * kappa_max


# The fields _fixed_point reads besides the effective gain.
_KERNEL_FIELDS = frozenset({"a", "gamma", "theta", "kappa_max", "phi"})


def _fixed_point(f: Mapping[str, Any], gain: float) -> tuple[float, float, float, int, float]:
    """The solver's kernel on a field mapping whose effective gain is ``gain``;
    it reads :data:`MAX_ITER` at each call.

    Returns ``(kappa_star, x_star, psi_star, iterations, residual)``;
    :func:`solve_fixed_point` documents the method. The caller passes the
    fields of a valid parameter set, so ``psi_star`` is ``a * x_star**phi /
    phi``, the expression of :func:`~reformgame.model.success_probability`,
    without its domain checks. A zero seed needs no case of its own:
    validation keeps ``kappa_max - a*gamma*gain > 0``, so ``1-L`` is
    positive and the start is 0.0.
    """
    a, gamma, theta, kappa_max, phi = f["a"], f["gamma"], f["theta"], f["kappa_max"], f["phi"]
    scale = a * gamma * gain
    seed = scale * theta
    slope = scale * (1.0 - theta) / kappa_max

    kappa = seed / (((kappa_max - scale) + scale * theta) / kappa_max)
    previous = math.inf
    for iterations in range(1, MAX_ITER + 1):
        # min(kappa, kappa_max) without the builtin's call
        nxt = seed + slope * (kappa_max if kappa_max < kappa else kappa)
        residual = abs(nxt - kappa)
        kappa = nxt
        # A step of zero is the machine fixed point; a step no smaller than
        # the last is rounding noise around it.
        if residual == 0.0 or residual >= previous:
            break
        previous = residual
    else:
        raise ConvergenceError(
            f"no fixed point within {MAX_ITER} iterations (residual {residual:.3e}, "
            f"contraction modulus L = {slope:.6g})"
        )

    x_star = gamma * (theta + (1.0 - theta) * (kappa / kappa_max))
    return kappa, x_star, a * x_star**phi / phi, iterations, residual


def solve_fixed_point(params: ModelParams) -> EquilibriumResult:
    """Solve for the fixed point of the best-response map.

    On ``[0, kappa_max]`` the map is affine, ``kappa -> seed + L*kappa``
    with ``seed = s*theta``, ``L = s*(1-theta)/kappa_max`` and
    ``s = a*gamma*Gamma_eff``, so the Aitken delta-squared limit of its
    iterates is the fixed point ``seed/(1-L)`` itself. The solver starts
    there, with ``1-L`` written as ``((kappa_max - s) + s*theta)/kappa_max``
    to avoid cancellation, then applies the map until a step is zero or no
    smaller than the one before, so the decision rests on the floats alone,
    whatever the units of ``kappa_max``. The result is therefore a checked
    fixed point of the map, reached in a few polish steps for every valid
    parameter set; :data:`MAX_ITER` caps those steps, and a run that reaches
    it raises :class:`ConvergenceError`. At the threshold found, ``x_star``
    is ``gamma*(theta + (1-theta)*(kappa_star/kappa_max))`` and ``psi_star``
    is :func:`~reformgame.model.success_probability` of it.

    It computes ``Gamma_eff`` once and passes it, with the field mapping
    ``vars(params)``, to the private kernel ``_fixed_point`` (which
    ``grid_sweep`` calls on its own mapping) and to ``_closed_form`` for the
    gap under ``params.threshold_convention``.
    """
    fields = vars(params)
    gain = effective_gain(params)
    kappa, x_star, psi_star, iterations, residual = _fixed_point(fields, gain)
    gap = abs(kappa - _closed_form(fields, gain))
    return EquilibriumResult(
        convention=params.threshold_convention,
        kappa_star=kappa,
        x_star=x_star,
        psi_star=psi_star,
        effective_gain=gain,
        iterations=iterations,
        residual=residual,
        closed_form_gap=gap,
    )


def equilibrium_report(params: ModelParams) -> EquilibriumReport:
    """Solve the equilibrium and attach the standalone cost metrics.

    The information cost is evaluated at the optimal acquisition effort for
    the majority-state gain; a partisan policy maker also weighs the
    minority-state gain and the larger effort is reported. The equilibrium
    is that of :func:`solve_fixed_point`.
    """
    result = solve_fixed_point(params)
    effort = optimal_info_effort(params, WorldState.E3)
    if params.leader_type is LeaderType.PARTISAN:
        effort = max(effort, optimal_info_effort(params, WorldState.E2))
    return EquilibriumReport(
        equilibrium=result,
        info_cost=info_acquisition_cost(params.q, effort),
        partisan_cost=partisan_participation_cost(params.w, params.theta),
    )
