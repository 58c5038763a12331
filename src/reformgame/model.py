"""Core types and closed-form primitives of the reform participation model.

The model describes a policy maker (partisan or non-partisan) who may call
on a population to join an institutional reform. The world is in one of
three states: change impossible (E1), change benefiting a minority (E2),
or change benefiting the majority (E3). A fraction ``theta`` of the
population are committed followers with zero participation cost; everyone
else draws a cost uniformly on ``[0, kappa_max]``. A fraction ``gamma``
of the population is reached by the call to action. The reform succeeds
with probability ``a * x**phi / phi`` where ``x`` is the participating
fraction.

Everything in this module is a pure function of its inputs and safe to
call concurrently; parameter objects are immutable after construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from typing import Callable

__all__ = [
    "DomainError",
    "ParameterError",
    "LeaderType",
    "ThresholdConvention",
    "PosteriorConvention",
    "WorldState",
    "Beneficiary",
    "ModelParams",
    "GAIN_ALLOCATION",
    "BOUNDARY_MARGIN",
    "PARAM_RANGES",
    "RELATIONAL_CHECKS",
    "success_probability",
    "info_acquisition_cost",
    "partisan_participation_cost",
    "posterior_change_state",
    "state_probabilities",
    "optimal_info_effort",
    "validate_params",
]

# Open-interval parameters (a, gamma, s) must stay at least this far from
# their endpoints; the endpoints are degenerate (total uncertainty or
# total certainty) and break the closed forms.
BOUNDARY_MARGIN = 1e-12

_FLOAT_MAX = sys.float_info.max
_ABOVE_ZERO = math.nextafter(0.0, math.inf)
_INSIDE_UNIT = f"must lie in [{BOUNDARY_MARGIN}, 1 - {BOUNDARY_MARGIN}]"

# Lowest and highest allowed value of every numeric ModelParams field, in
# declaration order, with the rule quoted when a value is rejected. Open
# ends are folded into closed bounds (BOUNDARY_MARGIN for the open unit
# intervals, the next float up for a strict ">", the largest float for no
# upper limit), so one chained comparison rejects NaN, +-inf and every
# out-of-range value.
PARAM_RANGES: dict[str, tuple[float, float, str]] = {
    "a": (BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, _INSIDE_UNIT),
    "phi": (math.nextafter(1.0, math.inf), _FLOAT_MAX, "must be > 1"),
    "theta": (0.0, 1.0, "must lie in [0.0, 1.0]"),
    "gamma": (BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, _INSIDE_UNIT),
    "kappa_max": (_ABOVE_ZERO, _FLOAT_MAX, "must be > 0"),
    "Gamma_gain": (_ABOVE_ZERO, _FLOAT_MAX, "must be > 0"),
    "p1": (0.0, 1.0, "must lie in [0.0, 1.0]"),
    "p2": (0.0, 1.0, "must lie in [0.0, 1.0]"),
    "s": (BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, _INSIDE_UNIT),
    "q": (_ABOVE_ZERO, _FLOAT_MAX, "must be > 0"),
    "w": (0.0, _FLOAT_MAX, "must be >= 0"),
    "G2": (0.0, _FLOAT_MAX, "must be >= 0"),
    "G3": (0.0, _FLOAT_MAX, "must be >= 0"),
}


def _range_error(name: str, value: float) -> ParameterError:
    """The ``field_range`` error for a value outside its PARAM_RANGES row."""
    rule = PARAM_RANGES[name][2]
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        rule = "must be a finite number"
    return ParameterError("field_range", f"{name} {rule}, got {value}")


def _leader_gain_profile(params: ModelParams) -> None:
    if params.leader_type is LeaderType.NON_PARTISAN:
        if params.G2 != 0.0 or not params.G3 > 0.0:
            raise ParameterError(
                "leader_gain_profile",
                f"a non-partisan policy maker requires G2 = 0 and G3 > 0, "
                f"got G2 = {params.G2}, G3 = {params.G3}",
            )
    elif not (params.G2 > 0.0 and params.G3 > 0.0):
        raise ParameterError(
            "leader_gain_profile",
            f"a partisan policy maker requires G2 > 0 and G3 > 0, "
            f"got G2 = {params.G2}, G3 = {params.G3}",
        )


def _participant_gain_bound(params: ModelParams) -> None:
    # Tested as a product, associated as the solver forms it, so that
    # kappa_max - a*gamma*Gamma_eff stays positive in floating point.
    product = params.a * params.gamma * params.Gamma_gain
    if not product < params.kappa_max:
        raise ParameterError(
            "participant_gain_bound",
            f"a*gamma*Gamma_gain must be < kappa_max = {params.kappa_max}, "
            f"got {product} (Gamma_gain = {params.Gamma_gain})",
        )


def _reformer_gain_bound(params: ModelParams) -> None:
    if params.p1 < 1.0:
        reformer_bound = params.q / ((1.0 - params.p1) * params.a * params.gamma)
        for name, gain in (("G2", params.G2), ("G3", params.G3)):
            if gain > 0.0 and not gain < reformer_bound:
                raise ParameterError(
                    "reformer_gain_bound",
                    f"{name} must be < q/((1-p1)*a*gamma) = {reformer_bound}, "
                    f"got {gain}",
                )


# The checks that relate several fields, keyed by the constraint each one
# raises, in the order validate_params runs them after the ranges, with
# every field each one reads. A parameter set that differs from a valid one
# in a single field can fail only that field's range or a row reading it.
RELATIONAL_CHECKS: dict[str, tuple[Callable[[ModelParams], None], tuple[str, ...]]] = {
    "leader_gain_profile": (_leader_gain_profile, ("leader_type", "G2", "G3")),
    "participant_gain_bound": (
        _participant_gain_bound, ("a", "gamma", "Gamma_gain", "kappa_max")),
    "reformer_gain_bound": (
        _reformer_gain_bound, ("q", "p1", "a", "gamma", "G2", "G3")),
}


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


class ParameterError(DomainError):
    """A model parameter set violates a named constraint.

    ``constraint`` identifies which rule failed (e.g. ``participant_gain_bound``)
    so callers can react to specific violations rather than parse messages.
    """

    def __init__(self, constraint: str, message: str):
        super().__init__(f"{constraint}: {message}")
        self.constraint = constraint


class LeaderType(str, Enum):
    """Preference type of the policy maker issuing the call to action."""

    PARTISAN = "partisan"
    NON_PARTISAN = "non-partisan"


class ThresholdConvention(str, Enum):
    """Which closed form of the participation threshold to report.

    PAPER_LITERAL keeps the published expression, whose bracket adds the
    ``(1 - theta)/kappa_max`` term. DERIVED_CONSISTENT subtracts it, which
    is the unique solution of the participation recursion and the form the
    fixed-point solver converges to.
    """

    PAPER_LITERAL = "paper-literal"
    DERIVED_CONSISTENT = "derived-consistent"


class PosteriorConvention(str, Enum):
    """How the majority updates beliefs after a partisan's call.

    PAPER evaluates the published conditional probability as written.
    BAYES applies Bayes' rule to the state priors with a partisan who
    calls in both change states; the two disagree (the published form
    returns the minority-state weight at s = 0).
    """

    PAPER = "paper"
    BAYES = "bayes"


class WorldState(Enum):
    """Underlying state of the world: who a successful reform can benefit."""

    E1 = "E1"  # change impossible, status quo persists
    E2 = "E2"  # change possible, gains reach the minority only
    E3 = "E3"  # change possible, gains reach the majority

    def __repr__(self) -> str:  # keeps result records compact
        return self.value


class Beneficiary(str, Enum):
    LOBBYISTS_ONLY = "lobbyists-only"
    MINORITY_PLUS_POLICY_MAKER = "minority-plus-policy-maker"
    MAJORITY_INCLUDING_MINORITY = "majority-including-minority"


# Who captures the gains of a successful reform in each state.
GAIN_ALLOCATION: dict[WorldState, Beneficiary] = {
    WorldState.E1: Beneficiary.LOBBYISTS_ONLY,
    WorldState.E2: Beneficiary.MINORITY_PLUS_POLICY_MAKER,
    WorldState.E3: Beneficiary.MAJORITY_INCLUDING_MINORITY,
}


# The choice fields of ModelParams, each with the enum its value must be a
# member of: a plain string equal to a member's value is not one.
_CHOICE_FIELDS: dict[str, type[Enum]] = {
    "leader_type": LeaderType,
    "threshold_convention": ThresholdConvention,
    "posterior_convention": PosteriorConvention,
}


@dataclass(frozen=True)
class ModelParams:
    """All exogenous quantities of the model.

    Fields:
        a: certainty degree of the reform process, in (0, 1).
        phi: complementarity degree between participants, > 1.
        theta: share of committed followers (zero participation cost), in [0, 1].
        gamma: fraction of the population reached by the call, in (0, 1).
        kappa_max: upper bound of the uniform participation-cost support, > 0.
        Gamma_gain: a participant's gain from a successful reform, > 0.
        p1: probability that change is impossible (state E1), in [0, 1].
        p2: conditional branch probability separating E2 from E3, in [0, 1].
        s: perceived probability that the policy maker's preferences
           coincide with the majority's, in (0, 1).
        q: ability scale in the information-acquisition cost, > 0.
        w: ex-post participation cost scale, >= 0.
        G2, G3: the policy maker's gains from successful change in E2 / E3.
        leader_type: partisan or non-partisan.
        threshold_convention: closed form reported for the threshold.
        posterior_convention: belief-update rule after a partisan's call.

    Construction (``dataclasses.replace`` too) stores each numeric field
    that is a real number as a ``float``, so a numpy ``float32`` or an
    ``int`` is solved in double precision, then calls
    :func:`validate_params`.
    Instances keep a ``__dict__`` (no ``slots``): sweeps copy it and build
    their points through it, validating only what the varied field can
    break.
    """

    a: float
    phi: float
    theta: float
    gamma: float
    kappa_max: float
    Gamma_gain: float
    p1: float
    p2: float
    s: float
    q: float
    w: float
    G2: float
    G3: float
    leader_type: LeaderType = LeaderType.NON_PARTISAN
    threshold_convention: ThresholdConvention = ThresholdConvention.DERIVED_CONSISTENT
    posterior_convention: PosteriorConvention = PosteriorConvention.PAPER

    def __post_init__(self) -> None:
        fields = self.__dict__  # the instance is frozen; write past __setattr__
        for name in PARAM_RANGES:
            value = fields[name]
            if type(value) is not float and isinstance(value, Real):
                try:
                    fields[name] = float(value)
                except OverflowError:
                    pass  # validate_params rejects it by name
        validate_params(self)


def success_probability(a: float, phi: float, x: float) -> float:
    """Probability that the reform succeeds given participating fraction x.

    Equals ``a * x**phi / phi``, which lies in [0, a/phi]: increasing and
    convex in x, linear in a, decreasing in phi for x in (0, 1).
    """
    if not (0.0 < a < 1.0):
        raise DomainError(f"certainty degree a must lie strictly in (0, 1), got {a}")
    if not phi > 1.0:
        raise DomainError(f"complementarity degree phi must be > 1, got {phi}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"participating fraction x must lie in [0, 1], got {x}")
    return a * x**phi / phi


def info_acquisition_cost(q: float, pi: float) -> float:
    """Cost of acquiring state information with probability pi: q * pi**2 / 2."""
    if not math.isfinite(q):
        raise DomainError(f"ability scale q must be a finite number, got {q}")
    if not q > 0.0:
        raise DomainError(f"ability scale q must be > 0, got {q}")
    if not (0.0 <= pi <= 1.0):
        raise DomainError(f"acquisition probability pi must lie in [0, 1], got {pi}")
    return 0.5 * q * pi * pi


def partisan_participation_cost(w: float, theta: float) -> float:
    """Ex-post participation cost of the follower core: w * theta**2 / 2."""
    if not math.isfinite(w):
        raise DomainError(f"cost scale w must be a finite number, got {w}")
    if w < 0.0:
        raise DomainError(f"cost scale w must be >= 0, got {w}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"follower share theta must lie in [0, 1], got {theta}")
    return 0.5 * w * theta * theta


def posterior_change_state(
    s: float,
    p2: float,
    convention: PosteriorConvention = PosteriorConvention.PAPER,
) -> float:
    """Majority's belief that the state is E3 after receiving the call.

    Under the PAPER convention this is ``p2 / (p2 + (1 - s) * (1 - p2))``,
    the published expression. Under BAYES it is
    ``(1 - p2) / ((1 - p2) + (1 - s) * p2)``: Bayes' rule over the state
    priors when a partisan calls in both change states and an aligned one
    (probability s) only in E3. Both return 1 at s = 1; at s = 0 the first
    returns p2 and the second 1 - p2.
    """
    if not (0.0 <= s <= 1.0):
        raise DomainError(f"alignment probability s must lie in [0, 1], got {s}")
    if not (0.0 <= p2 <= 1.0):
        raise DomainError(f"branch probability p2 must lie in [0, 1], got {p2}")
    if convention is PosteriorConvention.PAPER:
        denom = p2 + (1.0 - s) * (1.0 - p2)
        if denom == 0.0:
            raise DomainError("posterior undefined: s = 1 with p2 = 0 empties the denominator")
        return p2 / denom
    denom = (1.0 - p2) + (1.0 - s) * p2
    if denom == 0.0:
        raise DomainError("posterior undefined: s = 1 with p2 = 1 empties the denominator")
    return (1.0 - p2) / denom


def state_probabilities(p1: float, p2: float) -> tuple[float, float, float]:
    """Prior probabilities of (E1, E2, E3): (p1, (1-p1)*p2, (1-p1)*(1-p2))."""
    if not (0.0 <= p1 <= 1.0):
        raise DomainError(f"p1 must lie in [0, 1], got {p1}")
    if not (0.0 <= p2 <= 1.0):
        raise DomainError(f"p2 must lie in [0, 1], got {p2}")
    return (p1, (1.0 - p1) * p2, (1.0 - p1) * (1.0 - p2))


def optimal_info_effort(params: ModelParams, state: WorldState) -> float:
    """Optimal probability of acquiring information about a change state.

    The policy maker's expected benefit from knowing the state is
    ``(1 - p1) * a * gamma * G_i`` for the gain ``G_i`` attached to the
    state; against the quadratic acquisition cost the maximizer is
    ``min(1, (1 - p1) * a * gamma * G_i / q)``. Under the reformer gain
    bound the interior solution is strictly below 1.
    """
    if state is WorldState.E1:
        raise DomainError("no reform gain is defined for the status-quo state")
    gain = params.G2 if state is WorldState.E2 else params.G3
    return min(1.0, (1.0 - params.p1) * params.a * params.gamma * gain / params.q)


def validate_params(params: ModelParams) -> ModelParams:
    """Check every model invariant and return the parameters unchanged.

    Walks every row of :data:`PARAM_RANGES`, then the three choice fields,
    then every row of :data:`RELATIONAL_CHECKS`, in table order, and raises
    the first failure as a :class:`ParameterError` with a distinct
    ``constraint`` name: a numeric field that is not a real number or lies
    outside its range, NaN and infinities included, or a choice field that
    is not a member of its enum (``field_range``), a leader type
    inconsistent with its gain profile (``leader_gain_profile``), a
    participant gain too large for partial participation
    (``participant_gain_bound``), and a policy-maker gain breaking the
    interior information-effort solution (``reformer_gain_bound``).
    Comparisons are exact; the bounds are strict. Constructing a
    :class:`ModelParams` calls this; a sweep point, which differs from a
    valid base in one field, runs only that field's range and the table rows
    that read it.
    """
    for name, (lo, hi, _) in PARAM_RANGES.items():
        value = getattr(params, name)
        # float and int first: they match without the ABC's slower check.
        if not isinstance(value, (float, int, Real)):
            raise ParameterError("field_range", f"{name} must be a real number, got {value!r}")
        if not lo <= value <= hi:
            raise _range_error(name, value)
    for name, choices in _CHOICE_FIELDS.items():
        value = getattr(params, name)
        if not isinstance(value, choices):
            raise ParameterError(
                "field_range", f"{name} must be a {choices.__name__} member, got {value!r}"
            )
    for check, _ in RELATIONAL_CHECKS.values():
        check(params)
    return params
