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
from dataclasses import dataclass, field, fields as dataclass_fields
from enum import Enum
from numbers import Real
from typing import Any, Callable, Mapping

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

# The open unit-interval fields must stay at least this far from their
# endpoints; the endpoints are degenerate (total uncertainty or total
# certainty) and break the closed forms.
BOUNDARY_MARGIN = 1e-12

_FLOAT_MAX = sys.float_info.max
# The (lo, hi, rule) rows that several numeric fields, and primitive arguments, share.
_OPEN_UNIT = (BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN,
              f"must lie in [{BOUNDARY_MARGIN}, 1 - {BOUNDARY_MARGIN}]")
_UNIT = (0.0, 1.0, "must lie in [0.0, 1.0]")
_POSITIVE = (math.nextafter(0.0, math.inf), _FLOAT_MAX, "must be > 0")
_NON_NEGATIVE = (0.0, _FLOAT_MAX, "must be >= 0")


def _ranged(lo: float, hi: float, rule: str) -> Any:
    """A numeric ModelParams field with no default whose values must lie in
    ``[lo, hi]``, ``rule`` being the text quoted when one does not. Open
    ends are folded into closed bounds (BOUNDARY_MARGIN for the open unit
    intervals, the next float up for a strict ">", the largest float for no
    upper limit), so one chained comparison rejects NaN, +-inf and every
    out-of-range value."""
    return field(metadata={"range": (lo, hi, rule)})


def _range_head(name: str, rule: str, finite: bool) -> str:
    """``<name> <rule>, got ``: the text of a value of ``name`` outside its
    row, up to the value, where one that is not finite breaks "must be a
    finite number". _checked appends the value; ``SweepSeries.reasons()``
    builds each head once per series and appends each skipped float's
    ``repr``, which reads the same."""
    return f"{name} {rule if finite else 'must be a finite number'}, got "


def _checked(name: str, value: Any, row: tuple[float, float, str]) -> float:
    """``value`` as a float if it is a real number in ``row``'s [lo, hi], else
    DomainError naming ``name``: not a real number, not finite (NaN, +-inf,
    past the float range), or breaking ``rule``. It is every range check: a
    field's, and a primitive argument's against its field's row (``_UNIT``
    for ``x``, ``pi`` and ``s``; ``_NON_NEGATIVE`` for ``kappa``)."""
    lo, hi, rule = row
    number = value
    if type(value) is not float:  # compared as a float: a float32 would round the bounds
        if not isinstance(value, (int, Real)):  # int skips the ABC's slower check
            raise DomainError(f"{name} must be a real number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # past the float range: compared exactly, so not finite
            pass
    if not lo <= number <= hi:
        finite = -_FLOAT_MAX <= number <= _FLOAT_MAX
        raise DomainError(f"{_range_head(name, rule, finite)}{_shown(number)}")
    return number


def _shown(number: Any) -> str:
    """``f"{number}"``, or for an int too long for ``str()`` (more than
    ``sys.get_int_max_str_digits()`` digits) a text that says so."""
    try:
        return f"{number}"
    except ValueError:
        return f"a number of more than {sys.get_int_max_str_digits()} digits"


def _leader_gain_profile(f: Mapping[str, Any]) -> str | None:
    if f["leader_type"] is LeaderType.NON_PARTISAN:
        if f["G2"] != 0.0 or not f["G3"] > 0.0:
            return (f"a non-partisan policy maker requires G2 = 0 and G3 > 0, "
                    f"got G2 = {f['G2']}, G3 = {f['G3']}")
    elif not (f["G2"] > 0.0 and f["G3"] > 0.0):
        return (f"a partisan policy maker requires G2 > 0 and G3 > 0, "
                f"got G2 = {f['G2']}, G3 = {f['G3']}")
    return None


def _participant_gain_bound(f: Mapping[str, Any]) -> str | None:
    # Tested as a product, associated as the solver forms it, so that
    # kappa_max - a*gamma*Gamma_eff stays positive in floating point.
    product = f["a"] * f["gamma"] * f["Gamma_gain"]
    if not product < f["kappa_max"]:
        return (f"a*gamma*Gamma_gain must be < kappa_max = {f['kappa_max']}, "
                f"got {product} (Gamma_gain = {f['Gamma_gain']})")
    return None


def _reformer_gain_bound(f: Mapping[str, Any]) -> str | None:
    if f["p1"] < 1.0:
        reformer_bound = f["q"] / ((1.0 - f["p1"]) * f["a"] * f["gamma"])
        for name in ("G2", "G3"):
            gain = f[name]
            if gain > 0.0 and not gain < reformer_bound:
                return f"{name} must be < q/((1-p1)*a*gamma) = {reformer_bound}, got {gain}"
    return None


# The checks that relate several fields, in the order validate_params runs
# them after the ranges, each with every field it reads. A row takes a
# parameter set's field mapping (``vars(params)``, or a sweep's point) and
# returns the violated rule's text, or None when the fields pass; its key is
# the only name of its constraint. A parameter set that differs from a valid
# one in a single field can fail only that field's range or a row reading it.
#
# The rule a row must keep: along any strictly increasing run of in-range
# values of one field it reads, all else fixed, its failures form a prefix or
# a suffix of the run, so its verdict changes at most once. grid_sweep finds
# the kept points by bisection and runs no row otherwise: the values a row's
# bisection cuts off pass every earlier row, so that interval gives each
# rejected value its first failing row. The rows keep it because IEEE
# rounding is monotone:
# - participant_gain_bound fails when kappa_max <= (a*gamma)*Gamma_gain, a
#   product that never falls as a, gamma or Gamma_gain rises;
# - reformer_gain_bound: q/(((1-p1)*a)*gamma) never falls as q or p1 rises
#   and never rises as a or gamma rises, p1 == 1 (the last in-range p1)
#   passes, and "G > 0 and not G < bound" fails on a suffix of G2 or G3;
# - leader_gain_profile: G2 == 0 holds only at the first in-range G2, and
#   G2 > 0 and G3 > 0 each hold on a suffix.
RELATIONAL_CHECKS: dict[str, tuple[Callable[[Mapping[str, Any]], str | None],
                                   tuple[str, ...]]] = {
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


@dataclass(frozen=True)
class ModelParams:
    """All exogenous quantities of the model.

    Fields (each numeric field's declaration below carries its range and
    rule, which PARAM_RANGES lists):
        a: certainty degree of the reform process.
        phi: complementarity degree between participants.
        theta: share of committed followers (zero participation cost).
        gamma: fraction of the population reached by the call.
        kappa_max: upper bound of the uniform participation-cost support.
        Gamma_gain: a participant's gain from a successful reform.
        p1: probability that change is impossible (state E1).
        p2: conditional branch probability separating E2 from E3.
        s: perceived probability that the policy maker's preferences
           coincide with the majority's.
        q: ability scale in the information-acquisition cost.
        w: ex-post participation cost scale.
        G2, G3: the policy maker's gains from successful change in E2 / E3.
        leader_type: partisan or non-partisan.
        threshold_convention: closed form reported for the threshold.
        posterior_convention: belief-update rule after a partisan's call.

    Construction (``dataclasses.replace`` too) calls
    :func:`validate_params`, which stores each numeric field as a
    ``float``, so a numpy ``float32`` or an ``int`` is solved in double
    precision.
    """

    a: float = _ranged(*_OPEN_UNIT)
    phi: float = _ranged(math.nextafter(1.0, math.inf), _FLOAT_MAX, "must be > 1")
    theta: float = _ranged(*_UNIT)
    gamma: float = _ranged(*_OPEN_UNIT)
    kappa_max: float = _ranged(*_POSITIVE)
    Gamma_gain: float = _ranged(*_POSITIVE)
    p1: float = _ranged(*_UNIT)
    p2: float = _ranged(*_UNIT)
    s: float = _ranged(*_OPEN_UNIT)
    q: float = _ranged(*_POSITIVE)
    w: float = _ranged(*_NON_NEGATIVE)
    G2: float = _ranged(*_NON_NEGATIVE)
    G3: float = _ranged(*_NON_NEGATIVE)
    leader_type: LeaderType = LeaderType.NON_PARTISAN
    threshold_convention: ThresholdConvention = ThresholdConvention.DERIVED_CONSISTENT
    posterior_convention: PosteriorConvention = PosteriorConvention.PAPER

    def __post_init__(self) -> None:
        validate_params(self)


# The (lo, hi, rule) row that every numeric ModelParams field declares, in
# declaration order.
PARAM_RANGES: dict[str, tuple[float, float, str]] = {
    f.name: f.metadata["range"] for f in dataclass_fields(ModelParams) if "range" in f.metadata
}

# The choice fields of ModelParams, each with its default's enum, which its
# value must be a member of: a string equal to a member's value is not one.
_CHOICE_FIELDS: dict[str, type[Enum]] = {
    f.name: type(f.default) for f in dataclass_fields(ModelParams) if isinstance(f.default, Enum)
}


def success_probability(a: float, phi: float, x: float) -> float:
    """Probability that the reform succeeds given participating fraction x.

    Equals ``a * x**phi / phi``, which lies in [0, a/phi]: increasing and
    convex in x, linear in a, decreasing in phi for x in (0, 1).
    """
    a = _checked("a", a, PARAM_RANGES["a"])
    phi = _checked("phi", phi, PARAM_RANGES["phi"])
    x = _checked("x", x, _UNIT)
    return a * x**phi / phi


def info_acquisition_cost(q: float, pi: float) -> float:
    """Cost of acquiring state information with probability pi: q * pi**2 / 2."""
    q = _checked("q", q, PARAM_RANGES["q"])
    pi = _checked("pi", pi, _UNIT)
    return 0.5 * q * pi * pi


def partisan_participation_cost(w: float, theta: float) -> float:
    """Ex-post participation cost of the follower core: w * theta**2 / 2."""
    w = _checked("w", w, PARAM_RANGES["w"])
    theta = _checked("theta", theta, PARAM_RANGES["theta"])
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

    ``s`` takes the ``_UNIT`` row, wider than its field's: both forms are
    defined at s = 0 and 1, with the values above, while a parameter set
    certain of the policy maker's type is degenerate.
    """
    s = _checked("s", s, _UNIT)
    return _posterior(s, _checked("p2", p2, PARAM_RANGES["p2"]), convention)


def _posterior(s: float, p2: float, convention: PosteriorConvention) -> float:
    """:func:`posterior_change_state` of in-range floats, without the checks."""
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
    p1 = _checked("p1", p1, PARAM_RANGES["p1"])
    p2 = _checked("p2", p2, PARAM_RANGES["p2"])
    return (p1, (1.0 - p1) * p2, (1.0 - p1) * (1.0 - p2))


def optimal_info_effort(params: ModelParams, state: WorldState) -> float:
    """Optimal probability of acquiring information about a change state.

    The policy maker's expected benefit from knowing the state is
    ``(1 - p1) * a * gamma * G_i`` for the gain ``G_i`` attached to the
    state; against the quadratic acquisition cost the maximizer is
    ``min(1, (1 - p1) * a * gamma * G_i / q)``. Under the reformer gain
    bound the interior solution is strictly below 1. A ``state`` that is
    not a ``WorldState``, or is E1, raises ``DomainError``.
    """
    if not isinstance(state, WorldState):
        raise DomainError(f"state must be a WorldState, got {state!r}")
    if state is WorldState.E1:
        raise DomainError("no reform gain is defined for the status-quo state")
    gain = params.G2 if state is WorldState.E2 else params.G3
    return min(1.0, (1.0 - params.p1) * params.a * params.gamma * gain / params.q)


def validate_params(params: ModelParams) -> ModelParams:
    """Check every model invariant and return the parameters, each numeric field a float.

    Walks every row of :data:`PARAM_RANGES`, then the three choice fields,
    then every row of :data:`RELATIONAL_CHECKS`, in table order, and raises
    the first failure as a :class:`ParameterError` with a distinct
    ``constraint`` name: a numeric field that is not a real number or lies
    outside its range, NaN and infinities included, or a choice field that
    is not a member of its enum (``field_range``), a leader type
    inconsistent with its gain profile (``leader_gain_profile``), a
    participant gain too large for partial participation
    (``participant_gain_bound``), and a policy-maker gain breaking the
    interior information-effort solution (``reformer_gain_bound``). A
    relational row reads the field mapping ``vars(params)`` and returns its
    rule's text, and the row's key is the ``constraint`` raised with it.
    Comparisons are exact; the bounds are strict. Constructing a
    :class:`ModelParams` calls this; a sweep point, a mapping that differs
    from a valid base's in one field, runs only that field's range and the
    table rows that read it, and reads their text without raising.
    """
    fields = vars(params)  # the instance is frozen; write past __setattr__
    try:
        for name, row in PARAM_RANGES.items():
            fields[name] = _checked(name, fields[name], row)
    except DomainError as exc:
        raise ParameterError("field_range", str(exc)) from None
    for name, choices in _CHOICE_FIELDS.items():
        value = fields[name]
        if not isinstance(value, choices):
            raise ParameterError(
                "field_range", f"{name} must be a {choices.__name__} member, got {value!r}"
            )
    for constraint, (check, _) in RELATIONAL_CHECKS.items():
        reason = check(fields)
        if reason is not None:
            raise ParameterError(constraint, reason)
    return params
