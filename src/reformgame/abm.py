"""Agent-based Monte Carlo engine validating the analytic equilibrium.

One simulation run samples a population (reach flags, then follower flags
and participation costs from one uniform per agent), realizes the world
state, lets the policy maker decide whether to call, and then iterates the
empirical best response: each reached agent joins once their cost falls
below ``a * Gamma_eff`` times the previous round's participating fraction.
The iteration starts from the follower core and stops when the
participating set no longer changes. Its first log2(n) rounds each count
over the population; a longer cascade then ranks the costs it can still
admit or drop once and answers each later round by binary search. The
cascade returns its final threshold, not a participation mask. Success is
then a single draw at the realized participation level.

Agent state is held in parallel numpy arrays so that populations of 1e5
agents replicate in milliseconds. Each replication of an estimate draws its
population into the previous replication's arrays, so they are allocated
once per estimate. numpy is imported on the first call of a function that
needs it, not with this module, so the analytic side of the package, and
every CLI command but ``simulate``, runs without loading it.

All randomness flows from explicit integer seeds (replication seeds derive
from the master seed by a splitmix64 counter), so identical inputs reproduce
identical outputs bit for bit. Replications are independent; they may be
dispatched in parallel, each with its own arrays, as long as their seeds are
assigned up front and results are aggregated in replication order.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .equilibrium import effective_gain, solve_fixed_point
from .model import (
    GAIN_ALLOCATION,
    Beneficiary,
    DomainError,
    LeaderType,
    ModelParams,
    WorldState,
    optimal_info_effort,
    state_probabilities,
    success_probability,
)

__all__ = [
    "Population",
    "SimOutcome",
    "AbmEstimate",
    "derive_seed",
    "spawn_population",
    "realize_world",
    "best_response_cascade",
    "simulate_once",
    "estimate_equilibrium",
]

_MASK64 = (1 << 64) - 1
# The length of the largest float64 array numpy can describe.
_MAX_ARRAY = sys.maxsize // 8
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def derive_seed(master: int, index: int) -> int:
    """Derive the index-th child seed from a master seed (splitmix64 mix)."""
    z = (master + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _integer(value, name: str) -> int:
    """value as an int, as operator.index reads it; DomainError naming it otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _population_size(n: int) -> int:
    """n, an integer; DomainError naming it unless numpy can describe an array of n."""
    if not 1 <= n <= _MAX_ARRAY:
        raise DomainError(f"population size n must lie in [1, {_MAX_ARRAY}], got {n}")
    return n


def _estimate_sizes(n, replications, seed) -> tuple[int, int, int]:
    """An estimate's arguments as ints, checked; ``AbmSettings`` runs this too."""
    n = _integer(n, "n")
    replications = _integer(replications, "replications")
    seed = _integer(seed, "seed")
    if n < 1000:
        raise DomainError(f"need at least 1000 agents per replication, got {n}")
    if not 2 <= replications <= _MAX_ARRAY:
        raise DomainError(f"replications must lie in [2, {_MAX_ARRAY}], got {replications}")
    return _population_size(n), replications, seed


def _generator_seed(seed) -> int:
    """seed as an int numpy's generator takes; DomainError naming it otherwise."""
    seed = _integer(seed, "seed")
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    return seed


@dataclass(frozen=True)
class Population:
    """Sampled agents, stored as parallel arrays keyed by agent index.

    The population size is the arrays' common length, ``cost.size``.
    """

    is_follower: np.ndarray
    cost: np.ndarray
    reached: np.ndarray


@dataclass(frozen=True)
class SimOutcome:
    """Result of a single simulation run."""

    world_state: WorldState
    called: bool
    participation_fraction: float
    success: bool
    beneficiary: Beneficiary
    iterations_to_converge: int


@dataclass(frozen=True)
class AbmEstimate:
    """Monte Carlo estimate of the equilibrium participation fraction."""

    mean_x: float
    stderr_x: float
    mean_success_rate: float
    replications: int
    agents_per_replication: int
    analytic_x: float
    abs_gap: float


def spawn_population(
    n: int, params: ModelParams, seed: int, out: Population | None = None
) -> Population:
    """Sample a population of n agents from the model's cost mixture.

    Each agent is reached with probability gamma and, independently, is a
    follower with probability theta (cost 0) or otherwise draws a cost
    uniform on [0, kappa_max]. The draw order is fixed: n reach uniforms,
    then one uniform ``u`` per agent for both follower status and cost. The
    agent is a follower when ``u < theta``; otherwise its cost is
    ``(u - theta) / (1 - theta) * kappa_max``, which lies in [0, kappa_max].
    At ``theta = 1`` every cost is 0. Under a common seed, raising theta
    therefore only converts non-followers into followers and leaves
    ``reached`` unchanged.

    With ``out``, a population of the same n, the draws go into ``out``'s
    arrays instead of new ones: they are overwritten, and ``out`` itself is
    returned. The draws are the same either way. An ``out``
    of another size raises ``DomainError``, as does a size that is not an
    integer or that numpy cannot describe or allocate, naming n, and a seed
    that is not a non-negative integer, naming the seed.
    """
    import numpy as np

    n = _population_size(_integer(n, "population size n"))
    seed = _generator_seed(seed)
    if out is not None and out.cost.size != n:
        raise DomainError(
            f"out must hold a population of n = {n} agents, got n = {out.cost.size}")
    try:
        if out is None:
            out = Population(is_follower=np.empty(n, dtype=bool), cost=np.empty(n),
                             reached=np.empty(n, dtype=bool))
    except MemoryError:
        raise DomainError(f"population size n = {n} does not fit in memory") from None
    rng = np.random.default_rng(seed)
    # The cost array holds the reach uniforms until the agent uniforms
    # replace them.
    cost = rng.random(out=out.cost)
    np.less(cost, params.gamma, out=out.reached)
    rng.random(out=cost)
    np.less(cost, params.theta, out=out.is_follower)
    # (u - theta) / (1 - theta) is at most 1 in floating point too, so no cost
    # exceeds kappa_max; a follower's negative difference becomes 0.
    np.subtract(cost, params.theta, out=cost)
    np.maximum(cost, 0.0, out=cost)
    if params.theta < 1.0:  # at theta = 1 every agent is a follower
        np.divide(cost, 1.0 - params.theta, out=cost)
        np.multiply(cost, params.kappa_max, out=cost)
    return out


def _state_from_uniform(p1: float, p2: float, u: float) -> WorldState:
    e1, e2, _ = state_probabilities(p1, p2)
    if u < e1:
        return WorldState.E1
    if u < e1 + e2:
        return WorldState.E2
    return WorldState.E3


def realize_world(p1: float, p2: float, seed: int) -> WorldState:
    """Draw the world state with probabilities (p1, (1-p1)p2, (1-p1)(1-p2)).

    ``seed`` must be a non-negative integer; anything else raises
    DomainError naming it.
    """
    import numpy as np

    rng = np.random.default_rng(_generator_seed(seed))
    return _state_from_uniform(p1, p2, float(rng.random()))


def best_response_cascade(
    population: Population, params: ModelParams
) -> tuple[float, int, list[float]]:
    """Iterate the empirical best response until the participating set is stable.

    Seeds beliefs at the analytic follower core gamma*theta, then each round
    admits the reached agents whose cost is at most ``a * Gamma_eff`` times
    the previous round's realized fraction. That map is monotone, so the
    realized fractions are too: they rise if the first one lands above the
    seed and fall if it lands below (it can), and either way the loop ends
    within n rounds; a cap of n rounds guards it regardless.

    Each round only counts its participants. The admitted sets are nested
    in the threshold, so a repeated count means a repeated set. The first
    ``n.bit_length()`` rounds count over the whole population, which costs
    about as much as one sort. A cascade still moving then gathers, by
    index, the reached costs on the side of the threshold it is moving to:
    those above it when rising, those at or below it when falling. It sorts
    them once. No other agent can change sides, so each later round is one
    binary search in them, and the result is the same as with a count per
    round.

    Returns the final threshold, the number of rounds executed, and the
    realized fraction after each round. No mask is built; a caller that
    needs the participants gets them as ``reached & (cost <= threshold)``,
    which compares in the costs' dtype, as the cascade does. A population
    with no agents, or whose ``reached`` and ``cost`` differ in length,
    raises ``DomainError``.
    """
    import numpy as np

    reached, cost = population.reached, population.cost
    n = cost.size
    if n == 0:
        raise DomainError("population must hold at least one agent")
    if reached.size != n:
        raise DomainError(
            f"population's reached and cost must have one entry per agent, "
            f"got {reached.size} and {n}")
    coef = params.a * effective_gain(params)
    threshold = coef * (params.gamma * params.theta)
    count = int(np.count_nonzero(reached & (cost <= threshold)))
    trajectory = [count / n]
    rounds = 1
    scan_rounds = n.bit_length()
    ranked = None
    while rounds <= n:
        next_threshold = coef * trajectory[-1]
        if rounds < scan_rounds:
            next_count = int(np.count_nonzero(reached & (cost <= next_threshold)))
        else:
            if ranked is None:
                # The thresholds are monotone, so every later one lies on
                # next_threshold's side of this one, and only the reached
                # costs on that side can still change the count. Gathering
                # them by index selects what cost[mask] would, in the same
                # order, several times faster than boolean indexing.
                if next_threshold > threshold:
                    in_play, below = np.flatnonzero(reached & (cost > threshold)), count
                else:
                    in_play, below = np.flatnonzero(reached & (cost <= threshold)), 0
                ranked = cost.take(in_play)
                ranked.sort()
                # The dtype `cost <= t` compares in: float32 for float32 costs.
                key = np.result_type(cost, threshold).type
            next_count = below + int(ranked.searchsorted(key(next_threshold), "right"))
        if next_count == count:
            break
        threshold, count = next_threshold, next_count
        trajectory.append(count / n)
        rounds += 1
    return threshold, rounds, trajectory


def simulate_once(
    population: Population,
    params: ModelParams,
    seed: int,
    force_state: WorldState | None = None,
    force_call: bool = False,
) -> SimOutcome:
    """Run one realization of the reform game on a sampled population.

    The world state is drawn (or forced), then the policy maker calls for
    change only in the states their type favours: E3 for a non-partisan,
    E2 or E3 for a partisan. The call additionally requires the policy
    maker to have learned the state, a single draw with the optimal
    information-effort probability; ``force_call`` bypasses both gates to
    isolate the participation game. Without a call nobody participates.
    A seed that is not a non-negative integer, or a ``force_state`` that is
    neither None nor a ``WorldState``, raises ``DomainError`` naming it,
    before anything is drawn.
    """
    import numpy as np

    if force_state is not None and not isinstance(force_state, WorldState):
        raise DomainError(f"force_state must be a WorldState or None, got {force_state!r}")
    rng = np.random.default_rng(_generator_seed(seed))

    state = force_state if force_state is not None else _state_from_uniform(
        params.p1, params.p2, float(rng.random())
    )

    if force_call:
        called = True
    else:
        if params.leader_type is LeaderType.NON_PARTISAN:
            favourable = state is WorldState.E3
        else:
            favourable = state in (WorldState.E2, WorldState.E3)
        if favourable:
            effort = optimal_info_effort(params, state)
            called = bool(rng.random() < effort)
        else:
            called = False

    rounds, x_hat, success = 0, 0.0, False
    if called:
        _, rounds, trajectory = best_response_cascade(population, params)
        x_hat = trajectory[-1]
        success = bool(rng.random() < success_probability(params.a, params.phi, x_hat))
    return SimOutcome(
        world_state=state,
        called=called,
        participation_fraction=x_hat,
        success=success,
        beneficiary=GAIN_ALLOCATION[state],
        iterations_to_converge=rounds,
    )


def estimate_equilibrium(
    params: ModelParams, n: int, replications: int, seed: int
) -> AbmEstimate:
    """Estimate the equilibrium participation fraction by replication.

    Each replication draws its population into the previous replication's
    arrays (the agent arrays are allocated once) and runs the participation
    game with the call issued and the majority-benefiting state forced, so
    the estimate targets the analytic fixed point. Replication seeds derive
    deterministically from the master seed; results aggregate in
    replication order. ``_estimate_sizes`` checks the arguments first, and
    a replication count whose results do not fit in memory raises
    ``DomainError``. Any integer seed is accepted, negative ones included:
    replication seeds take it modulo 2**64.
    """
    import numpy as np

    n, replications, seed = _estimate_sizes(n, replications, seed)
    try:
        fractions = np.empty(replications)
    except MemoryError:
        raise DomainError(f"replications = {replications} does not fit in memory") from None
    population, successes = None, 0
    for rep in range(replications):
        rep_seed = derive_seed(seed, rep)
        population = spawn_population(n, params, derive_seed(rep_seed, 0), out=population)
        outcome = simulate_once(
            population,
            params,
            derive_seed(rep_seed, 1),
            force_state=WorldState.E3,
            force_call=True,
        )
        fractions[rep] = outcome.participation_fraction
        successes += outcome.success

    mean_x = float(fractions.mean())
    stderr_x = float(fractions.std(ddof=1) / math.sqrt(replications))
    analytic_x = solve_fixed_point(params).x_star
    return AbmEstimate(
        mean_x=mean_x,
        stderr_x=stderr_x,
        mean_success_rate=successes / replications,
        replications=replications,
        agents_per_replication=n,
        analytic_x=analytic_x,
        abs_gap=abs(mean_x - analytic_x),
    )
