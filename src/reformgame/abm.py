"""Agent-based Monte Carlo engine validating the analytic equilibrium.

One simulation run samples a population (reach flags, then follower flags
and participation costs from one uniform per agent), realizes the world
state, lets the policy maker decide whether to call, and then iterates the
empirical best response: each reached agent joins once their cost falls
below ``a * Gamma_eff`` times the previous round's participating fraction.
The iteration starts from the follower core and stops when the
participating set no longer changes; each round costs one count over the
population, and the participation mask is built once, at the end. Success
is then a single draw at the realized participation level.

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
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def derive_seed(master: int, index: int) -> int:
    """Derive the index-th child seed from a master seed (splitmix64 mix)."""
    z = (master + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class Population:
    """Sampled agents, stored as parallel arrays keyed by agent index."""

    is_follower: np.ndarray
    cost: np.ndarray
    reached: np.ndarray
    seed: int
    n: int


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
    arrays instead of new ones: they are overwritten, and the returned
    population shares them. The draws are the same either way. An ``out``
    of another size raises ``DomainError``, as does a size numpy cannot
    describe or allocate, naming n.
    """
    import numpy as np

    if not 1 <= n <= sys.maxsize // 8:  # the largest float64 array numpy can describe
        raise DomainError(f"population size n must lie in [1, {sys.maxsize // 8}], got {n}")
    if out is not None and out.n != n:
        raise DomainError(f"out must hold a population of n = {n} agents, got n = {out.n}")
    rng = np.random.default_rng(seed)
    try:
        # The first draw allocates (or fills) the cost array, which holds the
        # reach uniforms until the agent uniforms replace them.
        cost = rng.random(n) if out is None else rng.random(out=out.cost)
        reached = np.less(cost, params.gamma, out=None if out is None else out.reached)
        rng.random(out=cost)
        is_follower = np.less(cost, params.theta, out=None if out is None else out.is_follower)
    except MemoryError:
        raise DomainError(f"population size n = {n} does not fit in memory") from None
    # (u - theta) / (1 - theta) is at most 1 in floating point too, so no cost
    # exceeds kappa_max; a follower's negative difference becomes 0.
    np.subtract(cost, params.theta, out=cost)
    np.maximum(cost, 0.0, out=cost)
    if params.theta < 1.0:  # at theta = 1 every agent is a follower
        np.divide(cost, 1.0 - params.theta, out=cost)
        np.multiply(cost, params.kappa_max, out=cost)
    return Population(is_follower=is_follower, cost=cost, reached=reached, seed=seed, n=n)


def _state_from_uniform(p1: float, p2: float, u: float) -> WorldState:
    e1, e2, _ = state_probabilities(p1, p2)
    if u < e1:
        return WorldState.E1
    if u < e1 + e2:
        return WorldState.E2
    return WorldState.E3


def realize_world(p1: float, p2: float, seed: int) -> WorldState:
    """Draw the world state with probabilities (p1, (1-p1)p2, (1-p1)(1-p2))."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return _state_from_uniform(p1, p2, float(rng.random()))


def best_response_cascade(
    population: Population, params: ModelParams
) -> tuple[np.ndarray, int, list[float]]:
    """Iterate the empirical best response until the participating set is stable.

    Seeds beliefs at the analytic follower core gamma*theta, then each round
    admits the reached agents whose cost is at most ``a * Gamma_eff`` times
    the previous round's realized fraction. That map is monotone, so the
    realized fractions are too: they rise if the first one lands above the
    seed and fall if it lands below (it can), and either way the loop ends
    within n rounds; a cap of n rounds guards it regardless.

    Each round only counts its participants. The admitted sets are nested
    in the threshold, so a repeated count means a repeated set; the mask is
    built once, after the loop.

    Returns the final participation mask, the number of rounds executed, and
    the realized fraction after each round.
    """
    import numpy as np

    reached, cost, n = population.reached, population.cost, population.n
    coef = params.a * effective_gain(params)
    threshold = coef * (params.gamma * params.theta)
    count = int(np.count_nonzero(reached & (cost <= threshold)))
    trajectory = [count / n]
    rounds = 1
    while rounds <= n:
        next_threshold = coef * trajectory[-1]
        next_count = int(np.count_nonzero(reached & (cost <= next_threshold)))
        if next_count == count:
            break
        threshold, count = next_threshold, next_count
        trajectory.append(count / n)
        rounds += 1
    return reached & (cost <= threshold), rounds, trajectory


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
    """
    import numpy as np

    rng = np.random.default_rng(seed)

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

    if not called:
        return SimOutcome(
            world_state=state,
            called=False,
            participation_fraction=0.0,
            success=False,
            beneficiary=GAIN_ALLOCATION[state],
            iterations_to_converge=0,
        )

    _, rounds, trajectory = best_response_cascade(population, params)
    x_hat = trajectory[-1]
    psi = success_probability(params.a, params.phi, x_hat) if x_hat > 0.0 else 0.0
    success = bool(rng.random() < psi)
    return SimOutcome(
        world_state=state,
        called=True,
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
    replication order. A replication count numpy cannot describe or
    allocate as an array raises ``DomainError`` naming replications.
    """
    import numpy as np

    if n < 1000:
        raise DomainError(f"need at least 1000 agents per replication, got {n}")
    if not 2 <= replications <= sys.maxsize // 8:
        raise DomainError(
            f"replications must lie in [2, {sys.maxsize // 8}], got {replications}")
    try:
        fractions = np.empty(replications)
        successes = np.empty(replications)
    except MemoryError:
        raise DomainError(f"replications = {replications} does not fit in memory") from None
    population = None
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
        successes[rep] = 1.0 if outcome.success else 0.0

    mean_x = float(fractions.mean())
    stderr_x = float(fractions.std(ddof=1) / math.sqrt(replications))
    analytic_x = solve_fixed_point(params).x_star
    return AbmEstimate(
        mean_x=mean_x,
        stderr_x=stderr_x,
        mean_success_rate=float(successes.mean()),
        replications=replications,
        agents_per_replication=n,
        analytic_x=analytic_x,
        abs_gap=abs(mean_x - analytic_x),
    )
