import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st
from scipy import stats

from reformgame import (
    GAIN_ALLOCATION,
    DomainError,
    LeaderType,
    ModelParams,
    ParameterError,
    Population,
    PosteriorConvention,
    WorldState,
    best_response_cascade,
    derive_seed,
    estimate_equilibrium,
    optimal_info_effort,
    realize_world,
    simulate_once,
    solve_fixed_point,
    spawn_population,
    state_probabilities,
)
from reformgame.abm import _state_from_uniform
from reformgame.equilibrium import effective_gain

from conftest import make_params

X_STAR = 4 / 17  # analytic baseline participation
# perfbench's near-bound fields: contraction modulus 0.942, a cascade that
# runs for tens to hundreds of rounds, past the bit length of n.
NEAR_BOUND = {"a": 0.9, "gamma": 0.95, "theta": 0.05, "Gamma_gain": 1.16}


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)

    def test_spreads_indices(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_stays_in_u64(self):
        for i in (0, 1, 2**62):
            assert 0 <= derive_seed(2**64 - 1, i) < 2**64


class TestSpawnPopulation:
    def test_reproducible(self):
        params = make_params()
        one = spawn_population(500, params, seed=123)
        two = spawn_population(500, params, seed=123)
        assert np.array_equal(one.is_follower, two.is_follower)
        assert np.array_equal(one.cost, two.cost)
        assert np.array_equal(one.reached, two.reached)

    def test_different_seed_differs(self):
        params = make_params()
        one = spawn_population(500, params, seed=123)
        two = spawn_population(500, params, seed=124)
        assert not np.array_equal(one.cost, two.cost)

    def test_all_followers_when_theta_is_one(self):
        population = spawn_population(20_000, make_params(theta=1.0), seed=5)
        assert population.is_follower.all()
        assert (population.cost == 0.0).all()
        assert not np.signbit(population.cost).any()

    def test_agent_invariants(self):
        population = spawn_population(2000, make_params(), seed=9)
        followers = population.is_follower
        assert (population.cost[followers] == 0.0).all()
        non_follower_costs = population.cost[~followers]
        assert (non_follower_costs >= 0.0).all()
        assert (non_follower_costs <= make_params().kappa_max).all()

    def test_rejects_empty_population(self):
        with pytest.raises(DomainError):
            spawn_population(0, make_params(), seed=1)

    @pytest.mark.parametrize("n", [10**20, sys.maxsize // 8 + 1])
    def test_rejects_population_beyond_any_array(self, n):
        # Checked before anything is allocated; no size that might really
        # allocate is tried.
        bound = sys.maxsize // 8
        with pytest.raises(DomainError, match=rf"size n must lie in \[1, {bound}\], got {n}"):
            spawn_population(n, make_params(), seed=1)

    @pytest.mark.parametrize("n", [10.5, np.float64(500.0), "500", None])
    def test_rejects_non_integer_size(self, n):
        with pytest.raises(DomainError) as err:
            spawn_population(n, make_params(), seed=1)
        assert str(err.value) == f"population size n must be an integer, got {n!r}"

    def test_accepts_numpy_integer_size(self):
        population = spawn_population(np.int32(500), make_params(), seed=123)
        reference = spawn_population(500, make_params(), seed=123)
        assert population.cost.size == 500
        assert np.array_equal(population.cost, reference.cost)

    @pytest.mark.parametrize("seed,message", [
        (1.5, "seed must be an integer, got 1.5"),
        ("3", "seed must be an integer, got '3'"),
        (None, "seed must be an integer, got None"),
        (-1, "seed must be a non-negative integer, got -1")])
    def test_rejects_bad_seed(self, seed, message):
        with pytest.raises(DomainError) as err:
            spawn_population(500, make_params(), seed=seed)
        assert str(err.value) == message

    def test_unallocatable_population_names_n(self, out_of_memory):
        with pytest.raises(DomainError,
                           match=r"^population size n = 1000000000000 does not fit in memory$"):
            spawn_population(10**12, make_params(), seed=1)

    def test_cost_sampler_is_uniform(self):
        # Kolmogorov-Smirnov check at the 1% level: all agents are
        # non-followers, so every cost comes from Uniform[0, kappa_max].
        n = 100_000
        population = spawn_population(n, make_params(theta=0.0), seed=77)
        statistic = stats.kstest(population.cost, "uniform", args=(0.0, 1.0)).statistic
        assert statistic < 1.6276 / np.sqrt(n)

    @pytest.mark.parametrize("theta", [0.2, 0.9])
    def test_non_follower_costs_are_uniform(self, theta):
        # Kolmogorov-Smirnov check at the 1% level: a non-follower's cost
        # comes from Uniform[0, kappa_max] whatever the follower share.
        params = make_params(theta=theta, kappa_max=2.5)
        population = spawn_population(100_000, params, seed=77)
        costs = population.cost[~population.is_follower]
        statistic = stats.kstest(costs, "uniform", args=(0.0, params.kappa_max)).statistic
        assert statistic < 1.6276 / np.sqrt(costs.size)

    @pytest.mark.parametrize("theta", [0.05, 0.2, 0.9])
    def test_follower_count_is_binomial(self, theta):
        n = 100_000
        population = spawn_population(n, make_params(theta=theta), seed=79)
        followers = int(population.is_follower.sum())
        assert stats.binomtest(followers, n, theta).pvalue > 0.01

    def test_reach_is_independent_of_follower_status(self):
        population = spawn_population(100_000, make_params(theta=0.3), seed=81)
        table = [
            [np.count_nonzero(population.reached & population.is_follower),
             np.count_nonzero(population.reached & ~population.is_follower)],
            [np.count_nonzero(~population.reached & population.is_follower),
             np.count_nonzero(~population.reached & ~population.is_follower)],
        ]
        assert stats.chi2_contingency(table).pvalue > 0.01

    @pytest.mark.parametrize("theta", [0.0, 0.2, 0.9, 1.0 - 2**-53])
    @pytest.mark.parametrize("kappa_max", [5e-324, 1.0, 1e308])
    def test_costs_lie_in_range(self, theta, kappa_max):
        params = make_params(theta=theta, kappa_max=kappa_max, Gamma_gain=kappa_max)
        population = spawn_population(20_000, params, seed=83)
        assert np.isfinite(population.cost).all()
        assert (population.cost >= 0.0).all()
        assert (population.cost <= kappa_max).all()
        assert (population.cost[population.is_follower] == 0.0).all()

    @given(
        thetas=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True).map(sorted),
        n=st.integers(1, 5000),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_raising_theta_only_adds_followers(self, thetas, n, seed):
        low = spawn_population(n, make_params(theta=thetas[0]), seed)
        high = spawn_population(n, make_params(theta=thetas[1]), seed)
        assert not (low.is_follower & ~high.is_follower).any()
        assert np.array_equal(low.reached, high.reached)


class TestPopulationReuse:
    def test_out_gives_the_same_draws(self):
        params = make_params()
        other = spawn_population(3000, make_params(theta=0.7, gamma=0.1), seed=1)
        fresh = spawn_population(3000, params, seed=2)
        reused = spawn_population(3000, params, seed=2, out=other)
        for name in ("is_follower", "cost", "reached"):
            assert np.array_equal(getattr(reused, name), getattr(fresh, name))
        assert reused is other

    def test_wrong_length_out_is_rejected(self):
        other = spawn_population(3000, make_params(), seed=1)
        with pytest.raises(DomainError,
                           match=r"^out must hold a population of n = 3001 agents, got n = 3000$"):
            spawn_population(3001, make_params(), seed=2, out=other)

    def test_estimate_matches_fresh_populations(self):
        # Reference: a fresh population per replication, seeded as the
        # package seeds it.
        params, n, replications, seed = make_params(), 5000, 4, 87
        fractions, successes = [], []
        for rep in range(replications):
            rep_seed = derive_seed(seed, rep)
            population = spawn_population(n, params, derive_seed(rep_seed, 0))
            outcome = simulate_once(population, params, derive_seed(rep_seed, 1),
                                    force_state=WorldState.E3, force_call=True)
            fractions.append(outcome.participation_fraction)
            successes.append(1.0 if outcome.success else 0.0)
        estimate = estimate_equilibrium(params, n, replications, seed)
        assert estimate.mean_x == float(np.mean(fractions))
        assert estimate.stderr_x == float(np.std(fractions, ddof=1) / np.sqrt(replications))
        assert estimate.mean_success_rate == float(np.mean(successes))

    def test_estimate_allocates_one_population(self):
        # A 100k x 20 estimate never holds two populations at once: its
        # traced peak stays below twice one population's arrays, also near
        # the bound, where the cascade ranks the costs still in play.
        n = 100_000
        for params in (make_params(), make_params(**NEAR_BOUND)):
            population = spawn_population(n, params, seed=1)
            nbytes = (population.is_follower.nbytes + population.cost.nbytes
                      + population.reached.nbytes)
            del population
            tracemalloc.start()
            try:
                estimate_equilibrium(params, n=n, replications=20, seed=89)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * nbytes


class TestRealizeWorld:
    def test_certain_states(self):
        assert realize_world(1.0, 0.7, seed=1) is WorldState.E1
        assert realize_world(0.0, 1.0, seed=2) is WorldState.E2
        assert realize_world(0.0, 0.0, seed=3) is WorldState.E3

    def test_deterministic(self):
        assert realize_world(0.3, 0.4, seed=99) is realize_world(0.3, 0.4, seed=99)

    @pytest.mark.parametrize("p1,p2", [(0.3, 0.4), (0.05, 0.9), (0.5, 0.0), (0.0, 0.5)])
    def test_state_shares_on_a_uniform_grid(self, p1, p2):
        # On an evenly spaced grid of u, each state's share of the grid
        # differs from its probability by at most one grid step.
        grid = 10_000
        states = [_state_from_uniform(p1, p2, i / grid) for i in range(grid)]
        for state, probability in zip(WorldState, state_probabilities(p1, p2)):
            share = sum(s is state for s in states) / grid
            assert abs(share - probability) <= 1 / grid

    def test_draws_one_uniform_from_the_seed(self):
        for seed in (0, 7, 2**63 + 5):
            u = np.random.default_rng(seed).random()
            assert realize_world(0.3, 0.4, seed) is _state_from_uniform(0.3, 0.4, u)

    @pytest.mark.parametrize("seed,message", [
        (1.5, "seed must be an integer, got 1.5"),
        ("3", "seed must be an integer, got '3'"),
        (-1, "seed must be a non-negative integer, got -1")])
    def test_rejects_bad_seed(self, seed, message):
        with pytest.raises(DomainError) as err:
            realize_world(0.3, 0.4, seed)
        assert str(err.value) == message


class TestSimulateOnce:
    def test_zero_cost_population_all_reached_participate(self):
        params = make_params(theta=1.0)
        population = spawn_population(100_000, params, seed=21)
        outcome = simulate_once(
            population, params, seed=22, force_state=WorldState.E3, force_call=True
        )
        assert outcome.participation_fraction == pytest.approx(
            population.reached.mean(), abs=1e-12
        )
        assert outcome.participation_fraction == pytest.approx(0.8, abs=0.01)

    def test_nobody_reached_nobody_participates(self):
        population = Population(
            is_follower=np.zeros(200, dtype=bool),
            cost=np.linspace(0.0, 1.0, 200),
            reached=np.zeros(200, dtype=bool),
        )
        outcome = simulate_once(
            population, make_params(), seed=1, force_state=WorldState.E3, force_call=True
        )
        assert outcome.participation_fraction == 0.0
        assert not outcome.success

    def test_baseline_matches_analytic_fixed_point(self):
        params = make_params()
        population = spawn_population(100_000, params, seed=31)
        outcome = simulate_once(
            population, params, seed=32, force_state=WorldState.E3, force_call=True
        )
        assert outcome.participation_fraction == pytest.approx(X_STAR, abs=0.01)

    def test_no_call_without_favourable_state(self):
        params = make_params()
        population = spawn_population(1000, params, seed=41)
        for state in (WorldState.E1, WorldState.E2):
            for seed in range(50):
                outcome = simulate_once(population, params, seed=seed, force_state=state)
                assert not outcome.called
                assert outcome.participation_fraction == 0.0
                assert not outcome.success
                assert outcome.iterations_to_converge == 0

    def test_partisan_never_calls_in_status_quo(self):
        params = make_params(leader_type=LeaderType.PARTISAN, G2=1.0)
        population = spawn_population(1000, params, seed=43)
        for seed in range(50):
            outcome = simulate_once(population, params, seed=seed, force_state=WorldState.E1)
            assert not outcome.called

    def test_call_frequency_tracks_acquisition_effort(self):
        params = make_params(leader_type=LeaderType.PARTISAN, G2=2.0)
        effort = optimal_info_effort(params, WorldState.E2)  # 0.56
        population = spawn_population(50, params, seed=47)
        called = sum(
            simulate_once(population, params, seed=s, force_state=WorldState.E2).called
            for s in range(2000)
        )
        assert called / 2000 == pytest.approx(effort, abs=0.04)

    def test_participation_requires_reach(self):
        params = make_params()
        population = spawn_population(5000, params, seed=53)
        outcome = simulate_once(
            population, params, seed=54, force_state=WorldState.E3, force_call=True
        )
        threshold, _, _ = best_response_cascade(population, params)
        mask = population.reached & (population.cost <= threshold)
        assert not mask[~population.reached].any()
        assert outcome.participation_fraction == np.count_nonzero(mask) / population.cost.size

    @pytest.mark.parametrize("seed,force_state,message", [
        (1.5, None, "seed must be an integer, got 1.5"),
        (-1, None, "seed must be a non-negative integer, got -1"),
        (1, "E3", "force_state must be a WorldState or None, got 'E3'"),
        (1, 3, "force_state must be a WorldState or None, got 3")])
    def test_rejects_bad_seed_or_state_before_drawing(self, monkeypatch, seed, force_state,
                                                      message):
        params = make_params()
        population = spawn_population(100, params, seed=57)

        def no_generator(*args, **kwargs):
            raise AssertionError("a generator was made before the arguments were checked")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(DomainError) as err:
            simulate_once(population, params, seed=seed, force_state=force_state,
                          force_call=True)
        assert str(err.value) == message

    def test_beneficiary_follows_state(self):
        params = make_params()
        population = spawn_population(100, params, seed=55)
        for state in WorldState:
            outcome = simulate_once(population, params, seed=56, force_state=state)
            assert outcome.beneficiary is GAIN_ALLOCATION[state]

    def test_cascade_is_monotone(self):
        cases = [(20_000, make_params(), seed) for seed in range(5)]
        # The first realized fraction lands below gamma*theta and the
        # sequence falls from there: [0.145, 0.144].
        cases.append((1000, make_params(Gamma_gain=0.05), 199))
        for n, params, seed in cases:
            population = spawn_population(n, params, seed=seed)
            _, rounds, trajectory = best_response_cascade(population, params)
            assert rounds <= population.cost.size
            steps = [b - a for a, b in zip(trajectory, trajectory[1:])]
            assert all(d >= 0 for d in steps) or all(d <= 0 for d in steps)


def _reference_cascade(population, params):
    """Mask-per-round best-response cascade, kept as the reference.

    Each round builds the full participation mask and stops when it equals
    the previous round's; the package's cascade must match it bit for bit.
    """
    n = population.cost.size
    coef = params.a * effective_gain(params)
    x_prev = params.gamma * params.theta
    mask = population.reached & (population.cost <= coef * x_prev)
    trajectory = [float(mask.sum()) / n]
    rounds = 1
    while rounds <= n:
        nxt = population.reached & (population.cost <= coef * trajectory[-1])
        if np.array_equal(nxt, mask):
            break
        mask = nxt
        trajectory.append(float(mask.sum()) / n)
        rounds += 1
    return mask, rounds, trajectory


def _cascade_params(
    theta,
    gain_share,
    leader_type=LeaderType.NON_PARTISAN,
    posterior=PosteriorConvention.PAPER,
    p2=0.4,
    a=0.5,
    gamma=0.8,
    kappa_max=1.0,
):
    """A parameter set whose participant gain is gain_share of its bound."""
    reformer_gain = 0.5 / ((1.0 - 0.3) * a * gamma)
    return ModelParams(
        a=a,
        phi=2.0,
        theta=theta,
        gamma=gamma,
        kappa_max=kappa_max,
        Gamma_gain=gain_share * kappa_max / (a * gamma),
        p1=0.3,
        p2=p2,
        s=0.5,
        q=1.0,
        w=1.0,
        G2=reformer_gain if leader_type is LeaderType.PARTISAN else 0.0,
        G3=reformer_gain,
        leader_type=leader_type,
        posterior_convention=posterior,
    )


_PARTISAN = LeaderType.PARTISAN
_PAPER = PosteriorConvention.PAPER
_BAYES = PosteriorConvention.BAYES


def _valid_cascade_params(**fields):
    """_cascade_params, with a draw that breaks a model constraint rejected.

    A share just below 1 can still round the product a*gamma*Gamma_gain up
    to kappa_max, which ModelParams refuses when it is built.
    """
    try:
        return _cascade_params(**fields)
    except ParameterError:
        reject()


# Gains are drawn as a share of kappa_max/(a*gamma), often within 1e-3 of it.
cascade_params = st.builds(
    _valid_cascade_params,
    theta=st.floats(0.0, 1.0),
    gain_share=st.floats(1e-6, 0.999) | st.floats(0.999, 1.0, exclude_max=True),
    leader_type=st.sampled_from(LeaderType),
    posterior=st.sampled_from(PosteriorConvention),
    p2=st.floats(0.0, 1.0),
    a=st.floats(0.01, 0.99),
    gamma=st.floats(1e-3, 0.99),
    kappa_max=st.floats(0.1, 5.0),
)


class TestCascadeEquivalence:
    @given(
        params=cascade_params,
        n=st.integers(1000, 20_000),
        seed=st.integers(0, 2**32 - 1),
    )
    # theta = 0: nobody is seeded, the cascade stops after one round.
    @example(params=_cascade_params(0.0, 0.4), n=5000, seed=1)
    # Small gamma: a handful of reached agents.
    @example(params=_cascade_params(0.2, 0.5, gamma=1e-3), n=20_000, seed=2)
    # A partisan under each posterior convention.
    @example(params=_cascade_params(0.2, 0.9, _PARTISAN, _PAPER), n=8000, seed=3)
    @example(params=_cascade_params(0.2, 0.9, _PARTISAN, _BAYES), n=8000, seed=4)
    # Zero effective gain (Gamma_gain itself must be > 0): a partisan with
    # p2 = 0 under the paper posterior and p2 = 1 under Bayes, and the
    # smallest positive Gamma_gain.
    @example(params=_cascade_params(0.2, 0.5, _PARTISAN, _PAPER, p2=0.0), n=3000, seed=5)
    @example(params=_cascade_params(0.2, 0.5, _PARTISAN, _BAYES, p2=1.0), n=3000, seed=6)
    @example(params=_cascade_params(0.2, 5e-324), n=3000, seed=7)
    # Gamma_gain within 1e-3 of kappa_max/(a*gamma), at small and large theta.
    @example(params=_cascade_params(0.05, 0.9995, a=0.9, gamma=0.95), n=20_000, seed=8)
    @example(params=_cascade_params(0.9, 0.9995), n=20_000, seed=9)
    # Rising cascades that run past n.bit_length() rounds (23 and 80).
    @example(params=make_params(**NEAR_BOUND), n=1000, seed=10)
    @example(params=make_params(**NEAR_BOUND), n=20_000, seed=11)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_mask_reference(self, params, n, seed):
        population = spawn_population(n, params, seed)
        threshold, rounds, trajectory = best_response_cascade(population, params)
        mask = population.reached & (population.cost <= threshold)
        ref_mask, ref_rounds, ref_trajectory = _reference_cascade(population, params)
        assert mask.dtype == ref_mask.dtype
        assert np.array_equal(mask, ref_mask)
        assert rounds == ref_rounds
        assert trajectory == ref_trajectory

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_falling_cascade_past_the_scan_rounds(self, dtype):
        # Agent j costs coef*(j + 2)/n, so a threshold of coef*c/n admits
        # c - 1 of them, the last exactly at the threshold: the count falls
        # by one agent per round, 20 to 0. In float32 the tie holds only
        # when the threshold is compared in float32 too.
        params, n, k = make_params(), 200, 20
        coef = params.a * effective_gain(params)
        cost = np.ones(n, dtype=dtype)
        cost[:k] = coef * ((np.arange(k) + 2) / n)
        reached = np.arange(n) < k
        population = Population(is_follower=np.zeros(n, dtype=bool), cost=cost,
                                reached=reached)
        threshold, rounds, trajectory = best_response_cascade(population, params)
        mask = reached & (cost <= threshold)
        ref_mask, ref_rounds, ref_trajectory = _reference_cascade(population, params)
        assert np.array_equal(mask, ref_mask)
        assert rounds == ref_rounds
        assert trajectory == ref_trajectory == [c / n for c in range(k, -1, -1)]
        assert rounds > n.bit_length()

    @pytest.mark.parametrize("n,seed,dtype,min_rounds", [
        (20_000, 11, np.float32, 60),
        # The benchmark's shape: 112 rounds, about 41 % of n still in play.
        (100_000, 1, np.float64, 100)])
    def test_rising_cascade_past_the_scan_rounds(self, n, seed, dtype, min_rounds):
        params = make_params(**NEAR_BOUND)
        drawn = spawn_population(n, params, seed)
        population = Population(is_follower=drawn.is_follower, cost=drawn.cost.astype(dtype),
                                reached=drawn.reached)
        threshold, rounds, trajectory = best_response_cascade(population, params)
        mask = population.reached & (population.cost <= threshold)
        ref_mask, ref_rounds, ref_trajectory = _reference_cascade(population, params)
        assert np.array_equal(mask, ref_mask)
        assert rounds == ref_rounds
        assert trajectory == ref_trajectory
        # Still rising after the scan rounds, with the reached agents above
        # the last scanned threshold, about 40 % of n, ranked.
        scan_rounds = n.bit_length()
        assert rounds >= min_rounds
        assert trajectory[scan_rounds] > trajectory[scan_rounds - 1]
        in_play = np.count_nonzero(population.reached) - round(trajectory[scan_rounds - 1] * n)
        assert 0.35 < in_play / n < 0.5

    @pytest.mark.parametrize("cost,reached,message", [
        (np.zeros(0), np.zeros(0, dtype=bool), "population must hold at least one agent"),
        (np.zeros(3), np.ones(4, dtype=bool),
         "population's reached and cost must have one entry per agent, got 4 and 3")])
    def test_rejects_malformed_population(self, cost, reached, message):
        population = Population(is_follower=np.zeros(cost.size, dtype=bool), cost=cost,
                                reached=reached)
        with pytest.raises(DomainError) as err:
            best_response_cascade(population, make_params())
        assert str(err.value) == message


class TestEstimateEquilibrium:
    def test_baseline_gap_small(self):
        estimate = estimate_equilibrium(make_params(), n=20_000, replications=5, seed=61)
        assert estimate.abs_gap < 0.01
        assert estimate.analytic_x == pytest.approx(X_STAR, abs=1e-10)

    def test_empty_core_stays_at_zero(self):
        estimate = estimate_equilibrium(
            make_params(theta=0.0), n=20_000, replications=5, seed=63
        )
        assert estimate.analytic_x == 0.0
        assert estimate.mean_x < 0.005
        assert estimate.abs_gap < 0.005

    def test_estimator_well_formed(self):
        estimate = estimate_equilibrium(make_params(), n=1000, replications=2, seed=65)
        assert estimate.stderr_x > 0.0
        assert np.isfinite(estimate.stderr_x)
        assert estimate.replications == 2
        assert estimate.agents_per_replication == 1000
        assert estimate.abs_gap == pytest.approx(
            abs(estimate.mean_x - estimate.analytic_x), abs=1e-15
        )

    def test_bit_for_bit_determinism(self):
        one = estimate_equilibrium(make_params(), n=5000, replications=3, seed=67)
        two = estimate_equilibrium(make_params(), n=5000, replications=3, seed=67)
        assert one == two

    def test_preconditions(self):
        with pytest.raises(DomainError):
            estimate_equilibrium(make_params(), n=999, replications=5, seed=1)
        with pytest.raises(DomainError):
            estimate_equilibrium(make_params(), n=1000, replications=1, seed=1)

    @pytest.mark.parametrize("field,n,replications", [
        ("n", 1000.5, 2), ("n", np.float64(1000.0), 2),
        ("replications", 1000, 2.5), ("replications", 1000, "2")])
    def test_rejects_non_integer_sizes(self, field, n, replications):
        with pytest.raises(DomainError) as err:
            estimate_equilibrium(make_params(), n=n, replications=replications, seed=1)
        value = n if field == "n" else replications
        assert str(err.value) == f"{field} must be an integer, got {value!r}"

    @pytest.mark.parametrize("seed", [1.5, "3", None])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(DomainError) as err:
            estimate_equilibrium(make_params(), n=1000, replications=2, seed=seed)
        assert str(err.value) == f"seed must be an integer, got {seed!r}"

    def test_accepts_any_integer_seed(self):
        # Replication seeds take the master seed modulo 2**64.
        estimate = estimate_equilibrium(make_params(), n=1000, replications=2, seed=-1)
        assert estimate == estimate_equilibrium(
            make_params(), n=1000, replications=2, seed=np.uint64(2**64 - 1))

    def test_accepts_numpy_integer_sizes(self):
        estimate = estimate_equilibrium(
            make_params(), n=np.int64(1000), replications=np.uint8(2), seed=65)
        assert estimate == estimate_equilibrium(make_params(), n=1000, replications=2, seed=65)

    def test_replications_beyond_numpy(self):
        # np.empty raised an uncaught "Maximum allowed dimension exceeded".
        with pytest.raises(DomainError) as err:
            estimate_equilibrium(make_params(), n=1000, replications=10**20, seed=1)
        assert str(err.value) == (
            f"replications must lie in [2, {sys.maxsize // 8}], got {10**20}")

    def test_unallocatable_replications(self, no_result_arrays):
        with pytest.raises(DomainError) as err:
            estimate_equilibrium(make_params(), n=1000, replications=10**15, seed=1)
        assert str(err.value) == f"replications = {10**15} does not fit in memory"

    def test_gap_shrinks_with_population(self):
        params = make_params()
        medians = []
        for n in (1000, 10_000, 100_000):
            gaps = [
                estimate_equilibrium(params, n=n, replications=3, seed=seed).abs_gap
                for seed in (11, 22, 33, 44, 55)
            ]
            medians.append(float(np.median(gaps)))
        assert medians[0] > medians[1] > medians[2]

    def test_follower_core_raises_participation(self):
        # Common random numbers: the same master seed reuses the same
        # underlying uniforms, so raising theta only adds followers.
        means = [
            estimate_equilibrium(
                make_params(theta=theta), n=50_000, replications=3, seed=71
            ).mean_x
            for theta in (0.1, 0.2, 0.4)
        ]
        assert means[0] < means[1] < means[2]

    def test_success_rate_is_a_probability(self):
        estimate = estimate_equilibrium(make_params(), n=2000, replications=10, seed=73)
        assert 0.0 <= estimate.mean_success_rate <= 1.0


class TestAnalyticAgreement:
    def test_large_population_close_to_solver(self):
        params = make_params()
        estimate = estimate_equilibrium(params, n=100_000, replications=20, seed=20260810)
        assert estimate.abs_gap < 0.01
        assert estimate.analytic_x == pytest.approx(
            solve_fixed_point(params).x_star, abs=1e-12
        )
