"""Sharded fleet runs over heterogeneous populations: bit-identical.

The PR-1 engine required homogeneous populations; these suites pin the
sharded generalization: one population mixing policy kinds (LinUCB,
Thompson, epsilon-greedy, CodeLinUCB), hyperparameter variants, agent
modes (cold, warm-nonprivate, warm-private one-hot *and* centroid) and
codebook sizes runs as one fleet and reproduces the sequential
reference exactly — actions, rewards, final policy states, outbox
reports, and the released histograms after the shuffler.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.bandits import CodeLinUCB, EpsilonGreedy, LinUCB, LinearThompsonSampling
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.core.participation import RandomizedParticipation
from repro.core.payload import drain_report_batches
from repro.core.shuffler import Shuffler
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.encoding.kmeans_encoder import KMeansEncoder
from repro.sim import FleetRunner, fleet_supported, shard_indices, shard_key
from repro.utils.rng import spawn_seeds

from _recording import assert_pending_rows_equal
from _testkit import (
    N_ACTIONS,
    N_FEATURES,
    assert_states_equal,
    make_population,
    simulate_sequential,
)


@pytest.fixture(scope="module")
def small_encoder():
    """A second codebook with a *different* size than the suite-wide one."""
    return KMeansEncoder(n_codes=4, n_features=N_FEATURES, n_fit_samples=400, seed=5).fit()


def _spec(kmeans_encoder, small_encoder):
    """One heterogeneous population blueprint, deliberately interleaved.

    Each entry: (policy factory over (n_arms, n_features, seed), mode,
    private_context, encoder).  Covers mixed kinds, mixed
    hyperparameters of one kind, mixed modes, and mixed codebook sizes.
    """
    linucb = lambda a, d, s: LinUCB(n_arms=a, n_features=d, seed=s)  # noqa: E731
    linucb_wide = lambda a, d, s: LinUCB(n_arms=a, n_features=d, alpha=2.0, seed=s)  # noqa: E731
    epsg = lambda a, d, s: EpsilonGreedy(n_arms=a, n_features=d, epsilon=0.3, seed=s)  # noqa: E731
    thompson = lambda a, d, s: LinearThompsonSampling(n_arms=a, n_features=d, seed=s)  # noqa: E731
    code = lambda a, d, s: CodeLinUCB(n_arms=a, n_features=d, seed=s)  # noqa: E731
    return [
        (linucb, AgentMode.COLD, "one-hot", None),
        (thompson, AgentMode.WARM_PRIVATE, "one-hot", kmeans_encoder),
        (epsg, AgentMode.WARM_NONPRIVATE, "one-hot", None),
        (code, AgentMode.WARM_PRIVATE, "one-hot", kmeans_encoder),
        (linucb, AgentMode.WARM_PRIVATE, "centroid", kmeans_encoder),
        (thompson, AgentMode.COLD, "one-hot", None),
        (linucb_wide, AgentMode.COLD, "one-hot", None),
        (code, AgentMode.WARM_PRIVATE, "one-hot", small_encoder),
        (epsg, AgentMode.COLD, "one-hot", None),
        (linucb, AgentMode.COLD, "one-hot", None),  # rejoins shard 0
    ]


def make_mixed_population(spec, seed, *, copies=2):
    """Build ``(agents, sessions)`` for one engine run of ``spec * copies``."""
    env = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
    )
    entries = spec * copies
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, len(entries))):
        factory, mode, private_context, encoder = entries[i]
        policy_seed, part_seed, session_seed = s.spawn(3)
        if mode == AgentMode.WARM_PRIVATE and private_context == "one-hot":
            acting_dim = encoder.n_codes
        else:
            acting_dim = N_FEATURES
        policy = factory(N_ACTIONS, acting_dim, policy_seed)
        participation = (
            None
            if mode == AgentMode.COLD
            else RandomizedParticipation(p=0.8, window=3, max_reports=2, seed=part_seed)
        )
        agents.append(
            LocalAgent(
                f"agent-{i}",
                policy,
                mode=mode,
                encoder=encoder if mode == AgentMode.WARM_PRIVATE else None,
                participation=participation,
                private_context=private_context,
            )
        )
        sessions.append(env.new_user(session_seed))
    return agents, sessions


class TestShardPartition:
    def test_mixed_population_is_fleet_supported(self, kmeans_encoder, small_encoder):
        agents, _ = make_mixed_population(_spec(kmeans_encoder, small_encoder), 0)
        assert fleet_supported(agents)

    def test_shard_count_and_membership(self, kmeans_encoder, small_encoder):
        spec = _spec(kmeans_encoder, small_encoder)
        agents, sessions = make_mixed_population(spec, 0, copies=2)
        runner = FleetRunner(agents, sessions)
        # the 10-entry spec has 9 distinct configurations (the last
        # entry repeats the first), each appearing in both copies
        assert runner.n_shards == 9
        groups = shard_indices(agents)
        assert sorted(int(i) for g in groups for i in g) == list(range(len(agents)))
        for group in groups:
            keys = {shard_key(agents[int(i)]) for i in group}
            assert len(keys) == 1

    def test_same_config_agents_share_a_shard(self, kmeans_encoder, small_encoder):
        spec = _spec(kmeans_encoder, small_encoder)
        agents, _ = make_mixed_population(spec, 0, copies=2)
        # entries 0, 9, 10, 19 are all plain cold LinUCB
        assert shard_key(agents[0]) == shard_key(agents[9]) == shard_key(agents[10])

    def test_homogeneous_population_is_one_shard(self):
        agents, sessions = make_population(
            lambda a, d, s: LinUCB(n_arms=a, n_features=d, seed=s),
            AgentMode.COLD,
            5,
            0,
        )
        assert FleetRunner(agents, sessions).n_shards == 1

    def test_subclass_shards_apart_from_base(self):
        """A policy subclass never lands in its base class's shard:
        fleet_key carries the concrete type, so engine='auto' runs the
        mixture sharded instead of crashing on a mixed-type stack."""

        class TweakedLinUCB(LinUCB):
            pass

        env = SyntheticPreferenceEnvironment(
            n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
        )
        agents, sessions = [], []
        for i, s in enumerate(spawn_seeds(0, 4)):
            policy_seed, session_seed = s.spawn(2)
            cls = LinUCB if i % 2 == 0 else TweakedLinUCB
            agents.append(
                LocalAgent(
                    f"agent-{i}",
                    cls(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed),
                    mode=AgentMode.COLD,
                )
            )
            sessions.append(env.new_user(session_seed))
        assert shard_key(agents[0]) != shard_key(agents[1])
        assert fleet_supported(agents)
        runner = FleetRunner(agents, sessions)
        assert runner.n_shards == 2
        runner.run(5)  # the mixed-type population actually steps

    def test_mixed_codebook_sizes_shard_apart(self, kmeans_encoder, small_encoder):
        assert kmeans_encoder.n_codes != small_encoder.n_codes
        spec = [
            (
                lambda a, d, s: CodeLinUCB(n_arms=a, n_features=d, seed=s),
                AgentMode.WARM_PRIVATE,
                "one-hot",
                enc,
            )
            for enc in (kmeans_encoder, small_encoder)
        ]
        agents, sessions = make_mixed_population(spec, 3, copies=3)
        assert fleet_supported(agents)
        runner = FleetRunner(agents, sessions)
        assert runner.n_shards == 2


class TestMixedEquivalence:
    """The acceptance bar: the mixed population is bit-identical across
    engines — actions, rewards, states, reports, released histograms."""

    N_INTERACTIONS = 15
    SEED = 42

    def _run_both(self, kmeans_encoder, small_encoder):
        spec = _spec(kmeans_encoder, small_encoder)
        seq_agents, seq_sessions = make_mixed_population(spec, self.SEED)
        fleet_agents, fleet_sessions = make_mixed_population(spec, self.SEED)

        seq_actions = np.empty((len(seq_agents), self.N_INTERACTIONS), dtype=np.intp)
        seq_rewards = np.empty((len(seq_agents), self.N_INTERACTIONS), dtype=np.float64)
        for i, (agent, session) in enumerate(zip(seq_agents, seq_sessions)):
            for t in range(self.N_INTERACTIONS):
                x = session.next_context()
                a = agent.act(x)
                r = session.reward(a)
                agent.learn(x, a, r)
                seq_actions[i, t] = a
                seq_rewards[i, t] = r

        runner = FleetRunner(fleet_agents, fleet_sessions)
        result = runner.run(self.N_INTERACTIONS)
        return seq_agents, seq_actions, seq_rewards, fleet_agents, runner, result

    def test_actions_rewards_states_outboxes(self, kmeans_encoder, small_encoder):
        seq_agents, seq_actions, seq_rewards, fleet_agents, _, result = self._run_both(
            kmeans_encoder, small_encoder
        )
        np.testing.assert_array_equal(seq_actions, result.actions)
        np.testing.assert_array_equal(seq_rewards, result.rewards)
        for i, (sa, fa) in enumerate(zip(seq_agents, fleet_agents)):
            assert sa.n_interactions == fa.n_interactions
            assert sa.total_reward == fa.total_reward
            assert_states_equal(sa.policy, fa.policy, label=f"agent-{i}")
        assert_pending_rows_equal(seq_agents, fleet_agents)

    def test_released_histograms_identical_through_shuffler(
        self, kmeans_encoder, small_encoder
    ):
        seq_agents, _, _, fleet_agents, runner, _ = self._run_both(
            kmeans_encoder, small_encoder
        )
        assert_pending_rows_equal(seq_agents, runner.agents)
        seq_encoded, _ = drain_report_batches(seq_agents)
        fleet_encoded, _ = drain_report_batches(runner.agents)
        *released_seq, stats_seq = Shuffler(threshold=2, seed=9).process_arrays(
            seq_encoded.codes, seq_encoded.actions, seq_encoded.rewards
        )
        *released_fleet, stats_fleet = Shuffler(threshold=2, seed=9).process_arrays(
            fleet_encoded.codes, fleet_encoded.actions, fleet_encoded.rewards
        )
        for got, want in zip(released_seq, released_fleet):
            np.testing.assert_array_equal(got, want)
        assert stats_seq == stats_fleet
        assert Counter(released_seq[0].tolist()) == Counter(released_fleet[0].tolist())

    def test_construction_order_does_not_change_outcomes(
        self, kmeans_encoder, small_encoder
    ):
        """Per-agent outcomes depend only on the agent's own seeds, not
        on where its shard lands in the shard ordering: reversing the
        population permutes the result rows and nothing else."""
        spec = _spec(kmeans_encoder, small_encoder)
        agents_a, sessions_a = make_mixed_population(spec, self.SEED)
        agents_b, sessions_b = make_mixed_population(spec, self.SEED)
        n = len(agents_a)
        result_fwd = FleetRunner(agents_a, sessions_a).run(8)
        result_rev = FleetRunner(agents_b[::-1], sessions_b[::-1]).run(8)
        np.testing.assert_array_equal(result_fwd.rewards, result_rev.rewards[::-1])
        np.testing.assert_array_equal(result_fwd.actions, result_rev.actions[::-1])
        for i in range(n):
            # agents_b[i] is the same agent as agents_a[i], run at the
            # mirrored population position
            assert_states_equal(agents_a[i].policy, agents_b[i].policy, label=f"perm-{i}")

    def test_thompson_shard_draws_stay_per_agent(self, kmeans_encoder, small_encoder):
        """A Thompson shard must draw each agent's posterior normals as
        the scalar policy does: keyed at that agent's counter, which
        advances once per selection, with the generator left idle."""
        def thompson(a, d, s):
            return LinearThompsonSampling(n_arms=a, n_features=d, seed=s)
        spec = [(thompson, AgentMode.COLD, "one-hot", None)]
        seq_agents, seq_sessions = make_mixed_population(spec, 11, copies=4)
        fleet_agents, fleet_sessions = make_mixed_population(spec, 11, copies=4)
        seq_rewards = simulate_sequential(seq_agents, seq_sessions, 10)
        result = FleetRunner(fleet_agents, fleet_sessions).run(10)
        np.testing.assert_array_equal(seq_rewards, result.rewards)
        for sa, fa in zip(seq_agents, fleet_agents):
            assert_states_equal(sa.policy, fa.policy)
            # generators landed in the same stream position: the next
            # draw from each must agree
            assert sa.policy._rng.random() == fa.policy._rng.random()
            assert sa.policy._draws == fa.policy._draws == 10
