"""How heterogeneous populations partition into shards.

One population may mix policy kinds, hyperparameters of one kind, agent
modes and codebook sizes; :func:`~repro.sim.shard_key` splits it into one
stacked state per configuration.  That the mixed run reproduces the
sequential spec is the harness's (``test_harness.py``) to check; these
tests pin the partition itself.
"""

from __future__ import annotations

from _testkit import MIXED, N_ACTIONS, N_FEATURES, PRIVATE, Member, population

from repro.bandits import LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.sim import FleetRunner, fleet_supported, shard_indices, shard_key
from repro.utils.rng import spawn_seeds


class TestShardPartition:
    def test_shard_count_and_membership(self):
        agents, sessions = population(MIXED * 2)
        assert fleet_supported(agents)
        # the 10-entry mix has 9 distinct configurations (the last entry
        # repeats the first), each appearing in both copies
        assert FleetRunner(agents, sessions).n_shards == 9
        groups = shard_indices(agents)
        assert sorted(int(i) for g in groups for i in g) == list(range(len(agents)))
        for group in groups:
            assert len({shard_key(agents[int(i)]) for i in group}) == 1
        # entries 0, 9, 10, 19 are all plain cold LinUCB
        assert shard_key(agents[0]) == shard_key(agents[9]) == shard_key(agents[10])

    def test_homogeneous_population_is_one_shard(self):
        assert FleetRunner(*population([Member("linucb")] * 5)).n_shards == 1

    def test_mixed_codebook_sizes_shard_apart(self):
        members = [Member("code_linucb", PRIVATE, encoder=e) for e in ("kmeans", "small")] * 3
        agents, sessions = population(members, seed=3)
        assert fleet_supported(agents)
        assert FleetRunner(agents, sessions).n_shards == 2

    def test_subclass_shards_apart_from_base(self):
        """A policy subclass never lands in its base class's shard:
        fleet_key carries the concrete type, so engine='auto' runs the
        mixture sharded instead of crashing on a mixed-type stack."""

        class TweakedLinUCB(LinUCB):
            pass

        env = SyntheticPreferenceEnvironment(n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7)
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
