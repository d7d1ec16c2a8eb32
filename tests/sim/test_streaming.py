"""Population churn on FleetRunner: arrivals, departures, shard reuse.

Streaming deployments grow and shrink their population mid-run.  The
engine re-shards *incrementally* — only shards whose membership changed
restack — and surviving agents keep their policy objects and RNG
streams, so a fixed-population run interleaved with churn of *other*
agents stays bit-identical to a run that never saw the churn.
"""

from __future__ import annotations

import copy
import gc
import itertools
import weakref

import numpy as np
import pytest
from _recording import assert_pending_rows_equal
from _testkit import assert_states_equal, make_population

from repro.bandits import EpsilonGreedy, LinUCB, LinearThompsonSampling
from repro.core.config import AgentMode
from repro.sim import EngineConfig, FleetRunner
from repro.utils.exceptions import ConfigError


def _linucb(n_arms, n_features, seed):
    return LinUCB(n_arms=n_arms, n_features=n_features, alpha=1.0, seed=seed)


def _pop(n, seed=0, **kwargs):
    return make_population(_linucb, AgentMode.COLD, n, seed, **kwargs)


def _mixed(n, seed):
    """LinUCB, Thompson and epsilon-greedy agents in turn: three shards."""
    kinds = itertools.cycle([LinUCB, LinearThompsonSampling, EpsilonGreedy])
    return make_population(
        lambda a, f, s: next(kinds)(n_arms=a, n_features=f, seed=s),
        AgentMode.COLD,
        n,
        seed,
    )


class TestArrivals:
    def test_arrival_into_existing_shard_key(self):
        agents, sessions = _pop(4)
        extra_agents, extra_sessions = _pop(2, seed=99)
        fleet = FleetRunner(agents, sessions)
        assert fleet.n_shards == 1
        fleet.add_agents(extra_agents, extra_sessions)
        # same policy/mode configuration: newcomers join the same shard
        assert fleet.n_shards == 1
        assert len(fleet.agents) == 6
        result = fleet.run(5)
        assert result.rewards.shape == (6, 5)

    def test_arrival_into_brand_new_shard_key(self, kmeans_encoder):
        agents, sessions = _pop(4)
        priv_agents, priv_sessions = make_population(
            lambda a, f, s: _linucb(a, kmeans_encoder.n_codes, s),
            AgentMode.WARM_PRIVATE,
            2,
            seed=50,
            encoder=kmeans_encoder,
        )
        fleet = FleetRunner(agents, sessions)
        fleet.add_agents(priv_agents, priv_sessions)
        # different mode => a second stacked state
        assert fleet.n_shards == 2
        result = fleet.run(5)
        assert result.rewards.shape == (6, 5)

    def test_arrivals_match_from_scratch_fleet(self):
        whole_agents, whole_sessions = _pop(6, seed=4)
        grown_agents, grown_sessions = _pop(6, seed=4)

        whole = FleetRunner(whole_agents, whole_sessions)
        grown = FleetRunner(grown_agents[:4], grown_sessions[:4])
        grown.add_agents(grown_agents[4:], grown_sessions[4:])

        r_whole = whole.run(8)
        r_grown = grown.run(8)
        np.testing.assert_array_equal(r_whole.rewards, r_grown.rewards)
        for a, b in zip(whole_agents, grown_agents):
            assert_states_equal(a.policy, b.policy)

    def test_misaligned_arrival_rejected(self):
        agents, sessions = _pop(3)
        fleet = FleetRunner(agents, sessions)
        with pytest.raises(ConfigError, match="one-to-one"):
            fleet.add_agents(agents[:1], [])


class TestDepartures:
    def test_departure_by_object_and_index_agree(self):
        a1, s1 = _pop(5, seed=8)
        a2, s2 = _pop(5, seed=8)
        by_obj = FleetRunner(a1, s1)
        by_idx = FleetRunner(a2, s2)
        by_obj.remove_agents([a1[1], a1[3]])
        by_idx.remove_agents([1, 3])
        np.testing.assert_array_equal(by_obj.run(6).rewards, by_idx.run(6).rewards)

    def test_survivors_keep_their_streams(self):
        """Removal must not perturb surviving agents' results."""
        ref_agents, ref_sessions = _pop(5, seed=8)
        churn_agents, churn_sessions = _pop(5, seed=8)

        keep = [0, 2, 4]
        ref = FleetRunner(
            [ref_agents[i] for i in keep], [ref_sessions[i] for i in keep]
        )
        churned = FleetRunner(churn_agents, churn_sessions)
        churned.remove_agents([1, 3])

        np.testing.assert_array_equal(ref.run(7).rewards, churned.run(7).rewards)

    def test_departed_agents_are_released(self):
        """A shard that loses members frees its stack at removal, so the
        runner keeps no departed policy alive until its next run."""
        agents, sessions = _pop(4)
        fleet = FleetRunner(agents, sessions)
        fleet.run(2)
        departed = weakref.ref(agents[1].policy)
        fleet.remove_agents([1])
        del agents, sessions
        gc.collect()
        assert departed() is None

    def test_shrink_to_empty_short_circuits(self):
        agents, sessions = _pop(3)
        fleet = FleetRunner(agents, sessions)
        fleet.remove_agents(list(range(3)))
        assert fleet.n_shards == 0
        result = fleet.run(4)
        # the PR 6 empty-population short-circuit: (0, T) shapes, no pool
        assert result.rewards.shape == (0, 4)
        assert result.actions.shape == (0, 4)


class TestMemberResolution:
    """remove_agents and run_subset resolve members one way
    (FleetRunner.member_indices) and refuse a bad list before acting:
    an agent outside the fleet, an index out of range (negative
    included) or a repeated member."""

    BAD = {
        "stranger": (lambda agents, stranger: [agents[1], stranger], "not in this fleet"),
        "past_end": (lambda agents, stranger: [0, 5], "out of range"),
        "negative": (lambda agents, stranger: [-1], "out of range"),
        "index_twice": (lambda agents, stranger: [2, 2], "unique"),
        "agent_twice": (lambda agents, stranger: [agents[3], agents[3]], "unique"),
        "agent_and_index": (lambda agents, stranger: [agents[0], 0], "unique"),
    }

    def test_indices_follow_the_given_order(self):
        agents, sessions = _mixed(5, seed=3)
        fleet = FleetRunner(agents, sessions)
        assert fleet.member_indices([agents[4], 1, np.int64(0), agents[2]]) == [4, 1, 0, 2]
        assert fleet.member_indices([]) == []

    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("method", ["remove_agents", "run_subset"])
    def test_bad_members_refused_without_side_effects(self, method, bad):
        h_agents, h_sessions = _mixed(5, seed=3)
        f_agents, f_sessions = _mixed(5, seed=3)
        stranger, _ = _mixed(1, seed=77)
        held = FleetRunner(h_agents, h_sessions)
        held.run(2)
        FleetRunner(f_agents, f_sessions).run(2)

        members, match = self.BAD[bad]
        call = getattr(held, method)
        args = (members(h_agents, stranger[0]),) + ((3,) if method == "run_subset" else ())
        with pytest.raises(ConfigError, match=match):
            call(*args)
        assert held.agents == h_agents

        # nothing ran or re-sharded: the next run continues like a fresh one
        r_held = held.run(3)
        r_fresh = FleetRunner(f_agents, f_sessions).run(3)
        np.testing.assert_array_equal(r_held.rewards, r_fresh.rewards)
        np.testing.assert_array_equal(r_held.actions, r_fresh.actions)
        for a, b in zip(h_agents, f_agents):
            assert_states_equal(a.policy, b.policy, a.agent_id)


class TestShardReuse:
    """A runner holds its shards between runs (FleetRunner's reuse rule)."""

    def test_held_runner_matches_fresh_across_runs(self):
        """Held stacked state must be bitwise-invisible."""
        h_agents, h_sessions = _pop(6, seed=13)
        f_agents, f_sessions = _pop(6, seed=13)

        held = FleetRunner(h_agents, h_sessions)
        r1 = held.run(5)
        r2 = held.run(5)

        fresh1 = FleetRunner(f_agents, f_sessions).run(5)
        fresh2 = FleetRunner(f_agents, f_sessions).run(5)

        np.testing.assert_array_equal(r1.rewards, fresh1.rewards)
        np.testing.assert_array_equal(r2.rewards, fresh2.rewards)
        for a, b in zip(h_agents, f_agents):
            assert_states_equal(a.policy, b.policy)

    def test_held_churn_matches_fresh(self):
        h_agents, h_sessions = _pop(6, seed=21)
        f_agents, f_sessions = _pop(6, seed=21)

        held = FleetRunner(h_agents[:4], h_sessions[:4])
        held.run(3)
        held.add_agents(h_agents[4:], h_sessions[4:])
        held.remove_agents([0])
        r_h = held.run(3)

        FleetRunner(f_agents[:4], f_sessions[:4]).run(3)
        r_f = FleetRunner(f_agents[1:], f_sessions[1:]).run(3)

        np.testing.assert_array_equal(r_h.rewards, r_f.rewards)
        for a, b in zip(held.agents, f_agents[1:]):
            assert_states_equal(a.policy, b.policy)

    @pytest.mark.parametrize("exactness", ["bit", "fast"])
    @pytest.mark.parametrize("mode", [AgentMode.COLD, AgentMode.WARM_PRIVATE])
    def test_shard_losing_and_gaining_members_matches_fresh(
        self, mode, exactness, kmeans_encoder
    ):
        """One held shard loses and gains members over several runs; each
        run matches a fresh runner over the same agents bitwise, and the
        shard — its stack on the bit tier — is never rebuilt."""
        dim = kmeans_encoder.n_codes if mode == AgentMode.WARM_PRIVATE else None

        def population():
            return make_population(
                lambda a, f, s: _linucb(a, dim or f, s),
                mode,
                14,
                seed=31,
                encoder=kmeans_encoder,
                max_reports=50,
            )

        (h_agents, h_sessions), (f_agents, f_sessions) = population(), population()
        config = EngineConfig(exactness=exactness)
        held = FleetRunner(h_agents[:6], h_sessions[:6], config=config)
        members = list(range(6))
        schedule = [
            (3, [], []),
            (2, [1, 4], [6, 7]),
            (4, [0], [8, 9, 10]),
            (1, [10], []),  # the tail leaves
            (3, [], [11, 12, 13]),
            (2, [2, 3, 6], []),
        ]
        shard = stack = None
        for steps, leaving, joining in schedule:
            held.remove_agents([h_agents[i] for i in leaving])
            held.add_agents([h_agents[i] for i in joining], [h_sessions[i] for i in joining])
            members = [i for i in members if i not in leaving] + joining
            r_held = held.run(steps)
            r_fresh = FleetRunner(
                [f_agents[i] for i in members], [f_sessions[i] for i in members], config=config
            ).run(steps)
            np.testing.assert_array_equal(r_held.rewards, r_fresh.rewards)
            np.testing.assert_array_equal(r_held.actions, r_fresh.actions)
            (current,) = held._shards.values()
            assert shard in (None, current)
            if exactness == "bit":
                assert stack in (None, current.stacked)
            shard, stack = current, current.stacked
        assert [a.agent_id for a in held.agents] == [f_agents[i].agent_id for i in members]
        for i in range(14):
            assert_states_equal(h_agents[i].policy, f_agents[i].policy, h_agents[i].agent_id)
        assert_pending_rows_equal(h_agents, f_agents)

    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(),
            EngineConfig(n_workers=2),
        ],
        ids=["serial", "threads"],
    )
    @pytest.mark.parametrize(
        "change",
        ["set_state", "warm_start", "learn", "other_runner", "subset", "new_policy"],
    )
    def test_outside_change_matches_fresh_runner(self, change, config):
        """After any change made outside the held runner, its next run
        equals a fresh FleetRunner over the same agents and sessions:
        rewards, actions and every policy state, bitwise."""
        h_agents, h_sessions = _mixed(9, seed=5)
        f_agents, f_sessions = _mixed(9, seed=5)
        held = FleetRunner(h_agents, h_sessions, config=config)
        held.run(3)
        FleetRunner(f_agents, f_sessions).run(3)

        for agents, sessions in ((h_agents, h_sessions), (f_agents, f_sessions)):
            if change == "set_state":  # LinUCB agent 3 takes agent 0's state
                agents[3].policy.set_state(agents[0].policy.get_state())
            elif change == "warm_start":
                agents[6].warm_start(agents[0].policy.get_state())
            elif change == "learn":  # one scalar step of Thompson agent 1
                x = sessions[1].next_context()
                action = agents[1].act(x)
                agents[1].learn(x, action, sessions[1].reward(action))
            elif change == "other_runner":
                FleetRunner(agents, sessions).run(2)
            elif change == "new_policy":  # same state, another object
                agents[4].policy = copy.deepcopy(agents[4].policy)
        if change == "subset":  # two of the three LinUCB agents
            held.run_subset([h_agents[0], h_agents[3]], 2)
            FleetRunner([f_agents[0], f_agents[3]], [f_sessions[0], f_sessions[3]]).run(2)

        r_held = held.run(3)
        r_fresh = FleetRunner(f_agents, f_sessions).run(3)
        np.testing.assert_array_equal(r_held.rewards, r_fresh.rewards)
        np.testing.assert_array_equal(r_held.actions, r_fresh.actions)
        for a, b in zip(h_agents, f_agents):
            assert_states_equal(a.policy, b.policy, a.agent_id)

    def test_restacks_only_what_changed(self, monkeypatch):
        """Reuse is real: an unchanged shard never restacks, an outside
        set_state restacks just its own shard, and churn rebuilds just
        the shard it lands in."""
        import repro.sim.fleet as fleet_module

        stacked_kinds: list[str] = []
        real_stack = fleet_module.stack_policies

        def counting_stack(policies, **kwargs):
            stacked_kinds.append(type(policies[0]).__name__)
            return real_stack(policies, **kwargs)

        monkeypatch.setattr(fleet_module, "stack_policies", counting_stack)
        agents, sessions = _mixed(9, seed=6)
        held = FleetRunner(agents[:6], sessions[:6])
        held.run(2)
        assert len(stacked_kinds) == 3
        stacked_kinds.clear()
        held.run(2)
        assert stacked_kinds == []
        agents[3].policy.set_state(agents[0].policy.get_state())
        held.run(2)
        assert stacked_kinds == ["LinUCB"]
        stacked_kinds.clear()
        held.add_agents(agents[7:8], sessions[7:8])
        held.run(2)
        assert stacked_kinds == ["LinearThompsonSampling"]
