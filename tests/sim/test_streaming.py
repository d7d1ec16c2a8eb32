"""Population churn on FleetRunner: arrivals, departures, shard reuse.

Streaming deployments grow and shrink their population mid-run.  The
engine re-shards *incrementally* — only shards whose membership changed
restack.  That churned, subset and outside-changed runs reproduce the
sequential spec is the harness's (``test_harness.py``) to check; these
tests pin membership (shard keys, member resolution and its
refusals), release of departed agents, and which stacks are reused.
"""

from __future__ import annotations

import copy
import gc
import itertools
import weakref

import numpy as np
import pytest
from _testkit import (
    COLD,
    PRIVATE,
    Case,
    Member,
    assert_equivalent,
    assert_states_equal,
    make_population,
    play,
    population,
)

from repro.bandits import EpsilonGreedy, LinUCB, LinearThompsonSampling
from repro.core.config import AgentMode
from repro.experiments.runner import _simulate_agent
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

    def test_misaligned_arrival_rejected(self):
        agents, sessions = _pop(3)
        fleet = FleetRunner(agents, sessions)
        with pytest.raises(ConfigError, match="one-to-one"):
            fleet.add_agents(agents[:1], [])


class TestDepartures:
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


class TestMemberResolution:
    """remove_agents and run_subset resolve members one way
    (FleetRunner.member_indices) and refuse a bad list before acting:
    an agent outside the fleet, an index out of range (negative
    included), a bool (Python or numpy) or a repeated member."""

    BAD = {
        "stranger": (lambda agents, stranger: [agents[1], stranger], "not in this fleet"),
        "past_end": (lambda agents, stranger: [0, 5], "out of range"),
        "negative": (lambda agents, stranger: [-1], "out of range"),
        "index_twice": (lambda agents, stranger: [2, 2], "unique"),
        "agent_twice": (lambda agents, stranger: [agents[3], agents[3]], "unique"),
        "agent_and_index": (lambda agents, stranger: [agents[0], 0], "unique"),
        "bool": (lambda agents, stranger: [True], "bool"),
        "numpy_bool": (lambda agents, stranger: [np.False_, 2], "bool"),
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

    @pytest.mark.parametrize("exactness", ["bit", "fast"])
    def test_churned_shard_is_never_rebuilt(self, exactness):
        """One held shard loses and gains members over several runs (the
        harness case ``churn_cold`` pins the results); the shard — and
        its stack on the bit tier, which appends and compacts in place —
        is never rebuilt."""
        agents, sessions = _pop(14, seed=31)
        held = FleetRunner(agents[:6], sessions[:6], config=EngineConfig(exactness=exactness))
        shard = stack = None
        for steps, leaving, joining in [
            (3, [], []), (2, [1, 4], [6, 7]), (4, [0], [8, 9, 10]), (3, [2, 3, 6], [11, 12]),
        ]:
            held.remove_agents([agents[i] for i in leaving])
            held.add_agents([agents[i] for i in joining], [sessions[i] for i in joining])
            held.run(steps)
            (current,) = held._shards.values()
            assert shard in (None, current)
            if exactness == "bit":
                assert stack in (None, current.stacked)
            shard, stack = current, current.stacked

    @pytest.mark.parametrize(
        "kind", ["linucb", "epsilon_greedy", "thompson", "ucb1", "code_linucb"]
    )
    def test_scalar_steps_and_set_state_keep_the_stack(self, kind, monkeypatch):
        """The stack is the state: a held bit-tier shard survives scalar
        select/update rounds and a same-hyperparameter set_state on its
        members, stacks nothing more, and matches the sequential spec
        bitwise."""
        import repro.sim.fleet as fleet_module

        stacked: list[int] = []
        real_stack = fleet_module.stack_policies

        def counting_stack(policies, **kwargs):
            stacked.append(len(policies))
            return real_stack(policies, **kwargs)

        monkeypatch.setattr(fleet_module, "stack_policies", counting_stack)
        mode = PRIVATE if kind == "code_linucb" else COLD
        case = Case(
            (Member(kind, mode),) * 6,
            (
                ("run", 3), ("scalar", (0, 2, 5), 2), ("set_state", 1, 4), ("run", 3),
                ("scalar", (3,), 1), ("run", 2),
            ),
        )
        spec = play(case)
        got = play(case, EngineConfig())
        assert stacked == [6]
        assert_equivalent(case, spec, got)

    @pytest.mark.parametrize("kind", ["linucb", "code_linucb"])
    def test_fast_member_change_runs_like_a_fresh_runner(self, kind):
        """A fast-tier held shard restacks after a scalar step or a
        set_state on a member: it runs bitwise like a fresh fast runner
        over the same agents."""
        config = EngineConfig(exactness="fast")
        members = [Member(kind, PRIVATE if kind == "code_linucb" else COLD)] * 5
        h_agents, h_sessions = population(members, seed=3)
        f_agents, f_sessions = population(members, seed=3)
        held = FleetRunner(h_agents, h_sessions, config=config)
        held.run(4)
        FleetRunner(f_agents, f_sessions, config=config).run(4)
        for agents, sessions in ((h_agents, h_sessions), (f_agents, f_sessions)):
            _simulate_agent(agents[1], sessions[1], 2)
            agents[3].policy.set_state(agents[0].policy.get_state())
        got = held.run(4)
        want = FleetRunner(f_agents, f_sessions, config=config).run(4)
        np.testing.assert_array_equal(got.rewards, want.rewards)
        np.testing.assert_array_equal(got.actions, want.actions)
        for a, b in zip(h_agents, f_agents):
            assert_states_equal(a.policy, b.policy, a.agent_id)
            assert (a.policy._key, a.policy._draws) == (b.policy._key, b.policy._draws)

    def test_restacks_only_what_changed(self, monkeypatch):
        """Reuse is real: an unchanged shard never restacks, nor does a
        set_state, a replaced policy object restacks just its own shard,
        and churn rebuilds just the shard it lands in."""
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
        # a set_state writes its row of the stack, which stays the state
        agents[3].policy.set_state(agents[0].policy.get_state())
        held.run(2)
        assert stacked_kinds == []
        agents[3].policy = copy.deepcopy(agents[3].policy)
        held.run(2)
        assert stacked_kinds == ["LinUCB"]
        stacked_kinds.clear()
        held.add_agents(agents[7:8], sessions[7:8])
        held.run(2)
        assert stacked_kinds == ["LinearThompsonSampling"]
