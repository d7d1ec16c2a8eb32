"""``FleetRunner.run(n, warm_start=state)`` is exactly "every member
calls ``LocalAgent.warm_start(state)``, then ``run(n)``", bitwise.

A held shard whose stack mirrors its policies loads the snapshot
stacked and the policies catch up at the run's writeback; every other
member warm-starts scalar-side before its shard stacks.  Each edge case
below runs one population through ``run(warm_start=)`` and an
identically seeded twin through the scalar loop, then compares results,
outboxes and every policy state.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from _recording import assert_pending_rows_equal
from _testkit import (
    N_ACTIONS,
    N_FEATURES,
    assert_states_equal,
    make_population,
)

from repro.bandits import UCB1, LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.sim import EngineConfig, FleetRunner
from repro.utils.exceptions import ValidationError


def _linucb(n_arms, n_features, seed):
    return LinUCB(n_arms=n_arms, n_features=n_features, seed=seed)


def _population(seed, n=3):
    """LinUCB agents in two shards (cold, warm-nonprivate), interleaved."""
    cold = make_population(_linucb, AgentMode.COLD, n, seed)
    warm = make_population(_linucb, AgentMode.WARM_NONPRIVATE, n, seed + 1, p=0.9)
    agents = [a for pair in zip(cold[0], warm[0]) for a in pair]
    sessions = [s for pair in zip(cold[1], warm[1]) for s in pair]
    return agents, sessions


def _snapshot(seed=0):
    """A central LinUCB model that has learned from a few updates."""
    central = LinUCB(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        x = rng.random(N_FEATURES)
        central.update(x, int(rng.integers(N_ACTIONS)), float(rng.random()))
    return central.get_state()


def _scalar_warm_start(agents, state):
    for agent in agents:
        agent.warm_start(state)


def _assert_same(result, ref, agents, ref_agents):
    np.testing.assert_array_equal(result.rewards, ref.rewards)
    np.testing.assert_array_equal(result.actions, ref.actions)
    assert_pending_rows_equal(agents, ref_agents)
    for a, b in zip(agents, ref_agents):
        assert_states_equal(a.policy, b.policy, a.agent_id)
        if isinstance(a.policy, LinUCB):  # theta is derived, not in get_state
            np.testing.assert_array_equal(a.policy.theta, b.policy.theta)


class TestWarmStartRun:
    def test_held_mirroring_shard_loads_stacked(self, monkeypatch):
        agents, sessions = _population(seed=3)
        ref_agents, ref_sessions = _population(seed=3)
        held = FleetRunner(agents, sessions)
        ref = FleetRunner(ref_agents, ref_sessions)
        held.run(4)
        ref.run(4)
        stacks = [shard.stacked for shard in held._shards.values()]
        state = _snapshot()

        calls = []
        real = LocalAgent.warm_start
        monkeypatch.setattr(
            LocalAgent, "warm_start", lambda self, s: (calls.append(self), real(self, s))
        )
        result = held.run(5, warm_start=state)
        assert calls == []  # no member warm-started scalar-side
        assert [shard.stacked for shard in held._shards.values()] == stacks

        _scalar_warm_start(ref_agents, state)
        _assert_same(result, ref.run(5), agents, ref_agents)

    def test_set_state_member_forces_restack(self):
        agents, sessions = _population(seed=5)
        ref_agents, ref_sessions = _population(seed=5)
        held = FleetRunner(agents, sessions)
        ref = FleetRunner(ref_agents, ref_sessions)
        held.run(3)
        ref.run(3)
        for pop in (agents, ref_agents):  # a cold member takes another's state
            pop[2].policy.set_state(pop[0].policy.get_state())
        state = _snapshot(1)
        result = held.run(4, warm_start=state)
        _scalar_warm_start(ref_agents, state)
        _assert_same(result, ref.run(4), agents, ref_agents)

    def test_new_shard_after_churn(self):
        agents, sessions = _population(seed=7, n=4)
        ref_agents, ref_sessions = _population(seed=7, n=4)
        held = FleetRunner(agents[:6], sessions[:6])
        ref = FleetRunner(ref_agents[:6], ref_sessions[:6])
        held.run(3)
        ref.run(3)
        held.add_agents(agents[6:], sessions[6:])
        ref.add_agents(ref_agents[6:], ref_sessions[6:])
        held.remove_agents([1])
        ref.remove_agents([1])
        state = _snapshot(2)
        result = held.run(4, warm_start=state)
        _scalar_warm_start(ref.agents, state)
        _assert_same(result, ref.run(4), held.agents, ref.agents)

    def test_pooled_held_run_loads_snapshot(self):
        """Both held shards load the snapshot and step on worker threads."""
        agents, sessions = _population(seed=9)
        ref_agents, ref_sessions = _population(seed=9)
        held = FleetRunner(agents, sessions, config=EngineConfig(n_workers=2))
        ref = FleetRunner(ref_agents, ref_sessions)
        held.run(3)
        ref.run(3)
        state = _snapshot(3)
        result = held.run(5, warm_start=state)
        _scalar_warm_start(ref_agents, state)
        _assert_same(result, ref.run(5), agents, ref_agents)

    def test_checkpointed_run_applies_before_first_segment(self, tmp_path):
        agents, sessions = _population(seed=13)
        ref_agents, ref_sessions = _population(seed=13)
        held = FleetRunner(agents, sessions)
        ref = FleetRunner(ref_agents, ref_sessions)
        held.run(3)
        ref.run(3)
        state = _snapshot(5)
        result = held.run(
            7, warm_start=state, checkpoint_every=3, checkpoint_path=tmp_path / "run.ckpt"
        )
        _scalar_warm_start(ref_agents, state)
        _assert_same(result, ref.run(7), agents, ref_agents)
        # the snapshot is not re-applied by a resumed run
        resumed = FleetRunner.resume(tmp_path / "run.ckpt").resume_run()
        np.testing.assert_array_equal(resumed.rewards, result.rewards)

    def test_refused_snapshot_raises_before_any_shard_steps(self):
        """A UCB1 member refuses a LinUCB snapshot: the members before it
        are warm-started (the loaded LinUCB shard's included), none after
        it, no shard stepped, and the next run matches the scalar loop."""

        def population(seed):
            kinds = itertools.cycle([LinUCB, UCB1])
            return make_population(
                lambda a, f, s: next(kinds)(n_arms=a, n_features=f, seed=s),
                AgentMode.COLD,
                6,
                seed,
            )

        agents, sessions = population(15)
        ref_agents, ref_sessions = population(15)
        held = FleetRunner(agents, sessions)
        ref = FleetRunner(ref_agents, ref_sessions)
        held.run(3)
        ref.run(3)
        ts = [a.policy.t for a in agents]
        state = _snapshot(6)
        with pytest.raises(ValidationError):
            held.run(4, warm_start=state)
        with pytest.raises(ValidationError):
            _scalar_warm_start(ref_agents, state)
        assert agents[0].policy.t == state["t"]
        assert [a.policy.t for a in agents[1:]] == ts[1:]
        for a, b in zip(agents, ref_agents):
            assert_states_equal(a.policy, b.policy, a.agent_id)
        _assert_same(held.run(4), ref.run(4), agents, ref_agents)
