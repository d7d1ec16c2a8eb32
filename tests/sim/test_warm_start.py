"""``FleetRunner.run(n, warm_start=state)`` loads held stacks in place.

The run is exactly "every member calls ``LocalAgent.warm_start(state)``,
then ``run(n)``", bitwise — the harness (``test_harness.py``) checks
that after outside changes, churn, on worker threads, before a
checkpointed run's first segment and when a member refuses the
snapshot.  This pins how: a held shard whose stack mirrors its policies
loads the snapshot stacked, with no member warm-started scalar-side.
"""

from __future__ import annotations

from _testkit import NONPRIVATE, Member, population

from repro.core.agent import LocalAgent
from repro.sim import FleetRunner


class TestWarmStartRun:
    def test_held_mirroring_shard_loads_stacked(self, monkeypatch):
        agents, sessions = population([Member("linucb"), Member("linucb", NONPRIVATE)] * 3, seed=3)
        held = FleetRunner(agents, sessions)
        held.run(4)
        stacks = [shard.stacked for shard in held._shards.values()]
        state = agents[0].policy.get_state()

        calls = []
        real = LocalAgent.warm_start
        monkeypatch.setattr(
            LocalAgent, "warm_start", lambda self, s: (calls.append(self), real(self, s))
        )
        held.run(5, warm_start=state)
        assert calls == []  # no member warm-started scalar-side
        assert [shard.stacked for shard in held._shards.values()] == stacks
        assert all(a.policy.t == state["t"] + 5 for a in agents)
