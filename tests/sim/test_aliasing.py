"""Member state never aliases across agents or into snapshots.

The fleet engine keeps every member's policy state on a stacked array
between runs, and its counters and participation state as rows of
held columns.  Whatever form that takes, three invariants hold at every
membership boundary — restack, join, leave and warm start:

* no two agents' policy arrays share memory (``np.shares_memory``);
* ``get_state``, ``model_snapshot`` and a checkpoint never alias live
  state: stepping on never moves what they hold;
* a departed agent's policy state does not move when its old shard runs
  on, compacts or takes newcomers, and shares no memory with any stack
  the runner still holds.

For counter and participation rows: no two agents are bound to one row,
a departed agent keeps its own copy of its rows, and under repeated
arrive/depart the held columns stay within twice the live members.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from _testkit import N_ACTIONS, N_FEATURES, make_population

from repro.bandits import UCB1, CodeLinUCB, EpsilonGreedy, LinUCB, LinearThompsonSampling
from repro.core.config import AgentMode, P2BConfig
from repro.core.system import P2BSystem
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.sim import EngineConfig, FleetRunner

#: population name -> (policy classes in turn, mode, exactness tier)
POPULATIONS = {
    "linucb": ((LinUCB,), AgentMode.COLD, "bit"),
    "linucb-fast": ((LinUCB,), AgentMode.COLD, "fast"),
    "code_linucb": ((CodeLinUCB,), AgentMode.WARM_PRIVATE, "bit"),
    "code_linucb-fast": ((CodeLinUCB,), AgentMode.WARM_PRIVATE, "fast"),
    "mixed": ((LinUCB, LinearThompsonSampling, EpsilonGreedy), AgentMode.COLD, "bit"),
    "ucb1": ((UCB1,), AgentMode.COLD, "bit"),
}


def _population(name, encoder, n, seed):
    classes, mode, _ = POPULATIONS[name]
    kinds = itertools.cycle(classes)
    return make_population(
        lambda a, f, s: next(kinds)(n_arms=a, n_features=f, seed=s),
        mode,
        n,
        seed,
        encoder=encoder,
    )


def _fleet(name, encoder, n=6, seed=0):
    agents, sessions = _population(name, encoder, n, seed)
    config = EngineConfig(exactness=POPULATIONS[name][2])
    return FleetRunner(agents, sessions, config=config), agents


def _arrays(policy) -> dict[str, np.ndarray]:
    return {k: v for k, v in vars(policy).items() if isinstance(v, np.ndarray)}


def _frozen(policy) -> dict:
    """A deep copy of everything a policy holds that learning moves."""
    state = {k: v.copy() for k, v in _arrays(policy).items()}
    state.update(t=policy.t, draws=policy._draws)
    return state


def _assert_unmoved(policy, frozen, label):
    now = _frozen(policy)
    assert now.keys() == frozen.keys(), label
    for key, value in frozen.items():
        np.testing.assert_array_equal(now[key], value, err_msg=f"{label}:{key}")


def _stack_arrays(runner) -> list[np.ndarray]:
    """Every array the runner's held stacks keep, buffers included."""
    out = []
    for shard in runner._shards.values():
        for value in vars(shard.stacked).values():
            values = value.values() if isinstance(value, dict) else [value]
            out += [v for v in values if isinstance(v, np.ndarray)]
    return out


def assert_no_shared_memory(agents) -> None:
    held = [(a.agent_id, k, v) for a in agents for k, v in _arrays(a.policy).items()]
    for (id_a, key_a, a), (id_b, key_b, b) in itertools.combinations(held, 2):
        if id_a != id_b:
            assert not np.shares_memory(a, b), f"{id_a}.{key_a} aliases {id_b}.{key_b}"


def _newcomers(name, encoder, n, seed):
    agents, sessions = _population(name, encoder, n, seed)
    for i, agent in enumerate(agents):
        agent.agent_id = f"newcomer-{seed}-{i}"
    return agents, sessions


@pytest.mark.parametrize("name", sorted(POPULATIONS))
class TestNoTwoAgentsShareMemory:
    def test_every_membership_boundary(self, name, kmeans_encoder):
        runner, agents = _fleet(name, kmeans_encoder)
        runner.run(3)
        assert_no_shared_memory(runner.agents)
        # an outside set_state forces its shard to restack
        agents[3].policy.set_state(agents[0].policy.get_state())
        runner.run(2)
        assert_no_shared_memory(runner.agents)
        # joins, then a leave, then both
        runner.add_agents(*_newcomers(name, kmeans_encoder, 3, seed=50))
        runner.run(2)
        assert_no_shared_memory(runner.agents)
        runner.remove_agents([agents[1], agents[4]])
        runner.run(2)
        assert_no_shared_memory(runner.agents)
        runner.remove_agents([agents[0]])
        runner.add_agents(*_newcomers(name, kmeans_encoder, 5, seed=51))
        runner.run(2)
        assert_no_shared_memory(runner.agents)


@pytest.mark.parametrize("name", sorted(POPULATIONS))
class TestDepartedStateStaysPut:
    def test_old_shard_runs_on_compacts_and_joins(self, name, kmeans_encoder):
        runner, agents = _fleet(name, kmeans_encoder, n=8)
        runner.run(3)
        departed = [agents[0], agents[4], agents[7]]
        frozen = [_frozen(a.policy) for a in departed]
        runner.remove_agents(departed)
        runner.run(3)
        # newcomers take the rows the departed left
        runner.add_agents(*_newcomers(name, kmeans_encoder, 4, seed=60))
        runner.run(3)
        runner.remove_agents([agents[1]])
        runner.run(2)
        for agent, state in zip(departed, frozen):
            _assert_unmoved(agent.policy, state, agent.agent_id)
            for array in _arrays(agent.policy).values():
                assert not any(np.shares_memory(array, s) for s in _stack_arrays(runner))
        assert_no_shared_memory(departed + runner.agents)

    def test_departure_of_a_whole_shard(self, name, kmeans_encoder):
        runner, agents = _fleet(name, kmeans_encoder, n=4)
        runner.run(2)
        frozen = [_frozen(a.policy) for a in agents]
        runner.remove_agents(agents)
        runner.add_agents(*_newcomers(name, kmeans_encoder, 4, seed=61))
        runner.run(3)
        for agent, state in zip(agents, frozen):
            _assert_unmoved(agent.policy, state, agent.agent_id)
        assert_no_shared_memory(agents + runner.agents)


@pytest.mark.parametrize("name", sorted(POPULATIONS))
class TestSnapshotsNeverAliasLiveState:
    def test_get_state_is_detached(self, name, kmeans_encoder):
        runner, agents = _fleet(name, kmeans_encoder)
        runner.run(3)
        states = [a.policy.get_state() for a in agents]
        kept = [{k: np.array(v, copy=True) for k, v in s.items()} for s in states]
        for agent, state in zip(agents, states):
            live = list(_arrays(agent.policy).values())
            for value in state.values():
                if isinstance(value, np.ndarray):
                    assert not any(np.shares_memory(value, a) for a in live)
        runner.run(3)
        for state, copy in zip(states, kept):
            for key in state:
                np.testing.assert_array_equal(np.asarray(state[key]), copy[key], err_msg=key)

    def test_checkpoint_is_detached(self, name, kmeans_encoder, tmp_path):
        runner, agents = _fleet(name, kmeans_encoder)
        runner.run(3)
        runner.checkpoint(tmp_path / "held.ckpt")
        frozen = [_frozen(a.policy) for a in agents]
        runner.run(3)
        resumed = FleetRunner.resume(tmp_path / "held.ckpt")
        for agent, state in zip(resumed.agents, frozen):
            _assert_unmoved(agent.policy, state, agent.agent_id)
        assert_no_shared_memory(resumed.agents)


class TestWarmStart:
    @pytest.mark.parametrize("name", ["linucb", "code_linucb", "ucb1"])
    def test_warm_started_members_share_nothing(self, name, kmeans_encoder):
        runner, agents = _fleet(name, kmeans_encoder)
        runner.run(2)
        snapshot = agents[2].policy.get_state()
        kept = {k: np.array(v, copy=True) for k, v in snapshot.items()}
        runner.add_agents(*_newcomers(name, kmeans_encoder, 3, seed=70))
        runner.run(2, warm_start=snapshot)
        assert_no_shared_memory(runner.agents)
        for agent in runner.agents:
            for value in snapshot.values():
                if isinstance(value, np.ndarray):
                    assert not any(
                        np.shares_memory(value, a) for a in _arrays(agent.policy).values()
                    )
        runner.run(2, warm_start=snapshot)
        for key, value in kept.items():
            np.testing.assert_array_equal(np.asarray(snapshot[key]), value, err_msg=key)

    def test_model_snapshot_is_detached(self):
        config = P2BConfig(
            n_actions=N_ACTIONS,
            n_features=N_FEATURES,
            n_codes=8,
            window=2,
            shuffler_threshold=1,
            max_reports_per_user=50,
        )
        system = P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=4)
        env = SyntheticPreferenceEnvironment(n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7)
        agents = [system.new_agent() for _ in range(6)]
        runner = FleetRunner(agents, [env.new_user(s) for s in range(6)])
        runner.run(6)
        system.collect(agents)
        snapshot = system.model_snapshot()
        kept = {k: np.array(v, copy=True) for k, v in snapshot.items()}
        central = list(_arrays(system.server.policy).values())
        for value in snapshot.values():
            if isinstance(value, np.ndarray):
                assert not any(np.shares_memory(value, a) for a in central)
        runner.run(4, warm_start=snapshot)
        system.collect(agents)
        runner.run(4, warm_start=system.model_snapshot())
        assert_no_shared_memory(agents)
        for key, value in kept.items():
            np.testing.assert_array_equal(np.asarray(snapshot[key]), value, err_msg=key)


# --------------------------------------------------------------------- #
# counter and participation rows
# --------------------------------------------------------------------- #
#: warm-private members hold counter and participation rows, cold ones
#: counter rows only
ROW_POPULATIONS = ["code_linucb", "linucb"]


def _rows(agents) -> list[tuple]:
    """Every ``(store, row)`` an agent's counters or participation is."""
    rows = [(id(a._cols), a._row) for a in agents]
    rows += [
        (id(a.participation._cols), a.participation._row)
        for a in agents
        if a.participation is not None
    ]
    return rows


def _bookkeeping(agent) -> tuple:
    part = agent.participation
    return agent.n_interactions, agent.total_reward, None if part is None else part.state()


def _held_columns(runner) -> list:
    return [
        store
        for shard in runner._shards.values()
        for store in (shard._counts, shard._part)
        if store is not None
    ]


@pytest.mark.parametrize("name", ROW_POPULATIONS)
class TestBookkeepingRows:
    def test_no_two_agents_share_a_row(self, name, kmeans_encoder):
        runner, agents = _fleet(name, kmeans_encoder, n=8)
        steps = [
            lambda: runner.run(3),
            lambda: runner.add_agents(*_newcomers(name, kmeans_encoder, 3, seed=80)),
            lambda: runner.run(2),
            lambda: runner.remove_agents([agents[2], agents[5]]),
            # a second runner over part of the population takes their
            # rows; the first gathers them back at its next run
            lambda: FleetRunner(runner.agents[:3], runner.sessions[:3]).run(2),
            lambda: runner.run(2),
            lambda: runner.run_subset(agents[3:5], 2),
            lambda: runner.run(1),
        ]
        for step in steps:
            step()
            rows = _rows(runner.agents)
            assert len(set(rows)) == len(rows)
        # the held shard is bound to every member after its run
        for shard in runner._shards.values():
            assert shard._counts.holds(shard.agents)

    def test_departed_rows_stay_put(self, name, kmeans_encoder):
        runner, agents = _fleet(name, kmeans_encoder, n=8)
        runner.run(4)
        departed = [agents[0], agents[3], agents[7]]
        frozen = [_bookkeeping(a) for a in departed]
        runner.remove_agents(departed)
        runner.run(3)
        runner.add_agents(*_newcomers(name, kmeans_encoder, 4, seed=81))
        runner.run(3)
        runner.remove_agents([agents[1]])
        runner.run(2)
        held = _held_columns(runner)
        for agent, before in zip(departed, frozen):
            assert _bookkeeping(agent) == before
            assert agent._cols.n == 1 and all(agent._cols is not c for c in held)
            if agent.participation is not None:
                assert all(agent.participation._cols is not c for c in held)
        rows = _rows(departed + runner.agents)
        assert len(set(rows)) == len(rows)

    def test_columns_stay_bounded_under_churn(self, name, kmeans_encoder):
        runner, agents = _fleet(name, kmeans_encoder, n=6)
        runner.run(2)
        for cycle in range(25):
            runner.add_agents(*_newcomers(name, kmeans_encoder, 2, seed=100 + cycle))
            runner.remove_agents(runner.agents[:2])
            runner.run(2)
            (shard,) = runner._shards.values()
            for store in _held_columns(runner):
                assert store.n == shard.n == 6
                capacity = max(len(store._storage(name)) for name in store.names())
                assert capacity <= 2 * store.n
