"""The columnar reporting pipeline: what the harness cannot see.

A plan-capable shard records reports columnar-side (StackedParticipation
masks + ReportLog rows) and collection flows arrays end to end
(``drain_report_batches`` -> ``Shuffler.process_arrays`` ->
``ingest_arrays``).  That every observable equals the sequential object
path — released stream in order, ``ShufflerStats``, server state,
participation rows, refusals, budgets, windows straddling runs and
scalar rounds between fleet runs — is the harness's
(``test_harness.py``) to check.  These tests pin how: plan shards never
take the scalar recording path, a window holds one item, and reading
the pending rows leaves them in place.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bandits import CodeLinUCB, LinUCB
from repro.core import P2BConfig, P2BSystem, RandomizedParticipation
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.core.payload import ReportLog
from repro.experiments.runner import _simulate_agent
from repro.sim import FleetRunner

from _participation import assert_participation_equal
from _recording import assert_pending_rows_equal
from _released import record_released
from _testkit import NONPRIVATE, PRIVATE, Member, population

HORIZON = 12


class TestNoPerAgentRecordLoop:
    @pytest.mark.parametrize(
        "member",
        [
            Member("code_linucb", PRIVATE),
            Member("linucb", NONPRIVATE, "multilabel"),
            Member("linucb", PRIVATE, "drifting", "centroid"),
        ],
        ids=["private-synthetic", "nonprivate-replay", "centroid-drifting"],
    )
    def test_plan_shards_never_call_record_interaction(self, member, monkeypatch):
        """Stepping a plan-capable shard must not touch
        ``LocalAgent.record_interaction``: its rows land as chunks."""

        def boom(self, *args, **kwargs):  # pragma: no cover - should never run
            raise AssertionError("record_interaction called on the columnar path")

        agents, sessions = population([member] * 10, p=0.9)
        monkeypatch.setattr(LocalAgent, "record_interaction", boom)
        FleetRunner(agents, sessions).run(HORIZON)
        assert sum(len(a.report_log.rows(a.report_row)) for a in agents) > 0

    def test_central_policy_used(self):
        # warm-private systems stack CodeLinUCB (one-hot) or LinUCB (centroid)
        for context, kind in (("one-hot", CodeLinUCB), ("centroid", LinUCB)):
            config = P2BConfig(n_actions=3, n_features=4, n_codes=6, private_context=context)
            assert type(P2BSystem(config, seed=0).new_agent().policy) is kind


class TestColumnarCollectGolden:
    def test_run_shorter_than_window_holds_one_item(self, monkeypatch):
        """A device holds at most one interaction of its open window,
        however many it has seen: the sequential path hands its
        participation only the interaction the window keeps, and a fleet
        device's held item after two runs inside one window is its one row
        of the held-item columns, equal to the sequential one."""
        members = [Member("code_linucb", PRIVATE)] * 30
        s_agents, s_sessions = population(members, p=0.9, window=40)
        f_agents, f_sessions = population(members, p=0.9, window=40)
        offered: dict[int, list] = {}
        offer = RandomizedParticipation.offer

        def watched(self, item):
            offered.setdefault(id(self), []).append(item)
            return offer(self, item)

        monkeypatch.setattr(RandomizedParticipation, "offer", watched)
        for a, s in zip(s_agents, s_sessions):
            _simulate_agent(a, s, HORIZON)
        monkeypatch.undo()
        runner = FleetRunner(f_agents, f_sessions)
        runner.run(HORIZON // 2)
        runner.run(HORIZON - HORIZON // 2)
        for sa, fa in zip(s_agents, f_agents):
            items = offered[id(sa.participation)]
            assert len(items) == HORIZON
            assert sum(item is not None for item in items) <= 1
            assert fa.participation.fill == HORIZON
            assert_participation_equal(sa.participation, fa.participation, sa.agent_id)
        held = [a.participation.held for a in f_agents]
        assert any(h is not None for h in held)
        # a warm-private device holds its item's code, not its context
        assert all(type(h[0]) is int for h in held if h is not None)


class TestPendingRowsRead:
    @pytest.mark.parametrize("mode", [AgentMode.WARM_PRIVATE, AgentMode.WARM_NONPRIVATE])
    def test_reading_rows_leaves_collection_unchanged(self, mode):
        """``ReportLog.rows`` is read-only: reading every agent's rows
        twice and then collecting releases the same tuples, with the
        same outcome and server state, as collecting unread."""
        config = P2BConfig(
            n_actions=3, n_features=4, n_codes=6, q=1, p=0.7, window=3,
            shuffler_threshold=1, max_reports_per_user=2,
        )

        def build():
            from repro.data.synthetic import SyntheticPreferenceEnvironment
            from repro.utils.rng import spawn_seeds

            system = P2BSystem(config, mode=mode, seed=0)
            env = SyntheticPreferenceEnvironment(n_actions=3, n_features=4, seed=7)
            agents = [system.new_agent() for _ in range(30)]
            sessions = [env.new_user(s) for s in spawn_seeds(1, 30)]
            _simulate_agent(agents[0], sessions[0], 4)  # scalar rows, then chunk rows
            FleetRunner(agents, sessions).run(HORIZON)
            return system, agents

        (a_sys, a_agents), (b_sys, b_agents) = build(), build()
        n_read = sum(len(b_sys.report_log.rows(a.report_row)) for a in b_agents)
        assert_pending_rows_equal(b_agents, b_agents)  # a second read of every row
        assert n_read > 0 and len(b_sys.report_log) == len(a_sys.report_log)
        released = [record_released(s) for s in (a_sys, b_sys)]
        out_a, out_b = a_sys.collect(a_agents), b_sys.collect(b_agents)
        assert out_a == out_b and out_b.n_reports == n_read
        assert released[0] == released[1]
        for key, value in a_sys.server.model_snapshot().items():
            np.testing.assert_array_equal(value, b_sys.server.model_snapshot()[key])

    @pytest.mark.parametrize(
        "column, change",
        [
            ("codes", {"code": 2}),
            ("rewards", {"reward": np.nextafter(0.1, 1.0)}),
            ("interaction_indices", {"index": 5}),
        ],
    )
    def test_rows_helper_compares_bits(self, column, change):
        """``assert_pending_rows_equal`` compares bits: one changed code,
        a reward one ulp off or a shifted interaction index fails it."""

        def agent(code=3, reward=0.1, index=4):
            log = ReportLog("encoded")
            log.append([0], [code], [1], [reward], [index])
            return SimpleNamespace(report_log=log, report_row=0)

        assert_pending_rows_equal([agent()], [agent()])
        with pytest.raises(AssertionError, match=column):
            assert_pending_rows_equal([agent()], [agent(**change)])
