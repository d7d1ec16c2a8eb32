"""Tests for repro.core.payload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import CodeLinUCB
from repro.core import (
    EncodedReport,
    LocalAgent,
    RandomizedParticipation,
    RawReport,
    ReportBatch,
    ReportLog,
    drain_report_batches,
)


class TestEncodedReport:
    def test_tuple3(self):
        r = EncodedReport(code=5, action=2, reward=0.7)
        assert r.tuple3 == (5, 2, 0.7)

    def test_equality_ignores_metadata(self):
        a = EncodedReport(code=1, action=0, reward=1.0, metadata={"agent_id": "u1"})
        b = EncodedReport(code=1, action=0, reward=1.0, metadata={"agent_id": "u2"})
        assert a == b

    def test_frozen(self):
        r = EncodedReport(code=1, action=0, reward=1.0)
        with pytest.raises(AttributeError):
            r.code = 2  # type: ignore[misc]

    def test_negative_code_rejected(self):
        with pytest.raises(ValueError):
            EncodedReport(code=-1, action=0, reward=0.0)

    def test_negative_action_rejected(self):
        with pytest.raises(ValueError):
            EncodedReport(code=0, action=-2, reward=0.0)

    def test_nan_reward_rejected(self):
        from repro.utils.exceptions import ValidationError

        with pytest.raises(ValidationError):
            EncodedReport(code=0, action=0, reward=float("nan"))


class TestRawReport:
    def test_context_copied_and_validated(self):
        r = RawReport(context=[0.5, 0.5], action=1, reward=0.0)
        assert isinstance(r.context, np.ndarray)

    def test_equality_by_value(self):
        a = RawReport(context=np.array([1.0, 2.0]), action=0, reward=0.5, metadata={"id": 1})
        b = RawReport(context=np.array([1.0, 2.0]), action=0, reward=0.5, metadata={"id": 2})
        assert a == b

    def test_inequality(self):
        a = RawReport(context=np.array([1.0, 2.0]), action=0, reward=0.5)
        b = RawReport(context=np.array([1.0, 2.1]), action=0, reward=0.5)
        assert a != b

    def test_hashable(self):
        a = RawReport(context=np.array([1.0]), action=0, reward=0.5)
        assert len({a, a}) == 1


def _encoded_batch(codes, rows, inter):
    n = len(codes)
    return ReportBatch(
        actions=np.arange(n, dtype=np.intp) % 3,
        rewards=np.linspace(0, 1, n),
        agent_rows=np.asarray(rows, dtype=np.intp),
        interaction_indices=np.asarray(inter, dtype=np.intp),
        codes=np.asarray(codes, dtype=np.intp),
    )


class TestReportBatch:
    def test_exactly_one_payload_column(self):
        with pytest.raises(ValueError, match="exactly one"):
            ReportBatch(
                actions=np.zeros(1, np.intp),
                rewards=np.zeros(1),
                agent_rows=np.zeros(1, np.intp),
                interaction_indices=np.zeros(1, np.intp),
            )

    def test_kind_and_len(self):
        batch = _encoded_batch([1, 2], [0, 1], [1, 1])
        assert batch.kind == "encoded" and len(batch) == 2
        assert ReportBatch.empty("raw", n_features=3).kind == "raw"

    def test_to_reports_metadata(self):
        batch = _encoded_batch([4, 5], [1, 0], [3, 7])
        batch.agent_ids = ("alice", "bob")
        reports = batch.to_reports()
        assert reports[0].metadata == {"agent_id": "bob", "interaction_index": 3}
        assert reports[1].metadata == {"agent_id": "alice", "interaction_index": 7}
        assert [r.code for r in reports] == [4, 5]

    def test_concat_and_take(self):
        a = _encoded_batch([1], [0], [1])
        b = _encoded_batch([2, 3], [1, 0], [1, 2])
        merged = ReportBatch.concat([a, b], "encoded")
        assert list(merged.codes) == [1, 2, 3]
        reordered = merged.take(np.array([2, 0, 1]))
        assert list(reordered.codes) == [3, 1, 2]

    def test_concat_kind_mismatch(self):
        a = _encoded_batch([1], [0], [1])
        raw = ReportBatch(
            actions=np.zeros(1, np.intp),
            rewards=np.zeros(1),
            agent_rows=np.zeros(1, np.intp),
            interaction_indices=np.zeros(1, np.intp),
            contexts=np.zeros((1, 2)),
        )
        with pytest.raises(ValueError, match="different kinds"):
            ReportBatch.concat([a, raw], "encoded")


def _append(log, row, payload, action, reward, index):
    log.append(np.array([row]), np.array([payload]), np.array([action]),
               np.array([reward]), np.array([index]))


class TestReportLog:
    def test_take_drains_once(self):
        log = ReportLog("encoded")
        log.append(
            np.array([0, 2]), np.array([5, 6]), np.array([0, 1]),
            np.array([0.5, 1.0]), np.array([3, 3]),
        )
        first = log.take(np.array([2]), np.array([2]))
        assert list(first.codes) == [6]
        again = log.take(np.array([2]), np.array([2]))
        assert len(again) == 0
        rest = log.take(np.array([0, 1]), np.array([0, 1]))
        assert list(rest.codes) == [5]
        assert len(log) == 0

    def test_append_after_take(self):
        log = ReportLog("encoded")
        _append(log, 0, 1, 0, 1.0, 1)
        assert len(log.take(np.array([0]), np.array([0]))) == 1
        _append(log, 0, 2, 0, 1.0, 2)
        taken = log.take(np.array([0]), np.array([0]))
        assert list(taken.codes) == [2]

    def test_taken_rows_are_compacted_away(self):
        """The store holds pending rows only: what a take leaves behind
        is exactly the other agents' rows, in append order."""
        log = ReportLog("encoded")
        for i in range(4):
            _append(log, i % 2, 10 + i, 0, 1.0, i)
        assert len(log) == 4
        log.take(np.array([0]), np.array([0]))
        assert len(log) == 2
        assert list(log.rows(1).codes) == [11, 13]

    def test_rows_is_a_copy_labelled_zero(self):
        log = ReportLog("encoded")
        _append(log, 0, 8, 0, 1.0, 1)
        _append(log, 5, 4, 1, 0.5, 9)
        view = log.rows(5)
        assert list(view.codes) == [4] and list(view.agent_rows) == [0]
        assert list(view.interaction_indices) == [9]
        view.codes[0] = 7
        assert len(log) == 2  # reading leaves the rows in place
        assert list(log.rows(5).codes) == [4]

    def test_enroll_gives_new_rows(self):
        log = ReportLog("raw")
        assert (log.enroll(), log.enroll(), log.enroll()) == (0, 1, 2)

    def test_store_holds_nothing_per_enrolled_agent(self):
        """Enrolling is a counter: a store's pickled size does not grow
        with the agents it has seen, only with its pending rows."""
        import pickle

        log = ReportLog("encoded")
        sizes = []
        for _ in range(2):
            row = log.enroll()
            _append(log, row, 1, 0, 1.0, 1)
            log.take(np.array([row]), np.array([0]))
            sizes.append(len(pickle.dumps(log)))
            for _ in range(1000):
                log.enroll()
        assert sizes[1] <= sizes[0] + 16

    def test_invalid_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ReportLog("tabular")


class _AgentStub:
    """Just enough of LocalAgent for drain_report_batches: a store handle."""

    def __init__(self, log, row):
        self.report_log, self.report_row = log, row


def _private_agent(agent_id="a"):
    """A hand-built warm-private agent: it holds a private one-row log."""
    from repro.encoding import KMeansEncoder

    encoder = KMeansEncoder(n_codes=4, n_features=3, n_fit_samples=200, seed=0).fit()
    return LocalAgent(
        agent_id,
        CodeLinUCB(n_arms=3, n_features=4, seed=0),
        mode="warm-private",
        encoder=encoder,
        participation=RandomizedParticipation(p=1.0, window=1, seed=0),
    )


class TestDrainReportBatches:
    def test_agent_major_chronological_order(self):
        log = ReportLog("encoded")
        # round-major appends: (agent 0, t1), (agent 1, t1), (agent 0, t2)
        log.append(np.array([0, 1]), np.array([10, 20]), np.array([0, 0]),
                   np.array([1.0, 1.0]), np.array([1, 1]))
        log.append(np.array([0]), np.array([11]), np.array([0]),
                   np.array([1.0]), np.array([2]))
        agents = [_AgentStub(log, 0), _AgentStub(log, 1)]
        enc, raw = drain_report_batches(agents)
        assert len(raw) == 0
        # agent-major: both of agent 0's reports (chronological) first
        assert list(enc.codes) == [10, 11, 20]
        assert list(enc.agent_rows) == [0, 0, 1]
        assert len(log) == 0

    def test_interleaved_appends_drain_in_append_order_per_agent(self):
        """Rows appended one at a time (the sequential path), agents
        interleaved: every column follows each agent's append order."""
        log = ReportLog("encoded")
        _append(log, 0, 1, 0, 1.0, 1)
        _append(log, 1, 3, 1, 0.0, 2)
        _append(log, 0, 5, 1, 0.5, 3)
        _append(log, 0, 2, 2, 0.25, 4)
        agents = [_AgentStub(log, 0), _AgentStub(log, 1)]
        enc, raw = drain_report_batches(agents)
        assert len(raw) == 0
        assert list(enc.codes) == [1, 5, 2, 3]
        assert list(enc.actions) == [0, 1, 2, 1]
        assert list(enc.rewards) == [1.0, 0.5, 0.25, 0.0]
        assert list(enc.agent_rows) == [0, 0, 0, 1]
        assert list(enc.interaction_indices) == [1, 3, 4, 2]
        assert len(log) == 0  # taken rows are gone

    def test_caller_order_not_store_order(self):
        """Positions follow the caller's agent list, not store rows."""
        log = ReportLog("encoded")
        for row, code in ((0, 1), (1, 2), (2, 3)):
            _append(log, row, code, 0, 1.0, 1)
        enc, _ = drain_report_batches([_AgentStub(log, 2), _AgentStub(log, 0)])
        assert list(enc.codes) == [3, 1] and list(enc.agent_rows) == [0, 1]
        assert list(log.rows(1).codes) == [2]  # an agent left out keeps its rows

    @pytest.mark.parametrize("object_first", [True, False])
    def test_object_without_interaction_index_keeps_outbox_position(self, object_first):
        """An object set through the ``outbox`` setter may carry no
        metadata: its row keeps its outbox position (index -1)."""
        agent = _private_agent()
        entries = [
            EncodedReport(code=2, action=1, reward=0.5),
            EncodedReport(code=5, action=0, reward=1.0, metadata={"interaction_index": 7}),
        ]
        if not object_first:
            entries.reverse()
        agent.outbox = entries
        assert agent.outbox[0 if object_first else 1].metadata == {}
        enc, _ = drain_report_batches([agent])
        expected = [(2, -1), (5, 7)] if object_first else [(5, 7), (2, -1)]
        assert list(zip(enc.codes.tolist(), enc.interaction_indices.tolist())) == expected
        assert agent.outbox == []

    def test_raw_rows_share_one_batch(self):
        log = ReportLog("raw")
        _append(log, 1, [0.3, 0.7], 0, 1.0, 1)
        _append(log, 0, [0.6, 0.4], 1, 0.0, 2)
        enc, raw = drain_report_batches([_AgentStub(log, 0), _AgentStub(log, 1)])
        assert len(enc) == 0
        np.testing.assert_array_equal(raw.contexts, [[0.6, 0.4], [0.3, 0.7]])
        assert list(raw.actions) == [1, 0] and list(raw.agent_rows) == [0, 1]

    def test_agents_of_two_logs_drain_agent_major(self):
        """Agents of two systems, interleaved in the caller's list: one
        stable sort on position restores agent-major order across logs."""
        log1, log2 = ReportLog("encoded"), ReportLog("encoded")
        _append(log1, 0, 1, 0, 1.0, 1)
        _append(log2, 0, 2, 0, 1.0, 1)
        _append(log1, 1, 3, 0, 1.0, 1)
        _append(log1, 0, 4, 0, 1.0, 2)
        agents = [_AgentStub(log1, 0), _AgentStub(log2, 0), _AgentStub(log1, 1)]
        enc, _ = drain_report_batches(agents)
        assert list(enc.codes) == [1, 4, 2, 3]
        assert list(enc.agent_rows) == [0, 0, 1, 2]

    def test_mixed_kinds_split(self):
        enc_log = ReportLog("encoded")
        raw_log = ReportLog("raw")
        _append(enc_log, 0, 3, 0, 1.0, 1)
        _append(raw_log, 0, [0.1, 0.9], 1, 0.5, 1)
        agents = [_AgentStub(enc_log, 0), _AgentStub(raw_log, 0)]
        enc, raw = drain_report_batches(agents)
        assert len(enc) == 1 and len(raw) == 1
        np.testing.assert_array_equal(raw.contexts, [[0.1, 0.9]])

    def test_cold_agents_hold_no_store(self):
        log = ReportLog("encoded")
        _append(log, 0, 3, 0, 1.0, 1)
        enc, raw = drain_report_batches([_AgentStub(None, 0), _AgentStub(log, 0)])
        assert list(enc.agent_rows) == [1] and len(raw) == 0

    def test_agent_listed_twice_drains_at_its_first_position(self):
        log = ReportLog("encoded")
        _append(log, 0, 1, 0, 1.0, 1)
        _append(log, 1, 2, 0, 1.0, 1)
        a, b = _AgentStub(log, 0), _AgentStub(log, 1)
        enc, _ = drain_report_batches([a, b, a])
        assert list(enc.codes) == [1, 2] and list(enc.agent_rows) == [0, 1]
