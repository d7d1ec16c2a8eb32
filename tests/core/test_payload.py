"""Tests for repro.core.payload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EncodedReport,
    PendingReports,
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


class TestReportLog:
    def test_take_rows_drains_once(self):
        log = ReportLog("encoded", ["a", "b", "c"])
        log.append(
            np.array([0, 2]), np.array([5, 6]), np.array([0, 1]),
            np.array([0.5, 1.0]), np.array([3, 3]),
        )
        first = log.take_rows(np.array([2]))
        assert list(first.codes) == [6]
        assert first.agent_ids == ("a", "b", "c")
        again = log.take_rows(np.array([2]))
        assert len(again) == 0
        rest = log.take_rows(np.array([0, 1]))
        assert list(rest.codes) == [5]

    def test_append_after_take(self):
        log = ReportLog("encoded", ["a"])
        log.append(np.array([0]), np.array([1]), np.array([0]), np.array([1.0]), np.array([1]))
        assert len(log.take_rows(np.array([0]))) == 1
        log.append(np.array([0]), np.array([2]), np.array([0]), np.array([1.0]), np.array([2]))
        taken = log.take_rows(np.array([0]))
        assert list(taken.codes) == [2]

    def test_invalid_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ReportLog("tabular", ["a"])


class _AgentStub:
    """Just enough of LocalAgent for drain_report_batches."""

    def __init__(self, entries):
        self._outbox = list(entries)

    def pending_entries(self):
        return list(self._outbox)

    def clear_pending(self):
        self._outbox = []


class TestDrainReportBatches:
    def test_agent_major_chronological_order(self):
        log = ReportLog("encoded", ["a", "b"])
        # round-major appends: (agent 0, t1), (agent 1, t1), (agent 0, t2)
        log.append(np.array([0, 1]), np.array([10, 20]), np.array([0, 0]),
                   np.array([1.0, 1.0]), np.array([1, 1]))
        log.append(np.array([0]), np.array([11]), np.array([0]),
                   np.array([1.0]), np.array([2]))
        agents = [_AgentStub([PendingReports(log, 0)]), _AgentStub([PendingReports(log, 1)])]
        enc, raw = drain_report_batches(agents)
        assert len(raw) == 0
        # agent-major: both of agent 0's reports (chronological) first
        assert list(enc.codes) == [10, 11, 20]
        assert list(enc.agent_rows) == [0, 0, 1]
        assert all(a._outbox == [] for a in agents)

    def test_materialized_objects_drain_in_outbox_order(self):
        """Report objects become rows where ``drain_outbox`` would put
        them: codes, actions and rewards from the object, the interaction
        index from its metadata."""
        log = ReportLog("encoded", ["a"])
        log.append(np.array([0]), np.array([5]), np.array([1]), np.array([0.5]), np.array([3]))
        first = [
            EncodedReport(code=1, action=0, reward=1.0, metadata={"interaction_index": 1}),
            PendingReports(log, 0),
            EncodedReport(code=2, action=2, reward=0.25, metadata={"interaction_index": 4}),
        ]
        second = [EncodedReport(code=3, action=1, reward=0.0, metadata={"interaction_index": 2})]
        agents = [_AgentStub(first), _AgentStub(second)]
        enc, raw = drain_report_batches(agents)
        assert len(raw) == 0
        assert list(enc.codes) == [1, 5, 2, 3]
        assert list(enc.actions) == [0, 1, 2, 1]
        assert list(enc.rewards) == [1.0, 0.5, 0.25, 0.0]
        assert list(enc.agent_rows) == [0, 0, 0, 1]
        assert list(enc.interaction_indices) == [1, 3, 4, 2]
        assert all(a._outbox == [] for a in agents)
        assert len(log.take_rows(np.array([0]))) == 0  # the log row is dead

    @pytest.mark.parametrize("object_first", [True, False])
    def test_object_without_interaction_index_keeps_outbox_position(self, object_first):
        """An object set through the ``outbox`` setter may carry no
        metadata: its row keeps its outbox position (index -1)."""
        log = ReportLog("encoded", ["a"])
        log.append(np.array([0]), np.array([5]), np.array([0]), np.array([1.0]), np.array([7]))
        entries = [EncodedReport(code=2, action=1, reward=0.5), PendingReports(log, 0)]
        if not object_first:
            entries.reverse()
        enc, _ = drain_report_batches([_AgentStub(entries)])
        expected = [(2, -1), (5, 7)] if object_first else [(5, 7), (2, -1)]
        assert list(zip(enc.codes.tolist(), enc.interaction_indices.tolist())) == expected

    def test_raw_objects_and_log_rows_share_one_batch(self):
        log = ReportLog("raw", ["a", "b"])
        log.append(
            np.array([1]), np.array([[0.3, 0.7]]), np.array([0]), np.array([1.0]), np.array([1])
        )
        report = RawReport(
            context=np.array([0.6, 0.4]), action=1, reward=0.0, metadata={"interaction_index": 2}
        )
        agents = [_AgentStub([report]), _AgentStub([PendingReports(log, 1)])]
        enc, raw = drain_report_batches(agents)
        assert len(enc) == 0
        np.testing.assert_array_equal(raw.contexts, [[0.6, 0.4], [0.3, 0.7]])
        assert list(raw.actions) == [1, 0] and list(raw.agent_rows) == [0, 1]

    def test_two_logs_ordered_by_interaction_index(self):
        log1 = ReportLog("encoded", ["a"])
        log2 = ReportLog("encoded", ["a"])
        log1.append(np.array([0]), np.array([1]), np.array([0]), np.array([1.0]), np.array([2]))
        log2.append(np.array([0]), np.array([2]), np.array([0]), np.array([1.0]), np.array([9]))
        agents = [_AgentStub([PendingReports(log1, 0), PendingReports(log2, 0)])]
        enc, _ = drain_report_batches(agents)
        assert list(enc.codes) == [1, 2]
        assert list(enc.interaction_indices) == [2, 9]

    def test_mixed_kinds_split(self):
        enc_log = ReportLog("encoded", ["a"])
        raw_log = ReportLog("raw", ["b"])
        enc_log.append(np.array([0]), np.array([3]), np.array([0]), np.array([1.0]), np.array([1]))
        raw_log.append(np.array([0]), np.array([[0.1, 0.9]]), np.array([1]),
                       np.array([0.5]), np.array([1]))
        agents = [
            _AgentStub([PendingReports(enc_log, 0)]),
            _AgentStub([PendingReports(raw_log, 0)]),
        ]
        enc, raw = drain_report_batches(agents)
        assert len(enc) == 1 and len(raw) == 1
        np.testing.assert_array_equal(raw.contexts, [[0.1, 0.9]])
