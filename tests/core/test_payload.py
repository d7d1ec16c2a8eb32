"""Tests for repro.core.payload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import CodeLinUCB, LinUCB
from repro.core import (
    LocalAgent,
    P2BConfig,
    P2BSystem,
    RandomizedParticipation,
    ReportBatch,
    ReportLog,
    Shuffler,
    drain_report_batches,
)


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

    def test_take_carries_the_metadata_columns(self):
        """Who reported and when ride along with their rows under a
        gather, as separate columns the shuffler never takes."""
        batch = _encoded_batch([4, 5, 6], [1, 0, 2], [3, 7, 9])
        taken = batch.take(np.array([2, 0]))
        assert list(taken.codes) == [6, 4]
        assert list(taken.agent_rows) == [2, 1]
        assert list(taken.interaction_indices) == [9, 3]
        assert list(taken.actions) == [2, 0]

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

    def test_append_stores_canonical_dtypes(self):
        """Python scalars in, intp and float64 columns out: the one row
        form that both engines append and that tests compare bitwise."""
        enc, raw = ReportLog("encoded"), ReportLog("raw")
        _append(enc, 0, 3, 1, 1, 2)  # an int reward
        _append(raw, 0, [1, 0], 1, 0.5, 2)
        e, r = enc.rows(0), raw.rows(0)
        assert e.codes.dtype == e.actions.dtype == e.interaction_indices.dtype == np.intp
        assert e.rewards.dtype == r.contexts.dtype == np.float64
        assert e.contexts is None and r.codes is None and r.contexts.shape == (1, 2)

    @pytest.mark.parametrize(
        "code, action, reward",
        [(-1, 0, 1.0), (2, -2, 1.0), (2, 0, float("nan"))],
        ids=["negative-code", "negative-action", "nan-reward"],
    )
    def test_malformed_row_is_quarantined_by_the_shuffler(self, code, action, reward):
        """The log stores rows as given; a malformed one is refused
        where rows enter the pipeline, and only the clean rows release."""
        log = ReportLog("encoded")
        _append(log, 0, 2, 1, 0.5, 1)
        _append(log, 0, code, action, reward, 2)
        _append(log, 0, 2, 0, 0.25, 3)
        assert len(log) == 3
        enc, _ = drain_report_batches([_AgentStub(log, 0)])
        r_codes, r_actions, r_rewards, stats = Shuffler(threshold=1, seed=0).process_arrays(
            enc.codes, enc.actions, enc.rewards
        )
        assert stats.n_quarantined == 1 and stats.n_released == 2
        assert sorted(zip(r_actions.tolist(), r_rewards.tolist())) == [(0, 0.25), (1, 0.5)]
        assert set(r_codes.tolist()) == {2}

    def test_empty_raw_read_has_the_payload_width(self):
        """A never-used raw log and a drained one read ``(0, d)`` contexts:
        the width is the log's, not its history's."""
        never, drained = ReportLog("raw", n_features=3), ReportLog("raw", n_features=3)
        _append(drained, 0, [0.1, 0.2, 0.7], 1, 0.5, 1)
        drained.take(np.array([0]), np.array([0]))
        for log in (never, drained):
            assert log.rows(0).contexts.shape == (0, 3)

    @pytest.mark.parametrize("mode", ["hand-built", "system"])
    def test_agents_raw_log_has_the_context_width(self, mode):
        agent = (
            _hand_built_agent("warm-nonprivate")
            if mode == "hand-built"
            else P2BSystem(
                P2BConfig(n_actions=2, n_features=3, n_codes=4), mode="warm-nonprivate", seed=0
            ).new_agent()
        )
        assert agent.report_log.rows(agent.report_row).contexts.shape == (0, 3)
        assert drain_report_batches([agent])[1].contexts.shape == (0, 3)

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


def _hand_built_agent(mode, agent_id="a"):
    """A hand-built warm agent: it holds a private one-row log."""
    from repro.encoding import KMeansEncoder

    participation = RandomizedParticipation(p=1.0, window=1, max_reports=3, seed=0)
    if mode == "warm-nonprivate":
        return LocalAgent(agent_id, LinUCB(3, 3, seed=0), mode=mode, participation=participation)
    encoder = KMeansEncoder(n_codes=4, n_features=3, n_fit_samples=200, seed=0).fit()
    return LocalAgent(
        agent_id,
        CodeLinUCB(n_arms=3, n_features=4, seed=0),
        mode=mode,
        encoder=encoder,
        participation=participation,
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

    @pytest.mark.parametrize("mode", ["warm-private", "warm-nonprivate"])
    def test_hand_built_agent_drains_its_private_log(self, mode):
        """An agent no system enrolled appends to its private one-row
        log, each row tagged with its lifetime interaction index;
        reading leaves the rows in place, draining takes them."""
        agent = _hand_built_agent(mode)
        x = np.array([0.2, 0.5, 0.3])
        for _ in range(3):
            agent.learn(x, 1, 0.5)
        if mode == "warm-private":
            column, expected = "codes", [agent.encoder.encode(x)] * 3
        else:
            column, expected = "contexts", [x] * 3
        pending = agent.report_log.rows(agent.report_row)
        assert list(pending.interaction_indices) == [1, 2, 3]
        np.testing.assert_array_equal(getattr(pending, column), expected)
        enc, raw = drain_report_batches([agent])
        drained = enc if mode == "warm-private" else raw
        assert len(enc) + len(raw) == len(drained) == 3
        np.testing.assert_array_equal(getattr(drained, column), expected)
        assert list(drained.agent_rows) == [0, 0, 0]
        assert len(agent.report_log) == 0

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
