"""The report rows a population records, and counts of the scalar
recording path, for tests that pin one engine to another.

A plan-capable shard appends report rows to its agents' store without
calling ``LocalAgent.record_interaction``.  A fallback to the scalar
path would record bit-identical rows, so comparing rows alone cannot
tell the two apart: count instead.
"""

from __future__ import annotations

from repro.core import LocalAgent

def assert_pending_rows_equal(agents_a, agents_b) -> None:
    """Each agent's pending report rows match its twin's bitwise.

    Compares payload, action, reward and interaction index, row by row
    in append order.  The rows are read in place
    (:meth:`~repro.core.payload.ReportLog.rows`), so a test can still
    collect them afterwards.
    """
    agents_a, agents_b = list(agents_a), list(agents_b)
    assert len(agents_a) == len(agents_b)
    for a, b in zip(agents_a, agents_b):
        assert (a.report_log is None) == (b.report_log is None)
        if a.report_log is None:  # cold agents never report
            continue
        rows_a = a.report_log.rows(a.report_row)
        rows_b = b.report_log.rows(b.report_row)
        # payload (one of codes and contexts is None), action, reward
        # and lifetime interaction index
        for name in ("codes", "contexts", "actions", "rewards", "interaction_indices"):
            col_a, col_b = getattr(rows_a, name), getattr(rows_b, name)
            assert (col_a is None) == (col_b is None), name
            if col_a is not None:
                assert col_a.dtype == col_b.dtype and col_a.shape == col_b.shape, name
                assert col_a.tobytes() == col_b.tobytes(), name


def record_counts(monkeypatch) -> dict[str, int]:
    """Count scalar ``record_interaction`` calls from here on (until
    ``monkeypatch`` undoes the patch)."""
    counts = {"record_interaction": 0}
    record = LocalAgent.record_interaction

    def counted_record(self, *args):
        counts["record_interaction"] += 1
        return record(self, *args)

    monkeypatch.setattr(LocalAgent, "record_interaction", counted_record)
    return counts
