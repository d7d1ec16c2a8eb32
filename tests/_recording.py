"""Counts of the scalar recording path, for tests that pin a fleet
shard to its columnar one.

A plan-capable shard appends report rows to its agents' store without
building a report object or calling ``LocalAgent.record_interaction``.
A fallback to the scalar path would record bit-identical reports, so
comparing reports alone cannot tell the two apart: count instead.
"""

from __future__ import annotations

from repro.core import EncodedReport, LocalAgent, RawReport


def record_counts(monkeypatch) -> dict[str, int]:
    """Count report objects built and scalar ``record_interaction``
    calls from here on (until ``monkeypatch`` undoes the patches)."""
    counts = {"objects": 0, "record_interaction": 0}
    for cls in (EncodedReport, RawReport):

        def counted(self, _init=cls.__post_init__):
            counts["objects"] += 1
            _init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    record = LocalAgent.record_interaction

    def counted_record(self, *args):
        counts["record_interaction"] += 1
        return record(self, *args)

    monkeypatch.setattr(LocalAgent, "record_interaction", counted_record)
    return counts
