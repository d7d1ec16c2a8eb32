"""Reports exchanged between agents, shuffler, and server, as rows.

A report is the P2B tuple ``(y_t, a_t, r_{t,a})`` (paper §3.2), or, in
the warm-non-private baseline, the original context in place of the
code (§5, "local agents communicate the observed context to the server
in its original form").  Reports exist only as rows of parallel
columns, a :class:`ReportBatch`, from the device to the server.  Each
pending report is one row of a :class:`ReportLog` (its system's report
store), and :func:`drain_report_batches` takes a population's rows in
one pass.

The transport metadata (who reported, at which lifetime interaction)
rides in separate columns, ``agent_rows`` and
``interaction_indices``.  The shuffler's anonymization (§3.3,
"eliminating all the received metadata (e.g. IP address)") is taking
the payload, action and reward columns and leaving those behind.  Rows
are validated where they enter the pipeline, by the shuffler
(``Shuffler.process_arrays``/``buffer_arrays``) and the servers'
``ingest_arrays``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["ReportBatch", "ReportLog", "drain_report_batches"]


@dataclass
class ReportBatch:
    """Struct-of-arrays form of a pending-report batch.

    The columnar pipeline's working representation from device to
    server: ``m`` reports are ``m`` rows across parallel arrays.
    Exactly one of :attr:`codes` (encoded batches) and :attr:`contexts`
    (raw batches) is set.

    ``agent_rows`` and ``interaction_indices`` carry the transport
    metadata (who reported, at which lifetime interaction); they are
    dropped the moment the batch enters the shuffler.
    """

    actions: np.ndarray  #: (m,) intp
    rewards: np.ndarray  #: (m,) float64
    agent_rows: np.ndarray  #: (m,) intp — caller-defined agent numbering
    interaction_indices: np.ndarray  #: (m,) intp — per-agent lifetime index
    codes: np.ndarray | None = None  #: (m,) intp, encoded batches only
    contexts: np.ndarray | None = None  #: (m, d) float64, raw batches only

    def __post_init__(self) -> None:
        if (self.codes is None) == (self.contexts is None):
            raise ValueError("exactly one of codes/contexts must be set")
        m = self.actions.shape[0]
        payload_len = self.codes.shape[0] if self.codes is not None else self.contexts.shape[0]
        if not (
            m
            == self.rewards.shape[0]
            == self.agent_rows.shape[0]
            == self.interaction_indices.shape[0]
            == payload_len
        ):
            raise ValueError("ReportBatch columns must have matching lengths")

    @property
    def kind(self) -> str:
        """``"encoded"`` (code payloads) or ``"raw"`` (context payloads)."""
        return "encoded" if self.codes is not None else "raw"

    def __len__(self) -> int:
        return int(self.actions.shape[0])

    @classmethod
    def empty(cls, kind: str, *, n_features: int = 0) -> "ReportBatch":
        """A zero-row batch of the given kind."""
        none = np.empty(0, dtype=np.intp)
        return cls(
            actions=none,
            rewards=np.empty(0, dtype=np.float64),
            agent_rows=none.copy(),
            interaction_indices=none.copy(),
            codes=none.copy() if kind == "encoded" else None,
            contexts=np.empty((0, n_features), dtype=np.float64) if kind == "raw" else None,
        )

    def take(self, order: np.ndarray) -> "ReportBatch":
        """Reindexed copy (gather) of this batch."""
        return ReportBatch(
            actions=self.actions[order],
            rewards=self.rewards[order],
            agent_rows=self.agent_rows[order],
            interaction_indices=self.interaction_indices[order],
            codes=self.codes[order] if self.codes is not None else None,
            contexts=self.contexts[order] if self.contexts is not None else None,
        )

    @staticmethod
    def concat(
        batches: Sequence["ReportBatch"], kind: str, *, n_features: int = 0
    ) -> "ReportBatch":
        """Row-concatenate batches of one kind (no rows: an empty batch
        whose raw payload is ``n_features`` wide)."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return ReportBatch.empty(kind, n_features=n_features)
        if any(b.kind != kind for b in batches):
            raise ValueError("cannot concatenate batches of different kinds")
        return ReportBatch(
            actions=np.concatenate([b.actions for b in batches]),
            rewards=np.concatenate([b.rewards for b in batches]),
            agent_rows=np.concatenate([b.agent_rows for b in batches]),
            interaction_indices=np.concatenate([b.interaction_indices for b in batches]),
            codes=np.concatenate([b.codes for b in batches]) if kind == "encoded" else None,
            contexts=np.concatenate([b.contexts for b in batches]) if kind == "raw" else None,
        )


class ReportLog:
    """Columnar store of a population's pending reports.

    Every pending report of the population is one row of this store:
    code or context, action, reward, the reporting agent's store row
    and its lifetime interaction index.  A
    :class:`~repro.core.system.P2BSystem` owns one log (its kind follows
    the mode) and enrolls each agent it makes at a row of it, once; a
    hand-built agent keeps a private one-row log.  The sequential
    path appends one row per report, a fleet shard one chunk per
    round.  The store keeps no per-agent state: a store row is a bare
    label, never the agent's identifier.

    Appends may run concurrently (pooled fleet shards): each is one
    ``list.append`` of a whole chunk, and the rows of one agent only
    ever come from one caller, in order.  Reads and takes happen
    between runs.  A taken row leaves the store, so its size is bounded
    by the pending reports, not by history or by how many agents ever
    enrolled.  A raw log's contexts are ``n_features`` wide, so a read
    has that width whether or not the log has held a row.
    """

    def __init__(self, kind: str, *, n_features: int = 0) -> None:
        if kind not in ("encoded", "raw"):
            raise ValueError(f"kind must be 'encoded' or 'raw', got {kind!r}")
        self.kind = kind
        self.n_features = n_features
        self._n_enrolled = 0
        self._chunks: list[ReportBatch] = []

    def enroll(self) -> int:
        """A new store row, not shared with any agent enrolled before."""
        self._n_enrolled += 1
        return self._n_enrolled - 1

    def __len__(self) -> int:
        """Rows stored, i.e. reports pending."""
        return sum(len(chunk) for chunk in self._chunks)

    def append(
        self,
        agent_rows: np.ndarray,
        payload: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        interaction_indices: np.ndarray,
    ) -> None:
        """Append reports (rows aligned across the columns)."""
        self._chunks.append(
            ReportBatch(
                actions=np.asarray(actions, dtype=np.intp),
                rewards=np.asarray(rewards, dtype=np.float64),
                agent_rows=np.asarray(agent_rows, dtype=np.intp),
                interaction_indices=np.asarray(interaction_indices, dtype=np.intp),
                codes=np.asarray(payload, dtype=np.intp) if self.kind == "encoded" else None,
                contexts=np.asarray(payload, dtype=np.float64) if self.kind == "raw" else None,
            )
        )

    def _stored(self) -> ReportBatch:
        """Every stored row as one batch, in append order."""
        if len(self._chunks) != 1:
            self._chunks = [
                ReportBatch.concat(self._chunks, self.kind, n_features=self.n_features)
            ]
        return self._chunks[0]

    def _select(self, agent_rows: np.ndarray, positions: np.ndarray):
        """The stored batch, a mask of the rows of ``agent_rows`` and
        each masked row's label (``positions[i]`` for ``agent_rows[i]``;
        an agent listed twice takes its first label)."""
        stored = self._stored()
        rows, first = np.unique(np.asarray(agent_rows, dtype=np.intp), return_index=True)
        if rows.size == 0:
            return stored, np.zeros(len(stored), dtype=bool), np.empty(0, dtype=np.intp)
        at = np.minimum(np.searchsorted(rows, stored.agent_rows), rows.size - 1)
        mask = rows[at] == stored.agent_rows
        return stored, mask, np.asarray(positions, dtype=np.intp)[first][at[mask]]

    def rows(self, agent_row: int) -> ReportBatch:
        """A copy of one agent's stored rows, in append order, labelled
        0: what ``take([agent_row], [0])`` would return, left in place.

        This scans the whole store; bulk reads go through
        :func:`drain_report_batches`.
        """
        stored, mask, label = self._select(np.array([agent_row]), np.array([0]))
        out = stored.take(mask)
        out.agent_rows = label
        return out

    def take(self, agent_rows: np.ndarray, positions: np.ndarray) -> ReportBatch:
        """Remove the rows of ``agent_rows`` and return them in append order.

        A returned row of agent ``agent_rows[i]`` is relabelled
        ``positions[i]`` (an agent listed twice takes its first label).
        """
        stored, mask, label = self._select(agent_rows, positions)
        out = stored.take(mask)
        out.agent_rows = label
        self._chunks = [stored.take(~mask)]
        return out


def drain_report_batches(agents: Iterable) -> tuple[ReportBatch, ReportBatch]:
    """Drain a population's pending reports in columnar form.

    Returns ``(encoded, raw)`` batches holding every pending report of
    ``agents`` — each agent's rows of its ``report_log`` at its
    ``report_row`` — in exactly the order of concatenated one-agent
    ``drain_report_batches([agent])`` calls: agent-major by the given
    agent order, and append (chronological) order within each agent.  ``agent_rows``
    holds the agents' positions in ``agents``.  The agents are grouped
    by log, each log gives up their rows with one mask, and one stable
    sort on position orders the result.  Taken rows leave their logs.
    """
    by_log: dict[int, tuple[ReportLog, list[int], list[int]]] = {}
    for pos, agent in enumerate(agents):
        log = agent.report_log
        if log is None:  # cold agents never report
            continue
        members = by_log.get(id(log))
        if members is None:
            members = by_log[id(log)] = (log, [], [])
        members[1].append(agent.report_row)
        members[2].append(pos)
    parts: dict[str, list[ReportBatch]] = {"encoded": [], "raw": []}
    for log, rows, positions in by_log.values():
        parts[log.kind].append(
            log.take(np.asarray(rows, dtype=np.intp), np.asarray(positions, dtype=np.intp))
        )
    # an empty raw drain keeps its logs' payload width
    width = max((log.n_features for log, _, _ in by_log.values() if log.kind == "raw"), default=0)
    out = []
    for kind in ("encoded", "raw"):
        batch = ReportBatch.concat(parts[kind], kind, n_features=width)
        if len(batch):
            batch = batch.take(np.argsort(batch.agent_rows, kind="stable"))
        out.append(batch)
    return out[0], out[1]
