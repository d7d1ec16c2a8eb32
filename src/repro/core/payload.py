"""Report payloads exchanged between agents, shuffler, and server.

Two payload types model the paper's two data-sharing regimes:

* :class:`EncodedReport` — the P2B tuple ``(y_t, a_t, r_{t,a})``
  (paper §3.2) plus transport metadata.  The *metadata is exactly what
  the shuffler strips* (§3.3 "Anonymization: eliminating all the
  received metadata (e.g. IP address)"), so it is kept in a separate,
  explicitly-droppable field rather than mixed into the tuple.
* :class:`RawReport` — the warm-non-private baseline's payload carrying
  the original context vector (§5, "local agents communicate the
  observed context to the server in its original form").

Both are immutable; equality ignores metadata so that tests can assert
"the shuffler changed nothing but transport information".

Pending reports are not kept as objects: each is one row of a
:class:`ReportLog` (its system's report store), and the objects are the
view :attr:`~repro.core.agent.LocalAgent.outbox` builds from those rows.
Rows are validated where they enter the pipeline, by the shuffler
(``Shuffler.process_arrays``/``buffer_arrays``) and the servers'
``ingest_arrays``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..utils.validation import check_scalar, check_vector

__all__ = [
    "EncodedReport",
    "RawReport",
    "ReportBatch",
    "ReportLog",
    "drain_report_batches",
    "encoded_reports_to_arrays",
    "encoded_reports_from_arrays",
]


@dataclass(frozen=True)
class EncodedReport:
    """The P2B interaction tuple ``(y, a, r)`` with transport metadata.

    Attributes
    ----------
    code:
        Encoded context ``y ∈ {0, …, k-1}``.
    action:
        Action index ``a``.
    reward:
        Observed reward ``r``.
    metadata:
        Transport-level information (agent id, timestamps, ...) that the
        shuffler removes before anything reaches the server.
    """

    code: int
    action: int
    reward: float
    metadata: Mapping[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.code < 0:
            raise ValueError(f"code must be non-negative, got {self.code}")
        if self.action < 0:
            raise ValueError(f"action must be non-negative, got {self.action}")
        check_scalar(self.reward, name="reward")

    @property
    def tuple3(self) -> tuple[int, int, float]:
        """The bare paper tuple ``(y, a, r)``."""
        return (self.code, self.action, self.reward)


@dataclass(frozen=True)
class RawReport:
    """Non-private payload carrying the context in its original form."""

    context: np.ndarray
    action: int
    reward: float
    metadata: Mapping[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        ctx = check_vector(self.context, name="context")
        object.__setattr__(self, "context", ctx)
        if self.action < 0:
            raise ValueError(f"action must be non-negative, got {self.action}")
        check_scalar(self.reward, name="reward")

    def __eq__(self, other: object) -> bool:  # ndarray needs custom equality
        if not isinstance(other, RawReport):
            return NotImplemented
        return (
            np.array_equal(self.context, other.context)
            and self.action == other.action
            and self.reward == other.reward
        )

    def __hash__(self) -> int:
        return hash((self.context.tobytes(), self.action, self.reward))


@dataclass
class ReportBatch:
    """Struct-of-arrays form of a pending-report batch.

    The columnar pipeline's working representation from device to
    server: ``m`` reports are ``m`` rows across parallel arrays instead
    of ``m`` payload objects.  Exactly one of :attr:`codes` (encoded
    batches) and :attr:`contexts` (raw batches) is set.

    ``agent_rows`` and ``interaction_indices`` carry the transport
    metadata in columnar form (who reported, at which lifetime
    interaction); like object metadata they are dropped the moment the
    batch enters the shuffler.  ``agent_ids`` (optional) maps agent
    rows to identifiers so :meth:`to_reports` can rebuild the object
    view — metadata included — bit-identically to the scalar path.
    """

    actions: np.ndarray  #: (m,) intp
    rewards: np.ndarray  #: (m,) float64
    agent_rows: np.ndarray  #: (m,) intp — caller-defined agent numbering
    interaction_indices: np.ndarray  #: (m,) intp — per-agent lifetime index
    codes: np.ndarray | None = None  #: (m,) intp, encoded batches only
    contexts: np.ndarray | None = None  #: (m, d) float64, raw batches only
    agent_ids: Sequence[str] | None = None  #: agent_row -> identifier

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
            agent_ids=self.agent_ids,
        )

    @staticmethod
    def concat(batches: Sequence["ReportBatch"], kind: str) -> "ReportBatch":
        """Row-concatenate batches of one kind (ids are not merged)."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return ReportBatch.empty(kind)
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

    def to_reports(self) -> list["EncodedReport | RawReport"]:
        """Object view: the exact reports the scalar path would have built.

        Metadata (``agent_id`` + ``interaction_index``) is attached when
        :attr:`agent_ids` is present, as
        :meth:`~repro.core.agent.LocalAgent.record_interaction` records
        it; otherwise the reports are metadata-free (the
        post-anonymization form), as is a row with interaction index
        ``-1`` (one put through the ``outbox`` setter without metadata).
        """
        out: list[EncodedReport | RawReport] = []
        for i in range(len(self)):
            metadata: Mapping[str, Any] = {}
            index = int(self.interaction_indices[i])
            if self.agent_ids is not None and index >= 0:
                metadata = {
                    "agent_id": self.agent_ids[int(self.agent_rows[i])],
                    "interaction_index": index,
                }
            if self.codes is not None:
                out.append(
                    EncodedReport(
                        code=int(self.codes[i]),
                        action=int(self.actions[i]),
                        reward=float(self.rewards[i]),
                        metadata=metadata,
                    )
                )
            else:
                out.append(
                    RawReport(
                        context=self.contexts[i].copy(),
                        action=int(self.actions[i]),
                        reward=float(self.rewards[i]),
                        metadata=metadata,
                    )
                )
        return out


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
    label, and an agent attaches its own identifier to the reports it
    reads.

    Appends may run concurrently (pooled fleet shards): each is one
    ``list.append`` of a whole chunk, and the rows of one agent only
    ever come from one caller, in order.  Reads and takes happen
    between runs.  A taken row leaves the store, so its size is bounded
    by the pending reports, not by history or by how many agents ever
    enrolled.
    """

    def __init__(self, kind: str) -> None:
        if kind not in ("encoded", "raw"):
            raise ValueError(f"kind must be 'encoded' or 'raw', got {kind!r}")
        self.kind = kind
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
            self._chunks = [ReportBatch.concat(self._chunks, self.kind)]
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
    ``report_row`` — in exactly the order of concatenated per-agent
    ``drain_outbox`` calls: agent-major by the given agent order, and
    append (chronological) order within each agent.  ``agent_rows``
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
    out = []
    for kind in ("encoded", "raw"):
        batch = ReportBatch.concat(parts[kind], kind)
        if len(batch):
            batch = batch.take(np.argsort(batch.agent_rows, kind="stable"))
        out.append(batch)
    return out[0], out[1]


def encoded_reports_to_arrays(
    reports: Sequence[EncodedReport],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Struct-of-arrays view of an encoded batch: ``(codes, actions, rewards)``.

    The columnar form is the shuffler's and fleet engine's working
    representation; metadata is deliberately *not* carried over, so
    converting to arrays is itself an anonymization step.
    """
    n = len(reports)
    codes = np.empty(n, dtype=np.intp)
    actions = np.empty(n, dtype=np.intp)
    rewards = np.empty(n, dtype=np.float64)
    for i, r in enumerate(reports):
        codes[i] = r.code
        actions[i] = r.action
        rewards[i] = r.reward
    return codes, actions, rewards


def encoded_reports_from_arrays(
    codes: np.ndarray, actions: np.ndarray, rewards: np.ndarray
) -> list[EncodedReport]:
    """Rebuild metadata-free :class:`EncodedReport` objects from arrays.

    Round-trips exactly with :func:`encoded_reports_to_arrays` modulo
    metadata (which array form never carries): codes and actions are
    integers, rewards the same float64 values.
    """
    codes = np.asarray(codes, dtype=np.intp).ravel()
    actions = np.asarray(actions, dtype=np.intp).ravel()
    rewards = np.asarray(rewards, dtype=np.float64).ravel()
    if not (codes.shape[0] == actions.shape[0] == rewards.shape[0]):
        raise ValueError(
            "codes, actions and rewards must have matching lengths: "
            f"{codes.shape[0]}, {actions.shape[0]}, {rewards.shape[0]}"
        )
    return [
        EncodedReport(code=int(c), action=int(a), reward=float(r))
        for c, a, r in zip(codes, actions, rewards)
    ]
