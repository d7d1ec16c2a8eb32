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
    "PendingReports",
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
    agent_ids: tuple[str, ...] | None = None  #: agent_row -> identifier

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
        :attr:`agent_ids` is present, matching
        :meth:`~repro.core.agent.LocalAgent.record_interaction` field
        for field; otherwise the reports are metadata-free (the
        post-anonymization form).
        """
        out: list[EncodedReport | RawReport] = []
        for i in range(len(self)):
            metadata: Mapping[str, Any] = {}
            if self.agent_ids is not None:
                metadata = {
                    "agent_id": self.agent_ids[int(self.agent_rows[i])],
                    "interaction_index": int(self.interaction_indices[i]),
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
    """Append-only columnar store of one agent group's pending reports.

    The fleet engine's native outbox: each shard owns one log per run
    and appends per-round report columns; agents reference their rows
    through :class:`PendingReports` markers in their outboxes, so the
    object API (:meth:`LocalAgent.drain_outbox`) and the columnar API
    (:func:`drain_report_batches`) both see exactly the reports the
    scalar path would have produced — the former by materializing
    views, the latter as pure array gathers.

    Entries are drained at most once (a taken row is dead), mirroring
    the destructive semantics of draining an object outbox.
    """

    def __init__(self, kind: str, agent_ids: Sequence[str]) -> None:
        if kind not in ("encoded", "raw"):
            raise ValueError(f"kind must be 'encoded' or 'raw', got {kind!r}")
        self.kind = kind
        self.agent_ids = tuple(str(a) for a in agent_ids)
        self._chunks: list[ReportBatch] = []
        self._batch: ReportBatch | None = None
        self._live: np.ndarray | None = None
        # lazy row -> entry-positions index so per-agent takes (the
        # object-view materialization path) stay O(entries-of-agent)
        # instead of rescanning the whole log per agent
        self._row_index: dict[int, np.ndarray] | None = None

    def append(
        self,
        agent_rows: np.ndarray,
        payload: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        interaction_indices: np.ndarray,
    ) -> None:
        """Append one round's reports (rows aligned across the columns)."""
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

    def _finalize(self) -> None:
        if self._chunks:
            merged = ReportBatch.concat(
                ([self._batch] if self._batch is not None else []) + self._chunks,
                self.kind,
            )
            n_new = len(merged) - (len(self._batch) if self._batch is not None else 0)
            old_live = self._live if self._live is not None else np.empty(0, dtype=bool)
            self._live = np.concatenate([old_live, np.ones(n_new, dtype=bool)])
            self._batch = merged
            self._chunks = []
            self._row_index = None
        elif self._batch is None:
            self._batch = ReportBatch.empty(self.kind)
            self._live = np.zeros(0, dtype=bool)

    def _positions_of(self, agent_rows: np.ndarray) -> np.ndarray:
        """Entry positions of the given rows, ascending (append order).

        One stable grouping pass over the log, cached until the next
        append — so draining a whole population agent by agent costs
        one sort total, not one full-log scan per agent.
        """
        if self._row_index is None:
            self._row_index = {}
            if self._batch.agent_rows.size:
                order = np.argsort(self._batch.agent_rows, kind="stable")
                sorted_rows = self._batch.agent_rows[order]
                starts = np.concatenate([[0], np.nonzero(np.diff(sorted_rows))[0] + 1])
                ends = np.concatenate([starts[1:], [sorted_rows.size]])
                self._row_index = {
                    int(sorted_rows[s]): order[s:e] for s, e in zip(starts, ends)
                }
        empty = np.empty(0, dtype=np.intp)
        parts = [self._row_index.get(int(r), empty) for r in np.unique(agent_rows)]
        positions = np.concatenate(parts) if parts else empty
        return np.sort(positions)

    def take_rows(self, agent_rows: np.ndarray) -> ReportBatch:
        """Drain the still-pending entries of the given agent rows.

        Entries come back in append (chronological) order, carrying
        :attr:`agent_ids` so object views can be materialized; taken
        entries are dead for every future take.
        """
        self._finalize()
        assert self._batch is not None and self._live is not None
        agent_rows = np.asarray(agent_rows, dtype=np.intp)
        positions = self._positions_of(agent_rows)
        positions = positions[self._live[positions]]
        self._live[positions] = False
        taken = self._batch.take(positions)
        taken.agent_ids = self.agent_ids
        return taken


class PendingReports:
    """Outbox marker: one agent's pending rows in a :class:`ReportLog`.

    A lightweight stand-in the fleet engine drops into
    ``LocalAgent.outbox`` instead of per-report objects; touching the
    object API materializes it (:meth:`materialize`), while the
    columnar collection path consumes the underlying log directly.
    """

    __slots__ = ("log", "row")

    def __init__(self, log: ReportLog, row: int) -> None:
        self.log = log
        self.row = int(row)

    def materialize(self) -> list[EncodedReport | RawReport]:
        """Drain this agent's log rows as the equivalent report objects."""
        return self.log.take_rows(np.array([self.row], dtype=np.intp)).to_reports()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PendingReports(kind={self.log.kind!r}, row={self.row})"


def _object_rows(kind: str, reports: list, agent_rows: list[int]) -> ReportBatch:
    """Rows of materialized report objects (the sequential engine's outbox).

    Codes or contexts, actions and rewards come from the objects, the
    interaction index from their metadata — ``-1`` for an object that
    carries none (one put through the ``outbox`` setter), whose row
    keeps its outbox position all the same.
    """
    return ReportBatch(
        actions=np.array([r.action for r in reports], dtype=np.intp),
        rewards=np.array([r.reward for r in reports], dtype=np.float64),
        agent_rows=np.array(agent_rows, dtype=np.intp),
        interaction_indices=np.array(
            [r.metadata.get("interaction_index", -1) for r in reports], dtype=np.intp
        ),
        codes=np.array([r.code for r in reports], dtype=np.intp) if kind == "encoded" else None,
        contexts=np.stack([r.context for r in reports]) if kind == "raw" else None,
    )


def drain_report_batches(agents: Iterable) -> tuple[ReportBatch, ReportBatch]:
    """Drain a population's pending reports in columnar form.

    Returns ``(encoded, raw)`` batches holding every pending report of
    ``agents`` in exactly the order of concatenated per-agent
    ``drain_outbox`` calls: agent-major by the given agent order, and
    outbox order within each agent, where a :class:`PendingReports`
    marker expands to its log rows in append (chronological) order.
    Markers drain as array gathers; materialized report objects — the
    sequential engine's outbox, or an object view someone touched —
    become rows of the same columns (:func:`_object_rows`).

    Every involved outbox is emptied and the taken log rows are dead,
    mirroring the destructive object drain.
    """
    # every outbox entry gets an ordinal; one stable sort on it restores
    # outbox order across logs and objects
    by_log: dict[int, tuple[ReportLog, list[int], list[int], list[int]]] = {}
    objects: dict[str, tuple[list, list[int], list[int]]] = {
        "encoded": ([], [], []),
        "raw": ([], [], []),
    }
    seq = 0
    for pos, agent in enumerate(agents):
        entries = agent.pending_entries()
        agent.clear_pending()
        for entry in entries:
            if isinstance(entry, PendingReports):
                if id(entry.log) not in by_log:
                    by_log[id(entry.log)] = (entry.log, [], [], [])
                _, rows, poses, seqs = by_log[id(entry.log)]
                rows.append(entry.row)
            else:
                reports, poses, seqs = objects["raw" if isinstance(entry, RawReport) else "encoded"]
                reports.append(entry)
            poses.append(pos)
            seqs.append(seq)
            seq += 1

    parts: dict[str, list[tuple[ReportBatch, np.ndarray]]] = {"encoded": [], "raw": []}
    for log, rows, poses, seqs in by_log.values():
        row_arr = np.asarray(rows, dtype=np.intp)
        part = log.take_rows(row_arr)
        part.agent_ids = None
        # map log-local agent rows to the caller's agent positions and to
        # the ordinal of the marker each row drains through
        remap = np.empty((2, len(log.agent_ids)), dtype=np.intp)
        remap[:, row_arr] = (poses, seqs)
        ordinals = remap[1, part.agent_rows]
        part.agent_rows = remap[0, part.agent_rows]
        parts[log.kind].append((part, ordinals))
    for kind, (reports, poses, seqs) in objects.items():
        if reports:
            parts[kind].append((_object_rows(kind, reports, poses), np.asarray(seqs)))

    out = []
    for kind in ("encoded", "raw"):
        filled = [(part, ordinals) for part, ordinals in parts[kind] if len(part)]
        batch = ReportBatch.concat([part for part, _ in filled], kind)
        if len(batch):
            order = np.argsort(np.concatenate([o for _, o in filled]), kind="stable")
            batch = batch.take(order)
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
