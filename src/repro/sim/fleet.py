"""The vectorized fleet engine: simulate an agent population per round.

:class:`FleetRunner` drives ``n`` ``(LocalAgent, UserSession)`` pairs
round-major — every agent performs interaction ``t`` before any agent
performs ``t + 1`` — with the policy math executed on stacked arrays
(:mod:`repro.sim.stacked`).  Because every agent owns independent RNG
streams (policy, participation, session), round-major stepping consumes
each stream in exactly the order the sequential agent-major loop does,
so the two engines are interchangeable; ``tests/sim/`` pins the
equivalence bit-for-bit.

Heterogeneous populations run **sharded**: agents are partitioned by
:func:`shard_key` — (mode, private-context, codebook size, policy kind
and hyperparameters) — and each shard steps on its own stacked state.
Within one round the shards execute in first-appearance order, but
since no RNG stream is shared across agents, shard order (like agent
order) is unobservable: a mixed LinUCB + Thompson + epsilon-greedy
population, warm-private and cold side by side, produces bit-identical
actions, rewards, policy states and reports to the sequential loop.

Plan fast paths
---------------

Per-round session calls vanish entirely for shards whose sessions can
pre-materialize their horizon (capability flags on
:class:`~repro.data.environment.UserSession`):

* ``has_reward_plan`` — stationary sessions (the synthetic benchmark)
  pre-realize reward noise (:class:`StationaryRewardPlan`); rewards
  become one gather + clip per round, and warm-private shards encode
  their stale agents in one ``encode_batch`` call per encoder (drifting
  sessions re-plan at each drift boundary, re-encoding only the agents
  whose context moved);
* ``has_trace_plan`` — dataset-replay sessions (multilabel, Criteo)
  pre-materialize their row walk (:class:`TracePlan`); per-step
  contexts and per-action reward tables become array gathers;
* ``has_indexed_trace_plan`` — replay sessions whose dataset exposes a
  shared :class:`~repro.data.environment.TraceRowTable` take the
  **shared-row-table** form when every session of the shard walks the
  *same* table: the shard holds one ``(n, T)`` row-index walk and
  gathers contexts, rewards, expected rewards — and, warm-private,
  codes and centroid representations — through per-dataset tables that
  exist once, not once per agent.  Traced-plan memory drops A-fold and
  each distinct dataset row is encoded at most once per encoder,
  however many agents and steps visit it.  ``plan_form="dense"``
  forces the per-agent form (the memory bench compares the two);
  ``plan_form="indexed"`` insists and raises when unavailable.

A shard mixing plan-capable and plan-less sessions falls back to the
generic per-round session loop — still bit-identical, just slower.

Chunked horizons (``plan_chunk_size``) bound the plan materialization:
instead of planning all ``T`` steps up front, a shard re-plans its
sessions every ``C`` steps — exact by the plan contract (planning a
horizon in consecutive slices consumes session streams identically to
one full plan) — so dense traced-plan memory is ``O(n x C)`` instead
of ``O(n x T)``.  Chunk boundaries are invisible to everything else:
participation windows straddle them through a short history tail (a
report may sample an interaction up to ``window - 1`` steps back, so
dense shards retain that many trailing steps of context/codes), the
columnar report gathers and ``finish``'s buffer rebuild read through
the same tail, and ``plan_chunk_size >= T`` (or ``None``) degenerates
to exactly the unchunked path — one chunk, no tail.  Indexed shards
need no tail at all: the full row walk plus the shared tables
regenerate any past step.

What stays per-agent Python (all O(1) per agent per round):

* session calls (``next_context`` / ``reward``) on *unplanned* shards —
  environments are arbitrary stateful objects with their own
  generators;
* randomness (tie-breaks, epsilon coins, posterior draws) — batching
  draws across agents would reorder streams;
* participation offers and outbox appends on *unplanned* shards —
  routed through :meth:`~repro.core.agent.LocalAgent.record_interaction`,
  the same method the sequential path uses.  Plan-capable shards
  instead record **columnar**: window/budget masks advance through
  :class:`~repro.core.participation.StackedParticipation` (only the
  coin and within-window draws stay per-agent, from each agent's own
  stream), and report payloads are gathered — codes from the plan-time
  batch encodings, actions/rewards from the result matrices — into a
  per-shard :class:`~repro.core.payload.ReportLog`; agent outboxes
  reference their rows and materialize objects only if the object API
  is touched (``record_interaction`` also encodes each report's
  context, one agent at a time).

Acting-time encoding is never per-agent Python: encoders are
deterministic (the ``eps_bar = 0`` premise), so re-encoding an
unchanged context is pure waste.  Each shard caches the last context
and code of every agent in arrays, finds the stale agents with one
vectorized comparison, and encodes them in one
:meth:`Encoder.encode_batch` call per encoder (row-exact by contract;
centroids come from the equally row-exact ``decode_batch``).
Fixed-preference populations (the paper's synthetic benchmark)
therefore encode once per agent total, and *traced* shards skip
per-round encoding entirely by batch-encoding the whole horizon at
plan time.

Everything O(d²)–O(k·d²) — scoring, Cholesky refreshes,
Sherman–Morrison updates — runs as stacked kernel calls, one set per
shard per round.

Parallel shard stepping
-----------------------

Shards share no mutable state — disjoint agents, disjoint result rows,
per-agent RNG/session/outbox — and they never synchronize: the
round-major interleaving across shards is purely cosmetic, because
agent streams are per-agent.  ``FleetRunner(..., n_workers=k)``
therefore runs each shard's *entire horizon* as one thread-pool task
(no per-round barrier or submit overhead; the einsum kernels release
the GIL, so compute-bound shards overlap); results are identical to
serial stepping because nothing observable depends on shard order.
``worker_backend="process"`` is the escape hatch for populations whose
per-agent Python dominates: the same whole-horizon tasks run in worker
processes instead, and the mutated agent/session state is adopted back
into the caller's objects — see :func:`_run_shard_remote` for the
(documented) identity caveats.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.agent import LocalAgent
from ..core.config import AgentMode
from ..core.participation import StackedParticipation
from ..core.payload import EncodedReport, RawReport, ReportLog
from ..data.environment import (
    StationaryRewardPlan,
    TracePlan,
    TraceRowTable,
    UserSession,
)
from ..utils.exceptions import CheckpointError, ConfigError, WorkerError
from ..utils.validation import check_positive_int
from .faults import FaultPlan, active_plan
from .stacked import EXACTNESS_TIERS, stack_policies

__all__ = [
    "FleetRunner",
    "FleetResult",
    "FaultPolicy",
    "DroppedShard",
    "fleet_supported",
    "shard_key",
    "shard_indices",
    "aggregate_plan_nbytes",
    "WORKER_BACKENDS",
    "PLAN_FORMS",
    "EXACTNESS_TIERS",
]

#: recognized shard-parallelism backends: ``thread`` steps shards of
#: each round on a thread pool (GIL-releasing kernels, zero copy),
#: ``process`` runs each shard's whole horizon in a worker process
#: (serialization-heavy escape hatch for Python-bound populations).
WORKER_BACKENDS = ("thread", "process")

#: recognized traced-plan forms: ``auto`` uses the shared-row-table
#: ("indexed") form whenever every session of a shard walks the same
#: :class:`~repro.data.environment.TraceRowTable` and falls back to
#: per-agent ("dense") trace tables otherwise; ``dense`` forces the
#: per-agent form; ``indexed`` insists on the shared form and raises
#: when a shard cannot take it.  All forms are bit-identical.
PLAN_FORMS = ("auto", "indexed", "dense")


@dataclass(frozen=True)
class FaultPolicy:
    """How the fleet supervises failing shard work.

    When a shard's horizon raises (or its worker process dies), the
    supervisor restores the shard's agents and sessions from the
    snapshot taken before the attempt and replays the whole horizon.
    Because the snapshot round-trips every RNG stream bit-exactly and
    shard horizons are deterministic given that state, a successful
    retry is bitwise indistinguishable from a run that never failed.

    Parameters
    ----------
    max_retries:
        How many times a failed shard is retried before the policy's
        ``on_exhausted`` behavior kicks in (default 2; ``0`` =
        fail-fast with supervision bookkeeping but no retries).
    backoff:
        Base seconds slept before retry ``k`` — the actual sleep is
        ``backoff * 2**k`` scaled by deterministic jitter (default
        0.05; ``0.0`` disables sleeping, which tests use).
    jitter:
        Jitter amplitude in ``[0, 1]``: retry ``k`` sleeps its
        exponential base times ``1 + jitter * frac(k * φ)`` (golden-
        ratio decorrelation — deterministic, so replays are exact,
        but successive retries never synchronize).
    on_exhausted:
        ``"raise"`` (default) raises
        :class:`~repro.utils.exceptions.WorkerError` after the last
        retry, with the shard's agents restored to their last good
        state; ``"skip_shard"`` degrades instead — the shard's result
        rows are filled with ``NaN`` rewards / ``-1`` actions, its
        ``expected_mask`` entries cleared, and a :class:`DroppedShard`
        recorded in ``FleetResult.dropped``.
    """

    max_retries: int = 2
    backoff: float = 0.05
    jitter: float = 0.5
    on_exhausted: str = "raise"

    def __post_init__(self) -> None:
        if not isinstance(self.max_retries, (int, np.integer)) or isinstance(
            self.max_retries, bool
        ) or self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be a non-negative int, got {self.max_retries!r}"
            )
        if not self.backoff >= 0.0:
            raise ConfigError(f"backoff must be >= 0, got {self.backoff!r}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter!r}")
        if self.on_exhausted not in ("raise", "skip_shard"):
            raise ConfigError(
                "on_exhausted must be 'raise' or 'skip_shard', "
                f"got {self.on_exhausted!r}"
            )

    def sleep_for(self, attempt: int) -> float:
        """Seconds to back off before re-running attempt ``attempt + 1``."""
        base = self.backoff * (2.0**attempt)
        return base * (1.0 + self.jitter * ((attempt * 0.6180339887498949) % 1.0))


@dataclass(frozen=True)
class DroppedShard:
    """One shard degraded out of a run (``on_exhausted="skip_shard"``).

    Carried in ``FleetResult.dropped`` so callers can see exactly which
    agents have no results this run: their result rows hold ``NaN``
    rewards and ``-1`` actions, and their ``expected_mask`` entries are
    ``False``.  The shard's agents were restored to their state before
    the run, so a later run (or a fixed deployment) continues cleanly.
    """

    shard: int  #: execution index of the dropped shard within the run
    n_agents: int  #: how many agents lost this horizon
    agent_ids: tuple  #: their ``agent_id`` strings
    attempts: int  #: attempts made (1 + max_retries)
    error: str  #: ``TypeName: message`` of the last failure


def shard_key(agent: LocalAgent) -> tuple | None:
    """The stacking-compatibility fingerprint of one agent.

    Two agents share a stacked state if and only if their keys are
    equal: same mode, same acting representation, same codebook size
    (when private), and the same policy
    :meth:`~repro.bandits.base.BanditPolicy.fleet_key` (kind, shapes,
    hyperparameters).  ``None`` means the agent cannot run on the fleet
    engine at all — its policy has no fleet support, or it is
    warm-private without an encoder.
    """
    key = agent.policy.fleet_key()
    if key is None:
        return None
    if agent.mode == AgentMode.WARM_PRIVATE:
        if agent.encoder is None:
            return None
        return (agent.mode, agent.private_context, agent.encoder.n_codes, key)
    return (agent.mode, agent.private_context, None, key)


def fleet_supported(agents: Sequence[LocalAgent]) -> bool:
    """Whether this agent population can run on the fleet engine.

    Heterogeneity is no barrier — mixed policy kinds, hyperparameters,
    modes and codebook sizes shard into separate stacked states — so
    the only requirement is that *every* agent is individually
    stackable (:func:`shard_key` is not ``None``).
    """
    agents = list(agents)
    return bool(agents) and all(shard_key(a) is not None for a in agents)


def _checked_shard_key(agent: LocalAgent, i: int) -> tuple:
    """:func:`shard_key`, raising the standard error when not fleet-capable."""
    key = shard_key(agent)
    if key is None:
        if agent.policy.fleet_key() is None:
            why = f"policy {type(agent.policy).__name__} has no fleet support"
        else:
            why = "it is warm-private but has no encoder"
        raise ConfigError(
            f"agent {agent.agent_id!r} (index {i}) is not fleet-capable: "
            f"{why} (run the sequential engine instead)"
        )
    return key


def shard_indices(agents: Sequence[LocalAgent]) -> list[np.ndarray]:
    """Partition agent indices into stackable shards.

    Shards are keyed by :func:`shard_key` and ordered by first
    appearance; within a shard, agent order is preserved.  Raises
    :class:`~repro.utils.exceptions.ConfigError` when any agent is not
    fleet-capable.
    """
    groups: dict[tuple, list[int]] = {}
    for i, agent in enumerate(agents):
        groups.setdefault(_checked_shard_key(agent, i), []).append(i)
    return [np.asarray(idx, dtype=np.intp) for idx in groups.values()]


@dataclass(frozen=True)
class FleetResult:
    """Per-(agent, interaction) outcome matrices of one fleet run.

    ``dropped`` is non-empty only for supervised runs that degraded
    shards out (``FaultPolicy(on_exhausted="skip_shard")``); those
    agents' rows hold ``NaN`` rewards / ``-1`` actions and their
    ``expected_mask`` entries are ``False``.
    """

    rewards: np.ndarray  #: realized rewards, shape (n_agents, T)
    actions: np.ndarray  #: chosen actions, shape (n_agents, T)
    expected: np.ndarray | None  #: expected-reward channel, or None if untracked
    expected_mask: np.ndarray  #: per-agent bool: row of ``expected`` is valid
    dropped: tuple = ()  #: one :class:`DroppedShard` per degraded-out shard

    def measured(self) -> np.ndarray:
        """The evaluation matrix the experiment harness consumes.

        Row ``i`` is the expected-reward sequence when the environment
        provided ground truth for agent ``i``, otherwise the realized
        one — mirroring ``run_setting``'s per-agent fallback.
        """
        if self.expected is None:
            return self.rewards
        return np.where(self.expected_mask[:, None], self.expected, self.rewards)


class _Shard:
    """One stackable subpopulation with its own stacked state.

    Owns the per-shard context/encoding caches and — when every session
    in the shard advertises a plan capability — the plan
    materialization: stationary reward plans, per-agent replay traces
    ("dense"), or a shared-row-table walk ("indexed").  Plans
    materialize in horizon chunks of ``plan_chunk_size`` steps (the
    whole horizon when ``None``).  ``step`` writes outcomes into the
    *global* result matrices at this shard's agent indices.
    """

    def __init__(
        self,
        indices: np.ndarray,
        agents: list[LocalAgent],
        sessions: list[UserSession],
        *,
        plan_chunk_size: int | None = None,
        plan_form: str = "auto",
        exactness: str = "bit",
        kernel_block_size: int | None = None,
    ) -> None:
        self.indices = indices
        self.agents = agents
        self.sessions = sessions
        self.n = len(agents)
        self.mode = agents[0].mode
        self.private_context = agents[0].private_context
        self.stacked = stack_policies(
            [a.policy for a in agents],
            exactness=exactness,
            kernel_block_size=kernel_block_size,
        )
        self._rows = np.arange(self.n)
        self._plan_chunk_size = plan_chunk_size
        self._plan_form = plan_form
        # acting-representation caches (warm-private only) — persist
        # across runs: encoders are deterministic, and _refresh_acting
        # validates each row against the live context; the (n, d)
        # arrays are allocated on the first refresh
        self._cache_valid = np.zeros(self.n, dtype=bool)
        self._cached_ctx: np.ndarray | None = None
        self._cached_code = np.empty(self.n, dtype=np.intp)
        self._cached_rep: np.ndarray | None = None
        # deterministic encoder-group caches (persist across runs)
        self._enc_groups: list[np.ndarray] | None = None
        self._agent_group: np.ndarray | None = None
        # shared per-row encoding tables (persist while the row table
        # is the same object — each dataset row encoded at most once
        # per encoder across a persistent shard's whole lifetime)
        self._row_codes: np.ndarray | None = None  # (groups, n_rows) intp
        self._row_reps: np.ndarray | None = None  # (groups, n_rows, d)
        self._row_encoded: np.ndarray | None = None  # (groups, n_rows) bool
        self._row_codes_table: int | None = None  # id() of the table they cover
        # raw contexts, allocated on the first generic-path round
        self._X: np.ndarray | None = None
        # armed fault injection (chaos harness): set per attempt by the
        # supervisor via arm_faults; deliberately NOT cleared by
        # _reset_run_state — arming outlives prepare()
        self._faults: FaultPlan | None = None
        self._fault_shard = 0
        self._fault_attempt = 0
        self._fault_in_worker = False
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Clear every per-run field (a persistent shard runs many times).

        Deterministic caches — stacked policy state, acting-encoding
        caches, encoder groups, shared per-row code tables — survive;
        plan materializations, chunk cursors, history tails and the
        columnar-recording state are strictly per-run and reset here
        (``prepare`` calls this first, so a reused shard can never see
        a previous run's plan path or recording buffers).
        """
        # when streaming into a ResultSink the result matrices are a
        # ring of this many columns (covering every lookback the
        # reporting pipeline performs); None = full-horizon matrices
        self._colmod: int | None = None
        # which plan fast path this shard runs on (None = generic loop)
        self._plan_path: str | None = None
        self._track_expected = False
        # chunk state: plan arrays cover global steps
        # [_chunk_start, _chunk_start + _chunk_len)
        self._chunk = 0
        self._chunk_start = 0
        self._chunk_len = 0
        # stationary-plan arrays (has_reward_plan shards)
        self._plan_means: np.ndarray | None = None
        self._plan_noise: np.ndarray | None = None
        self._plan_acting: np.ndarray | None = None
        # whether any session's stationarity expires mid-horizon
        # (drifting sessions): chunks then re-gather means/contexts
        self._plan_limited = False
        # dense trace-plan arrays (per-agent, chunk-local)
        self._trace_ctx: np.ndarray | None = None
        self._trace_rewards: np.ndarray | None = None
        self._trace_expected: np.ndarray | None = None
        self._trace_expected_ok: np.ndarray | None = None
        self._trace_codes: np.ndarray | None = None
        self._trace_reps: np.ndarray | None = None
        self._trace_expected_is_rewards = False
        # shared-row-table state (indexed shards): the full-horizon row
        # walk (the per-dataset code tables persist across runs)
        self._row_table: TraceRowTable | None = None
        self._trace_rows: np.ndarray | None = None  # (n, T) intp
        # history tail (dense traced chunked shards): the last
        # ``max(window) - 1`` steps of context/codes before the current
        # chunk, for report gathers and buffer rebuilds that straddle a
        # chunk boundary
        self._hist_len = 0
        self._hist_ctx: np.ndarray | None = None
        self._hist_codes: np.ndarray | None = None
        # columnar reporting state (plan-capable shards only)
        self._batch_recording = False
        self._horizon = 0
        self._base_inter: np.ndarray | None = None
        self._reward_acc: np.ndarray | None = None
        self._part: StackedParticipation | None = None
        self._log: ReportLog | None = None
        self._pre_buffers: list[list] | None = None

    def arm_faults(
        self,
        plan: FaultPlan | None,
        shard_index: int = 0,
        attempt: int = 0,
        *,
        in_worker: bool = False,
    ) -> None:
        """Arm (or, with ``None``, disarm) deterministic fault injection.

        While armed, every :meth:`step` first asks ``plan`` whether a
        fault fires at ``(shard_index, t, attempt)`` — the supervisor
        re-arms with the new attempt number on each retry, so a fault
        scheduled for attempt 0 does not re-fire on the replay.
        ``in_worker`` marks process-pool execution, where ``crash``
        faults hard-kill the interpreter instead of raising.
        """
        self._faults = plan
        self._fault_shard = int(shard_index)
        self._fault_attempt = int(attempt)
        self._fault_in_worker = bool(in_worker)

    # ------------------------------------------------------------------ #
    def prepare(
        self,
        n_interactions: int,
        *,
        track_expected: bool = False,
        result_window: int | None = None,
    ) -> None:
        """Pick the plan fast path and materialize its first chunk.

        Capability *flags* decide the path (never method-identity
        probing, which silently kicked plan-inheriting subclasses off
        the fast path, and never try/except, which could consume a
        session's stream on failure).  Plans collapse the per-round
        session loops into array gathers; the plan contract (pinned by
        ``tests/sim``) makes this exact, and pre-realizing one shard
        before another is unobservable because session streams are
        per-agent.  Shards mixing plan-capable and plan-less sessions
        take the generic per-round path.
        """
        self._reset_run_state()
        self._colmod = result_window
        self._horizon = n_interactions
        self._track_expected = track_expected
        if all(s.has_reward_plan for s in self.sessions):
            path = "stationary"
            # drifting sessions advertise a finite stationarity horizon;
            # chunks then stop at every drift boundary and re-gather the
            # per-chunk contexts/means (plan_horizon_limit is pure — it
            # consumes no randomness, so probing it is free)
            self._plan_limited = any(
                s.plan_horizon_limit() is not None for s in self.sessions
            )
        elif all(s.has_trace_plan for s in self.sessions):
            path = self._pick_trace_form()
        else:
            path = None
        if path in (None, "stationary") and self._plan_form == "indexed":
            raise ConfigError(
                "plan_form='indexed' requested but a shard's sessions have no "
                "trace plans to share (plan-less or stationary sessions); use "
                "plan_form='auto'"
            )
        if path is None:
            return
        self._plan_path = path
        self._chunk = (
            n_interactions
            if self._plan_chunk_size is None
            else min(self._plan_chunk_size, n_interactions)
        )
        if path == "indexed":
            # the per-agent half of the shared-row-table form: one row
            # index per step — everything else lives in the shared
            # per-dataset tables
            self._trace_rows = np.empty((self.n, n_interactions), dtype=np.intp)
            self._init_row_encodings()
        if not (path == "stationary" and self._plan_limited):
            # drifting stationary shards keep the scalar
            # record_interaction path: the columnar payload gather
            # assumes one fixed context/code per agent, which drift
            # breaks at epoch boundaries — recording per step with the
            # current chunk's context is exact (within a chunk the
            # context is constant by construction)
            self._init_batch_recording(n_interactions)
        self._init_history()
        self._materialize_chunk(0)

    def _pick_trace_form(self) -> str:
        """Shared-row-table ("indexed") or per-agent ("dense") traces.

        The shared form applies when every session advertises
        ``has_indexed_trace_plan`` *and* they all walk the same
        :class:`TraceRowTable` (sessions over one dataset share the
        table by identity; probing it consumes no randomness).  Mixed
        datasets within one shard fall back to dense per-agent tables —
        bit-identical either way.  ``plan_form`` forces the choice.
        """
        if self._plan_form == "dense":
            return "dense"
        if all(s.has_indexed_trace_plan for s in self.sessions):
            tables = [s.trace_row_table() for s in self.sessions]
            if all(t is tables[0] for t in tables):
                self._row_table = tables[0]
                return "indexed"
            why = "its sessions walk different datasets (no single row table to share)"
        else:
            why = "not every session has a shared-row-table plan"
        if self._plan_form == "indexed":
            raise ConfigError(f"plan_form='indexed' requested but {why}")
        return "dense"

    def _encoder_groups(self) -> list[np.ndarray]:
        """Shard-local agent indices grouped by encoder object (cached).

        Shards only guarantee equal codebook *size*, so batch encodings
        group agents by the encoder they actually hold; both trace
        forms — and every chunk — reuse this one grouping.
        """
        if self._enc_groups is None:
            groups: dict[int, list[int]] = {}
            for j in range(self.n):
                groups.setdefault(id(self.agents[j].encoder), []).append(j)
            self._enc_groups = [np.asarray(m, dtype=np.intp) for m in groups.values()]
        return self._enc_groups

    def _init_row_encodings(self) -> None:
        """Allocate the shared per-row code tables (warm-private only).

        Each encoder group owns one ``(n_rows,)`` code table (plus a
        centroid table when acting on centroids) filled lazily by
        :meth:`_encode_new_rows` as chunks visit rows.
        """
        if self.mode != AgentMode.WARM_PRIVATE:
            return
        if (
            self._row_codes is not None
            and self._row_codes_table == id(self._row_table)
        ):
            return  # persistent reuse: rows already encoded stay encoded
        groups = self._encoder_groups()
        self._agent_group = np.empty(self.n, dtype=np.intp)
        for g, members in enumerate(groups):
            self._agent_group[members] = g
        shape = (len(groups), self._row_table.n_rows)
        self._row_codes = np.zeros(shape, dtype=np.intp)
        self._row_encoded = np.zeros(shape, dtype=bool)
        self._row_codes_table = id(self._row_table)
        if self.private_context == "centroid":
            d = self._row_table.contexts.shape[1]
            self._row_reps = np.zeros((*shape, d), dtype=np.float64)

    def _init_history(self) -> None:
        """Size the cross-chunk history tail (dense chunked shards only).

        A report samples an interaction at most ``window - 1`` steps
        back, and ``finish`` rebuilds at most ``window - 1`` buffered
        items (a window that never fills holds at most that many
        in-run steps), so retaining ``max(window) - 1`` trailing steps
        of context/codes bridges every chunk boundary.  Indexed shards
        regenerate any step from the full row walk plus the shared
        tables; stationary contexts never change; cold shards never
        report — none of them need a tail.
        """
        self._hist_len = 0
        if self._plan_path != "dense" or self._chunk >= self._horizon:
            return
        if self._part is None:
            return
        self._hist_len = int(self._part.window.max()) - 1

    def _materialize_chunk(self, start: int) -> None:
        """Materialize plan arrays for global steps ``[start, start + C)``.

        Re-planning slice by slice is exact by the plan contract: each
        plan call consumes the session streams precisely as that many
        sequential interactions would, so consecutive chunks realize
        the same walks and noise as one full-horizon plan
        (``tests/sim/test_chunked_plans.py`` pins the equivalence).
        """
        length = min(self._chunk, self._horizon - start)
        if self._plan_path == "stationary" and self._plan_limited:
            # stop this chunk at the earliest drift boundary: each
            # session's plan then covers one stationary stretch, and
            # the next chunk re-plans after the session has advanced
            # its epoch — exactly the per-step sequential behavior
            cap = min(
                limit
                for limit in (s.plan_horizon_limit() for s in self.sessions)
                if limit is not None
            )
            length = min(length, cap)
        self._chunk_start = start
        self._chunk_len = length
        if self._plan_path == "stationary":
            plans: list[StationaryRewardPlan] = [
                s.plan_rewards(length) for s in self.sessions
            ]
            self._plan_noise = np.stack([p.noise for p in plans])  # (n, C)
            if start == 0 or self._plan_limited:
                # drifting shards re-gather contexts/means every chunk;
                # _refresh_acting re-encodes only agents whose context
                # actually changed (encoders are deterministic, so a
                # cache hit is exact) — which also lets a persistent
                # shard reuse its encode cache across runs
                self._X = np.stack([p.context for p in plans])
                self._plan_means = np.stack([p.mean_rewards for p in plans])  # (n, A)
                self._plan_acting = self._refresh_acting(self._X)
        elif self._plan_path == "indexed":
            rows = np.stack(
                [s.plan_trace_indexed(length).rows for s in self.sessions]
            )
            self._trace_rows[:, start : start + length] = rows
            if start == 0:
                table = self._row_table
                self._trace_expected_ok = np.full(
                    self.n, table.expected is not None, dtype=bool
                )
                self._trace_expected_is_rewards = (
                    table.expected is table.action_rewards
                )
            if self.mode == AgentMode.WARM_PRIVATE:
                self._encode_new_rows(rows)
        else:  # dense per-agent traces
            traces: list[TracePlan] = [s.plan_trace(length) for s in self.sessions]
            self._trace_ctx = np.stack([p.contexts for p in traces])  # (n, C, d)
            self._trace_rewards = np.stack(
                [p.action_rewards for p in traces]
            )  # (n, C, A)
            if start == 0:
                self._trace_expected_ok = np.asarray(
                    [p.expected is not None for p in traces], dtype=bool
                )
            # the expected channel is only materialized when the run
            # tracks it; logged-data plans usually alias it to the
            # reward table (expected == realized), in which case the
            # per-step values fall out of the reward gather for free
            self._trace_expected = None
            if self._track_expected and self._trace_expected_ok.any():
                if all(p.expected is p.action_rewards for p in traces):
                    self._trace_expected_is_rewards = True
                else:
                    # absent expected channels stay zero; their agents
                    # are masked out of the expected matrix at step 0
                    ref = next(p.expected for p in traces if p.expected is not None)
                    self._trace_expected = np.zeros(
                        (self.n, *ref.shape), dtype=np.float64
                    )
                    for j, p in enumerate(traces):
                        if p.expected is not None:
                            self._trace_expected[j] = p.expected
            if self.mode == AgentMode.WARM_PRIVATE:
                self._precompute_trace_codes()

    def _roll_history(self) -> None:
        """Retain the chunk tail needed across the boundary (dense only)."""
        if self._hist_len <= 0:
            return
        keep = self._hist_len

        def tail(hist: np.ndarray | None, chunk: np.ndarray) -> np.ndarray:
            joined = chunk if hist is None else np.concatenate([hist, chunk], axis=1)
            return joined[:, max(0, joined.shape[1] - keep) :].copy()

        self._hist_ctx = tail(self._hist_ctx, self._trace_ctx)
        if self._trace_codes is not None:
            self._hist_codes = tail(self._hist_codes, self._trace_codes)

    def _encode_new_rows(self, chunk_rows: np.ndarray) -> None:
        """Extend the shared code tables to cover this chunk's rows.

        The indexed counterpart of :meth:`_precompute_trace_codes`:
        encoders are deterministic and ``encode_batch`` row-exact, so
        each distinct *dataset row* is encoded at most once per
        encoder — no matter how many agents or steps visit it, and no
        matter how the horizon is chunked — and every later use
        (acting, report payloads) is a pure gather.
        """
        for g, members in enumerate(self._encoder_groups()):
            visited = np.unique(chunk_rows[members])
            new = visited[~self._row_encoded[g, visited]]
            encoder = self.agents[members[0]].encoder
            codes = encoder.encode_batch(self._row_table.contexts[new])
            self._row_codes[g, new] = codes
            if self._row_reps is not None:
                self._row_reps[g, new] = encoder.decode_batch(codes)
            self._row_encoded[g, new] = True

    def _init_batch_recording(self, n_interactions: int) -> None:
        """Switch this shard's reporting pipeline to the columnar path.

        Plan-capable shards keep their whole context history in arrays
        (fixed plan contexts or the trace tensor), so the sampled
        window item of any report is a pure gather — the per-agent
        ``record_interaction`` loop is replaced by
        :class:`StackedParticipation` masks plus per-round appends into
        a :class:`~repro.core.payload.ReportLog` the agents' outboxes
        reference.  Counters (``n_interactions``, ``total_reward``)
        accumulate in shard arrays, written back by :meth:`finish` in
        the scalar accumulation order.
        """
        self._batch_recording = True
        self._horizon = n_interactions
        self._base_inter = np.array([a.n_interactions for a in self.agents], dtype=np.intp)
        self._reward_acc = np.array([a.total_reward for a in self.agents], dtype=np.float64)
        if self.mode == AgentMode.COLD:
            return
        parts = [a.participation for a in self.agents]
        self._part = StackedParticipation(parts)
        # items buffered before this run (partial windows of a previous
        # round / object-path prefix) can still be sampled at the first
        # window boundary; keep them reachable
        self._pre_buffers = [list(p._buffer) for p in parts]
        kind = "encoded" if self.mode == AgentMode.WARM_PRIVATE else "raw"
        self._log = ReportLog(kind, [a.agent_id for a in self.agents])
        for j, agent in enumerate(self.agents):
            agent.adopt_report_log(self._log, j)

    def _precompute_trace_codes(self) -> None:
        """Batch-encode the whole trace (warm-private traced shards).

        Encoders are deterministic and :meth:`Encoder.encode_batch` is
        row-exact against scalar ``encode`` (the base-class contract),
        so encoding at plan time instead of per round is exact — and
        collapses the last per-agent-per-round Python of the replay
        fast path into one batched call per *distinct encoder* (shards
        only guarantee equal codebook size, so agents are grouped by
        encoder object).
        """
        n, horizon, d = self._trace_ctx.shape
        codes = np.empty((n, horizon), dtype=np.intp)
        groups = self._encoder_groups()
        for members in groups:
            encoder = self.agents[members[0]].encoder
            block = self._trace_ctx[members].reshape(members.size * horizon, d)
            codes[members] = encoder.encode_batch(block).reshape(members.size, horizon)
        self._trace_codes = codes
        if self.private_context == "centroid":
            reps = np.empty((n, horizon, d), dtype=np.float64)
            for members in groups:
                encoder = self.agents[members[0]].encoder
                reps[members] = encoder.decode_batch(codes[members].ravel()).reshape(
                    members.size, horizon, d
                )
            self._trace_reps = reps

    @property
    def stationary(self) -> bool:
        """This shard runs on pre-realized stationary reward plans."""
        return self._plan_path == "stationary"

    @property
    def traced(self) -> bool:
        """This shard runs on pre-materialized replay traces (either form)."""
        return self._plan_path in ("dense", "indexed")

    @property
    def indexed(self) -> bool:
        """This shard runs on the shared-row-table trace form."""
        return self._plan_path == "indexed"

    def _col(self, t):
        """Result-matrix column for global step ``t`` (scalar or array).

        Identity without a result ring; ``t % result_window`` with one.
        Only result-matrix reads/writes map through this — plan arrays
        always index by global step.
        """
        return t if self._colmod is None else t % self._colmod

    def plan_nbytes(self, *, seen: set[int] | None = None) -> dict[str, int]:
        """Bytes currently held by this shard's plan materialization.

        ``per_agent`` counts arrays scaling with ``n_agents x steps``
        (dense trace blocks, history tails, row walks, stationary
        noise); ``shared`` counts per-dataset arrays whose size is
        independent of the population (the row table and the per-row
        code/centroid tables).  The memory bench
        (``benchmarks/bench_memory.py``) records both; the
        shared-row-table claim is their ratio.

        ``seen`` (a set of ``id(row_table)``) dedupes the shared row
        table across shards that gather through the *same* object —
        without it a multi-shard sum attributes those bytes once per
        shard.  :func:`aggregate_plan_nbytes` threads one ``seen``
        through a whole shard list.
        """
        arrays = [
            self._plan_noise,
            self._trace_ctx,
            self._trace_rewards,
            self._trace_expected,
            self._trace_codes,
            self._trace_reps,
            self._trace_rows,
            self._hist_ctx,
            self._hist_codes,
        ]
        if self.stationary:
            arrays += [self._X, self._plan_means]
            if self._plan_acting is not self._X:  # aliased when acting on raw contexts
                arrays.append(self._plan_acting)
        per_agent = sum(a.nbytes for a in arrays if a is not None)
        shared = 0
        if self._row_table is not None:
            if seen is None or id(self._row_table) not in seen:
                shared = self._row_table.nbytes()
                if seen is not None:
                    seen.add(id(self._row_table))
        shared += sum(
            a.nbytes
            for a in (self._row_codes, self._row_reps, self._row_encoded)
            if a is not None
        )
        return {"per_agent": per_agent, "shared": shared, "total": per_agent + shared}

    # ------------------------------------------------------------------ #
    def step(
        self,
        t: int,
        rewards: np.ndarray,
        actions: np.ndarray,
        expected: np.ndarray | None,
        expected_ok: np.ndarray,
    ) -> None:
        """Run interaction ``t`` for every agent in this shard.

        Thread-safe against other shards stepping the same ``t``: all
        writes land at this shard's (disjoint) agent indices, and all
        touched objects — sessions, agents, stacked state, caches — are
        owned by this shard alone.
        """
        if self._faults is not None:
            self._faults.on_step(
                self._fault_shard,
                t,
                self._fault_attempt,
                in_worker=self._fault_in_worker,
            )
        if self._plan_path is not None and t == self._chunk_start + self._chunk_len:
            self._roll_history()
            self._materialize_chunk(t)
        s = t - self._chunk_start  # chunk-local step into the plan arrays
        tc = self._col(t)  # result-matrix column (ring when streaming)
        rows_t = None
        if self.stationary:
            acting = self._plan_acting
            X = self._X
        elif self.indexed:
            rows_t = self._trace_rows[:, t]
            acting = self._indexed_acting(rows_t)
            X = None  # every gather goes through the shared row table
        elif self.traced:
            X = self._trace_ctx[:, s]
            acting = self._trace_acting(s, X)
        else:
            X = self._next_contexts()
            acting = self._refresh_acting(X)

        acts = self.stacked.select(acting)
        actions[self.indices, tc] = acts

        if self.stationary:
            # StationaryRewardPlan.realize, vectorized across agents for
            # one step: mean[a] + z, clipped — the same elementwise ops
            # as session.reward (a test pins the plan to the sequential
            # reward stream)
            r = np.clip(self._plan_means[self._rows, acts] + self._plan_noise[:, s], 0.0, 1.0)
            rewards[self.indices, tc] = r
            if expected is not None:
                expected[self.indices, tc] = self._plan_means[self._rows, acts]
        elif self.indexed:
            # IndexedTracePlan.realize, vectorized across agents for one
            # step: a gather through the *shared* per-dataset reward
            # table — replay rewards are deterministic
            r = self._row_table.action_rewards[rows_t, acts].astype(np.float64)
            rewards[self.indices, tc] = r
            if expected is not None:
                if t == 0:
                    expected_ok[self.indices] &= self._trace_expected_ok
                if self._trace_expected_is_rewards:
                    expected[self.indices, tc] = r
                elif self._row_table.expected is not None:
                    expected[self.indices, tc] = self._row_table.expected[rows_t, acts]
        elif self.traced:
            # TracePlan.realize, vectorized across agents for one step:
            # a pure table gather — replay rewards are deterministic
            r = self._trace_rewards[self._rows, s, acts].astype(np.float64)
            rewards[self.indices, tc] = r
            if expected is not None:
                if t == 0:
                    expected_ok[self.indices] &= self._trace_expected_ok
                if self._trace_expected_is_rewards:
                    expected[self.indices, tc] = r
                elif self._trace_expected is not None:
                    expected[self.indices, tc] = self._trace_expected[self._rows, s, acts]
        else:
            r = np.empty(self.n, dtype=np.float64)
            for j in range(self.n):
                r[j] = self.sessions[j].reward(int(acts[j]))
                g = self.indices[j]
                if expected is not None and expected_ok[g]:
                    try:
                        expected[g, tc] = self.sessions[j].expected_rewards()[acts[j]]
                    except NotImplementedError:
                        expected_ok[g] = False
            rewards[self.indices, tc] = r

        self.stacked.update(acting, acts, r)

        # reporting pipeline: columnar for plan-capable shards, the
        # scalar record_interaction loop otherwise
        if self._batch_recording:
            self._record_batch(t, acts, r, rewards, actions)
        else:
            for j in range(self.n):
                self.agents[j].record_interaction(X[j], int(acts[j]), float(r[j]))

    # ------------------------------------------------------------------ #
    def _record_batch(
        self,
        t: int,
        acts: np.ndarray,
        r: np.ndarray,
        rewards: np.ndarray,
        actions: np.ndarray,
    ) -> None:
        """Columnar stand-in for the per-agent ``record_interaction`` loop.

        Counters accumulate in shard arrays; participation advances
        through :class:`StackedParticipation` (vectorized masks,
        per-agent RNG draws in the scalar order); report payloads are
        *gathered* — codes from the plan-time batch encodings
        (``_trace_codes`` / the stationary encode cache), contexts from
        the plan arrays, sampled actions/rewards from the already
        filled result matrices — instead of re-encoded or re-built per
        report.
        """
        self._reward_acc += r
        if self._part is None:  # cold shard: counters only
            return
        fired, within = self._part.step()
        rows = np.nonzero(fired)[0]
        if rows.size == 0:
            return
        # the sampled item of agent j is `back` steps behind the
        # current interaction; negative sample steps land in the items
        # buffered before this run (the scalar buffer prefix)
        back = self._part.window[rows] - 1 - within[rows]
        sample_t = t - back
        inter_idx = self._base_inter[rows] + (t + 1)
        acts_s = np.empty(rows.size, dtype=np.intp)
        rew_s = np.empty(rows.size, dtype=np.float64)
        fresh = sample_t >= 0
        f_rows, f_t = rows[fresh], sample_t[fresh]
        g_rows = self.indices[f_rows]
        f_c = self._col(f_t)  # ring columns still hold steps >= t - window + 1
        acts_s[fresh] = actions[g_rows, f_c]
        rew_s[fresh] = rewards[g_rows, f_c]
        if self.mode == AgentMode.WARM_PRIVATE:
            payload = np.empty(rows.size, dtype=np.intp)
            payload[fresh] = self._codes_at(f_rows, f_t)
        else:
            payload = np.empty((rows.size, self._ctx_dim()), dtype=np.float64)
            payload[fresh] = self._contexts_at(f_rows, f_t)
        if not fresh.all():
            # rare first-boundary case: the sampled item predates this
            # run and lives in the scalar buffer prefix — resolve it
            # exactly as the scalar path would (encode at report time)
            for i in np.nonzero(~fresh)[0]:
                j = int(rows[i])
                ctx, action, reward = self._pre_buffers[j][int(within[j])]
                acts_s[i] = int(action)
                rew_s[i] = float(reward)
                if self.mode == AgentMode.WARM_PRIVATE:
                    payload[i] = self.agents[j].encoder.encode(ctx)
                else:
                    payload[i] = np.asarray(ctx, dtype=np.float64)
        self._log.append(rows, payload, acts_s, rew_s, inter_idx)

    def finish(self, rewards: np.ndarray, actions: np.ndarray) -> None:
        """Write columnar bookkeeping back into the scalar objects.

        After this, agents and their participation policies are in
        byte-for-byte the state the sequential loop would have left:
        counters, report budgets, and the participation buffers
        (rebuilt from the plan context history so a later object-path
        round continues identically).
        """
        if not self._batch_recording:
            return
        T = self._horizon
        for j, agent in enumerate(self.agents):
            agent.n_interactions = int(self._base_inter[j] + T)
            agent.total_reward = float(self._reward_acc[j])
        if self._part is None:
            return
        self._part.writeback()
        for j, agent in enumerate(self.agents):
            part = agent.participation
            n_new = int(self._part.new_buffered[j])
            buf: list = [] if self._part.flipped[j] else list(self._pre_buffers[j])
            if n_new:
                g = int(self.indices[j])
                steps = np.arange(T - n_new, T)
                ctx_rows = self._contexts_at(np.full(n_new, j, dtype=np.intp), steps)
                for i, t in enumerate(steps):
                    buf.append(
                        (
                            np.asarray(ctx_rows[i], dtype=np.float64).copy(),
                            int(actions[g, self._col(t)]),
                            float(rewards[g, self._col(t)]),
                        )
                    )
            part._buffer = buf

    # ------------------------------------------------------------------ #
    def _next_contexts(self) -> np.ndarray:
        if self._X is None:
            first = self.sessions[0].next_context()
            self._X = np.empty((self.n, first.shape[0]), dtype=np.float64)
            self._X[0] = first
            for j in range(1, self.n):
                self._X[j] = self.sessions[j].next_context()
        else:
            for j in range(self.n):
                self._X[j] = self.sessions[j].next_context()
        return self._X

    def _trace_acting(self, s: int, X: np.ndarray) -> np.ndarray:
        """Acting representation for chunk-local step ``s`` (dense form).

        Warm-private representations come from the plan-time batch
        encoding (:meth:`_precompute_trace_codes`) — pure gathers, no
        per-agent calls.
        """
        if self.mode != AgentMode.WARM_PRIVATE:
            return X
        if self.stacked.wants_codes:
            return self._trace_codes[:, s]
        if self.private_context == "centroid":
            return self._trace_reps[:, s]
        encoder = self.agents[0].encoder
        return encoder.one_hot_batch(self._trace_codes[:, s])  # type: ignore[union-attr]

    def _indexed_acting(self, rows_t: np.ndarray) -> np.ndarray:
        """Acting representation for one step of an indexed shard.

        Every form is a gather through the shared per-dataset tables —
        raw contexts from the row table, codes / centroid
        representations from the per-row encoding tables filled by
        :meth:`_encode_new_rows`.
        """
        if self.mode != AgentMode.WARM_PRIVATE:
            return self._row_table.contexts[rows_t]
        codes = self._row_codes[self._agent_group, rows_t]
        if self.stacked.wants_codes:
            return codes
        if self.private_context == "centroid":
            return self._row_reps[self._agent_group, rows_t]
        return self.agents[0].encoder.one_hot_batch(codes)  # type: ignore[union-attr]

    def _ctx_dim(self) -> int:
        """Context dimension of this shard's raw-payload source."""
        if self.indexed:
            return self._row_table.contexts.shape[1]
        if self.traced:
            return self._trace_ctx.shape[2]
        return self._X.shape[1]

    def _codes_at(self, agent_rows: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Plan-time codes of ``(shard-local agent, global step)`` pairs.

        Serves the columnar report-payload gathers: indexed shards read
        the shared per-row code tables through the full row walk (any
        step, any chunk), dense traced shards read the current chunk
        block or its history tail (a window straddling the boundary
        looks back at most ``window - 1 <= hist_len`` steps), and
        stationary shards read the per-agent encode cache (contexts are
        fixed, so the cached code *is* the step's code).  Codes are
        never re-encoded on any path.
        """
        if self.indexed:
            return self._row_codes[
                self._agent_group[agent_rows], self._trace_rows[agent_rows, steps]
            ]
        if self.traced:
            out = np.empty(agent_rows.size, dtype=np.intp)
            loc = steps - self._chunk_start
            cur = loc >= 0
            out[cur] = self._trace_codes[agent_rows[cur], loc[cur]]
            if not cur.all():
                past = ~cur
                out[past] = self._hist_codes[
                    agent_rows[past], self._hist_codes.shape[1] + loc[past]
                ]
            return out
        return self._cached_code[agent_rows]

    def _contexts_at(self, agent_rows: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Raw contexts of ``(shard-local agent, global step)`` pairs.

        Same dispatch as :meth:`_codes_at`; serves the raw report
        payloads and :meth:`finish`'s participation-buffer rebuild.
        """
        if self.indexed:
            return self._row_table.contexts[self._trace_rows[agent_rows, steps]]
        if self.traced:
            out = np.empty((agent_rows.size, self._trace_ctx.shape[2]), dtype=np.float64)
            loc = steps - self._chunk_start
            cur = loc >= 0
            out[cur] = self._trace_ctx[agent_rows[cur], loc[cur]]
            if not cur.all():
                past = ~cur
                out[past] = self._hist_ctx[
                    agent_rows[past], self._hist_ctx.shape[1] + loc[past]
                ]
            return out
        return self._X[agent_rows]

    def _refresh_acting(self, X: np.ndarray) -> np.ndarray:
        if self.mode != AgentMode.WARM_PRIVATE:
            return X
        if self._cached_ctx is None:
            self._cached_ctx = np.empty_like(X)
            if self.private_context == "centroid":
                self._cached_rep = np.empty_like(X)
        stale = ~self._cache_valid | (X != self._cached_ctx).any(axis=1)
        return self._acting_representation(X, stale)

    def _acting_representation(self, X: np.ndarray, stale: np.ndarray) -> np.ndarray:
        """The representation the stacked policy consumes for contexts ``X``.

        ``stale`` masks the shard-local agents whose cached encoding
        must be refreshed (all of them on the first call).  Encoders are
        deterministic — the ``eps_bar = 0`` premise — so serving a code
        from cache is exact, not approximate; the stale rows are encoded
        in one :meth:`Encoder.encode_batch` call per encoder group (row-
        exact against scalar ``encode`` by contract).
        """
        for members in self._encoder_groups():
            rows = members[stale[members]]
            if rows.size == 0:
                continue
            encoder = self.agents[members[0]].encoder
            codes = encoder.encode_batch(X[rows])
            self._cached_code[rows] = codes
            if self._cached_rep is not None:
                self._cached_rep[rows] = encoder.decode_batch(codes)
        self._cached_ctx[stale] = X[stale]
        self._cache_valid[stale] = True
        if self.stacked.wants_codes:
            return self._cached_code
        if self._cached_rep is not None:
            return self._cached_rep
        return self.agents[0].encoder.one_hot_batch(self._cached_code)  # type: ignore[union-attr]


def aggregate_plan_nbytes(shards: Sequence[_Shard]) -> dict[str, int]:
    """Sum :meth:`_Shard.plan_nbytes` over ``shards`` without double counting.

    Shards over one dataset gather through the *same*
    :class:`~repro.data.environment.TraceRowTable` object (PR 5 aliases
    them deliberately), so a naive per-shard sum attributes the shared
    table's bytes once per shard.  One ``seen`` set threaded through
    every shard counts each table exactly once — the honest multi-shard
    totals ``bench_memory.py`` records.
    """
    totals = {"per_agent": 0, "shared": 0, "total": 0}
    seen: set[int] = set()
    for shard in shards:
        for key, value in shard.plan_nbytes(seen=seen).items():
            totals[key] += value
    return totals


def _run_shard_remote(payload: bytes, fault_ctx: tuple | None = None) -> bytes:
    """Worker-process body for ``worker_backend="process"``.

    Receives one pickled shard population, runs its *entire* horizon
    (shards never interact, so no per-round synchronization with the
    parent is needed), and ships back the mutated agents and sessions.
    The parent adopts the returned state into its own objects
    (:meth:`FleetRunner._adopt`).

    Results travel one of two ways.  On the shared-memory protocol
    (:mod:`repro.sim.shm`) the payload carries :class:`~repro.sim.shm.
    ShmArrayRef` descriptors of the parent's *global* result matrices
    plus this shard's global row indices; the worker attaches the
    blocks (cached per process, so retries and pool re-spawns just
    re-attach by name) and writes results directly at its disjoint
    rows — the thread backend's memory model, across a process
    boundary.  On the legacy fallback (``REPRO_NO_SHM``, or platforms
    without POSIX shared memory) it builds local matrices and pickles
    them back, as before.

    ``fault_ctx`` is ``(plan_spec, shard_index, attempt)`` when the
    parent runs supervised with a fault plan armed: the *parent* decides
    the plan (including the env knob) and ships it explicitly, so a
    retry's incremented attempt number reaches the worker and random
    faults stay silent on the replay.  Partial shared-memory writes of
    a crashed attempt are fully overwritten by the retry (or NaN-filled
    by the parent on a skip), exactly like the thread path's.
    """
    from .shm import attach, shm_loads

    (
        agents,
        sessions,
        n_interactions,
        track_expected,
        plan_chunk_size,
        plan_form,
        exactness,
        kernel_block_size,
        result_refs,
        rows,
    ) = shm_loads(payload)
    n = len(agents)
    indices = (
        np.arange(n, dtype=np.intp)
        if result_refs is None
        else np.asarray(rows, dtype=np.intp)
    )
    shard = _Shard(
        indices,
        agents,
        sessions,
        plan_chunk_size=plan_chunk_size,
        plan_form=plan_form,
        exactness=exactness,
        kernel_block_size=kernel_block_size,
    )
    if fault_ctx is not None:
        spec, shard_index, attempt = fault_ctx
        shard.arm_faults(
            FaultPlan.parse(spec), shard_index, attempt, in_worker=True
        )
    shard.prepare(n_interactions, track_expected=track_expected)
    if result_refs is None:
        rewards = np.empty((n, n_interactions), dtype=np.float64)
        actions = np.empty((n, n_interactions), dtype=np.intp)
        expected = (
            np.empty((n, n_interactions), dtype=np.float64) if track_expected else None
        )
        expected_ok = np.full(n, track_expected, dtype=bool)
    else:
        rewards_ref, actions_ref, expected_ref, ok_ref = result_refs
        rewards = attach(rewards_ref)
        actions = attach(actions_ref)
        expected = None if expected_ref is None else attach(expected_ref)
        expected_ok = attach(ok_ref)
    for t in range(n_interactions):
        shard.step(t, rewards, actions, expected, expected_ok)
    shard.finish(rewards, actions)
    shard.stacked.writeback()
    if result_refs is None:
        return pickle.dumps((rewards, actions, expected, expected_ok, agents, sessions))
    # results already live in the parent's matrices; ship only the
    # mutated population — attached arrays the sessions reference (a
    # dataset's row tables) collapse back into their descriptors
    from .shm import shm_dumps

    return shm_dumps((agents, sessions))


class FleetRunner:
    """Vectorized population simulator (see module docstring).

    Parameters
    ----------
    agents:
        Any population of fleet-capable agents.  Homogeneous
        populations run as a single shard (the PR-1 fast path);
        mixed policy kinds / hyperparameters / modes / codebook sizes
        shard automatically.
    sessions:
        One user session per agent, aligned by index.
    config:
        An :class:`~repro.experiments.runner.EngineConfig` carrying
        every engine knob at once (duck-typed; this module never
        imports :mod:`repro.experiments`).  Mutually exclusive with
        the individual kwargs below.  Its ``engine`` field is ignored
        (this class *is* the fleet engine); its ``sink`` becomes the
        default streaming target for :meth:`run`.
    n_workers:
        Shard-level parallelism (default 1 = serial).  Shards are
        fully independent, so ``n_workers > 1`` runs each shard's
        whole horizon concurrently — results are identical to serial
        stepping (shard order is unobservable;
        ``tests/sim/test_parallel.py`` pins it).  Only populations
        with more than one shard can benefit from threads.
    worker_backend:
        ``"thread"`` (default) or ``"process"`` — see
        :data:`WORKER_BACKENDS`.  Choosing ``"process"`` is always
        honored (even with ``n_workers=1`` or a single shard), so its
        semantics never silently vary.  The process backend requires a
        picklable population and, as it must ship mutated state back,
        *rebinds the component objects* of each agent/session (the
        ``LocalAgent`` and session objects keep their identity, but
        e.g. ``agent.policy`` becomes a state-equal replacement); hold
        references through the agent, not to its parts.
    plan_chunk_size:
        Materialize session plans in horizon slices of this many steps
        instead of all at once (default ``None`` = the whole horizon) —
        bounds dense traced-plan memory at ``O(n_agents x chunk)``.
        Any chunk size produces bit-identical results (the plan
        contract makes slice-by-slice planning exact; participation
        windows straddle chunk boundaries through a short history
        tail), and a chunk size ``>= n_interactions`` *is* the
        unchunked path.  Only affects plan-capable shards.
    plan_form:
        Traced-plan representation, one of :data:`PLAN_FORMS`
        (default ``"auto"``: shared-row-table gathers whenever every
        session of a shard walks the same per-dataset
        :class:`~repro.data.environment.TraceRowTable`, per-agent
        tables otherwise).  All forms are bit-identical; the knob
        exists so benches and tests can pin a form.
    exactness:
        Contract tier, one of :data:`EXACTNESS_TIERS` (default
        ``"bit"``: every result bit-identical to the sequential loop,
        today's behavior).  ``"fast"`` trades bit-identity for memory:
        policy kinds with a fast stacker (currently ``code_linucb``)
        hold float32 sparse state — trajectories are *statistically*
        equivalent to the bit tier (``tests/sim/test_exactness.py``
        pins tolerance bands), not bitwise; kinds without one run
        their bit stacker unchanged, so ``"fast"`` degenerates to
        ``"bit"`` for them.
    persistent:
        Keep each shard's stacked state warm between :meth:`run` calls
        (default ``False`` = restack per run, the historical
        behavior).  Reuse is bitwise-identical to restacking —
        ``writeback`` leaves stacked arrays equal to the policy
        objects — and is the backbone of streaming deployments
        (:class:`~repro.experiments.serve.FleetService`): repeated
        short runs skip the O(population) restack.  Population churn
        (:meth:`add_agents` / :meth:`remove_agents`) restacks only the
        affected shards; mutating a policy *outside* the fleet (e.g.
        ``warm_start``) requires :meth:`invalidate`.
    fault_policy:
        A :class:`FaultPolicy` enabling worker supervision: failed
        shard horizons are retried from a pre-attempt state snapshot
        (bitwise-invisible when a retry succeeds), dead worker
        processes are respawned, and exhausted shards either raise
        :class:`~repro.utils.exceptions.WorkerError` or degrade out
        (``on_exhausted="skip_shard"``).  ``None`` (default) keeps the
        historical fail-fast path — unless a fault plan is armed, in
        which case a forgiving default policy switches supervision on
        (the chaos knob must never turn a passing run into a crash).
    fault_plan:
        A :class:`~repro.sim.faults.FaultPlan` (or its spec string)
        injecting deterministic faults into this runner's shard steps —
        the test-facing twin of the process-wide ``REPRO_FAULTS`` env
        knob, which applies when this is ``None``.
    """

    def __init__(
        self,
        agents: Sequence[LocalAgent],
        sessions: Sequence[UserSession],
        *,
        config=None,
        n_workers: int = 1,
        worker_backend: str = "thread",
        plan_chunk_size: int | None = None,
        plan_form: str = "auto",
        exactness: str = "bit",
        kernel_block_size: int | None = None,
        persistent: bool = False,
        fault_policy: FaultPolicy | None = None,
        fault_plan: "FaultPlan | str | None" = None,
    ) -> None:
        if config is not None:
            # an EngineConfig (duck-typed: sim must not import
            # experiments) — it already carries every engine field, so
            # mixing it with explicit kwargs would leave precedence
            # ambiguous; its `engine` field is moot here (this *is* the
            # fleet engine) and `sink` stays per-run (see run()).
            if (
                n_workers != 1
                or worker_backend != "thread"
                or plan_chunk_size is not None
                or plan_form != "auto"
                or exactness != "bit"
                or kernel_block_size is not None
                or fault_policy is not None
            ):
                raise ConfigError(
                    "pass engine settings either via config= or as individual "
                    "kwargs, not both (the EngineConfig already carries them)"
                )
            n_workers = config.n_workers
            worker_backend = config.worker_backend
            plan_chunk_size = config.plan_chunk_size
            plan_form = config.plan_form
            exactness = config.exactness
            kernel_block_size = getattr(config, "kernel_block_size", None)
            fault_policy = getattr(config, "fault_policy", None)
            self._config_sink = getattr(config, "sink", None)
        else:
            self._config_sink = None
        self.agents = list(agents)
        self.sessions = list(sessions)
        self.n_workers = check_positive_int(n_workers, name="n_workers")
        if worker_backend not in WORKER_BACKENDS:
            raise ConfigError(
                f"worker_backend must be one of {WORKER_BACKENDS}, got {worker_backend!r}"
            )
        self.worker_backend = worker_backend
        if plan_chunk_size is not None:
            plan_chunk_size = check_positive_int(plan_chunk_size, name="plan_chunk_size")
        self.plan_chunk_size = plan_chunk_size
        if plan_form not in PLAN_FORMS:
            raise ConfigError(f"plan_form must be one of {PLAN_FORMS}, got {plan_form!r}")
        self.plan_form = plan_form
        if exactness not in EXACTNESS_TIERS:
            raise ConfigError(
                f"exactness must be one of {EXACTNESS_TIERS}, got {exactness!r}"
            )
        self.exactness = exactness
        if kernel_block_size is not None:
            kernel_block_size = check_positive_int(
                kernel_block_size, name="kernel_block_size"
            )
        self.kernel_block_size = kernel_block_size
        self.persistent = bool(persistent)
        if fault_policy is not None and not isinstance(fault_policy, FaultPolicy):
            raise ConfigError(
                f"fault_policy must be a FaultPolicy or None, got {fault_policy!r}"
            )
        self.fault_policy = fault_policy
        if isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise ConfigError(
                f"fault_plan must be a FaultPlan, a spec string, or None, "
                f"got {fault_plan!r}"
            )
        self.fault_plan = fault_plan
        # set by resume(): the loaded checkpoint resume_run() continues
        self._resume_ckpt = None
        self._resume_path = None
        if len(self.agents) != len(self.sessions):
            raise ConfigError(
                f"agents ({len(self.agents)}) and sessions ({len(self.sessions)}) "
                "must align one-to-one"
            )
        # partition eagerly so unsupported populations fail at
        # construction, not mid-run; an empty population partitions
        # into zero shards and runs to an empty result.  The dict is
        # insertion-ordered by first appearance — churn appends to /
        # filters these lists instead of re-partitioning everything.
        self._groups: dict[tuple, list[int]] = {}
        for i, agent in enumerate(self.agents):
            self._groups.setdefault(_checked_shard_key(agent, i), []).append(i)
        # persistent mode keeps each shard's stacked state warm between
        # runs, keyed like _groups; entries drop whenever membership
        # changes (see add_agents/remove_agents/invalidate)
        self._shards: dict[tuple, _Shard] = {}

    @property
    def _shard_index_groups(self) -> list[np.ndarray]:
        """Shard membership as index arrays (ordered by first appearance)."""
        return [np.asarray(idx, dtype=np.intp) for idx in self._groups.values()]

    @property
    def n_shards(self) -> int:
        """Number of stacked states this population partitions into."""
        return len(self._groups)

    # ------------------------------------------------------------------ #
    # population churn
    def add_agents(
        self, agents: Sequence[LocalAgent], sessions: Sequence[UserSession]
    ) -> None:
        """Enroll ``agents`` mid-deployment (incremental re-sharding).

        Only the shards the newcomers land in restack on the next run;
        every untouched shard keeps its cached stacked state (in
        persistent mode) and is never rebuilt.  Surviving agents keep
        their objects — and therefore their ``spawn_seeds`` RNG
        streams — untouched.
        """
        agents = list(agents)
        sessions = list(sessions)
        if len(agents) != len(sessions):
            raise ConfigError(
                f"agents ({len(agents)}) and sessions ({len(sessions)}) "
                "must align one-to-one"
            )
        base = len(self.agents)
        for off, agent in enumerate(agents):
            key = _checked_shard_key(agent, base + off)
            self._groups.setdefault(key, []).append(base + off)
            self._shards.pop(key, None)  # membership changed: restack
        self.agents.extend(agents)
        self.sessions.extend(sessions)

    def remove_agents(self, agents: Sequence[LocalAgent]) -> None:
        """Retire ``agents`` mid-deployment (incremental re-sharding).

        Accepts agent objects (matched by identity) or integer
        population indices.  Shards losing members restack on the next
        run; untouched shards keep their stacked state.  Departing
        agents keep any unsent outbox reports — drain them before (or
        after) removal; the shuffler's async buffer holds whatever was
        already collected.
        """
        doomed: set[int] = set()
        by_id = {id(a): i for i, a in enumerate(self.agents)}
        for a in agents:
            if isinstance(a, (int, np.integer)):
                i = int(a)
                if not 0 <= i < len(self.agents):
                    raise ConfigError(
                        f"agent index {i} out of range (population size "
                        f"{len(self.agents)})"
                    )
            else:
                i = by_id.get(id(a))
                if i is None:
                    raise ConfigError(
                        f"agent {getattr(a, 'agent_id', a)!r} is not in this "
                        "fleet's population"
                    )
            doomed.add(i)
        if not doomed:
            return
        old_to_new: dict[int, int] = {}
        keep_agents, keep_sessions = [], []
        for i, (agent, session) in enumerate(zip(self.agents, self.sessions)):
            if i in doomed:
                continue
            old_to_new[i] = len(keep_agents)
            keep_agents.append(agent)
            keep_sessions.append(session)
        new_groups: dict[tuple, list[int]] = {}
        for key, members in self._groups.items():
            survivors = [old_to_new[i] for i in members if i not in doomed]
            if len(survivors) != len(members):
                self._shards.pop(key, None)  # membership changed: restack
            if survivors:
                new_groups[key] = survivors
        self.agents = keep_agents
        self.sessions = keep_sessions
        self._groups = new_groups

    def invalidate(self) -> None:
        """Drop every cached shard (persistent mode).

        Required after mutating any agent's policy *outside* the fleet
        (e.g. ``warm_start``): cached stacked state would no longer
        mirror the policy objects.  Churn and runs handle their own
        cache consistency; this is the escape hatch for external
        mutation.
        """
        self._shards.clear()

    # ------------------------------------------------------------------ #
    def _shard_for(
        self, key: tuple, members: list[int], rows: list[int] | None = None
    ) -> _Shard:
        """The shard for one group — cached in persistent mode.

        A cached shard is reused only when its member agent list is
        *identity*-equal to the current one (same objects, same order);
        reuse then skips ``stack_policies`` entirely, which is bitwise
        safe because ``writeback`` leaves the stacked arrays equal to
        the policy state and ``prepare`` resets all per-run state.
        Global indices may have shifted under churn, so they (and the
        session bindings) are refreshed on every run.  ``rows``
        overrides the result-matrix rows the shard writes (subset runs
        write at subset-local positions, not global indices).
        """
        idx = np.asarray(members if rows is None else rows, dtype=np.intp)
        agents = [self.agents[i] for i in members]
        sessions = [self.sessions[i] for i in members]
        shard = self._shards.get(key) if self.persistent else None
        if (
            shard is not None
            and len(shard.agents) == len(agents)
            and all(a is b for a, b in zip(shard.agents, agents))
        ):
            shard.indices = idx
            shard.sessions = sessions
            return shard
        shard = _Shard(
            idx,
            agents,
            sessions,
            plan_chunk_size=self.plan_chunk_size,
            plan_form=self.plan_form,
            exactness=self.exactness,
            kernel_block_size=self.kernel_block_size,
        )
        if self.persistent:
            self._shards[key] = shard
        return shard

    def _build_shard(
        self, key: tuple | None, members: list[int], rows: list[int]
    ) -> _Shard:
        """Materialize the shard of one execution spec.

        Specs with a key are full shard groups (cache-eligible); a
        ``None`` key marks a partial-shard subset run, which always
        builds an ephemeral shard (cached stacked state belongs to the
        full membership).
        """
        if key is not None:
            return self._shard_for(key, members, rows=rows)
        return _Shard(
            np.asarray(rows, dtype=np.intp),
            [self.agents[i] for i in members],
            [self.sessions[i] for i in members],
            plan_chunk_size=self.plan_chunk_size,
            plan_form=self.plan_form,
            exactness=self.exactness,
            kernel_block_size=self.kernel_block_size,
        )

    def _result_window(self, n_interactions: int) -> int:
        """Ring width for streaming runs: every lookback fits.

        The columnar reporting pipeline reads at most ``window - 1``
        steps behind the current interaction (report samples and
        ``finish``'s buffer rebuild), so a ring of ``max(window)``
        columns — plus one for slack, capped at the horizon — retains
        every step a later read can touch.
        """
        windows = [
            int(a.participation.window)
            for a in self.agents
            if a.participation is not None
        ]
        return min(max(windows, default=1) + 1, n_interactions)

    def _empty_result(
        self, n_interactions: int, *, track_expected: bool, sink
    ) -> FleetResult | None:
        """The empty-population result, matching the sequential engine.

        Zero agents (or zero shards) must not reach a worker pool —
        ``max_workers=0`` raises ``ValueError`` — and produce the same
        ``(0, T)`` shapes the sequential loop's ``np.stack`` of zero
        rows would.
        """
        if sink is not None:
            sink.begin(0, n_interactions)
            sink.finish()
            return None
        return FleetResult(
            rewards=np.empty((0, n_interactions), dtype=np.float64),
            actions=np.empty((0, n_interactions), dtype=np.intp),
            expected=(
                np.empty((0, n_interactions), dtype=np.float64)
                if track_expected
                else None
            ),
            expected_mask=np.zeros(0, dtype=bool),
        )

    # ------------------------------------------------------------------ #
    # fault supervision plumbing
    def _active_fault_plan(self) -> FaultPlan | None:
        """This run's fault plan: the explicit one, else the env knob."""
        if self.fault_plan is not None:
            return self.fault_plan
        return active_plan()

    def _effective_fault_policy(self, plan: FaultPlan | None) -> FaultPolicy | None:
        """The supervision policy for this run (``None`` = fail-fast).

        An armed fault plan without an explicit policy gets a default
        forgiving policy: the chaos env knob must *harden* runs, never
        turn a passing suite into a crashing one.
        """
        if self.fault_policy is not None:
            return self.fault_policy
        if plan is not None:
            return FaultPolicy(max_retries=3, backoff=0.0)
        return None

    def _full_specs(self) -> list[tuple]:
        """One execution spec per shard: ``(key, members, rows)``.

        ``members`` are global population indices; ``rows`` the result-
        matrix rows they write (identical for whole-population runs,
        subset-local positions for :meth:`run_subset`).
        """
        return [(key, members, members) for key, members in self._groups.items()]

    def run(
        self,
        n_interactions: int,
        *,
        track_expected: bool = False,
        sink=None,
        checkpoint_every: int | None = None,
        checkpoint_path=None,
        checkpoint_context: bytes | None = None,
    ) -> FleetResult | None:
        """Run ``n_interactions`` rounds over the whole population.

        Side effects match the sequential loop exactly: policies learn
        (state is written back into each agent's policy object),
        participation budgets advance, and outboxes fill with the same
        reports carrying the same metadata.

        ``sink`` (a :class:`~repro.experiments.results.ResultSink`)
        streams per-round result columns instead of materializing the
        ``(n_agents, T)`` matrices — the engine then holds only a small
        column ring (participation's lookback window) and returns
        ``None``; curve-only callers drop the O(n x T) result memory
        entirely.  Emitted values are exactly the matrix entries;
        columns arrive in any order across shards (each carries its
        shard's row indices).  One caveat: a sink receives each
        agent's ``expected_ok`` flag as of the emitting round — for
        every built-in session the flag is fixed before round 0, but a
        custom session whose ``expected_rewards`` starts raising
        mid-run would be masked only from that round on, where the
        matrix path retroactively masks the whole row.

        ``checkpoint_every`` + ``checkpoint_path`` make the run
        restartable: the horizon executes in segments of that many
        rounds, and after each segment a versioned snapshot — the
        pickled population (policy state, RNG streams, participation
        counters, pending outboxes) plus the partial result matrices —
        is written atomically to ``checkpoint_path``.  A run killed
        mid-horizon continues via :meth:`resume`/:meth:`resume_run`
        with results **bit-identical** to the uninterrupted run
        (segmented execution is exact by the plan contract; the
        fast exactness tier is bit-identical to an uninterrupted run
        using the same checkpoint cadence).  ``checkpoint_context``
        is an opaque caller blob stored alongside (``run_setting``
        keeps its collection phase there).  Checkpointing composes
        with supervision but not with a ``sink``.
        """
        n_interactions = check_positive_int(n_interactions, name="n_interactions")
        if sink is None:
            sink = self._config_sink
        if checkpoint_every is not None or checkpoint_path is not None:
            if checkpoint_path is None:
                raise ConfigError(
                    "checkpoint_every without checkpoint_path: tell the run "
                    "where to write its snapshots"
                )
            if sink is not None:
                raise ConfigError(
                    "checkpointing materializes the partial result matrices "
                    "and cannot stream into a sink; drop the sink or the "
                    "checkpointing"
                )
            every = (
                n_interactions
                if checkpoint_every is None
                else check_positive_int(checkpoint_every, name="checkpoint_every")
            )
            return self._run_checkpointed(
                n_interactions,
                track_expected=track_expected,
                every=min(every, n_interactions),
                path=checkpoint_path,
                context=checkpoint_context,
                prefix=None,
            )
        return self._dispatch(
            self._full_specs(),
            len(self.agents),
            n_interactions,
            track_expected=track_expected,
            sink=sink,
        )

    def run_subset(
        self,
        subset: Sequence,
        n_interactions: int,
        *,
        track_expected: bool = False,
    ) -> FleetResult:
        """Run ``n_interactions`` rounds over only ``subset`` of the fleet.

        ``subset`` holds agent objects (matched by identity) or integer
        population indices; the result matrices have one row per subset
        member, in subset order.  Subsets covering a whole shard reuse
        its cached stacked state (persistent mode) — the point of
        serving interleaved cohort requests off one warm fleet — while
        partial-shard members run on an ephemeral stack and invalidate
        their shard's cache (its stacked arrays no longer mirror the
        advanced policy objects).  Either way the outcome is
        bit-identical to building a fresh ``FleetRunner`` over just
        these agents and sessions: shard membership only determines
        *where* the math runs, never what any agent observes.
        """
        n_interactions = check_positive_int(n_interactions, name="n_interactions")
        idx: list[int] = []
        by_id = {id(a): i for i, a in enumerate(self.agents)}
        for a in subset:
            if isinstance(a, (int, np.integer)):
                i = int(a)
                if not 0 <= i < len(self.agents):
                    raise ConfigError(
                        f"agent index {i} out of range (population size "
                        f"{len(self.agents)})"
                    )
            else:
                i = by_id.get(id(a))
                if i is None:
                    raise ConfigError(
                        f"agent {getattr(a, 'agent_id', a)!r} is not in this "
                        "fleet's population"
                    )
            idx.append(i)
        if len(set(idx)) != len(idx):
            raise ConfigError("run_subset members must be unique")
        if not idx:
            return self._empty_result(
                n_interactions, track_expected=track_expected, sink=None
            )
        rows_of = {g: r for r, g in enumerate(idx)}
        chosen_set = set(idx)
        specs: list[tuple] = []
        partial_keys: list[tuple] = []
        for key, members in self._groups.items():
            chosen = [i for i in members if i in chosen_set]
            if not chosen:
                continue
            full = len(chosen) == len(members)
            rows = [rows_of[i] for i in chosen]
            specs.append((key if full else None, chosen, rows))
            if not full:
                partial_keys.append(key)
        try:
            return self._dispatch(
                specs, len(idx), n_interactions,
                track_expected=track_expected, sink=None,
            )
        finally:
            # a partial-shard run advanced some of these shards' members
            # outside their cached stacked state — restack on next use
            for key in partial_keys:
                self._shards.pop(key, None)

    def _dispatch(
        self, specs: list[tuple], n_rows: int, n_interactions: int,
        *, track_expected: bool, sink,
    ) -> FleetResult | None:
        """Route execution specs to the configured backend."""
        if n_rows == 0 or not specs:
            return self._empty_result(
                n_interactions, track_expected=track_expected, sink=sink
            )
        # an explicit process request is always honored — regardless of
        # shard count or n_workers — so the documented process-backend
        # semantics (pickling requirements, component-object rebinding)
        # never silently vary with the population's shape
        if self.worker_backend == "process":
            return self._run_process(
                specs, n_rows, n_interactions,
                track_expected=track_expected, sink=sink,
            )
        return self._run_thread(
            specs, n_rows, n_interactions,
            track_expected=track_expected, sink=sink,
        )

    def _run_thread(
        self, specs: list[tuple], n_rows: int, n_interactions: int,
        *, track_expected: bool, sink,
    ) -> FleetResult | None:
        plan = self._active_fault_plan()
        policy = self._effective_fault_policy(plan)
        supervised = policy is not None
        # supervised runs defer any sink emission until a shard's whole
        # horizon has definitely succeeded (a retried horizon must never
        # double-emit), so they keep full-width matrices even when
        # streaming — supervision costs the ring's memory saving
        width = (
            n_interactions
            if (sink is None or supervised)
            else self._result_window(n_interactions)
        )
        result_window = None if (sink is None or supervised) else width

        rewards = np.empty((n_rows, width), dtype=np.float64)
        actions_mat = np.empty((n_rows, width), dtype=np.intp)
        expected = np.empty((n_rows, width), dtype=np.float64) if track_expected else None
        expected_ok = np.full(n_rows, track_expected, dtype=bool)

        if sink is not None:
            sink.begin(n_rows, n_interactions)
            import threading

            sink_lock = threading.Lock()

            def emit(rows: np.ndarray, t: int) -> None:
                # fancy indexing copies, so the sink never aliases the ring
                tc = t if result_window is None else t % width
                exp = None if expected is None else expected[rows, tc]
                with sink_lock:
                    sink.emit(t, rows, rewards[rows, tc], exp, expected_ok[rows])

        dropped: list[DroppedShard] = []
        if supervised:
            def run_spec(si: int, spec: tuple) -> DroppedShard | None:
                key, members, rows = spec
                return self._run_shard_supervised(
                    si, key, members, rows, n_interactions,
                    track_expected=track_expected, policy=policy, plan=plan,
                    rewards=rewards, actions_mat=actions_mat,
                    expected=expected, expected_ok=expected_ok,
                )

            n_workers = min(self.n_workers, len(specs))
            if n_workers > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=n_workers) as pool:
                    futures = [
                        pool.submit(run_spec, si, spec)
                        for si, spec in enumerate(specs)
                    ]
                    outcomes = [f.result() for f in futures]
            else:
                outcomes = [run_spec(si, spec) for si, spec in enumerate(specs)]
            for (key, members, rows), outcome in zip(specs, outcomes):
                if outcome is not None:
                    dropped.append(outcome)
                elif sink is not None:
                    rows_np = np.asarray(rows, dtype=np.intp)
                    for t in range(n_interactions):
                        emit(rows_np, t)
        else:
            shards = [self._build_shard(*spec) for spec in specs]
            n_workers = min(self.n_workers, len(shards))
            if n_workers > 1:
                # shards never interact — round-major interleaving across
                # shards is purely cosmetic (streams are per-agent) — so
                # each shard's *whole horizon*, plan materialization
                # included, runs as one task: no per-round barrier, no
                # per-round submit overhead; all writes land at the
                # shard's disjoint agent rows
                from concurrent.futures import ThreadPoolExecutor

                def run_shard(shard: _Shard) -> None:
                    shard.prepare(
                        n_interactions,
                        track_expected=track_expected,
                        result_window=result_window,
                    )
                    for t in range(n_interactions):
                        shard.step(t, rewards, actions_mat, expected, expected_ok)
                        if sink is not None:
                            emit(shard.indices, t)
                    shard.finish(rewards, actions_mat)

                with ThreadPoolExecutor(max_workers=n_workers) as pool:
                    for future in [pool.submit(run_shard, shard) for shard in shards]:
                        future.result()
            else:
                for shard in shards:
                    shard.prepare(
                        n_interactions,
                        track_expected=track_expected,
                        result_window=result_window,
                    )
                for t in range(n_interactions):
                    for shard in shards:
                        shard.step(t, rewards, actions_mat, expected, expected_ok)
                        if sink is not None:
                            emit(shard.indices, t)
                for shard in shards:
                    shard.finish(rewards, actions_mat)

            for shard in shards:
                shard.stacked.writeback()

        if sink is not None:
            sink.finish()
            return None
        return FleetResult(
            rewards=rewards,
            actions=actions_mat,
            expected=expected,
            expected_mask=expected_ok,
            dropped=tuple(dropped),
        )

    def _run_shard_supervised(
        self, si: int, key: tuple | None, members: list[int], rows: list[int],
        n_interactions: int, *, track_expected: bool,
        policy: FaultPolicy, plan: FaultPlan | None,
        rewards: np.ndarray, actions_mat: np.ndarray,
        expected: np.ndarray | None, expected_ok: np.ndarray,
    ) -> DroppedShard | None:
        """One shard's whole horizon under retry supervision (thread path).

        Before each attempt the shard's agents and sessions are held as
        a pickle snapshot; a failure restores them (``_adopt`` keeps the
        caller-visible object identities) and replays the whole horizon.
        The pickle round-trip preserves every RNG stream bit-exactly and
        shard horizons are deterministic given that state, so a
        successful retry is bitwise indistinguishable from a run that
        never failed.  Partial result-matrix writes of a failed attempt
        are fully overwritten by the replay (or NaN-filled by a skip).
        Returns ``None`` on success, a :class:`DroppedShard` when the
        policy degrades the shard out after exhaustion.
        """
        rows_np = np.asarray(rows, dtype=np.intp)
        agents = [self.agents[i] for i in members]
        sessions = [self.sessions[i] for i in members]
        try:
            snapshot = pickle.dumps((agents, sessions))
        except Exception as exc:  # pickle errors vary by payload
            if self.fault_policy is not None:
                raise ConfigError(
                    "fault-tolerant execution snapshots shard state by "
                    f"pickling, which this population does not support ({exc});"
                    " drop the FaultPolicy or make the population picklable"
                ) from exc
            # implicit supervision (the chaos env knob armed a plan, the
            # caller asked for nothing): an unsnapshotable shard cannot
            # be retried, so it runs clean and unsupervised — the knob
            # must harden runs, never turn a passing one into a crash
            shard = self._build_shard(key, members, rows)
            shard.prepare(n_interactions, track_expected=track_expected)
            for t in range(n_interactions):
                shard.step(t, rewards, actions_mat, expected, expected_ok)
            shard.finish(rewards, actions_mat)
            shard.stacked.writeback()
            return None
        attempt = 0
        while True:
            shard = self._build_shard(key, members, rows)
            if plan is not None:
                shard.arm_faults(plan, si, attempt)
            try:
                shard.prepare(n_interactions, track_expected=track_expected)
                for t in range(n_interactions):
                    shard.step(t, rewards, actions_mat, expected, expected_ok)
                shard.finish(rewards, actions_mat)
                shard.stacked.writeback()
                shard.arm_faults(None)
                return None
            except Exception as exc:
                shard.arm_faults(None)
                # restore the canonical objects to their pre-run state
                # (same object identities, adopted state) and drop any
                # cached stacked view of the failed attempt
                s_agents, s_sessions = pickle.loads(snapshot)
                for i, a, s in zip(members, s_agents, s_sessions):
                    self._adopt(self.agents[i], a)
                    self._adopt(self.sessions[i], s)
                if key is not None:
                    self._shards.pop(key, None)
                attempt += 1
                if attempt > policy.max_retries:
                    if policy.on_exhausted == "skip_shard":
                        rewards[rows_np] = np.nan
                        actions_mat[rows_np] = -1
                        if expected is not None:
                            expected[rows_np] = np.nan
                        expected_ok[rows_np] = False
                        return DroppedShard(
                            shard=si,
                            n_agents=len(members),
                            agent_ids=tuple(a.agent_id for a in agents),
                            attempts=attempt,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    raise WorkerError(
                        f"shard {si} ({len(members)} agents) failed on all "
                        f"{attempt} attempts (max_retries="
                        f"{policy.max_retries}): {type(exc).__name__}: {exc}; "
                        "the shard's agents were restored to their last good "
                        "state — retry with a higher budget or use "
                        "on_exhausted='skip_shard' to degrade instead"
                    ) from exc
                if policy.backoff:
                    time.sleep(policy.sleep_for(attempt - 1))

    # ------------------------------------------------------------------ #
    def _run_process(
        self, specs: list[tuple], n_rows: int, n_interactions: int,
        *, track_expected: bool, sink=None,
    ) -> FleetResult | None:
        """Process-pool escape hatch: one whole-horizon task per shard.

        Shards never interact, so instead of a per-round barrier each
        worker runs its shard start to finish and returns the mutated
        population; the parent merges result rows and adopts the state
        back into the caller-visible objects.  With a ``sink`` the
        parent never materializes the global matrices — each returned
        shard's columns are emitted then dropped (the workers still
        build per-shard matrices; the streaming saving here is the
        parent-side O(n x T), not the workers').

        Supervision is simpler here than on the thread path: workers
        mutate *copies*, so the parent's objects stay good until a
        shard's result is adopted — a failed shard just resubmits its
        immutable payload.  A dead worker process poisons its whole
        ``ProcessPoolExecutor`` (every in-flight future raises
        ``BrokenProcessPool``); the supervisor replaces the executor
        once per round of failures and the poisoned victims retry from
        their payloads.  Without a policy, failures propagate as-is
        (the historical fail-fast behavior).

        On platforms with POSIX shared memory (and unless disabled via
        ``REPRO_NO_SHM``) the matrices workers write and the per-dataset
        row tables they read live in :mod:`repro.sim.shm` blocks:
        payloads carry descriptors plus each shard's global row
        indices, workers write results in place, and the return trip
        is only the mutated population.  Blocks are created here and
        unlinked here — exactly once, normal exit, degraded exit or
        crash alike.  Results are bit-identical on either protocol.
        """
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        from .shm import ShmPool, shm_dumps, shm_enabled, shm_loads

        plan = self._active_fault_plan()
        policy = self._effective_fault_policy(plan)
        spec_str = None if plan is None else plan.to_spec()

        # workers ship back state-equal *replacement* component objects
        # (_adopt rebinds agent.policy etc.), so any cached shard's
        # stacked references would go stale — drop them
        for key, _, _ in specs:
            if key is not None:
                self._shards.pop(key, None)

        shm_pool: ShmPool | None = ShmPool() if shm_enabled() else None
        try:
            return self._run_process_inner(
                specs, n_rows, n_interactions,
                track_expected=track_expected, sink=sink,
                shm_pool=shm_pool, spec_str=spec_str, policy=policy,
                executor_cls=ProcessPoolExecutor,
                broken_pool_exc=BrokenProcessPool,
                dumps=shm_dumps, loads=shm_loads,
            )
        finally:
            if shm_pool is not None:
                shm_pool.close()

    def _run_process_inner(
        self, specs: list[tuple], n_rows: int, n_interactions: int,
        *, track_expected: bool, sink, shm_pool, spec_str, policy,
        executor_cls, broken_pool_exc, dumps, loads,
    ) -> FleetResult | None:
        """Body of :meth:`_run_process` (split out so the shared-memory
        pool's unlink-exactly-once ``finally`` wraps everything)."""
        # global result matrices in shared memory: workers write their
        # shard's rows directly, the thread backend's memory model.
        # Streaming runs keep the legacy per-shard return protocol (the
        # parent-side saving there is *not* materializing O(n x T)).
        shm_results = None
        if shm_pool is not None and sink is None:
            try:
                shm_results = (
                    shm_pool.empty((n_rows, n_interactions), np.float64),
                    shm_pool.empty((n_rows, n_interactions), np.intp),
                    shm_pool.empty((n_rows, n_interactions), np.float64)
                    if track_expected
                    else None,
                    shm_pool.empty((n_rows,), np.bool_),
                )
                shm_results[3][:] = track_expected
            except OSError:  # /dev/shm full or restricted: fall back
                shm_results = None
        if shm_pool is not None:
            # mirror each dataset's shared row tables once — every
            # session over that dataset then ships a descriptor instead
            # of the tables' bytes (the tables alias dataset storage,
            # so this also dedupes the dataset arrays themselves)
            for _, members, _ in specs:
                for i in members:
                    session = self.sessions[i]
                    if not getattr(session, "has_indexed_trace_plan", False):
                        continue
                    try:
                        table = session.trace_row_table()
                        shm_pool.share(table.contexts)
                        shm_pool.share(table.action_rewards)
                        if table.expected is not None:
                            shm_pool.share(table.expected)
                    except OSError:  # /dev/shm full: pickle by value
                        break

        result_refs = None
        if shm_results is not None:
            rewards_g, actions_g, expected_g, ok_g = shm_results
            result_refs = (
                shm_pool.ref_for(rewards_g),
                shm_pool.ref_for(actions_g),
                None if expected_g is None else shm_pool.ref_for(expected_g),
                shm_pool.ref_for(ok_g),
            )

        payloads = []
        for _, members, rows in specs:
            try:
                payloads.append(
                    dumps(
                        (
                            [self.agents[i] for i in members],
                            [self.sessions[i] for i in members],
                            n_interactions,
                            track_expected,
                            self.plan_chunk_size,
                            self.plan_form,
                            self.exactness,
                            self.kernel_block_size,
                            result_refs,
                            np.asarray(rows, dtype=np.intp),
                        ),
                        shm_pool,
                    )
                )
            except Exception as exc:  # pickle errors vary by payload
                raise ConfigError(
                    "worker_backend='process' requires a picklable population "
                    f"(pickling a shard failed: {exc}); use the thread backend"
                ) from exc

        outputs: dict[int, tuple] = {}
        dropped: dict[int, DroppedShard] = {}
        attempts = [0] * len(specs)
        queue = list(range(len(specs)))
        n_workers = min(self.n_workers, len(payloads))
        pool = executor_cls(max_workers=n_workers)
        # after a pool breakage, fall back to one shard in flight at a
        # time: a dead worker poisons every pending future on the
        # executor with BrokenProcessPool, so in a batch round the
        # exception cannot be attributed to the shard that actually
        # crashed — collateral victims must not be charged retry budget
        # (a crashing sibling could otherwise exhaust an innocent
        # shard's retries, making drops racy).  Solo, a breakage is
        # unambiguously the running shard's own.
        solo = False
        try:
            while queue:
                batch, queue = (queue[:1], queue[1:]) if solo else (queue, [])
                futures = {
                    si: pool.submit(
                        _run_shard_remote,
                        payloads[si],
                        None
                        if spec_str is None
                        else (spec_str, si, attempts[si]),
                    )
                    for si in batch
                }
                pool_broken = False
                retry_wait = 0.0
                for si, future in futures.items():
                    try:
                        outputs[si] = loads(future.result(), shm_pool)
                        continue
                    except Exception as exc:
                        if policy is None:
                            raise  # fail-fast: the historical behavior
                        if isinstance(exc, broken_pool_exc):
                            pool_broken = True
                            if not solo:
                                # collateral damage: requeue uncharged;
                                # the solo rounds below identify and
                                # charge the real culprit
                                queue.append(si)
                                continue
                        failure = exc
                    attempts[si] += 1
                    members = specs[si][1]
                    if attempts[si] > policy.max_retries:
                        if policy.on_exhausted == "skip_shard":
                            dropped[si] = DroppedShard(
                                shard=si,
                                n_agents=len(members),
                                agent_ids=tuple(
                                    self.agents[i].agent_id for i in members
                                ),
                                attempts=attempts[si],
                                error=f"{type(failure).__name__}: {failure}",
                            )
                        else:
                            raise WorkerError(
                                f"shard {si} ({len(members)} agents) failed in "
                                f"a worker process on all {attempts[si]} "
                                f"attempts (max_retries={policy.max_retries}):"
                                f" {type(failure).__name__}: {failure}; the "
                                "parent's population is untouched (workers "
                                "mutate copies) — retry with a higher budget "
                                "or use on_exhausted='skip_shard'"
                            ) from failure
                    else:
                        queue.append(si)
                        retry_wait = max(
                            retry_wait, policy.sleep_for(attempts[si] - 1)
                        )
                if pool_broken:
                    # a dead worker poisons the whole executor — replace
                    # it and switch to solo submission for the rest of
                    # the run; queued shards rerun from their immutable
                    # payloads (charged shards with the incremented
                    # attempt number), and the fresh workers re-attach
                    # any shared blocks by name: the parent has not
                    # unlinked them yet
                    solo = True
                    pool.shutdown(wait=True, cancel_futures=True)
                    pool = executor_cls(max_workers=n_workers)
                if queue and retry_wait:
                    time.sleep(retry_wait)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

        if sink is None:
            if shm_results is not None:
                rewards, actions_mat, expected, expected_ok = shm_results
            else:
                rewards = np.empty((n_rows, n_interactions), dtype=np.float64)
                actions_mat = np.empty((n_rows, n_interactions), dtype=np.intp)
                expected = (
                    np.empty((n_rows, n_interactions), dtype=np.float64)
                    if track_expected
                    else None
                )
                expected_ok = np.full(n_rows, track_expected, dtype=bool)
        else:
            sink.begin(n_rows, n_interactions)

        for si, (key, members, rows) in enumerate(specs):
            rows_np = np.asarray(rows, dtype=np.intp)
            if si in dropped:
                if sink is None:
                    rewards[rows_np] = np.nan
                    actions_mat[rows_np] = -1
                    if expected is not None:
                        expected[rows_np] = np.nan
                    expected_ok[rows_np] = False
                continue
            if shm_results is not None:
                # results already landed at this shard's rows in the
                # shared matrices; only the population came back
                s_agents, s_sessions = outputs[si]
            else:
                s_rewards, s_actions, s_expected, s_ok, s_agents, s_sessions = (
                    outputs[si]
                )
                if sink is None:
                    rewards[rows_np] = s_rewards
                    actions_mat[rows_np] = s_actions
                    if expected is not None and s_expected is not None:
                        expected[rows_np] = s_expected
                    expected_ok[rows_np] = s_ok
                else:
                    for t in range(n_interactions):
                        sink.emit(
                            t,
                            rows_np,
                            s_rewards[:, t],
                            None if s_expected is None else s_expected[:, t],
                            s_ok,
                        )
            for i, agent, session in zip(members, s_agents, s_sessions):
                self._adopt(self.agents[i], agent)
                self._adopt(self.sessions[i], session)
        if sink is not None:
            sink.finish()
            return None
        if shm_results is not None:
            # copy out of the blocks before the caller's finally unlinks
            # them — the returned result must outlive the pool
            rewards = np.array(rewards)
            actions_mat = np.array(actions_mat)
            expected = None if expected is None else np.array(expected)
            expected_ok = np.array(expected_ok)
        return FleetResult(
            rewards=rewards,
            actions=actions_mat,
            expected=expected,
            expected_mask=expected_ok,
            dropped=tuple(dropped[si] for si in sorted(dropped)),
        )

    # ------------------------------------------------------------------ #
    # checkpoint / resume
    def _engine_dict(self) -> dict:
        """The engine knobs a checkpoint must restore to replay exactly."""
        return {
            "n_workers": self.n_workers,
            "worker_backend": self.worker_backend,
            "plan_chunk_size": self.plan_chunk_size,
            "plan_form": self.plan_form,
            "exactness": self.exactness,
            "kernel_block_size": self.kernel_block_size,
            "persistent": self.persistent,
        }

    def checkpoint(
        self,
        path,
        *,
        completed: int = 0,
        n_interactions: int = 0,
        track_expected: bool = False,
        rewards: np.ndarray | None = None,
        actions: np.ndarray | None = None,
        expected: np.ndarray | None = None,
        expected_ok: np.ndarray | None = None,
        checkpoint_every: int | None = None,
        context: bytes | None = None,
        dropped: Sequence = (),
    ) -> None:
        """Write a versioned on-disk snapshot of this fleet to ``path``.

        The snapshot carries the pickled population — every agent with
        its policy state, RNG streams, participation counters and
        pending report outbox, and every session with its walk cursors —
        plus this runner's engine knobs and, for an in-flight run, the
        partial result matrices and progress cursor.  Writes are atomic
        (temp file + ``os.replace``), so a crash mid-write leaves the
        previous snapshot intact.  :meth:`run` calls this automatically
        at ``checkpoint_every`` boundaries; calling it directly gives a
        resumable between-runs snapshot (``completed=0``).
        """
        from .checkpoint import FleetCheckpoint, save_checkpoint

        n = len(self.agents)
        try:
            population = pickle.dumps((self.agents, self.sessions))
        except Exception as exc:  # pickle errors vary by payload
            raise CheckpointError(
                "checkpointing pickles the population, which failed: "
                f"{exc}; every built-in agent/session is picklable"
            ) from exc
        save_checkpoint(
            path,
            FleetCheckpoint(
                completed=int(completed),
                n_interactions=int(n_interactions or completed),
                track_expected=bool(track_expected),
                rewards=(
                    np.empty((n, 0), dtype=np.float64) if rewards is None else rewards
                ),
                actions=(
                    np.empty((n, 0), dtype=np.intp) if actions is None else actions
                ),
                expected=expected,
                expected_ok=(
                    np.zeros(n, dtype=bool) if expected_ok is None else expected_ok
                ),
                population=population,
                engine=self._engine_dict(),
                checkpoint_every=checkpoint_every,
                context=context,
                dropped=tuple(dropped),
            ),
        )

    @classmethod
    def resume(
        cls,
        path,
        *,
        fault_policy: FaultPolicy | None = None,
        fault_plan: "FaultPlan | str | None" = None,
    ) -> "FleetRunner":
        """Rebuild a fleet from a snapshot written by :meth:`checkpoint`.

        The returned runner holds the unpickled population (identical
        RNG streams, counters, outboxes) under the engine knobs the
        snapshot was taken with; when the snapshot was mid-run,
        :meth:`resume_run` finishes that run bit-identically to the
        uninterrupted one.  Supervision knobs are per-process, not part
        of the snapshot — pass them here if the resumed run should be
        supervised too.
        """
        from .checkpoint import load_checkpoint

        ckpt = load_checkpoint(path)
        try:
            agents, sessions = pickle.loads(ckpt.population)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint {str(path)!r} holds an unreadable population "
                f"pickle: {exc}"
            ) from exc
        engine = dict(ckpt.engine)
        runner = cls(
            agents,
            sessions,
            n_workers=int(engine.get("n_workers", 1)),
            worker_backend=engine.get("worker_backend", "thread"),
            plan_chunk_size=engine.get("plan_chunk_size"),
            plan_form=engine.get("plan_form", "auto"),
            exactness=engine.get("exactness", "bit"),
            kernel_block_size=engine.get("kernel_block_size"),
            persistent=bool(engine.get("persistent", False)),
            fault_policy=fault_policy,
            fault_plan=fault_plan,
        )
        runner._resume_ckpt = ckpt
        runner._resume_path = path
        return runner

    @property
    def resume_context(self) -> bytes | None:
        """The caller context blob of the loaded snapshot (after :meth:`resume`)."""
        return None if self._resume_ckpt is None else self._resume_ckpt.context

    def resume_run(
        self,
        *,
        checkpoint_path=None,
        checkpoint_every: int | None = None,
    ) -> FleetResult:
        """Finish the in-flight run this fleet was :meth:`resume`-d from.

        Runs the remaining ``n_interactions - completed`` rounds —
        continuing to checkpoint at the snapshot's cadence (overridable
        here) — and returns the *full-horizon* result: the snapshot's
        completed columns concatenated with the freshly run ones,
        bit-identical to the run that was never interrupted.
        """
        ckpt = self._resume_ckpt
        if ckpt is None:
            raise CheckpointError(
                "resume_run() needs a runner built by FleetRunner.resume(path) "
                "whose run has not been finished yet"
            )
        self._resume_ckpt = None
        path = self._resume_path if checkpoint_path is None else checkpoint_path
        every = ckpt.checkpoint_every if checkpoint_every is None else checkpoint_every
        remaining = ckpt.n_interactions - ckpt.completed
        if remaining <= 0:
            return FleetResult(
                rewards=ckpt.rewards,
                actions=ckpt.actions,
                expected=ckpt.expected,
                expected_mask=ckpt.expected_ok,
                dropped=ckpt.dropped,
            )
        return self._run_checkpointed(
            ckpt.n_interactions,
            track_expected=ckpt.track_expected,
            every=min(every or remaining, remaining),
            path=path,
            context=ckpt.context,
            prefix=ckpt,
        )

    def _run_checkpointed(
        self, n_total: int, *, track_expected: bool, every: int,
        path, context: bytes | None, prefix,
    ) -> FleetResult:
        """Execute a horizon in ``every``-round segments, snapshotting each.

        Segmented execution composes bit-identically with one full run —
        the plan contract makes slice-by-slice planning exact, and
        ``finish`` leaves agents in the sequential state at every
        boundary (the segmented-composition property ``tests/sim`` pins)
        — so the concatenated columns equal the uninterrupted run's.
        ``prefix`` (a loaded ``FleetCheckpoint``) seeds completed
        columns when resuming; ``expected_mask`` is ANDed across
        segments, matching the matrix path's whole-row masking.
        """
        completed = 0 if prefix is None else int(prefix.completed)
        parts_r = [] if prefix is None else [prefix.rewards]
        parts_a = [] if prefix is None else [prefix.actions]
        parts_e = (
            [] if prefix is None or prefix.expected is None else [prefix.expected]
        )
        ok = None if prefix is None else np.asarray(prefix.expected_ok, dtype=bool)
        dropped = [] if prefix is None else list(prefix.dropped)
        while completed < n_total:
            seg = min(every, n_total - completed)
            res = self._dispatch(
                self._full_specs(),
                len(self.agents),
                seg,
                track_expected=track_expected,
                sink=None,
            )
            parts_r.append(res.rewards)
            parts_a.append(res.actions)
            if res.expected is not None:
                parts_e.append(res.expected)
            ok = res.expected_mask if ok is None else (ok & res.expected_mask)
            dropped.extend(res.dropped)
            completed += seg
            rewards = np.concatenate(parts_r, axis=1)
            actions = np.concatenate(parts_a, axis=1)
            expected = np.concatenate(parts_e, axis=1) if parts_e else None
            self.checkpoint(
                path,
                completed=completed,
                n_interactions=n_total,
                track_expected=track_expected,
                rewards=rewards,
                actions=actions,
                expected=expected,
                expected_ok=ok,
                checkpoint_every=every,
                context=context,
                dropped=dropped,
            )
        return FleetResult(
            rewards=rewards,
            actions=actions,
            expected=expected,
            expected_mask=ok,
            dropped=tuple(dropped),
        )

    @staticmethod
    def _adopt(mine, theirs) -> None:
        """Adopt a worker-mutated object's state into the caller's object.

        Keeps the caller-visible object identity (the ``LocalAgent`` /
        session instances the caller constructed) while taking every
        attribute — policy state, outbox, participation budget, walk
        cursors, generator state — from the worker's copy.  Component
        objects hanging off the adopted one (``agent.policy``, a
        session's dataset reference) are *rebound* to the worker's
        copies; that is the documented process-backend caveat.
        """
        mine.__dict__.clear()
        mine.__dict__.update(theirs.__dict__)

    # ------------------------------------------------------------------ #
    def drain_outboxes(self) -> list[EncodedReport | RawReport]:
        """Drain every agent's outbox, in agent order (the batched send).

        Equivalent to concatenating per-agent
        :meth:`~repro.core.agent.LocalAgent.drain_outbox` calls — same
        reports, same metadata, same order — which ``tests/sim`` pins
        through the shuffler.
        """
        reports: list[EncodedReport | RawReport] = []
        for agent in self.agents:
            reports.extend(agent.drain_outbox())
        return reports
