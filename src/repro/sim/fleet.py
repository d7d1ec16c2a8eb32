"""The vectorized fleet engine: simulate an agent population per round.

:class:`FleetRunner` drives ``n`` ``(LocalAgent, UserSession)`` pairs
on stacked arrays (:mod:`repro.sim.stacked`).  Agents are partitioned
into **shards** by :func:`shard_key` — (mode, private-context, codebook
size, policy kind and hyperparameters) — and each shard steps its
agents round-major on its own stacked state: every agent of the shard
performs interaction ``t`` before any performs ``t + 1``.  Because
every agent owns independent RNG streams (policy, participation,
session), round-major stepping consumes each stream in exactly the
order the sequential agent-major loop does, so the two engines are
interchangeable; ``tests/sim/`` pins the equivalence bit-for-bit.

Execution is **shard-major**: one function, :func:`_run_shard_horizon`,
runs a shard's whole horizon (prepare, ``step`` x T, finish,
writeback), and the runner maps it over the shards — serially or on a
thread pool.  Shards share no RNG stream and
no mutable state, so shard order (like agent order) is unobservable: a
mixed LinUCB + Thompson + epsilon-greedy population, warm-private and
cold side by side, produces bit-identical actions, rewards, policy
states and reports to the sequential loop.

Plan fast paths
---------------

Per-round session calls vanish entirely for shards whose sessions can
pre-materialize their horizon (capability flags on
:class:`~repro.data.environment.UserSession`):

* ``has_reward_plan`` — synthetic sessions, stationary or drifting,
  pre-realize reward noise (:class:`~repro.data.environment.RewardPlan`)
  in one ``plan_rewards(T)`` call per session: a single segment, or one
  per drift epoch, the session walking its own boundaries inside the
  call.  The shard holds an ``(S, d)`` / ``(S, A)`` segment table of
  contexts and means — the means from one batched ``mean_rewards``
  call per environment, never one per boundary — one ``(n, T)`` noise
  block and an ``(n, T)`` step-to-segment walk; rewards become one
  gather + clip per round, and warm-private shards encode the segments
  in one ``encode_batch`` call per encoder (a segment continuing an
  agent's cached context is not re-encoded);
* ``has_trace_plan`` — dataset-replay sessions (multilabel, Criteo)
  walk rows of a per-dataset
  :class:`~repro.data.environment.TraceRowTable`.  The shard holds one
  ``(n, T)`` row-index walk and gathers contexts, rewards, expected
  rewards — and, warm-private, codes and centroid representations —
  through row tables that exist once per dataset, not once per agent.
  A shard whose sessions walk several datasets gathers through one
  shard-private concatenation of their tables (each agent's walk
  offset into its dataset's block; the gathered values are the same).
  Each distinct row is encoded at most once per encoder, however many
  agents and steps visit it.

A shard mixing plan-capable and plan-less sessions falls back to the
generic per-round session loop — still bit-identical, just slower.

Each run plans its whole horizon once, before its first step.
Planning a horizon in consecutive slices is exact by the plan contract
(it consumes session streams identically to one full plan), which is
what makes consecutive ``run`` calls on one held fleet equal one
longer sequential horizon.  Either ``(n, T)``
walk plus its tables regenerates any past step, so report gathers and
``finish``'s buffer rebuild need no history tail.

What stays per-agent Python (all O(1) per agent per round):

* session calls (``next_context`` / ``reward``) on *unplanned* shards —
  environments are arbitrary stateful objects with their own
  generators;
* randomness (tie-breaks, epsilon coins, posterior draws) — batching
  draws across agents would reorder streams;
* participation offers and outbox appends on *unplanned* shards —
  routed through :meth:`~repro.core.agent.LocalAgent.record_interaction`,
  the same method the sequential path uses (and which encodes each
  report's context, one agent at a time).  Plan-capable shards —
  stationary, drifting and traced — instead record **columnar**:
  window/budget masks advance through
  :class:`~repro.core.participation.StackedParticipation` (only the
  coin and within-window draws stay per-agent, from each agent's own
  stream), and report payloads are gathered through the walk — codes
  from the plan-time batch encodings, actions/rewards from the result
  matrices — into a per-shard :class:`~repro.core.payload.ReportLog`;
  agent outboxes reference their rows and materialize objects only if
  the object API is touched.  The one scalar encode left is a report
  sampling an item buffered before its run.

Acting-time encoding is never per-agent Python: encoders are
deterministic (the ``eps_bar = 0`` premise), so re-encoding an
unchanged context is pure waste.  Each shard caches the last context
and code of every agent in arrays, and encodes only what that cache
misses in one :meth:`Encoder.encode_batch` call per encoder (row-exact
by contract; centroids come from the equally row-exact
``decode_batch``).  Stationary shards encode at plan time: each new
segment once, so fixed-preference populations (the paper's synthetic
benchmark) encode once per agent total and drifting ones once per
epoch.  *Traced* shards batch-encode each newly visited row at plan
time; the generic path finds its stale agents with one vectorized
comparison per round.

Everything O(d²)–O(k·d²) — scoring, Cholesky refreshes,
Sherman–Morrison updates — runs as stacked kernel calls, one set per
shard per round.

Parallel shard stepping
-----------------------

Shards share no mutable state — disjoint agents, disjoint result rows,
per-agent RNG/session/outbox — and they never synchronize, so a
serial run is a plain ``map`` of :func:`_run_shard_horizon` over
the shards and ``EngineConfig(n_workers=k)`` makes it a thread-pool map
of the same function (no per-round barrier or submit overhead; the
einsum kernels release the GIL, so compute-bound shards overlap).
Threads are the only parallel backend: every shard mutates the
caller's own agent and session objects in place.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.agent import LocalAgent
from ..core.config import AgentMode
from ..core.participation import StackedParticipation
from ..core.payload import EncodedReport, RawReport, ReportLog
from ..data.environment import RewardPlan, TraceRowTable, UserSession
from ..utils.exceptions import CheckpointError, ConfigError, WorkerError
from ..utils.validation import check_positive_int
from .faults import FaultPlan, active_plan
from .stacked import EXACTNESS_TIERS, stack_policies

__all__ = [
    "FleetRunner",
    "FleetResult",
    "EngineConfig",
    "ENGINES",
    "FaultPolicy",
    "DroppedShard",
    "fleet_supported",
    "shard_key",
    "shard_indices",
    "aggregate_plan_nbytes",
    "EXACTNESS_TIERS",
]


@dataclass(frozen=True)
class FaultPolicy:
    """How the fleet supervises failing shard work.

    When a shard's horizon raises, the supervisor restores the shard's
    agents and sessions from the snapshot taken before the attempt and
    replays the whole horizon.
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


#: recognized simulation engines: ``sequential`` is the reference
#: per-agent loop, ``fleet`` this vectorized sharded population engine
#: (heterogeneous populations partition into one stacked state per
#: policy/mode configuration), ``auto`` picks fleet whenever every
#: agent's policy supports it (bit-identical by the sim contract) and
#: falls back otherwise.
ENGINES = ("auto", "sequential", "fleet")


@dataclass(frozen=True)
class EngineConfig:
    """One immutable bundle of every simulation-engine knob.

    The single place engine knobs are set: build one ``EngineConfig``
    and hand it to any entry point — ``FleetRunner(config=cfg)``,
    ``DeploymentLoop(engine=cfg)``,
    :func:`~repro.experiments.runner.run_setting` /
    :func:`~repro.experiments.runner.compare_settings` / the sweeps
    (``engine=cfg``), ``FleetService(engine=cfg)`` — or install it
    process-wide with
    :func:`~repro.experiments.runner.set_default_config` / scoped with
    :func:`~repro.experiments.runner.use_config`.  The defaults
    reproduce the reference behavior exactly, and validation happens at
    construction, so an ``EngineConfig`` in hand is known-good.

    Parameters
    ----------
    engine:
        One of :data:`ENGINES` (default ``"auto"``).  Fleet and
        sequential produce bit-identical results whenever both run (the
        :mod:`repro.sim` contract).  :class:`FleetRunner` ignores it —
        it *is* the fleet engine.
    n_workers:
        Shard-level parallelism (default 1 = serial).  Shards are fully
        independent, so ``n_workers > 1`` runs each shard's whole
        horizon concurrently on a thread pool — results are identical
        to serial stepping (shard order is unobservable).  Only
        populations with more than one shard can benefit.
    exactness:
        Contract tier, one of :data:`EXACTNESS_TIERS` (default
        ``"bit"``: bit-identical to the sequential loop).  ``"fast"``
        holds memory-lean policy state for kinds with a fast stacker
        (``code_linucb`` and ``linucb``) and lets curve-only callers
        stream results — statistically, not bitwise, equivalent; kinds
        without a fast stacker (``lin_ts``, ``epsilon_greedy``,
        ``ucb1``) run bitwise as under ``"bit"``.  Sequential runs
        ignore the tier: they are the bit reference by definition.
    sink:
        A per-run streaming target (a
        :class:`~repro.experiments.results.ResultSink`), meaningful
        only for fleet runs; entry points that run several settings
        reject it (a shared sink would interleave them).
    fault_policy:
        A :class:`FaultPolicy` supervising fleet shard execution: a
        failed shard is retried from its last good state with
        exponential backoff, and exhausted retries either raise a
        :class:`~repro.utils.exceptions.WorkerError` or degrade the run
        by skipping the shard (``on_exhausted="skip_shard"``).  ``None``
        (the default) keeps the fail-fast path unless a fault plan is
        armed (see :class:`FleetRunner`).
    sweep_workers:
        Parallelism one level *above* the engine: entry points that run
        several independent settings —
        :func:`~repro.experiments.runner.compare_settings` and the
        sweeps built on it — fan them across worker processes through
        :class:`~repro.experiments.parallel.ParallelMap` (results
        ordered deterministically, bit-identical to the serial loop).
        It requires picklable workloads (module-level env factories,
        not closures) and composes with ``n_workers``.
    """

    engine: str = "auto"
    n_workers: int = 1
    exactness: str = "bit"
    sink: object | None = None
    fault_policy: FaultPolicy | None = None
    sweep_workers: int = 1

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        check_positive_int(self.n_workers, name="n_workers")
        check_positive_int(self.sweep_workers, name="sweep_workers")
        if self.exactness not in EXACTNESS_TIERS:
            raise ConfigError(
                f"exactness must be one of {EXACTNESS_TIERS}, got {self.exactness!r}"
            )
        if self.fault_policy is not None and not isinstance(
            self.fault_policy, FaultPolicy
        ):
            raise ConfigError(
                f"fault_policy must be a FaultPolicy or None, "
                f"got {self.fault_policy!r}"
            )

    def replace(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (validated like a fresh one)."""
        return dataclasses.replace(self, **changes)

    def __setstate__(self, state: dict) -> None:
        # checkpoints pickle the EngineConfig into their context blob;
        # a snapshot written before a field existed (sweep_workers
        # postdates the checkpoint format) must still restore — missing
        # fields take their defaults — and keys of retired knobs
        # (the plan form, the worker backend, the kernel block size,
        # the plan chunk size) are dropped
        for f in dataclasses.fields(self):
            value = state.get(f.name, f.default)
            if value is not dataclasses.MISSING:
                self.__dict__[f.name] = value


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


def _action_dtype(n_arms: int) -> np.dtype:
    """Dtype of a result action matrix: arms ``[0, n_arms)`` plus ``-1``.

    Actions are small integers, so ``int8`` holds them for up to 128
    arms — an eighth of an ``intp`` matrix for every result a caller
    keeps.
    """
    return np.min_scalar_type(-n_arms)


@dataclass(frozen=True)
class FleetResult:
    """Per-(agent, interaction) outcome matrices of one fleet run.

    ``dropped`` is non-empty only for supervised runs that degraded
    shards out (``FaultPolicy(on_exhausted="skip_shard")``); those
    agents' rows hold ``NaN`` rewards / ``-1`` actions and their
    ``expected_mask`` entries are ``False``.
    """

    rewards: np.ndarray  #: realized rewards, shape (n_agents, T)
    #: chosen actions, shape (n_agents, T), in the narrowest signed
    #: integer dtype holding every arm index and the -1 of dropped rows
    actions: np.ndarray
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
    materialization: an ``(n, T)`` walk into a segment table of
    reward plans (one segment per stationary stretch: per session, or
    per drift epoch) or into the sessions' row tables (traced).  Each
    session plans the whole run horizon in one call.
    ``step`` writes outcomes into the *global* result matrices at this
    shard's agent indices.
    """

    def __init__(
        self,
        indices: np.ndarray,
        agents: list[LocalAgent],
        sessions: list[UserSession],
        *,
        exactness: str = "bit",
    ) -> None:
        self.indices = indices
        self.agents = agents
        self.sessions = sessions
        self.n = len(agents)
        self.mode = agents[0].mode
        self.private_context = agents[0].private_context
        self._exactness = exactness
        self.stacked = stack_policies([a.policy for a in agents], exactness=exactness)
        self._rows = np.arange(self.n)
        # each agent's last context and its encoding (warm-private
        # only) — survive restacks and runs: encoders are deterministic,
        # and _encode_contexts validates each row against the context
        # at hand; the (n, d) arrays are allocated on first use
        self._cache_valid = np.zeros(self.n, dtype=bool)
        self._cached_ctx: np.ndarray | None = None
        self._cached_code = np.empty(self.n, dtype=np.intp)
        self._cached_rep: np.ndarray | None = None
        # deterministic encoder-group caches (survive restacks and runs)
        self._enc_groups: list[np.ndarray] | None = None
        self._agent_group: np.ndarray | None = None
        # traced shards: the row table the walk indexes and its per-row
        # encoding tables.  Both persist while the sessions walk the same
        # source tables (held by reference, compared with ``is`` — the
        # id() of a freed concatenation could be reused by the next), so
        # each row is encoded at most once per encoder across a held
        # shard's whole lifetime
        self._row_sources: tuple[TraceRowTable, ...] = ()
        self._row_table: TraceRowTable | None = None
        self._row_codes: np.ndarray | None = None  # (groups, n_rows) intp
        self._row_reps: np.ndarray | None = None  # (groups, n_rows, d)
        self._row_encoded: np.ndarray | None = None  # (groups, n_rows) bool
        # raw contexts, allocated on the first generic-path round
        self._X: np.ndarray | None = None
        # armed fault injection (chaos harness): set per attempt by the
        # supervisor via arm_faults; deliberately NOT cleared by
        # _reset_run_state — arming outlives prepare()
        self._faults: FaultPlan | None = None
        self._fault_shard = 0
        self._fault_attempt = 0
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Clear every per-run field (a held shard runs many times).

        Deterministic caches — stacked policy state, acting-encoding
        caches, encoder groups, row tables and their per-row code
        tables — survive; plan materializations (walks, segment tables,
        noise) and the columnar-recording state are strictly per-run and
        reset here
        (``prepare`` calls this first and ``writeback`` last, so a
        reused shard can never see a previous run's plan path or
        recording buffers, nor hold them between runs).
        """
        # what the stack holds besides run progress: "written" — the
        # state its last writeback handed the policies; "loaded" — a
        # warm-start snapshot the policies take at this run's writeback;
        # None — neither (mid-run, or after a failed run)
        self._sync: str | None = None
        # when streaming into a ResultSink the result matrices are a
        # ring of this many columns (covering every lookback the
        # reporting pipeline performs); None = full-horizon matrices
        self._colmod: int | None = None
        # which plan fast path this shard runs on (None = generic loop)
        self._plan_path: str | None = None
        # the full-horizon (n, T) walk: row-table indices on traced
        # shards, segment-table indices on stationary ones
        self._walk: np.ndarray | None = None
        # stationary-plan segment table (has_reward_plan shards): one
        # row per stationary stretch of one session — its context,
        # mean rewards and (warm-private) code and acting
        # representation — plus the (n, T) reward-noise block
        self._seg_ctx: np.ndarray | None = None  # (S, d)
        self._seg_means: np.ndarray | None = None  # (S, A)
        self._seg_code: np.ndarray | None = None  # (S,) intp
        self._seg_acting: np.ndarray | None = None
        self._plan_noise: np.ndarray | None = None  # (n, T)
        # traced shards: each agent's offset into a concatenated table
        # (None when the shard walks one dataset's table), and the
        # expected channel
        self._row_offset: np.ndarray | None = None  # (n,) intp
        self._trace_expected_ok: np.ndarray | None = None
        self._trace_expected_is_rewards = False
        # columnar reporting state (plan-capable shards only)
        self._horizon = 0
        self._base_inter: np.ndarray | None = None
        self._reward_acc: np.ndarray | None = None
        self._part: StackedParticipation | None = None
        self._log: ReportLog | None = None
        self._pre_buffers: list[list] | None = None

    # ------------------------------------------------------------------ #
    # stacked policy state (the reuse rule is documented on FleetRunner)
    def writeback(self) -> None:
        """Hand the stacked state to the policies and end the run.

        The stack copies into output buffers it keeps for its lifetime
        (:meth:`~repro.sim.stacked.StackedPolicies._writeback_rows`):
        each policy holds one row of each, decoupled from the stack, and
        later writebacks refill the same buffers in place.  Per-run
        buffers are released (a held shard carries none between runs).
        """
        self.stacked.writeback()
        self._reset_run_state()
        self._sync = "written"

    def mirrors_policies(self) -> bool:
        """Whether the stack still holds exactly its agents' policy state.

        Valid only from a writeback until the next prepare or load, and
        only while every member still holds its stacked policy object,
        that policy's ``t`` equals the stacked one, and it holds the
        very rows the writeback handed it (compared by identity).
        """
        if self._sync != "written":
            return False
        stacked = self.stacked
        held = list(stacked.held_rows.items())
        for i, (agent, policy, t) in enumerate(
            zip(self.agents, stacked.policies, stacked.t.tolist())
        ):
            if agent.policy is not policy or policy.t != t:
                return False
            for name, rows in held:
                if getattr(policy, name, None) is not rows[i]:
                    return False
        return True

    def load_state(self, state) -> bool:
        """Load a warm-start snapshot into a stack that mirrors its policies.

        The stacked equivalent of every member calling
        ``LocalAgent.warm_start(state)``: the policies take it at this
        run's writeback.  False (nothing changed) when the stack does not
        mirror its policies or cannot load ``state``.
        """
        if not (self.mirrors_policies() and self.stacked.load_state(state)):
            return False
        self._sync = "loaded"
        return True

    def reusable(self) -> bool:
        """Whether the next run may step the held stack without restacking."""
        return self._sync == "loaded" or self.mirrors_policies()

    def restack(self) -> None:
        """Rebuild only the stacked policy state from the policies.

        The old stack is released first so peak memory never holds two;
        encoder groups, acting encodings and row tables are kept.
        """
        self.stacked = None
        self._sync = None
        self.stacked = stack_policies([a.policy for a in self.agents], exactness=self._exactness)

    def arm_faults(
        self, plan: FaultPlan | None, shard_index: int = 0, attempt: int = 0
    ) -> None:
        """Arm (or, with ``None``, disarm) deterministic fault injection.

        While armed, every :meth:`step` first asks ``plan`` whether a
        fault fires at ``(shard_index, t, attempt)`` — the supervisor
        re-arms with the new attempt number on each retry, so a fault
        scheduled for attempt 0 does not re-fire on the replay.
        """
        self._faults = plan
        self._fault_shard = int(shard_index)
        self._fault_attempt = int(attempt)

    # ------------------------------------------------------------------ #
    def prepare(
        self,
        n_interactions: int,
        *,
        result_window: int | None = None,
    ) -> None:
        """Pick the plan fast path, plan the whole horizon, record columnar.

        Capability *flags* decide the path (never method-identity
        probing, which silently kicked plan-inheriting subclasses off
        the fast path, and never try/except, which could consume a
        session's stream on failure).  Either plan is one ``(n, T)``
        walk — into the per-run segment table of stationary and
        drifting sessions, or into the traced row tables — so the
        per-round session loops and the per-agent reporting loop both
        collapse into gathers through it.  The plan contract (pinned by
        ``tests/sim``) makes this exact, and pre-realizing one shard
        before another is unobservable because session streams are
        per-agent.  Shards mixing plan-capable and plan-less sessions
        take the generic per-round path.
        """
        self._reset_run_state()
        self._colmod = result_window
        self._horizon = n_interactions
        if all(s.has_reward_plan for s in self.sessions):
            self._plan_path = "stationary"
            self._plan_segments(n_interactions)
        elif all(s.has_trace_plan for s in self.sessions):
            self._plan_path = "traced"
            self._plan_trace(n_interactions)
        else:
            return
        self._init_batch_recording()

    def _bind_row_table(self) -> None:
        """Bind the row table this shard's walks index into.

        Sessions over one dataset share its
        :class:`~repro.data.environment.TraceRowTable` by identity
        (probing it consumes no randomness).  When the shard's sessions
        walk several tables, the shard gathers through one private
        concatenation of them in first-appearance order, and each
        agent's walk is offset to its table's block — the gathered
        floats are the same values, so results stay bit-identical.
        """
        tables = [s.trace_row_table() for s in self.sessions]
        first: dict[int, int] = {}  # id(table) -> position in sources
        sources: list[TraceRowTable] = []
        for table in tables:
            if first.setdefault(id(table), len(sources)) == len(sources):
                sources.append(table)
        which = np.array([first[id(t)] for t in tables], dtype=np.intp)
        if len(sources) != len(self._row_sources) or not all(
            a is b for a, b in zip(sources, self._row_sources)
        ):
            # new sources: rebuild the table and drop its code tables
            self._row_sources = tuple(sources)
            self._row_table = (
                sources[0] if len(sources) == 1 else _concat_row_tables(sources)
            )
            self._row_codes = self._row_reps = self._row_encoded = None
        if len(sources) > 1:
            starts = np.cumsum([0] + [t.n_rows for t in sources[:-1]])
            self._row_offset = starts[which].astype(np.intp)
        self._trace_expected_ok = np.array(
            [sources[k].expected is not None for k in which], dtype=bool
        )
        table = self._row_table
        self._trace_expected_is_rewards = table.expected is table.action_rewards

    def _encoder_groups(self) -> list[np.ndarray]:
        """Shard-local agent indices grouped by encoder object (cached).

        Shards only guarantee equal codebook *size*, so batch encodings
        group agents by the encoder they actually hold; stationary
        segments, traced rows and the generic path's refreshes all
        reuse this one grouping (``_agent_group`` maps agent -> group).
        """
        if self._enc_groups is None:
            groups: dict[int, list[int]] = {}
            for j in range(self.n):
                groups.setdefault(id(self.agents[j].encoder), []).append(j)
            self._enc_groups = [np.asarray(m, dtype=np.intp) for m in groups.values()]
            self._agent_group = np.empty(self.n, dtype=np.intp)
            for g, members in enumerate(self._enc_groups):
                self._agent_group[members] = g
        return self._enc_groups

    def _init_row_encodings(self) -> None:
        """Allocate the per-row code tables (warm-private only).

        Each encoder group owns one ``(n_rows,)`` code table (plus a
        centroid table when acting on centroids) filled lazily by
        :meth:`_encode_new_rows` as walks visit rows.
        """
        if self.mode != AgentMode.WARM_PRIVATE:
            return
        if self._row_codes is not None:
            return  # same source tables: rows already encoded stay encoded
        shape = (len(self._encoder_groups()), self._row_table.n_rows)
        self._row_codes = np.zeros(shape, dtype=np.intp)
        self._row_encoded = np.zeros(shape, dtype=bool)
        if self.private_context == "centroid":
            d = self._row_table.contexts.shape[1]
            self._row_reps = np.zeros((*shape, d), dtype=np.float64)

    def _plan_trace(self, horizon: int) -> None:
        """Plan a traced shard: one row-index walk for the whole horizon.

        The per-agent half of a traced plan is one row index per step;
        everything else lives in the row tables.  Each newly visited
        row is encoded here, so acting and report payloads are pure
        gathers.
        """
        self._bind_row_table()
        self._init_row_encodings()
        self._walk = np.stack([s.plan_trace_indexed(horizon).rows for s in self.sessions])
        if self._row_offset is not None:
            self._walk += self._row_offset[:, None]
        if self.mode == AgentMode.WARM_PRIVATE:
            self._encode_new_rows(self._walk)

    def _plan_segments(self, horizon: int) -> None:
        """Plan a reward-plan shard: one ``plan_rewards(horizon)`` per session.

        A stationary session plans one segment; a drifting one walks
        its own boundaries inside the call and plans a segment per
        epoch the run touches, in the draw order of the step loop
        (``tests/data/test_drift.py`` pins this).  Planning per session
        is exact by the plan contract: every session draws from its own
        generator.

        The noise lands in one ``(n, T)`` block; the segment contexts in
        one ``(S, d)`` table, which the ``(n, T)`` walk indexes per agent
        and step; and the ``(S, A)`` means come from one batched
        ``mean_rewards`` call per distinct reward model (environment).
        """
        plans = [s.plan_rewards(horizon) for s in self.sessions]
        self._plan_noise = np.stack([p.noise for p in plans])
        counts = np.array([p.lengths.shape[0] for p in plans], dtype=np.intp)
        self._seg_ctx = np.concatenate([p.contexts for p in plans])
        n_seg = self._seg_ctx.shape[0]
        if n_seg == self.n:  # one segment per session: a zero-copy walk
            self._walk = np.broadcast_to(self._rows[:, None], (self.n, horizon))
        else:
            lengths = np.concatenate([p.lengths for p in plans])
            self._walk = np.repeat(np.arange(n_seg), lengths).reshape(self.n, horizon)
        self._seg_means = self._segment_means(plans, counts)
        if self.mode != AgentMode.WARM_PRIVATE:
            self._seg_acting = self._seg_ctx
            return
        self._seg_code, self._seg_acting = self._encode_contexts(
            self._seg_ctx, np.repeat(self._rows, counts), np.cumsum(counts) - 1
        )

    def _segment_means(self, plans: list[RewardPlan], counts: np.ndarray) -> np.ndarray:
        """The ``(S, A)`` means of every segment, one call per reward model.

        ``mean_rewards`` rows are bitwise the per-context result (the
        :class:`~repro.data.environment.RewardModel` contract), so
        batching moves no reward.
        """
        ctx = self._seg_ctx
        means = None
        for model in {id(p.model): p.model for p in plans}.values():
            rows = np.repeat([p.model is model for p in plans], counts)
            part = model.mean_rewards(ctx[rows])
            if means is None:
                means = np.empty((ctx.shape[0], part.shape[1]), dtype=part.dtype)
            means[rows] = part
        return means

    def _encode_contexts(
        self, ctx: np.ndarray, owner: np.ndarray, last: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Codes and acting representation of contexts ``ctx`` (warm-private).

        Row ``s`` belongs to shard-local agent ``owner[s]``, and
        ``last[j]`` is agent ``j``'s latest row.  Encoders are
        deterministic — the ``eps_bar = 0`` premise — so a row equal to
        its agent's cached context reuses the cached encoding exactly;
        the rest are encoded in one :meth:`Encoder.encode_batch` call
        per encoder group (row-exact against scalar ``encode`` by
        contract; centroids through the equally row-exact
        ``decode_batch``).  The cache then holds each agent's latest
        row, which the next run (or round) most likely repeats.
        """
        if self._cached_ctx is None:
            self._cached_ctx = np.empty((self.n, ctx.shape[1]), dtype=np.float64)
            if self.private_context == "centroid":
                self._cached_rep = np.empty_like(self._cached_ctx)
        codes = np.empty(len(ctx), dtype=np.intp)
        reps = None if self._cached_rep is None else np.empty_like(ctx)
        hit = self._cache_valid[owner] & (ctx == self._cached_ctx[owner]).all(axis=1)
        codes[hit] = self._cached_code[owner[hit]]
        if reps is not None:
            reps[hit] = self._cached_rep[owner[hit]]
        groups = self._encoder_groups()
        seg_group = self._agent_group[owner]
        for g, members in enumerate(groups):
            miss = np.nonzero(~hit & (seg_group == g))[0]
            if miss.size == 0:
                continue
            encoder = self.agents[members[0]].encoder
            codes[miss] = encoder.encode_batch(ctx[miss])
            if reps is not None:
                reps[miss] = encoder.decode_batch(codes[miss])
        self._cached_ctx[:] = ctx[last]
        self._cached_code[:] = codes[last]
        if reps is not None:
            self._cached_rep[:] = reps[last]
        self._cache_valid[:] = True
        if self.stacked.wants_codes:
            return codes, codes
        if reps is not None:
            return codes, reps
        return codes, self.agents[0].encoder.one_hot_batch(codes)  # type: ignore[union-attr]

    def _encode_new_rows(self, walk_rows: np.ndarray) -> None:
        """Extend the per-row code tables to cover this walk's rows.

        Encoders are deterministic and ``encode_batch`` row-exact, so
        each distinct *dataset row* is encoded at most once per
        encoder — no matter how many agents, steps or runs visit it —
        and every later use (acting, report payloads) is a pure gather.
        """
        for g, members in enumerate(self._encoder_groups()):
            visited = np.unique(walk_rows[members])
            new = visited[~self._row_encoded[g, visited]]
            encoder = self.agents[members[0]].encoder
            codes = encoder.encode_batch(self._row_table.contexts[new])
            self._row_codes[g, new] = codes
            if self._row_reps is not None:
                self._row_reps[g, new] = encoder.decode_batch(codes)
            self._row_encoded[g, new] = True

    def _init_batch_recording(self) -> None:
        """Switch this shard's reporting pipeline to the columnar path.

        Plan-capable shards keep their whole context history in the
        walk and its tables — segments whose context may change at
        any drift boundary, or dataset rows — so the sampled window
        item of any report, and its plan-time code, is a pure gather
        through the walk.  The per-agent
        ``record_interaction`` loop is replaced by
        :class:`StackedParticipation` masks plus per-round appends into
        a :class:`~repro.core.payload.ReportLog` the agents' outboxes
        reference.  Counters (``n_interactions``, ``total_reward``)
        accumulate in shard arrays, written back by :meth:`finish` in
        the scalar accumulation order.
        """
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

    @property
    def stationary(self) -> bool:
        """This shard runs on pre-realized stationary reward plans."""
        return self._plan_path == "stationary"

    @property
    def traced(self) -> bool:
        """This shard runs on a row-table walk of replay sessions."""
        return self._plan_path == "traced"

    #: every traced shard gathers through a row table ("indexed")
    indexed = traced

    def _col(self, t):
        """Result-matrix column for global step ``t`` (scalar or array).

        Identity without a result ring; ``t % result_window`` with one.
        Only result-matrix reads/writes map through this — plan arrays
        always index by global step.
        """
        return t if self._colmod is None else t % self._colmod

    def plan_nbytes(self, *, seen: set[int] | None = None) -> dict[str, int]:
        """Bytes currently held by this shard's plan materialization.

        ``per_agent`` counts arrays scaling with the population (row
        walks and offsets, stationary noise, contexts and means);
        ``shared`` counts the traced row table and its per-row
        code/centroid tables, whose size is independent of the
        population.  The memory bench (``benchmarks/bench_memory.py``)
        records both.

        ``seen`` (a set of ``id(row_table)``) dedupes a shared row
        table across shards that gather through the *same* object —
        without it a multi-shard sum attributes those bytes once per
        shard.  :func:`aggregate_plan_nbytes` threads one ``seen``
        through a whole shard list.
        """
        arrays = [self._plan_noise, self._row_offset]
        if self._walk is not None and self._walk.strides[1]:  # broadcast walks hold no bytes
            arrays.append(self._walk)
        if self.stationary:
            # the acting table may alias the contexts or the codes
            arrays += [self._seg_ctx, self._seg_means, self._seg_code, self._seg_acting]
        held = {id(a): a for a in arrays if a is not None}
        per_agent = sum(a.nbytes for a in held.values())
        shared = 0
        if self.traced:
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
            self._faults.on_step(self._fault_shard, t, self._fault_attempt)
        tc = self._col(t)  # result-matrix column (ring when streaming)
        if self._walk is not None:
            # every gather goes through the walk: segment or row tables
            walk_t = self._walk[:, t]
            if self.stationary:
                acting = self._seg_acting[walk_t]
            else:
                acting = self._indexed_acting(walk_t)
        else:
            X = self._next_contexts()
            acting = self._refresh_acting(X)

        acts = self.stacked.select(acting)
        actions[self.indices, tc] = acts

        if self.stationary:
            # RewardPlan.realize, vectorized across agents for
            # one step: mean[a] + z, clipped — the same elementwise ops
            # as session.reward (a test pins the plan to the sequential
            # reward stream)
            means = self._seg_means[walk_t, acts]
            r = np.clip(means + self._plan_noise[:, t], 0.0, 1.0)
            rewards[self.indices, tc] = r
            if expected is not None:
                expected[self.indices, tc] = means
        elif self.traced:
            # IndexedTracePlan.realize, vectorized across agents for one
            # step: a gather through the row table's reward column —
            # replay rewards are deterministic
            r = self._row_table.action_rewards[walk_t, acts].astype(np.float64)
            rewards[self.indices, tc] = r
            if expected is not None:
                if t == 0:
                    expected_ok[self.indices] &= self._trace_expected_ok
                if self._trace_expected_is_rewards:
                    expected[self.indices, tc] = r
                elif self._row_table.expected is not None:
                    expected[self.indices, tc] = self._row_table.expected[walk_t, acts]
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
        if self._plan_path is not None:
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
        *gathered* through the walk — codes from the plan-time batch
        encodings (segment codes / per-row code tables), contexts from
        the segment or row table, sampled actions/rewards from the
        already filled result matrices — instead of re-encoded or
        re-built per report.
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
            payload = np.empty((rows.size, self._walk_contexts().shape[1]), dtype=np.float64)
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
        (rebuilt through the walk, so a later object-path round — or a
        drifting session's next epoch — continues identically).
        """
        if self._plan_path is None:
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

    def _indexed_acting(self, rows_t: np.ndarray) -> np.ndarray:
        """Acting representation for one step of a traced shard.

        Every form is a gather through the row tables — raw contexts
        from the row table, codes / centroid
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

    def _walk_contexts(self) -> np.ndarray:
        """The context table this shard's walk indexes."""
        return self._seg_ctx if self.stationary else self._row_table.contexts

    def _codes_at(self, agent_rows: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Plan-time codes of ``(shard-local agent, global step)`` pairs.

        Serves the columnar report-payload gathers through the full
        walk (any step): traced shards read the per-row code tables,
        stationary shards the segment codes.  Codes are never
        re-encoded on any path.
        """
        walked = self._walk[agent_rows, steps]
        if self.stationary:
            return self._seg_code[walked]
        return self._row_codes[self._agent_group[agent_rows], walked]

    def _contexts_at(self, agent_rows: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Raw contexts of ``(shard-local agent, global step)`` pairs.

        A gather through the walk; serves the raw report payloads and
        :meth:`finish`'s participation-buffer rebuild.
        """
        return self._walk_contexts()[self._walk[agent_rows, steps]]

    def _refresh_acting(self, X: np.ndarray) -> np.ndarray:
        """Acting representation for one generic-path round of contexts."""
        if self.mode != AgentMode.WARM_PRIVATE:
            return X
        return self._encode_contexts(X, self._rows, self._rows)[1]


def _concat_row_tables(tables: Sequence[TraceRowTable]) -> TraceRowTable:
    """One shard-private row table stacking ``tables`` in order.

    The expected channel keeps the row-table convention: aliased to the
    rewards when every source aliases it, ``None`` when no source has
    one, and otherwise zero rows where a source has none (those agents
    are masked out of the expected matrix).
    """
    rewards = np.concatenate([t.action_rewards for t in tables])
    if all(t.expected is t.action_rewards for t in tables):
        expected = rewards
    elif all(t.expected is None for t in tables):
        expected = None
    else:
        expected = np.concatenate(
            [
                np.zeros(t.action_rewards.shape) if t.expected is None else t.expected
                for t in tables
            ]
        )
    return TraceRowTable(
        contexts=np.concatenate([t.contexts for t in tables]),
        action_rewards=rewards,
        expected=expected,
    )


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


def _run_shard_horizon(
    shard: _Shard,
    n_interactions: int,
    rewards: np.ndarray,
    actions: np.ndarray,
    expected: np.ndarray | None,
    expected_ok: np.ndarray,
    *,
    result_window: int | None = None,
    emit=None,
) -> None:
    """Run one shard's whole horizon: prepare, step x T, finish, writeback.

    The one loop body — serial, thread-pool and supervised runs all
    call it.  Outcomes land in the given result matrices at the shard's
    rows; ``emit(rows, t)``, when given, streams each round's columns
    as soon as they are written.
    """
    shard.prepare(n_interactions, result_window=result_window)
    for t in range(n_interactions):
        shard.step(t, rewards, actions, expected, expected_ok)
        if emit is not None:
            emit(shard.indices, t)
    shard.finish(rewards, actions)
    shard.writeback()


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
        The :class:`EngineConfig` carrying every engine knob (default
        ``EngineConfig()``: serial, whole-horizon plans, bit tier, no
        supervision); its fields are documented there.  Its ``engine``
        field is ignored (this class *is* the fleet engine) and its
        ``sink`` becomes the default streaming target for :meth:`run`.
        With ``fault_policy=None`` an armed fault plan switches a
        forgiving default policy on (the chaos knob must never turn a
        passing run into a crash).
    fault_plan:
        A :class:`~repro.sim.faults.FaultPlan` (or its spec string)
        injecting deterministic faults into this runner's shard steps —
        the test-facing twin of the process-wide ``REPRO_FAULTS`` env
        knob, which applies when this is ``None``.

    Shard reuse
    -----------
    The runner holds each shard between runs, so repeated short runs
    (streaming deployments, multi-round loops) skip the O(population)
    restack.  One rule, checked when a run builds its shards, decides
    what is reused:

    * a changed member list — churn, or a :meth:`run_subset` covering
      part of a shard — builds a new shard;
    * otherwise the held stacked state is reused only if, for every
      member, ``agent.policy`` is still the object it was stacked
      from, ``policy.t`` equals the stacked ``t``, and the policy
      still holds, by identity, the very rows the shard's last
      writeback handed it.  ``set_state``/``warm_start`` and another
      runner's writeback replace those arrays, and a scalar ``update``
      advances ``t``; when any check fails, the shard restacks only
      its policy state and keeps its deterministic encoding and
      row-table caches.

    A held stack keeps its writeback output buffers while the shard is
    held: every policy holds one row of each, and each writeback
    refills them in place, so a policy's arrays keep their identity
    across runs (and change value, as a scalar policy's do when it
    learns).  ``run(n, warm_start=state)`` is exactly every member
    calling ``LocalAgent.warm_start(state)``, then ``run(n)``: a held
    stack that mirrors its policies loads ``state`` stacked
    (:meth:`~repro.sim.stacked.StackedPolicies.load_state`) and the
    policies catch up at the run's writeback; every other member
    warm-starts scalar-side before its shard stacks.

    Reuse is bitwise identical to restacking on every tier:
    ``writeback`` leaves the policies equal to the stack, every run
    resets all per-run state, and a reused stack resets what it holds
    beyond the policies (the fast tier's score caches) as a fresh stack
    would.  Editing a policy's arrays in place, outside
    ``update``/``set_state``, is outside this contract.
    """

    def __init__(
        self,
        agents: Sequence[LocalAgent],
        sessions: Sequence[UserSession],
        *,
        config: EngineConfig = EngineConfig(),
        fault_plan: "FaultPlan | str | None" = None,
    ) -> None:
        if not isinstance(config, EngineConfig):
            raise ConfigError(f"config must be an EngineConfig, got {config!r}")
        self.config = config
        self.agents = list(agents)
        self.sessions = list(sessions)
        self.n_workers = config.n_workers
        self.exactness = config.exactness
        self.fault_policy = config.fault_policy
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
        # the shards held between runs, keyed like _groups (see the
        # reuse rule in the class docstring)
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

        Only the shards the newcomers land in are rebuilt on the next
        run; every untouched shard keeps its held stacked state.
        Surviving agents keep their objects — and therefore their
        ``spawn_seeds`` RNG streams — untouched.
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
        self.agents.extend(agents)
        self.sessions.extend(sessions)

    def member_indices(self, members: Sequence) -> list[int]:
        """Population indices of ``members``, in the given order.

        ``members`` holds agent objects (matched by identity) or
        non-negative population indices.  Raises
        :class:`~repro.utils.exceptions.ConfigError` on an agent outside
        this fleet, an index out of range, or a repeated member.
        """
        by_id = {id(a): i for i, a in enumerate(self.agents)}
        idx: list[int] = []
        for a in members:
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
            raise ConfigError("fleet members must be unique")
        return idx

    def remove_agents(self, agents: Sequence[LocalAgent]) -> None:
        """Retire ``agents`` mid-deployment (incremental re-sharding).

        Accepts what :meth:`member_indices` accepts.  Shards losing
        members are released now and rebuilt on the next run; untouched
        shards keep their stacked state.  Departing agents keep any
        unsent outbox reports — drain them before (or after) removal;
        the shuffler's async buffer holds whatever was already collected.
        """
        doomed = set(self.member_indices(agents))
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
            if len(survivors) < len(members):
                # a shard that lost members is never reused: release its
                # stack (and the departed agents) now
                self._shards.pop(key, None)
            if survivors:
                new_groups[key] = survivors
        self.agents = keep_agents
        self.sessions = keep_sessions
        self._groups = new_groups

    # ------------------------------------------------------------------ #
    def _held_shard(self, key: tuple, members: list[int]) -> _Shard | None:
        """The shard held under ``key`` if its member list is *identity*-
        equal to ``members`` (same objects, same order), else ``None``."""
        shard = self._shards.get(key)
        if shard is None or len(shard.agents) != len(members):
            return None
        if any(a is not self.agents[i] for a, i in zip(shard.agents, members)):
            return None
        return shard

    def _build_shard(self, key: tuple, members: list[int], rows: list[int]) -> _Shard:
        """The shard of one execution spec, held under its group ``key``.

        Applies the reuse rule of the class docstring: a changed member
        list builds a new shard; a held shard whose stack no longer
        mirrors its policies (nor holds this run's warm-start snapshot)
        restacks, one that does restarts.  Global indices may have
        shifted under churn, so they (and the session bindings) are
        refreshed on every run.  ``rows`` are the result-matrix rows the
        shard writes (subset runs write at subset-local positions).
        """
        idx = np.asarray(rows, dtype=np.intp)
        agents = [self.agents[i] for i in members]
        sessions = [self.sessions[i] for i in members]
        shard = self._held_shard(key, members)
        if shard is None:
            # release the old stack before stacking the new membership
            self._shards.pop(key, None)
            shard = _Shard(
                idx,
                agents,
                sessions,
                exactness=self.exactness,
            )
            self._shards[key] = shard
        elif shard.reusable():
            shard.stacked.restart()
        else:
            shard.restack()
        shard.indices = idx
        shard.sessions = sessions
        return shard

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
            actions=np.empty((0, n_interactions), dtype=_action_dtype(1)),
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
        warm_start=None,
    ) -> FleetResult | None:
        """Run ``n_interactions`` rounds over the whole population.

        Side effects match the sequential loop exactly: policies learn
        (state is written back into each agent's policy object),
        participation budgets advance, and outboxes fill with the same
        reports carrying the same metadata.

        ``warm_start`` (a central-model snapshot, as
        :meth:`~repro.core.agent.LocalAgent.warm_start` takes) makes the
        run exactly "every member calls ``warm_start(state)``, then
        ``run(n_interactions)``" — held stacks load it in place (the
        shard-reuse rule in the class docstring).  A snapshot some
        member's ``set_state`` refuses raises before any shard steps,
        leaving the members before it warm-started, as the scalar loop
        does.  A supervised retry or a dropped shard restores its
        members to before the run and re-applies the snapshot; a
        checkpointed run applies it before its first segment.

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
            sink = self.config.sink
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
                warm_start=warm_start,
            )
        return self._run_thread(
            self._full_specs(),
            len(self.agents),
            n_interactions,
            track_expected=track_expected,
            sink=sink,
            warm_start=warm_start,
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
        its held stacked state — the point of serving interleaved cohort
        requests off one warm fleet — while partial-shard members run on
        a shard of their own, which the next whole-shard run replaces
        (the reuse rule of the class docstring).  Either way the outcome
        is bit-identical to building a fresh ``FleetRunner`` over just
        these agents and sessions: shard membership only determines
        *where* the math runs, never what any agent observes.
        """
        n_interactions = check_positive_int(n_interactions, name="n_interactions")
        idx = self.member_indices(subset)
        if not idx:
            return self._empty_result(
                n_interactions, track_expected=track_expected, sink=None
            )
        rows_of = {g: r for r, g in enumerate(idx)}
        chosen_set = set(idx)
        specs: list[tuple] = []
        for key, members in self._groups.items():
            chosen = [i for i in members if i in chosen_set]
            if chosen:
                specs.append((key, chosen, [rows_of[i] for i in chosen]))
        return self._run_thread(
            specs, len(idx), n_interactions,
            track_expected=track_expected, sink=None,
        )

    def _run_thread(
        self, specs: list[tuple], n_rows: int, n_interactions: int,
        *, track_expected: bool, sink, warm_start=None,
    ) -> FleetResult | None:
        """Run every spec's shard horizon in this process, shard-major.

        Serial runs map :func:`_run_shard_horizon` over the shards;
        ``n_workers > 1`` maps it on a thread pool.  Shards never
        interact, so the two are identical — and a ``sink`` still sees
        each round's shard columns in shard order on the serial path.
        """
        if n_rows == 0 or not specs:
            return self._empty_result(
                n_interactions, track_expected=track_expected, sink=sink
            )
        loaded = set() if warm_start is None else self._warm_start(specs, warm_start)
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
        # shard members share n_arms (it is part of the shard key)
        n_arms = max(self.agents[members[0]].policy.n_arms for _, members, _ in specs)
        actions_mat = np.empty((n_rows, width), dtype=_action_dtype(n_arms))
        expected = np.empty((n_rows, width), dtype=np.float64) if track_expected else None
        expected_ok = np.full(n_rows, track_expected, dtype=bool)
        mats = (rewards, actions_mat, expected, expected_ok)

        emit = None
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
            outcomes = self._map_shards(
                lambda si, spec: self._run_shard_supervised(
                    si, *spec, n_interactions, policy=policy, plan=plan, mats=mats,
                    warm_start=warm_start if spec[0] in loaded else None,
                ),
                specs,
            )
            for (_, _, rows), outcome in zip(specs, outcomes):
                if outcome is not None:
                    dropped.append(outcome)
                elif emit is not None:
                    rows_np = np.asarray(rows, dtype=np.intp)
                    for t in range(n_interactions):
                        emit(rows_np, t)
        else:
            shards = [self._build_shard(*spec) for spec in specs]
            self._map_shards(
                lambda _, shard: _run_shard_horizon(
                    shard, n_interactions, *mats,
                    result_window=result_window, emit=emit,
                ),
                shards,
            )

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

    def _warm_start(self, specs: list[tuple], state) -> set[tuple]:
        """Warm-start every spec member with ``state`` before any shard steps.

        The outcome is every member's ``LocalAgent.warm_start(state)``
        in population order.  A held shard whose stack mirrors its
        members loads ``state`` stacked (:meth:`_Shard.load_state`); the
        keys of those shards are returned, and their policies catch up at
        the run's writeback.  Every other member warm-starts scalar-side
        now, so its shard stacks from the warm-started policies.  When
        a member's ``set_state`` refuses, the loaded members before it
        warm-start scalar-side, the loaded shards are released (their
        stacks hold the snapshot, their policies may not), and the
        error propagates.
        """
        loaded: dict[tuple, list[int]] = {}
        for key, members, _ in specs:
            shard = self._held_shard(key, members)
            if shard is not None and shard.load_state(state):
                loaded[key] = members
        on_stack = {i for members in loaded.values() for i in members}
        order = sorted(i for _, members, _ in specs for i in members)
        for pos, i in enumerate(order):
            if i in on_stack:
                continue
            try:
                self.agents[i].warm_start(state)
            except Exception:
                for j in order[:pos]:
                    if j in on_stack:
                        self.agents[j].warm_start(state)
                for key in loaded:
                    self._shards.pop(key, None)
                raise
        return set(loaded)

    def _map_shards(self, fn, items: list) -> list:
        """``[fn(i, item) for each item]`` — serial, or on a thread pool.

        Results keep item order; the first failure (in item order)
        propagates, exactly as the serial loop would raise it.
        """
        n_workers = min(self.n_workers, len(items))
        if n_workers <= 1:
            return [fn(i, item) for i, item in enumerate(items)]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(fn, range(len(items)), items))

    def _run_shard_supervised(
        self, si: int, key: tuple, members: list[int], rows: list[int],
        n_interactions: int, *, policy: FaultPolicy, plan: FaultPlan | None,
        mats: tuple, warm_start=None,
    ) -> DroppedShard | None:
        """One shard's whole horizon under retry supervision.

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

        ``warm_start`` is the snapshot a held stack loaded for this run
        (its policies take it only at writeback, so the pre-attempt
        pickle predates it): a restore re-applies it scalar-side, and
        the retry builds a new shard from the warm-started policies.
        """
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
            _run_shard_horizon(
                self._build_shard(key, members, rows), n_interactions, *mats
            )
            return None
        attempt = 0
        while True:
            shard = self._build_shard(key, members, rows)
            if plan is not None:
                shard.arm_faults(plan, si, attempt)
            try:
                _run_shard_horizon(shard, n_interactions, *mats)
                return None
            except Exception as exc:
                # restore the canonical objects to their pre-run state
                # (same object identities, adopted state) and drop the
                # held shard of the failed attempt: _adopt rebinds every
                # agent and session component
                s_agents, s_sessions = pickle.loads(snapshot)
                for i, a, s in zip(members, s_agents, s_sessions):
                    self._adopt(self.agents[i], a)
                    self._adopt(self.sessions[i], s)
                    if warm_start is not None:
                        self.agents[i].warm_start(warm_start)
                self._shards.pop(key, None)
                attempt += 1
                if attempt > policy.max_retries:
                    if policy.on_exhausted == "skip_shard":
                        rewards, actions_mat, expected, expected_ok = mats
                        rows_np = np.asarray(rows, dtype=np.intp)
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
            finally:
                shard.arm_faults(None)

    # ------------------------------------------------------------------ #
    # checkpoint / resume
    def _engine_dict(self) -> dict:
        """The engine knobs a checkpoint must restore to replay exactly."""
        return {
            "n_workers": self.n_workers,
            "exactness": self.exactness,
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
        snapshot was taken with (engine keys this release no longer
        knows are ignored, so older snapshots stay loadable); when the
        snapshot was mid-run,
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
        config = EngineConfig(
            n_workers=int(engine.get("n_workers", 1)),
            exactness=engine.get("exactness", "bit"),
            fault_policy=fault_policy,
        )
        runner = cls(agents, sessions, config=config, fault_plan=fault_plan)
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
        path, context: bytes | None, prefix, warm_start=None,
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
        ``warm_start`` applies before the first segment.
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
            res = self._run_thread(
                self._full_specs(),
                len(self.agents),
                seg,
                track_expected=track_expected,
                sink=None,
                warm_start=warm_start,
            )
            warm_start = None
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
        """Adopt a snapshot copy's state into the caller's object.

        Keeps the caller-visible object identity (the ``LocalAgent`` /
        session instances the caller constructed) while taking every
        attribute — policy state, outbox, participation budget, walk
        cursors, generator state — from the copy.  Component objects
        hanging off the adopted one (``agent.policy``, a session's
        dataset reference) are *rebound* to the copy's, so a shard
        restored after a failed attempt holds state-equal replacements
        of them.
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
