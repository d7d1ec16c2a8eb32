"""The vectorized fleet engine: simulate an agent population per round.

:class:`FleetRunner` drives ``n`` ``(LocalAgent, UserSession)`` pairs
on stacked arrays (:mod:`repro.sim.stacked`).  Agents are partitioned
into **shards** by :func:`shard_key`, and each shard steps its agents
round-major on its own stacked state: every agent of the shard performs
interaction ``t`` before any performs ``t + 1``.  One function,
:func:`_run_shard_horizon`, runs a shard's whole horizon (prepare,
``step`` x T, writeback), and the runner maps it over the shards —
serially or on a thread pool.  The :mod:`repro.sim` package docstring
states the contract this implements: bit-identity with the sequential
loop, the plan fast paths, columnar reporting, held policy and
participation state, and parallel shard stepping.

Plans
-----

A shard whose sessions are all ``has_reward_plan`` (synthetic,
stationary or drifting) plans each environment's sessions in one
:meth:`~repro.data.environment.Environment.plan_block` call and holds
an ``(S, d)`` / ``(S, A)`` table of segment contexts and means (the
means from one batched ``mean_rewards`` call per environment), the
``(n, T)`` noise block and an ``(n, T)`` step-to-segment walk; rewards
become one gather + clip per round.  A shard whose sessions are all
``has_trace_plan`` (dataset replay) holds one ``(n, T)`` row-index walk
into the per-dataset :class:`~repro.data.environment.TraceRowTable`, or
into one shard-private concatenation when its sessions walk several
datasets (each agent's walk offset into its dataset's block).  Any
other shard steps its sessions per round.  A run plans its whole
horizon once; planning consecutive slices is exact by the plan
contract, so consecutive runs on one held fleet equal one longer
sequential horizon.

Encoding
--------

Encoders are deterministic (the ``eps_bar = 0`` premise), so re-encoding
an unchanged context is pure waste.  Each shard caches the last context
and code of every agent in arrays, and encodes only what that cache
misses in one :meth:`Encoder.encode_batch` call per encoder (row-exact
by contract; centroids come from the equally row-exact
``decode_batch``).  Stationary shards encode each new segment at plan
time, so fixed-preference populations encode once per agent and
drifting ones once per epoch; traced shards encode each newly visited
dataset row once per encoder; the generic path finds its stale agents
with one vectorized comparison per round.  Report payloads are these
codes: no agent is ever encoded on its own.

What stays per-agent Python is O(1) per agent per round: session calls
(``next_context`` / ``reward``) on unplanned shards, whose
environments are arbitrary stateful objects with their own generators.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.agent import AgentCounters, LocalAgent
from ..core.config import AgentMode
from ..core.participation import StackedParticipation
from ..data.environment import RewardBlock, TraceRowTable, UserSession
from ..utils.exceptions import CheckpointError, ConfigError
from ..utils.validation import check_positive_int
from .stacked import EXACTNESS_TIERS, stack_policies

__all__ = [
    "FleetRunner",
    "FleetResult",
    "EngineConfig",
    "ENGINES",
    "fleet_supported",
    "shard_key",
    "shard_indices",
    "aggregate_plan_nbytes",
    "EXACTNESS_TIERS",
]


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

    def replace(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (validated like a fresh one)."""
        return dataclasses.replace(self, **changes)

    def __setstate__(self, state: dict) -> None:
        # checkpoints pickle the EngineConfig into their context blob;
        # a snapshot written before a field existed (sweep_workers
        # postdates the checkpoint format) must still restore — missing
        # fields take their defaults — and keys of retired knobs
        # (the plan form, the worker backend, the kernel block size,
        # the plan chunk size, the fault policy) are dropped
        for f in dataclasses.fields(self):
            value = state.get(f.name, f.default)
            if value is not dataclasses.MISSING:
                self.__dict__[f.name] = value


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
    """Per-(agent, interaction) outcome matrices of one fleet run."""

    rewards: np.ndarray  #: realized rewards, shape (n_agents, T)
    #: chosen actions, shape (n_agents, T), in the narrowest signed
    #: integer dtype holding every arm index
    actions: np.ndarray
    expected: np.ndarray | None  #: expected-reward channel, or None if untracked
    expected_mask: np.ndarray  #: per-agent bool: row of ``expected`` is valid
    dropped: tuple = ()  #: always empty; perfbench/workloads.py still reads it

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

    Holds its members' policy stack and counter and participation
    columns, the per-shard context/encoding caches and — when every session
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
        # only) — survive restacks, runs and churn (rows move with their
        # agents, see join/leave): encoders are deterministic,
        # and _encode_contexts validates each row against the context
        # at hand; the (n, d) arrays are allocated on first use
        self._cache_valid = np.zeros(self.n, dtype=bool)
        self._cached_ctx: np.ndarray | None = None
        self._cached_code = np.empty(self.n, dtype=np.intp)
        self._cached_rep: np.ndarray | None = None
        # deterministic encoder-group caches (survive restacks and runs)
        self._enc_groups: list[np.ndarray] | None = None
        self._agent_group: np.ndarray | None = None
        self._group_encoders: list = []
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
        # each member's report store, as an index into the distinct
        # logs (one in practice: a system's agents share a shard key),
        # and its row there — held across runs like the stack
        self._logs: list = []
        for name, a in self._bind_logs(agents).items():
            setattr(self, name, a)
        # each member's counters and participation: rows bound once, held
        self._counts: AgentCounters | None = None
        self._part: StackedParticipation | None = None
        self._bind_columns()
        self._reset_run_state()

    def _bind_logs(self, agents: list[LocalAgent]) -> dict[str, np.ndarray]:
        """Each agent's log slot in :attr:`_logs` (-1: none) and its row there."""
        for a in agents:
            if a.report_log is not None and all(a.report_log is not g for g in self._logs):
                self._logs.append(a.report_log)
        slot = {id(log): k for k, log in enumerate(self._logs)}
        return {
            "_log_of": np.array([slot.get(id(a.report_log), -1) for a in agents], dtype=np.intp),
            "_log_rows": np.array([a.report_row for a in agents], dtype=np.intp),
        }

    def _columns(self, agents: list[LocalAgent]):
        """``(attribute, store class, bound objects)`` of each held column store."""
        yield "_counts", AgentCounters, agents
        if self.mode != AgentMode.COLD:
            yield "_part", StackedParticipation, [a.participation for a in agents]

    def _bind_columns(self) -> None:
        """Make the members' counters and participation rows of this shard.

        Members stay bound across runs, so a held shard only checks
        them.  A member another shard took since (a second runner, a
        partial-shard subset run), or one given a new participation
        object, makes the shard gather every member's current row
        afresh — a copy, so no two agents ever share a row.
        """
        for name, cls, members in self._columns(self.agents):
            if getattr(self, name) is None or not getattr(self, name).holds(members):
                setattr(self, name, cls(0))
                getattr(self, name).join(members)

    # ------------------------------------------------------------------ #
    # membership: joins append, departures compact; every per-agent array
    # moves with its member (the stack's rows move in StackedPolicies,
    # counter and participation rows in their Columns)
    _AGENT_ARRAYS = ("_cache_valid", "_cached_code", "_cached_ctx", "_cached_rep")

    def _members(self, agents: list[LocalAgent], sessions: list[UserSession], arrays) -> None:
        self.agents, self.sessions, self.n = agents, sessions, len(agents)
        for name, a in arrays.items():
            setattr(self, name, a)
        self._rows = np.arange(self.n)
        self._enc_groups = None

    def join(self, agents: list[LocalAgent], sessions: list[UserSession]) -> None:
        """Append newcomers after the members; their encode-cache rows start invalid."""
        tails = self._bind_logs(agents)
        for name, _, members in self._columns(agents):
            getattr(self, name).join(members)
        arrays = {
            name: np.concatenate(
                [a, tails.get(name, np.zeros((len(agents), *a.shape[1:]), a.dtype))]
            )
            for name in (*self._AGENT_ARRAYS, *tails)
            if (a := getattr(self, name)) is not None
        }
        self._members(self.agents + agents, self.sessions + sessions, arrays)

    def leave(self, keep: np.ndarray) -> None:
        """Compact to the members ``keep`` (ascending), stack included.

        A stack that cannot compact (the fast tier) restacks at the
        next run.  Each departed member keeps its own copy of its
        counter and participation rows.
        """
        for name, _, members in self._columns(self.agents):
            getattr(self, name).leave(members, keep)
        arrays = {
            name: a[keep]
            for name in (*self._AGENT_ARRAYS, "_log_of", "_log_rows")
            if (a := getattr(self, name)) is not None
        }
        kept = keep.tolist()
        self._members([self.agents[j] for j in kept], [self.sessions[j] for j in kept], arrays)
        if not self.stacked.remove(keep):
            self._sync = None

    def _reset_run_state(self) -> None:
        """Clear every per-run field (a held shard runs many times).

        Members' state — stacked policy state, counter and
        participation columns — and deterministic caches — acting
        encodings, encoder groups, row tables and their per-row code
        tables — survive; plan materializations (walks, segment tables,
        noise) are strictly per-run and reset here (``prepare`` calls
        this first and ``writeback`` last, so a reused shard can never
        see a previous run's plan, nor hold it between runs).
        """
        # what the stack holds besides run progress: "written" — the
        # state its last writeback handed the policies; "loaded" — a
        # warm-start snapshot the policies take at this run's writeback;
        # None — neither (mid-run, or after a failed run)
        self._sync: str | None = None
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

    # ------------------------------------------------------------------ #
    # stacked policy state (the reuse rule is documented on FleetRunner)
    def writeback(self) -> None:
        """Hand the stacked state to the policies and end the run.

        See :meth:`~repro.sim.stacked.StackedPolicies._writeback_rows`.
        Per-run buffers are released (a held shard carries none between
        runs).
        """
        self.stacked.writeback()
        self._reset_run_state()
        self._sync = "written"

    def mirrors_policies(self) -> bool:
        """Whether the stack still holds exactly its agents' policy state.

        Valid only from a writeback until the next prepare or load, and
        only while every member still holds its stacked policy object,
        that policy's ``t`` and draw counter equal the stacked ones (a
        scalar ``select`` advances the counter without touching ``t``),
        and it holds the very rows the writeback handed it (compared by
        identity).
        """
        if self._sync != "written":
            return False
        stacked = self.stacked
        held = list(stacked.held_rows.items())
        for i, (agent, policy, t, draws) in enumerate(
            zip(self.agents, stacked.policies, stacked.t.tolist(), stacked.draws.tolist())
        ):
            if agent.policy is not policy or policy.t != t or policy._draws != draws:
                return False
            for name, rows in held:
                if getattr(policy, name, None) is not rows[i]:
                    return False
        return True

    def load_state(self, state) -> None:
        """Every member's ``LocalAgent.warm_start(state)``, stacked."""
        self.stacked.load_state(state)
        self._sync = "loaded"

    def reusable(self) -> bool:
        """Whether the next run may step the held stack without restacking."""
        return self._sync == "loaded" or self.mirrors_policies()

    def restack(self) -> None:
        """Rebuild only the stacked policy state from the policies.

        Members may hold rows of the old stack until this run's
        writeback, so a restack briefly holds two.  Encoder groups,
        acting encodings and row tables are kept.
        """
        self.stacked = None
        self._sync = None
        self.stacked = stack_policies([a.policy for a in self.agents], exactness=self._exactness)

    # ------------------------------------------------------------------ #
    def prepare(self, n_interactions: int) -> None:
        """Bind the members' rows, pick the plan path and plan the horizon.

        Capability *flags* decide the path (never method-identity
        probing, which kicked plan-inheriting subclasses off the fast
        path, nor try/except, which could consume a session's stream).
        Either plan is one ``(n, T)`` walk, so the per-round session
        loops collapse into gathers through it; the plan contract
        (pinned by ``tests/sim``) makes this exact.  Shards mixing
        plan-capable and plan-less sessions take the generic path.
        """
        self._reset_run_state()
        self._bind_columns()
        if all(s.has_reward_plan for s in self.sessions):
            self._plan_path = "stationary"
            self._plan_segments(n_interactions)
        elif all(s.has_trace_plan for s in self.sessions):
            self._plan_path = "traced"
            self._plan_trace(n_interactions)

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
        A member change regroups; per-row code tables survive it while
        the groups' encoders stay the same.
        """
        if self._enc_groups is None:
            groups: dict[int, list[int]] = {}
            for j in range(self.n):
                groups.setdefault(id(self.agents[j].encoder), []).append(j)
            encoders = [self.agents[m[0]].encoder for m in groups.values()]
            if list(map(id, encoders)) != list(map(id, self._group_encoders)):
                self._row_codes = self._row_reps = self._row_encoded = None
            self._group_encoders = encoders
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
        n_groups = len(self._encoder_groups())
        if self._row_codes is not None:
            return  # same source tables and encoders: encoded rows stay encoded
        shape = (n_groups, self._row_table.n_rows)
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
        """Plan a reward-plan shard: one ``plan_block`` per environment.

        Each group of sessions sharing an ``environment`` is planned in
        one :meth:`~repro.data.environment.Environment.plan_block` call:
        a stationary session as one segment, a drifting one as a
        segment per epoch the run touches, in the draw order of the
        step loop (``tests/data/test_drift.py`` pins this).  Every
        session's randomness is its own, so grouping moves no draw.

        The noise lands in one ``(n, T)`` block; the segment contexts in
        one ``(S, d)`` table (group-major), which the ``(n, T)`` walk
        indexes per agent and step; and the ``(S, A)`` means come from
        one batched ``mean_rewards`` call per distinct reward model.
        """
        groups: dict[int, tuple] = {}
        for j, session in enumerate(self.sessions):
            groups.setdefault(id(session.environment), (session.environment, []))[1].append(j)
        blocks = [
            env.plan_block([self.sessions[j] for j in members], horizon)
            for env, members in groups.values()
        ]
        # block rows run group-major: the shard-local agent of each row,
        # and each agent's row (None while rows are in agent order)
        order = np.concatenate([members for _, members in groups.values()]).astype(np.intp)
        inv = None if (order == self._rows).all() else np.argsort(order)

        def by_agent(rows: np.ndarray) -> np.ndarray:
            return rows if inv is None else rows[inv]

        counts = np.concatenate([b.counts for b in blocks])
        self._seg_ctx = np.concatenate([b.contexts for b in blocks])
        noise = blocks[0].noise if len(blocks) == 1 else np.concatenate([b.noise for b in blocks])
        self._plan_noise = by_agent(noise)
        n_seg = self._seg_ctx.shape[0]
        if n_seg == self.n:  # one segment per session: a zero-copy walk
            self._walk = np.broadcast_to(by_agent(self._rows)[:, None], (self.n, horizon))
        else:
            lengths = np.concatenate([b.lengths for b in blocks])
            walk = np.repeat(np.arange(n_seg), lengths).reshape(self.n, horizon)
            self._walk = by_agent(walk)
        self._seg_means = self._segment_means(blocks)
        if self.mode != AgentMode.WARM_PRIVATE:
            self._seg_acting = self._seg_ctx
            return
        self._seg_code, self._seg_acting = self._encode_contexts(
            self._seg_ctx, np.repeat(order, counts), by_agent(np.cumsum(counts) - 1)
        )

    def _segment_means(self, blocks: list[RewardBlock]) -> np.ndarray:
        """The ``(S, A)`` means of every segment, one call per reward model.

        ``mean_rewards`` rows are bitwise the per-context result (the
        :class:`~repro.data.environment.RewardModel` contract), so
        batching moves no reward.
        """
        ctx = self._seg_ctx
        sizes = [b.contexts.shape[0] for b in blocks]
        means = None
        for model in {id(b.model): b.model for b in blocks}.values():
            rows = np.repeat([b.model is model for b in blocks], sizes)
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

    @property
    def stationary(self) -> bool:
        """This shard runs on pre-realized stationary reward plans."""
        return self._plan_path == "stationary"

    @property
    def traced(self) -> bool:
        """This shard runs on a row-table walk of replay sessions."""
        return self._plan_path == "traced"

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
        tc = t % rewards.shape[1]  # result column: a one-column ring when streaming
        # each agent's report payload (its code or context), acting representation
        if self._walk is not None:
            # every gather goes through the walk: segment or row tables
            walk_t = self._walk[:, t]
            if self.stationary:
                acting = self._seg_acting[walk_t]
                payload = acting if self._seg_code is None else self._seg_code[walk_t]
            else:
                payload, acting = self._indexed_acting(walk_t)
        elif self.mode == AgentMode.WARM_PRIVATE:
            payload, acting = self._encode_contexts(self._next_contexts(), self._rows, self._rows)
        else:
            payload = acting = self._next_contexts()

        acts = self.stacked.select(acting)
        actions[self.indices, tc] = acts

        if self.stationary:
            # the RewardBlock realized for one step, across agents:
            # mean[a] + z, clipped — the same elementwise ops as
            # session.reward (a test pins the plan to the sequential
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
        self._record_batch(payload, acts, r)

    # ------------------------------------------------------------------ #
    def _record_batch(self, payload: np.ndarray, acts: np.ndarray, r: np.ndarray) -> None:
        """``record_interaction`` for every member, on its counter and
        participation rows: the windows that keep this step's item
        (``payload`` row — code or context — action, reward) hold it, and
        each report is its held item with its lifetime interaction index.
        """
        counts = self._counts
        counts.n_interactions[:] += 1
        counts.total_reward[:] += r
        part = self._part
        if part is None:  # cold shard: counters only
            return
        rows = part.step(payload, acts, r)
        if rows.size == 0:
            return
        inter_idx = counts.n_interactions[rows]
        payload = part.held_payload[rows]
        acts_s, rew_s = part.held_action[rows], part.held_reward[rows]
        # one append per log: group the fired rows once by their log
        owner = self._log_of[rows]
        order = np.argsort(owner, kind="stable")
        for m in np.split(order, np.flatnonzero(np.diff(owner[order])) + 1):
            self._logs[owner[m[0]]].append(
                self._log_rows[rows[m]], payload[m], acts_s[m], rew_s[m], inter_idx[m]
            )

    # ------------------------------------------------------------------ #
    def _next_contexts(self) -> np.ndarray:
        """One generic-path round of contexts, one row per session."""
        return np.array([s.next_context() for s in self.sessions], dtype=np.float64)

    def _indexed_acting(self, rows_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Report payloads and acting representation for one traced step:
        gathers through the row table (raw contexts) and the per-row
        encoding tables :meth:`_encode_new_rows` fills (codes, centroids).
        """
        if self.mode != AgentMode.WARM_PRIVATE:
            contexts = self._row_table.contexts[rows_t]
            return contexts, contexts
        codes = self._row_codes[self._agent_group, rows_t]
        if self.stacked.wants_codes:
            return codes, codes
        if self.private_context == "centroid":
            return codes, self._row_reps[self._agent_group, rows_t]
        return codes, self.agents[0].encoder.one_hot_batch(codes)  # type: ignore[union-attr]


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
    emit=None,
) -> None:
    """Run one shard's whole horizon: prepare, step x T, writeback.

    The one loop body — serial and thread-pool runs both call it.
    Outcomes land in the given result matrices at the shard's rows;
    ``emit(rows, t)``, when given, streams each round's columns as soon
    as they are written.
    """
    shard.prepare(n_interactions)
    for t in range(n_interactions):
        shard.step(t, rewards, actions, expected, expected_ok)
        if emit is not None:
            emit(shard.indices, t)
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
        ``EngineConfig()``: serial, whole-horizon plans, bit tier); its
        fields are documented there.  Its ``engine`` field is ignored
        (this class *is* the fleet engine) and its ``sink`` becomes the
        default streaming target for :meth:`run`.

    Shard reuse
    -----------
    The runner holds each shard between runs, so repeated short runs
    (streaming deployments, multi-round loops) skip the O(population)
    restack.  One rule, checked when a run builds its shards, decides
    what is reused:

    * a held shard whose members lead the run's shard members, in
      order, is kept: the rest join it and only they are stacked, into
      spare rows (:meth:`add_agents`); departures compacted it already
      (:meth:`remove_agents`).  Any other member list — a
      :meth:`run_subset` covering part of a shard — builds a new shard;
    * the held stacked state is reused only if, for every held member,
      ``agent.policy`` is still the object it was stacked from,
      ``policy.t`` and its draw counter equal the stacked ones, and the
      policy still holds, by identity, the very rows the shard's last
      writeback handed it.  ``set_state``/``warm_start`` and another
      runner's writeback replace those arrays, a scalar ``update``
      advances ``t`` and a scalar ``select`` the draw counter; when any
      check fails — or on the fast tier, which cannot append or
      compact, after any member change — the shard restacks only its
      policy state and keeps its encoding and row-table caches.

    On the bit tier the held stack *is* the policy state: each policy's
    arrays are views of its stack row (the :mod:`repro.sim` contract);
    the fast tier copies into output buffers it refills in place.
    ``run(n, warm_start=state)`` is exactly every member calling
    ``LocalAgent.warm_start(state)``, then ``run(n)``: a held stack that
    mirrors its policies loads ``state`` stacked
    (:meth:`~repro.sim.stacked.StackedPolicies.load_state`), and every other
    member — newcomers included — warm-starts scalar-side before its
    shard stacks.

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
    ) -> None:
        if not isinstance(config, EngineConfig):
            raise ConfigError(f"config must be an EngineConfig, got {config!r}")
        self.config = config
        self.agents = list(agents)
        self.sessions = list(sessions)
        self.n_workers = config.n_workers
        self.exactness = config.exactness
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
    def n_shards(self) -> int:
        """Number of stacked states this population partitions into."""
        return len(self._groups)

    # ------------------------------------------------------------------ #
    # population churn
    def add_agents(
        self, agents: Sequence[LocalAgent], sessions: Sequence[UserSession]
    ) -> None:
        """Enroll ``agents`` mid-deployment (incremental re-sharding).

        The next run appends them to the held shards they land in (the
        reuse rule of the class docstring).  Surviving agents keep their
        objects — and therefore their ``spawn_seeds`` RNG streams —
        untouched.
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

        Accepts what :meth:`member_indices` accepts.  A held shard that
        loses members compacts now, in member order, keeping its stack
        and encode cache; each departed policy gets its own copy of its
        state.  Departing agents keep their pending report rows in their
        log — drain them before (or after) removal; the shuffler's async
        buffer holds whatever was already collected.
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
        gone = {id(self.agents[i]) for i in doomed}
        for key, shard in list(self._shards.items()):
            keep = [j for j, a in enumerate(shard.agents) if id(a) not in gone]
            if len(keep) < shard.n:
                shard.leave(np.asarray(keep, dtype=np.intp))
                if not keep:
                    del self._shards[key]
        new_groups: dict[tuple, list[int]] = {}
        for key, members in self._groups.items():
            survivors = [old_to_new[i] for i in members if i not in doomed]
            if survivors:
                new_groups[key] = survivors
        self.agents = keep_agents
        self.sessions = keep_sessions
        self._groups = new_groups

    # ------------------------------------------------------------------ #
    def _held_shard(self, key: tuple, members: list[int]) -> _Shard | None:
        """The shard held under ``key`` if its members are, by identity,
        the first of ``members`` in order (the rest join it), else ``None``."""
        shard = self._shards.get(key)
        if shard is None or shard.n > len(members):
            return None
        if any(a is not self.agents[i] for a, i in zip(shard.agents, members)):
            return None
        return shard

    def _build_shard(
        self, key: tuple, members: list[int], rows: list[int], shard: _Shard | None
    ) -> _Shard:
        """The shard of one execution spec, held under its group ``key``.

        Applies the reuse rule of the class docstring to ``shard``, the
        spec's :meth:`_held_shard`: a held stack that no longer mirrors
        its policies (nor holds this run's warm-start snapshot), or
        cannot append the newcomers, restacks; one that does restarts.
        Global indices may have
        shifted under churn, so they (and the session bindings) are
        refreshed on every run.  ``rows`` are the result-matrix rows the
        shard writes (subset runs write at subset-local positions).
        """
        idx = np.asarray(rows, dtype=np.intp)
        agents = [self.agents[i] for i in members]
        sessions = [self.sessions[i] for i in members]
        if shard is None:
            # release the old shard before stacking the new membership
            self._shards.pop(key, None)
            shard = self._shards[key] = _Shard(idx, agents, sessions, exactness=self.exactness)
        else:
            reuse = shard.reusable()
            if shard.n < len(agents):
                newcomers = agents[shard.n :]
                shard.join(newcomers, sessions[shard.n :])
                reuse = reuse and shard.stacked.views and shard.stacked.append(
                    stack_policies([a.policy for a in newcomers], exactness=self.exactness)
                )
            if reuse:
                shard.stacked.restart()
            else:
                shard.restack()
        shard.indices = idx
        shard.sessions = sessions
        return shard

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
        participation budgets advance, and the report logs gain the
        same rows (payload, action, reward, interaction index) in the
        same per-agent order.

        ``warm_start`` (a central-model snapshot, as
        :meth:`~repro.core.agent.LocalAgent.warm_start` takes) makes the
        run exactly "every member calls ``warm_start(state)``, then
        ``run(n_interactions)``" — held stacks load it in place (the
        shard-reuse rule in the class docstring).  A snapshot some
        member's ``set_state`` refuses raises before any shard steps,
        leaving the members before it warm-started, as the scalar loop
        does.  A checkpointed run applies it before its first segment.

        An exception raised inside a shard's horizon propagates
        unchanged (the first failing shard's, in shard order): the
        horizon is deterministic given the population's state, so a
        retry would raise it again.  The population is then mid-run;
        rebuild it, or resume from a checkpoint.

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
        counters, pending report rows) plus the partial result matrices —
        is written atomically to ``checkpoint_path``.  A run killed
        mid-horizon continues via :meth:`resume`/:meth:`resume_run`
        with results **bit-identical** to the uninterrupted run
        (segmented execution is exact by the plan contract; the
        fast exactness tier is bit-identical to an uninterrupted run
        using the same checkpoint cadence).  ``checkpoint_context``
        is an opaque caller blob stored alongside (``run_setting``
        keeps its collection phase there).  Checkpointing does not
        compose with a ``sink``.
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
        held = [self._held_shard(key, members) for key, members, _ in specs]
        if warm_start is not None:
            self._warm_start(specs, held, warm_start)
        # streaming runs keep one result column: each round is emitted
        # as soon as it ends, and nothing reads a past round back
        width = n_interactions if sink is None else 1

        rewards = np.empty((n_rows, width), dtype=np.float64)
        # shard members share n_arms (it is part of the shard key)
        n_arms = max(self.agents[members[0]].policy.n_arms for _, members, _ in specs)
        actions_mat = np.empty((n_rows, width), dtype=_action_dtype(n_arms))
        expected = np.empty((n_rows, width), dtype=np.float64) if track_expected else None
        expected_ok = np.full(n_rows, track_expected, dtype=bool)

        emit = None
        if sink is not None:
            sink.begin(n_rows, n_interactions)
            import threading

            sink_lock = threading.Lock()

            def emit(rows: np.ndarray, t: int) -> None:
                # fancy indexing copies, so the sink never aliases the ring
                tc = t % width
                exp = None if expected is None else expected[rows, tc]
                with sink_lock:
                    sink.emit(t, rows, rewards[rows, tc], exp, expected_ok[rows])

        shards = [self._build_shard(*spec, shard) for spec, shard in zip(specs, held)]

        def run_shard(shard: _Shard) -> None:
            _run_shard_horizon(
                shard, n_interactions, rewards, actions_mat, expected, expected_ok, emit=emit
            )

        n_workers = min(self.n_workers, len(shards))
        if n_workers <= 1:
            for shard in shards:
                run_shard(shard)
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                # consuming the results re-raises the first failure in
                # shard order, as the serial loop would
                list(pool.map(run_shard, shards))

        if sink is not None:
            sink.finish()
            return None
        return FleetResult(
            rewards=rewards,
            actions=actions_mat,
            expected=expected,
            expected_mask=expected_ok,
        )

    def warm_start(self, state) -> None:
        """Every member's ``LocalAgent.warm_start(state)``, now: held
        stacks that mirror their members load it (as ``run(warm_start=)``
        does, :meth:`_warm_start`) and write it back at once, so the next
        run reuses them without a restack."""
        specs = self._full_specs()
        held = [self._held_shard(key, members) for key, members, _ in specs]
        for shard in self._warm_start(specs, held, state):
            shard.writeback()

    def _warm_start(self, specs: list[tuple], held: list, state) -> list[_Shard]:
        """Warm-start every spec member with ``state`` before any shard steps.

        The outcome is every member's ``LocalAgent.warm_start(state)``
        in population order.  The members of a ``held`` shard whose
        stack mirrors them load ``state`` stacked (:meth:`_Shard.load_state`);
        every other member — newcomers included — warm-starts
        scalar-side first, so no stack has changed when a member's
        ``set_state`` refuses: the stack members before it then
        warm-start scalar-side, and the error propagates.  Returns the
        shards that loaded ``state``; their policies take it at the
        shard's next writeback.
        """
        loads = []
        on_stack: set[int] = set()
        for (_, members, _), shard in zip(specs, held):
            mirrors = shard is not None and shard.mirrors_policies()
            if mirrors and shard.stacked.state_to_load(state) is not None:
                loads.append(shard)
                on_stack.update(members[: shard.n])
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
                raise
        for shard in loads:
            shard.load_state(state)
        return loads

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
    ) -> None:
        """Write a versioned on-disk snapshot of this fleet to ``path``.

        The snapshot carries the pickled population — every agent with
        its policy state, RNG streams, participation counters and
        report log (its pending rows), and every session with its walk
        cursors —
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
            ),
        )

    @classmethod
    def resume(cls, path) -> "FleetRunner":
        """Rebuild a fleet from a snapshot written by :meth:`checkpoint`.

        The returned runner holds the unpickled population (identical
        RNG streams, counters, pending report rows) under the engine knobs the
        snapshot was taken with (engine keys this release no longer
        knows are ignored, so older snapshots stay loadable); when the
        snapshot was mid-run,
        :meth:`resume_run` finishes that run bit-identically to the
        uninterrupted one.
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
        )
        runner = cls(agents, sessions, config=config)
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
        agents are in the sequential state at every boundary (the
        segmented-composition property ``tests/sim`` pins)
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
            )
        return FleetResult(
            rewards=rewards,
            actions=actions,
            expected=expected,
            expected_mask=ok,
        )
