"""Bandit environment interface for the paper's three testbeds (§5).

Every environment models a *population of users*: calling
:meth:`Environment.new_user` yields an independent
:class:`UserSession`, a stateful stream of contexts with a reward
oracle for the chosen action.  The standard interaction loop is::

    session = env.new_user(seed)
    for _ in range(n_interactions):
        x = session.next_context()
        a = agent.act(x)
        r = session.reward(a)
        agent.learn(x, a, r)

Sessions expose :meth:`UserSession.expected_rewards` where the
environment knows ground truth (synthetic benchmark) so benches can
compute regret; dataset-replay sessions return the realized label
indicator instead.

Plan capabilities
-----------------

The fleet engine (:mod:`repro.sim`) collapses per-round session calls
into array gathers when a session can pre-materialize its horizon.
Two plan kinds exist, advertised by class-level capability flags so
subclasses inherit fast-path eligibility (the engine keys off the
flags, never off method identity):

* ``has_reward_plan`` → :meth:`UserSession.plan_rewards` returns a
  :class:`StationaryRewardPlan` (fixed context, pre-drawn noise —
  the synthetic benchmark);
* ``has_trace_plan`` — dataset replay (multilabel, Criteo), set by
  every :class:`ReplayUserSession`.  The engine plans through
  :meth:`ReplayUserSession.plan_trace_indexed`, which returns an
  :class:`IndexedTracePlan`: a per-agent ``(horizon,)`` row-index walk
  into one per-dataset :class:`TraceRowTable` that every session over
  the same dataset shares.  :meth:`UserSession.plan_trace` realizes
  the same walk as a per-step :class:`TracePlan` (contexts plus a
  per-step-per-action reward table) — the reference form tests check
  the row tables against.

Every plan must be an *exact* stand-in for ``horizon`` iterations of
``next_context()`` + ``reward()``: same values, same generator
consumption, session left in the same state.  In particular, planning
a horizon in consecutive slices (``plan_rewards(c)`` or
``plan_trace_indexed(c)`` called repeatedly — consecutive runs on one
held fleet, or a drifting session's per-epoch segments) must realize
exactly the values, and leave exactly the session state, of the
sequential loop over the same horizon.  ``tests/sim`` pins all of this.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass

import numpy as np

from ..utils.exceptions import DataError, ValidationError
from ..utils.validation import check_positive_int

__all__ = [
    "Environment",
    "UserSession",
    "ReplayUserSession",
    "StationaryRewardPlan",
    "TracePlan",
    "TraceRowTable",
    "IndexedTracePlan",
]

#: serializes per-dataset row-table construction so every session —
#: across threads — shares one table object per dataset
_ROW_TABLE_BUILD_LOCK = threading.Lock()


@dataclass(frozen=True)
class StationaryRewardPlan:
    """Pre-realized reward randomness for a fixed-context horizon.

    Produced by :meth:`UserSession.plan_rewards` for sessions whose
    context and reward distribution are stationary over the horizon
    (the synthetic benchmark: one preference vector per user).  The
    realized reward of action ``a`` at step ``t`` is::

        clip01(mean_rewards[a] + noise[t])

    with the noise pre-drawn from the *session's own* generator in
    exactly the order ``horizon`` sequential ``reward()`` calls would
    draw it — so consuming a plan leaves the session's stream in the
    same state as the sequential interaction loop, and the fleet
    engine's vectorized reward computation stays bit-identical to it.
    """

    context: np.ndarray  #: the fixed context for the horizon, shape (d,)
    mean_rewards: np.ndarray  #: noiseless reward per action, shape (A,)
    noise: np.ndarray  #: additive reward noise per step, shape (horizon,)

    def realize(self, actions: np.ndarray) -> np.ndarray:
        """Realized rewards for one action per step, shape ``(horizon,)``."""
        actions = np.asarray(actions, dtype=np.intp).ravel()
        return np.clip(self.mean_rewards[actions] + self.noise[: actions.shape[0]], 0.0, 1.0)


@dataclass(frozen=True)
class TracePlan:
    """Pre-materialized replay horizon for a dataset-backed session.

    Produced by :meth:`UserSession.plan_trace` for sessions whose
    per-step reward is a *deterministic lookup* given the step's
    dataset row (multilabel: the label row; Criteo: logged action +
    click).  The realized reward of action ``a`` at step ``t`` is
    ``action_rewards[t, a]``; no randomness remains after the row walk
    is materialized, so any generator consumption (reshuffles of the
    sample walk) happens *during planning*, leaving the session's
    stream exactly where ``horizon`` sequential ``next_context()``
    calls would have left it.

    ``action_rewards`` may use any dtype whose values survive a cast
    to ``float64`` unchanged (the engines gather then cast; dataset
    rewards are 0/1 so boolean tables are the natural choice).
    """

    contexts: np.ndarray  #: per-step contexts, shape (horizon, d)
    action_rewards: np.ndarray  #: realized reward per action per step, shape (horizon, A)
    expected: np.ndarray | None = None  #: ground-truth channel, shape (horizon, A), or None

    def __post_init__(self) -> None:
        if self.contexts.ndim != 2 or self.action_rewards.ndim != 2:
            raise DataError("contexts and action_rewards must be 2-D")
        if self.contexts.shape[0] != self.action_rewards.shape[0]:
            raise DataError(
                f"contexts cover {self.contexts.shape[0]} steps but action_rewards "
                f"covers {self.action_rewards.shape[0]}"
            )
        if self.expected is not None and self.expected.shape != self.action_rewards.shape:
            raise DataError("expected must match action_rewards in shape")

    @property
    def horizon(self) -> int:
        return self.contexts.shape[0]

    def realize(self, actions: np.ndarray) -> np.ndarray:
        """Realized rewards for one action per step, shape ``(horizon,)``."""
        actions = np.asarray(actions, dtype=np.intp).ravel()
        steps = np.arange(actions.shape[0])
        return self.action_rewards[steps, actions].astype(np.float64)


@dataclass(frozen=True)
class TraceRowTable:
    """Per-dataset row tables shared by every session over one dataset.

    The shared half of the *indexed* trace-plan form: row ``i`` holds
    dataset row ``i``'s context and per-action realized-reward table,
    so an agent's whole horizon is just a ``(horizon,)`` walk of row
    indices into this table — the table itself is materialized **once
    per dataset**, not once per agent, which is what cuts traced-plan
    memory A-fold at population scale.

    The arrays may (and for replay datasets do) *alias* the dataset's
    own storage — building a table allocates nothing new beyond what
    the dataset already holds, except where a derived view is needed
    (Criteo's one-hot-of-logged-action reward table).  ``expected``
    follows the :class:`TracePlan` convention: for logged data it is
    the realized table *by reference*, so consumers can detect the
    aliasing and skip a second gather.
    """

    contexts: np.ndarray  #: per-row contexts, shape (n_rows, d)
    action_rewards: np.ndarray  #: realized reward per action per row, shape (n_rows, A)
    expected: np.ndarray | None = None  #: ground-truth channel, shape (n_rows, A), or None

    def __post_init__(self) -> None:
        if self.contexts.ndim != 2 or self.action_rewards.ndim != 2:
            raise DataError("contexts and action_rewards must be 2-D")
        if self.contexts.shape[0] != self.action_rewards.shape[0]:
            raise DataError(
                f"contexts cover {self.contexts.shape[0]} rows but action_rewards "
                f"covers {self.action_rewards.shape[0]}"
            )
        if self.expected is not None and self.expected.shape != self.action_rewards.shape:
            raise DataError("expected must match action_rewards in shape")

    @property
    def n_rows(self) -> int:
        return self.contexts.shape[0]

    @property
    def n_actions(self) -> int:
        return self.action_rewards.shape[1]

    def nbytes(self) -> int:
        """Bytes held by the table's arrays (aliased ``expected`` not
        double-counted)."""
        total = self.contexts.nbytes + self.action_rewards.nbytes
        if self.expected is not None and self.expected is not self.action_rewards:
            total += self.expected.nbytes
        return total


@dataclass(frozen=True)
class IndexedTracePlan:
    """Shared-row-table form of a replay horizon.

    Produced by :meth:`ReplayUserSession.plan_trace_indexed`.  Realizes
    exactly the same values as the dense :class:`TracePlan` the same
    walk would produce — ``contexts[t] == table.contexts[rows[t]]`` and
    ``action_rewards[t] == table.action_rewards[rows[t]]`` by the
    row-table contract — but the per-agent payload is only the
    ``(horizon,)`` index walk; the tables live once per dataset.
    Sessions over the same dataset return the *same* table object, so a
    fleet shard can detect sharing by identity and gather every
    context, reward and encoding through one table (a shard over
    several datasets concatenates their tables).
    """

    rows: np.ndarray  #: per-step dataset row indices, shape (horizon,)
    table: TraceRowTable  #: the shared per-dataset tables

    def __post_init__(self) -> None:
        if self.rows.ndim != 1:
            raise DataError("rows must be 1-D")
        if self.rows.size and (
            self.rows.min() < 0 or self.rows.max() >= self.table.n_rows
        ):
            raise DataError("rows must index into the row table")

    @property
    def horizon(self) -> int:
        return self.rows.shape[0]

    def realize(self, actions: np.ndarray) -> np.ndarray:
        """Realized rewards for one action per step, shape ``(horizon,)``."""
        actions = np.asarray(actions, dtype=np.intp).ravel()
        return self.table.action_rewards[
            self.rows[: actions.shape[0]], actions
        ].astype(np.float64)


class UserSession(abc.ABC):
    """One user's interaction stream."""

    #: class-level capability flags — the fleet engine's fast-path
    #: dispatch keys off these (never off method identity), so
    #: subclasses that inherit a working plan stay on the fast path.
    has_reward_plan: bool = False  #: :meth:`plan_rewards` is implemented
    #: the session walks a :class:`TraceRowTable` (``trace_row_table``,
    #: ``plan_trace_indexed`` and :meth:`plan_trace` are implemented —
    #: :class:`ReplayUserSession` provides all three)
    has_trace_plan: bool = False

    @abc.abstractmethod
    def next_context(self) -> np.ndarray:
        """Advance to the next interaction and return its context."""

    @abc.abstractmethod
    def reward(self, action: int) -> float:
        """Reward of ``action`` for the *current* context.

        Must be called after :meth:`next_context`; calling it twice for
        the same context is allowed (counterfactual evaluation in
        tests) and must not advance the stream.
        """

    def expected_rewards(self) -> np.ndarray:
        """Ground-truth expected reward per action for the current context.

        Optional; environments that know their reward function override
        this for regret computation.
        """
        raise NotImplementedError(f"{type(self).__name__} has no ground-truth rewards")

    def plan_rewards(self, horizon: int) -> StationaryRewardPlan:
        """Optional fleet fast path: pre-realize ``horizon`` interactions.

        Only sessions with a *stationary* context/reward distribution
        can implement this (set ``has_reward_plan = True`` alongside).
        The contract (pinned by ``tests/sim``): a plan must be an exact
        stand-in for ``horizon`` iterations of ``next_context()`` +
        ``reward()`` — same realized values, same generator consumption
        — so the session afterwards behaves as if the sequential loop
        had run.
        """
        raise NotImplementedError(f"{type(self).__name__} has no stationary reward plan")

    def plan_horizon_limit(self) -> int | None:
        """Steps until this session's stationarity breaks (``None`` = never).

        Non-stationary sessions (reward drift, latent-state switches)
        return the number of interactions they can still plan as one
        stationary stretch; the fleet engine caps each of this
        session's plans here (planning its horizon as consecutive
        segments), so drift lands exactly at segment boundaries and
        :meth:`plan_rewards` is only ever asked for within-epoch
        horizons.  Must be *pure* — no randomness consumed, no state
        advanced — and strictly positive when not ``None``.
        """
        return None

    def plan_trace(self, horizon: int) -> TracePlan:
        """Pre-materialize a replay horizon as per-step arrays.

        For sessions that walk logged dataset rows with deterministic
        per-row rewards (``has_trace_plan``).  The fleet engine plans
        through the row-table form instead; this per-step form is the
        reference walk the row tables are checked against.  The same
        exactness contract as :meth:`plan_rewards` applies: the
        materialized walk must consume the session's generator exactly
        as ``horizon`` ``next_context()`` calls would, and leave the
        session in the identical state.
        """
        raise NotImplementedError(f"{type(self).__name__} has no trace plan")

    def _require_context(self, current) -> None:
        if current is None:
            raise ValidationError("reward() called before next_context()")


class ReplayUserSession(UserSession):
    """Shared sample-walk machinery for dataset-replay sessions.

    A replay session visits an assigned set of dataset rows in a random
    order, reshuffling (a user re-encountering content) whenever the
    walk exhausts its assignment — this keeps long-interaction sweeps
    well-defined, as in Fig. 6's x-axis up to 100 interactions.  The
    walk state is ``(_order, _cursor)`` plus the session's own
    generator, which is consumed *only* at reshuffles; rewards are
    deterministic row lookups, which is what makes the whole horizon
    traceable (:meth:`plan_trace`) without perturbing any stream.

    Subclasses provide the dataset views:

    * :meth:`_context_rows` — contexts of a block of dataset rows;
    * :meth:`_reward_rows` — the per-action realized-reward table of a
      block of rows (any dtype exact under ``float64`` cast);
    * :meth:`_expected_rows` — the ground-truth channel (defaults to
      the realized table: for logged data they coincide);
    * :meth:`_row_table_owner` + :meth:`_build_row_table` — the
      dataset's shared :class:`TraceRowTable`, which the fleet engine
      gathers through (see :meth:`plan_trace_indexed`).
    """

    has_trace_plan = True

    def __init__(
        self, indices: np.ndarray, rng: np.random.Generator, *, noun: str = "sample"
    ) -> None:
        if indices.size == 0:
            raise DataError(f"a user session needs at least one {noun}")
        self._indices = np.asarray(indices, dtype=np.intp)
        self._rng = rng
        self._order = rng.permutation(self._indices.size)
        self._cursor = -1
        self._current: int | None = None

    # -- dataset views ------------------------------------------------- #
    @abc.abstractmethod
    def _context_rows(self, rows: np.ndarray) -> np.ndarray:
        """Contexts of dataset rows ``rows``, shape ``(len(rows), d)``."""

    @abc.abstractmethod
    def _reward_rows(self, rows: np.ndarray) -> np.ndarray:
        """Per-action realized rewards of rows, shape ``(len(rows), A)``."""

    def _expected_rows(self, rows: np.ndarray, reward_table: np.ndarray) -> np.ndarray:
        """Ground-truth channel for ``rows``; ``reward_table`` is the
        already-computed :meth:`_reward_rows` result.  For logged data
        the two coincide, so the default returns it *by reference* —
        the plan then carries no second table."""
        return reward_table

    # -- the walk ------------------------------------------------------ #
    def _advance_rows(self, horizon: int) -> np.ndarray:
        """Advance the walk ``horizon`` steps; returns the visited rows.

        Block-copies between reshuffle boundaries, so the Python-level
        work is O(number of reshuffles), not O(horizon) — but the walk
        state and generator consumption after the call are *identical*
        to ``horizon`` single-step advances
        (``tests/sim/test_replay_plans.py`` pins this).
        """
        rows = np.empty(horizon, dtype=np.intp)
        filled = 0
        while filled < horizon:
            self._cursor += 1
            if self._cursor >= self._order.size:
                self._order = self._rng.permutation(self._indices.size)
                self._cursor = 0
            take = min(self._order.size - self._cursor, horizon - filled)
            rows[filled : filled + take] = self._indices[
                self._order[self._cursor : self._cursor + take]
            ]
            self._cursor += take - 1
            filled += take
        self._current = int(rows[-1])
        return rows

    def next_context(self) -> np.ndarray:
        # one-step advance through the same code path plan_trace uses,
        # so the two can never drift apart
        return self._context_rows(self._advance_rows(1))[0]

    def plan_trace(self, horizon: int) -> TracePlan:
        """Materialize ``horizon`` steps of the walk (reference form).

        Generator consumption and walk state match ``horizon``
        sequential ``next_context()`` calls exactly (``reward()``
        consumes nothing), so the plan is an exact stand-in for the
        sequential loop — the :mod:`repro.sim` contract.
        """
        horizon = check_positive_int(horizon, name="horizon")
        rows = self._advance_rows(horizon)
        table = self._reward_rows(rows)
        return TracePlan(
            contexts=self._context_rows(rows),
            action_rewards=table,
            expected=self._expected_rows(rows, table),
        )

    # -- shared-row-table plan form ------------------------------------ #
    def trace_row_table(self) -> TraceRowTable:
        """The per-dataset :class:`TraceRowTable` this session walks.

        Built by :meth:`_build_row_table` **once per dataset object**
        and cached on it, so every session over the same
        dataset — across environments, shards and runs — returns the
        identical object.  The row-table contract (pinned by
        ``tests/sim``): for any rows ``r``,
        ``table.contexts[r] == _context_rows(r)`` and
        ``table.action_rewards[r] == _reward_rows(r)``.

        Building and caching the table consumes no randomness, so
        probing it (the fleet engine does, to find which sessions share
        a table) never perturbs a session's stream.
        """
        dataset = self._row_table_owner()
        table = getattr(dataset, "_p2b_row_table", None)
        if table is None:
            # double-checked locking: concurrent shard.prepare() calls
            # (FleetRunner n_workers > 1) must all receive the *same*
            # table object — the identity is what shards key sharing
            # off — so exactly one thread builds per dataset
            with _ROW_TABLE_BUILD_LOCK:
                table = getattr(dataset, "_p2b_row_table", None)
                if table is None:
                    table = self._build_row_table()
                    try:
                        # datasets are frozen dataclasses;
                        # object.__setattr__ is the sanctioned backdoor
                        # for caching derived views on them (the table
                        # is a pure function of the dataset)
                        object.__setattr__(dataset, "_p2b_row_table", table)
                    except (AttributeError, TypeError):  # pragma: no cover
                        pass
        return table

    @abc.abstractmethod
    def _row_table_owner(self):
        """The object the cached row table lives on (the dataset)."""

    @abc.abstractmethod
    def _build_row_table(self) -> TraceRowTable:
        """Construct the dataset's row table (cache miss only)."""

    def plan_trace_indexed(self, horizon: int) -> IndexedTracePlan:
        """Shared-row-table variant of :meth:`plan_trace`.

        Advances the walk exactly like :meth:`plan_trace` (same
        generator consumption, same end state — the two forms realize
        the identical horizon), but returns only the ``(horizon,)``
        row-index walk plus the shared per-dataset table: per-agent
        plan memory drops from ``horizon × (d + A)`` values to
        ``horizon`` integers.
        """
        horizon = check_positive_int(horizon, name="horizon")
        table = self.trace_row_table()
        return IndexedTracePlan(rows=self._advance_rows(horizon), table=table)


class Environment(abc.ABC):
    """A population of users sharing one task (action set + context space)."""

    n_actions: int
    n_features: int

    def __init__(self, n_actions: int, n_features: int) -> None:
        self.n_actions = int(n_actions)
        self.n_features = int(n_features)

    @abc.abstractmethod
    def new_user(self, seed=None) -> UserSession:
        """Create an independent user session."""

    def user_population(self, n_users: int, seed=None) -> list[UserSession]:
        """Spawn ``n_users`` sessions with independent child seeds."""
        from ..utils.rng import spawn_seeds

        return [self.new_user(s) for s in spawn_seeds(seed, n_users)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_actions={self.n_actions}, "
            f"n_features={self.n_features})"
        )
