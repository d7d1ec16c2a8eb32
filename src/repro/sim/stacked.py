"""Stacked per-agent policy state for the fleet engine.

A stacked policy holds the state of ``n`` *independent* policy
instances as arrays with a leading agent axis — e.g. LinUCB's design
inverses as ``(n_agents, n_arms, d, d)`` — and steps all agents per
round with one kernel call instead of ``n`` Python calls.

Exactness contract (see :mod:`repro.sim`): every floating-point
operation here is the *same* :mod:`repro.bandits.kernels` einsum or the
same elementwise expression the scalar policy performs, applied with a
broadcast leading axis.  Tie-breaks and exploration coins are keyed
draws (:mod:`repro.bandits.keyed`): each agent's ``uint64`` key and
draw counter are stacked into ``(n,)`` arrays, and one integer-only
expression draws for every agent at once — bitwise what each scalar
policy draws on its own length-1 arrays, with the counters advancing
once per ``select`` on both paths.  Thompson's posterior normals are
keyed the same way, so no stacker calls a generator.

Concurrency: a stacked policy is confined to its shard — its arrays
and policy objects belong to that shard's agents alone — so
:class:`~repro.sim.fleet.FleetRunner`'s parallel shard stepping
(``n_workers > 1``) never has two threads inside the same stacked
state; the numpy kernels additionally release the GIL, which is what
makes thread-level shard parallelism pay.
"""

from __future__ import annotations

import abc
from typing import Any, Mapping, Sequence

import numpy as np

from ..bandits.base import BanditPolicy
from ..bandits.code_linucb import CodeLinUCB
from ..bandits.epsilon_greedy import EpsilonGreedy, epsilon_greedy_rows
from ..bandits.kernels import (
    linear_scores,
    sherman_morrison,
    sm_quad_downdate,
    theta_refresh,
    ucb_explore,
    ucb_explore_fast,
    vec_dot,
)
from ..bandits.keyed import tiebreak_rows
from ..bandits.linucb import LinUCB
from ..bandits.state import policy_from_state
from ..bandits.thompson import LinearThompsonSampling, posterior_scores
from ..bandits.ucb1 import UCB1
from ..utils.columns import Rows, stack_rows
from ..utils.exceptions import ConfigError, ReproError

__all__ = [
    "StackedPolicies",
    "StackedLinUCB",
    "StackedLinUCBFast",
    "StackedEpsilonGreedy",
    "StackedThompson",
    "StackedCodeLinUCB",
    "StackedCodeLinUCBFast",
    "StackedUCB1",
    "stack_policies",
    "policies_stackable",
    "EXACTNESS_TIERS",
]

#: recognized exactness tiers for stacked policy state: ``bit`` (the
#: default) keeps every stacked operation bit-identical to the scalar
#: policies; ``fast`` trades bit-identity for memory and speed — the
#: policy kinds with a fast stacker (``code_linucb``:
#: :class:`StackedCodeLinUCBFast`'s float32 sparse tables; ``linucb``:
#: :class:`StackedLinUCBFast`'s float32 dense posteriors with
#: incremental UCB) produce trajectories that are *statistically*
#: equivalent to the bit tier (same math up to float32 rounding, and the
#: tie-breaks that can flip); every other kind runs its bit stacker
#: unchanged, so ``fast`` is bitwise ``bit`` for it.
EXACTNESS_TIERS = ("bit", "fast")


def _uniform(values, what: str):
    """Assert all agents share a hyperparameter; return the shared value."""
    first = values[0]
    if any(v != first for v in values[1:]):
        raise ConfigError(f"cannot stack policies with differing {what}: {sorted(set(values))}")
    return first


class StackedPolicies(Rows, abc.ABC):
    """Base class: ``n`` same-kind policies as one stacked state.

    Stacking gathers each policy's row of :attr:`columns` (its key, draw
    counter, ``t`` and state arrays); subclasses take the shared
    hyperparameters in :meth:`_stack` and step the arrays in place.  On
    the bit tier (:attr:`views`) the stack *is* the policies' state:
    stacking binds each policy to its row, which its scalar methods then
    read and write; joins :meth:`append` rows and departures
    :meth:`~repro.utils.columns.Rows.leave`.  Nothing is handed back.
    The fast tier copies out instead (:class:`_CopyOut`).
    """

    #: True when the stacked select/update consume integer codes
    #: (one-hot specialists) rather than dense context rows.
    wants_codes: bool = False
    #: True when the stack is the policies' state (bit tier)
    views: bool = True
    #: the agent-axis arrays a policy's row spans
    columns: tuple[str, ...] = ("keys", "draws", "t")

    def __init__(self, policies: Sequence[BanditPolicy]) -> None:
        policies = list(policies)
        if not policies:
            raise ConfigError("cannot stack an empty policy list")
        kinds = {type(p) for p in policies}
        if len(kinds) != 1:
            raise ConfigError(
                f"cannot stack mixed policy types: {sorted(c.__name__ for c in kinds)}"
            )
        #: what every stacked policy shares: type, shape, hyperparameters
        self.fleet_key = policies[0].fleet_key()
        self.n = len(policies)
        self.n_arms = _uniform([p.n_arms for p in policies], "n_arms")
        self.n_features = _uniform([p.n_features for p in policies], "n_features")
        for name in self.columns:
            rows = [getattr(p._cols, name)[p._row] for p in policies]
            setattr(self, name, stack_rows(rows) if np.ndim(rows[0]) else np.array(rows))
        self._stack(policies)
        # each agent-axis array's storage, spare rows after the live ones
        self._store: dict[str, np.ndarray] = {}
        if self.views:
            for row, p in enumerate(policies):
                p._cols, p._row = self, row
        else:
            self.policies = policies

    @abc.abstractmethod
    def _stack(self, policies: Sequence[BanditPolicy]) -> None:
        """Take the shared hyperparameters, refusing mixed ones."""

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def select(self, contexts: np.ndarray) -> np.ndarray:
        """One action per agent for that agent's context row."""

    def _tiebreak(self, scores: np.ndarray) -> np.ndarray:
        """Every agent's keyed tie-break at its counter, then advance it."""
        actions = tiebreak_rows(scores, self.keys, self.draws)
        self.draws += 1
        return actions

    @abc.abstractmethod
    def update(self, contexts: np.ndarray, actions: np.ndarray, rewards: np.ndarray) -> None:
        """One update per agent (row ``i`` updates agent ``i``'s state)."""

    def writeback(self) -> None:
        """End a run (the bit tier's stack already is the policies' state)."""

    def holds(self, policies: Sequence[BanditPolicy]) -> bool:
        """Whether this stack is still the state of ``policies``: each is
        bound to its row here, in order."""
        return len(policies) == self.n and all(
            p._cols is self and p._row == row for row, p in enumerate(policies)
        )

    def restart(self) -> None:
        """Reset what only the stack holds (none on the bit tier) to a
        fresh stack's, so reuse is bitwise a restack."""

    def load_state(self, state: Mapping[str, Any]) -> bool:
        """Give every agent ``state``, as ``n`` ``set_state`` calls would:
        :meth:`state_to_load`'s row, broadcast; False, untouched, if none."""
        row = self.state_to_load(state)
        for name, value in (row or {}).items():
            getattr(self, name)[...] = value
        return row is not None

    def state_to_load(self, state: Mapping[str, Any]) -> dict[str, np.ndarray] | None:
        """The row ``set_state(state)`` leaves a stacked policy (its key and
        counter aside), as a policy built from ``state`` holds it; ``None``
        on the fast tier, or if ``set_state`` would refuse ``state`` or
        change a shared hyperparameter (the policies then warm-start
        scalar-side)."""
        if not self.views:
            return None
        try:
            probe = policy_from_state(state, seed=0)
        except (ReproError, KeyError, TypeError, ValueError):
            return None
        if probe.fleet_key() != self.fleet_key:
            return None
        return {
            name: getattr(probe._cols, name)[0]
            for name in self.columns
            if name not in ("keys", "draws")  # each agent keeps its own stream
        }

    def append(self, other: StackedPolicies, policies: Sequence[BanditPolicy]) -> None:
        """Append ``other``, the stack of ``policies``, into spare rows that
        double when full, and bind each policy to its row here."""
        n, m = self.n, self.n + other.n
        self._append_rows(self.columns, other, n, m)
        self.n = m
        for row, p in enumerate(policies, n):
            p._cols, p._row = self, row

    # ------------------------------------------------------------------ #
    def state_nbytes(self) -> int:
        """Bytes of stacked policy-state arrays currently held.

        Counts every ndarray attribute of the stacked instance (count
        and sum tables, design inverses, the ``t`` vector, ...) — the
        engine-side policy state whose footprint the memory bench
        compares across exactness tiers.  Scalar policy objects and the
        random streams (:attr:`keys`, :attr:`draws`) are not included.
        """
        return sum(
            v.nbytes
            for name, v in self.__dict__.items()
            if isinstance(v, np.ndarray) and name not in ("keys", "draws")
        )


class _CopyOut:
    """The fast tier's copy path: float32/COO state cannot be the
    policies' float64 rows, so ``writeback`` copies it, ``t`` and the
    counters out into a store it refills in place, bound to the policies
    at the first writeback.  Any member change restacks."""

    views = False
    _out: Rows | None = None

    def holds(self, policies: Sequence[BanditPolicy]) -> bool:
        """Whether ``policies`` still hold the last copy unchanged: a
        scalar step moves their ``t`` or counter there, and ``set_state``
        moves a policy off it (restoring float64 tables)."""
        out = self._out
        return (
            out is not None
            and len(policies) == self.n
            and all(p is q and p._cols is out for p, q in zip(policies, self.policies))
            and np.array_equal(out.t, self.t)
            and np.array_equal(out.draws, self.draws)
        )

    def _copy_out(self, **tables: tuple) -> Rows:
        """The copy store, ``t`` and counters written; the caller fills its
        ``tables`` (``name=(shape, dtype)``)."""
        out = self._out
        if out is None:
            out = self._out = Rows(
                keys=self.keys.copy(),
                draws=self.draws.copy(),
                t=self.t.copy(),
                **{name: np.empty(shape, dtype) for name, (shape, dtype) in tables.items()},
            )
            for row, p in enumerate(self.policies):
                p._cols, p._row = out, row
        else:
            np.copyto(out.draws, self.draws)
            np.copyto(out.t, self.t)
        return out


class _StackedDenseLinear(StackedPolicies):
    """Shared stacking for the dense ridge family (LinUCB, eps-greedy)."""

    columns = (*StackedPolicies.columns, "A_inv", "b", "theta")

    def _stack(self, policies: Sequence[BanditPolicy]) -> None:
        self.ridge = _uniform([p.ridge for p in policies], "ridge")

    def _dense_update(
        self, contexts: np.ndarray, actions: np.ndarray, rewards: np.ndarray
    ) -> None:
        idx = np.arange(self.n)
        A_sel = self.A_inv[idx, actions]  # gather copies (n, d, d)
        sherman_morrison(A_sel, contexts)
        b_sel = self.b[idx, actions]
        b_sel += rewards[:, None] * contexts
        self.A_inv[idx, actions] = A_sel
        self.b[idx, actions] = b_sel
        self.theta[idx, actions] = theta_refresh(A_sel, b_sel)
        self.t += 1


class StackedLinUCB(_StackedDenseLinear):
    """``n`` independent :class:`~repro.bandits.linucb.LinUCB` agents."""

    columns = (*_StackedDenseLinear.columns, "arm_counts")

    def _stack(self, policies: Sequence[LinUCB]) -> None:
        super()._stack(policies)
        self.alpha = _uniform([p.alpha for p in policies], "alpha")

    def scores(self, contexts: np.ndarray) -> np.ndarray:
        means = linear_scores(self.theta, contexts)
        explore = ucb_explore(contexts, self.A_inv)
        return means + self.alpha * np.sqrt(explore)

    def select(self, contexts: np.ndarray) -> np.ndarray:
        return self._tiebreak(self.scores(contexts))

    def update(self, contexts, actions, rewards) -> None:
        self._dense_update(contexts, actions, rewards)
        self.arm_counts[np.arange(self.n), actions] += 1


class StackedLinUCBFast(_CopyOut, StackedLinUCB):
    """``fast``-tier LinUCB: float32 dense posteriors + incremental UCB.

    The bit stacker's scoring cost is the ``(n, A, d, d)`` quadratic
    contraction ``x^T A_a^{-1} x`` — the compute-bound ceiling of dense
    cold shards (``BENCH_replay.json``).  This variant attacks it twice:

    * **precision** — ``A_inv``/``b``/``theta`` are float32 (half the
      state bytes *and* twice the SIMD width), and scoring runs through
      :func:`~repro.bandits.kernels.ucb_explore_fast`, a batched-BLAS
      contraction over the ``x x^T`` outer product.  Both trade the bit
      contract for speed — trajectories are *statistically* equivalent,
      gated by the curve bands in ``tests/sim/test_exactness.py``.
    * **incrementality** — a round only changes the pulled arm's
      posterior (rank-1 Sherman–Morrison), so when consecutive rounds
      score the *same* contexts (stationary synthetic shards; replay
      shards re-enter the full path automatically), the cached per-arm
      means and quadratics stay valid for every unpulled arm.  The
      pulled arm's quadratic collapses to the scalar
      :func:`~repro.bandits.kernels.sm_quad_downdate` identity and its
      mean to one ``(n, d)`` dot — ``O(n A d^2)`` scoring becomes
      ``O(n (A + d))`` per fixed-context round.

    :meth:`writeback` copies float32 arrays out to the scalar policies
    (float32 state cannot be a view of float64 policy arrays) — every
    LinUCB operation accepts them, mirroring
    :class:`StackedCodeLinUCBFast`'s convention; ``set_state``
    round-trips restore float64.
    """

    def _stack(self, policies: Sequence[LinUCB]) -> None:
        super()._stack(policies)
        self.A_inv = self.A_inv.astype(np.float32)
        self.b = self.b.astype(np.float32)
        self.theta = self.theta.astype(np.float32)
        # incremental scoring cache: valid only while `_ctx_cache`
        # matches the contexts being scored (value comparison — the
        # engine may refill one context buffer in place)
        self._ctx_cache: np.ndarray | None = None
        self._means: np.ndarray | None = None
        self._quads: np.ndarray | None = None

    def _cache_valid(self, contexts: np.ndarray) -> bool:
        return self._ctx_cache is not None and np.array_equal(
            self._ctx_cache, contexts
        )

    def scores(self, contexts: np.ndarray) -> np.ndarray:
        if not self._cache_valid(contexts):
            ctx32 = np.asarray(contexts, dtype=np.float32)
            self._means = linear_scores(self.theta, ctx32)
            self._quads = ucb_explore_fast(ctx32, self.A_inv)
            self._ctx_cache = np.array(contexts, copy=True)
        return self._means + np.float32(self.alpha) * np.sqrt(self._quads)

    def update(self, contexts, actions, rewards) -> None:
        # cast once so Sherman–Morrison and the theta refresh run in
        # float32 end-to-end instead of promoting through float64
        ctx32 = np.asarray(contexts, dtype=np.float32)
        cache_hit = self._cache_valid(contexts)
        super().update(ctx32, actions, np.asarray(rewards, dtype=np.float32))
        if cache_hit:
            # the update absorbed the exact contexts the cache was
            # scored with: every unpulled arm's mean/quad is untouched,
            # the pulled arm's follow from the rank-1 identity + the
            # already-refreshed theta row
            idx = np.arange(self.n)
            self._quads[idx, actions] = sm_quad_downdate(self._quads[idx, actions])
            self._means[idx, actions] = vec_dot(self.theta[idx, actions], ctx32)
        else:
            # updated with contexts the cache was not scored against
            # (drifted mid-round) — drop it; next scores() recomputes
            self._ctx_cache = None

    def restart(self) -> None:
        self._ctx_cache = self._means = self._quads = None

    def writeback(self) -> None:
        tables = {name: getattr(self, name) for name in ("A_inv", "b", "theta", "arm_counts")}
        out = self._copy_out(**{name: (a.shape, a.dtype) for name, a in tables.items()})
        for name, a in tables.items():
            np.copyto(getattr(out, name), a)


class StackedEpsilonGreedy(_StackedDenseLinear):
    """``n`` independent :class:`~repro.bandits.epsilon_greedy.EpsilonGreedy` agents."""

    columns = (*_StackedDenseLinear.columns, "epsilon")

    def _stack(self, policies: Sequence[EpsilonGreedy]) -> None:
        super()._stack(policies)
        # epsilon is *state* (it decays), a column; decay is shared
        self.decay = _uniform([p.decay for p in policies], "decay")

    def select(self, contexts: np.ndarray) -> np.ndarray:
        scores = linear_scores(self.theta, contexts)
        actions = epsilon_greedy_rows(scores, self.epsilon, self.keys, self.draws)
        self.draws += 1
        return actions

    def update(self, contexts, actions, rewards) -> None:
        self._dense_update(contexts, actions, rewards)
        self.epsilon *= self.decay


class StackedThompson(_StackedDenseLinear):
    """``n`` independent :class:`~repro.bandits.thompson.LinearThompsonSampling` agents.

    Scoring is :func:`~repro.bandits.thompson.posterior_scores` on the
    stacked state: each agent's keyed per-arm normals at its counter, the
    same kernels and the same elementwise expression the scalar policy
    evaluates, so every row is bitwise that agent's own draw.
    """

    def _stack(self, policies: Sequence[LinearThompsonSampling]) -> None:
        super()._stack(policies)
        self.v = _uniform([p.v for p in policies], "v")

    def sample_scores(self, contexts: np.ndarray) -> np.ndarray:
        """Every agent's posterior draw at its current counter, the one
        :meth:`select` tie-breaks at before advancing it."""
        return posterior_scores(self.theta, self.A_inv, contexts, self.v, self.keys, self.draws)

    def select(self, contexts: np.ndarray) -> np.ndarray:
        return self._tiebreak(self.sample_scores(contexts))

    def update(self, contexts, actions, rewards) -> None:
        self._dense_update(contexts, actions, rewards)


class StackedCodeLinUCB(StackedPolicies):
    """``n`` independent :class:`~repro.bandits.code_linucb.CodeLinUCB` agents.

    Operates on integer codes directly (``wants_codes``): the one-hot
    detour the scalar interface takes is a pure re-derivation of the
    code, so skipping it changes nothing observable.
    """

    wants_codes = True
    columns = (*StackedPolicies.columns, "counts", "sums")

    def _stack(self, policies: Sequence[CodeLinUCB]) -> None:
        self.alpha = _uniform([p.alpha for p in policies], "alpha")
        self.ridge = _uniform([p.ridge for p in policies], "ridge")

    def scores_for_codes(self, codes: np.ndarray) -> np.ndarray:
        idx = np.arange(self.n)
        counts_g = self.counts[idx, :, codes]  # (n, A)
        sums_g = self.sums[idx, :, codes]
        denom = self.ridge + counts_g
        means = sums_g / denom
        return means + self.alpha * np.sqrt(1.0 / denom)

    def select(self, codes: np.ndarray) -> np.ndarray:
        return self._tiebreak(self.scores_for_codes(codes))

    def update(self, codes, actions, rewards) -> None:
        idx = np.arange(self.n)
        self.counts[idx, actions, codes] += 1.0
        self.sums[idx, actions, codes] += rewards
        self.t += 1


class StackedCodeLinUCBFast(_CopyOut, StackedPolicies):
    """Memory-lean ``fast``-tier stacking of :class:`CodeLinUCB` agents.

    The bit stacker holds two dense ``(n, A, k)`` float64 tables — the
    repo's scaling ceiling (a warm-private A=40/k=64 agent carries
    ~41 KB of table, so a million agents need ~41 GB).  This variant
    attacks both axes the tables waste:

    * **sparsity** — one interaction touches exactly one ``(arm, code)``
      cell, so after ``T`` rounds an agent has touched at most ``T`` of
      its ``A x k`` cells (about 4% on the §5.2 workload).  Touched
      cells live in one shard-wide sorted COO structure — int64 flat
      keys ``(agent * k + code) * A + arm`` with parallel value
      arrays — selection gathers each agent's ``(arm, code)`` column
      run by ``searchsorted``, updates insert at most one new cell per
      agent per round;
    * **precision** — counts and reward sums are float32.  Counts are
      integers well inside float32's exact range and rewards lie in
      ``[0, 1]``, so the only deviation from the bit tier is rounding
      in the accumulated sums and in the UCB arithmetic — which can
      flip near-exact ties and so change which arm a tie-break picks.
      Trajectories are *statistically* equivalent, not bit-identical;
      ``tests/sim/test_exactness.py`` gates the tier with curve
      tolerance bands.

    When occupancy crosses :attr:`densify_occupancy` (warm-started
    populations can arrive dense), the COO state densifies into
    ``(n, A, k)`` float32 tables — still half the bit tier — and stays
    dense; sparse and densified runs are bit-identical *to each other*
    (both compute the same float32 values).  :meth:`writeback` leaves
    float32 tables on the scalar policies (every ``CodeLinUCB``
    operation accepts them; ``set_state`` round-trips restore float64).
    """

    wants_codes = True

    #: occupancy (touched cells / total cells) above which the COO
    #: state densifies to float32 tables; class attribute so tests can
    #: pin either representation.
    densify_occupancy = 0.25

    def _stack(self, policies: Sequence[CodeLinUCB]) -> None:
        self.alpha = _uniform([p.alpha for p in policies], "alpha")
        self.ridge = _uniform([p.ridge for p in policies], "ridge")
        A, k = self.n_arms, self.n_features
        key_parts, cnt_parts, sum_parts = [], [], []
        for i, p in enumerate(policies):
            a_idx, y_idx = np.nonzero((p.counts != 0.0) | (p.sums != 0.0))
            if a_idx.size == 0:
                continue
            key_parts.append(
                (np.int64(i) * k + y_idx.astype(np.int64)) * A + a_idx.astype(np.int64)
            )
            cnt_parts.append(p.counts[a_idx, y_idx].astype(np.float32))
            sum_parts.append(p.sums[a_idx, y_idx].astype(np.float32))
        if key_parts:
            keys = np.concatenate(key_parts)
            order = np.argsort(keys)
            self._keys = keys[order]
            self._counts = np.concatenate(cnt_parts)[order]
            self._sums = np.concatenate(sum_parts)[order]
        else:
            self._keys = np.empty(0, dtype=np.int64)
            self._counts = np.empty(0, dtype=np.float32)
            self._sums = np.empty(0, dtype=np.float32)
        self._dense_counts: np.ndarray | None = None
        self._dense_sums: np.ndarray | None = None
        self._maybe_densify()

    # ------------------------------------------------------------------ #
    def _gather(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-agent ``(A,)`` count/sum columns at that agent's code.

        Each agent's touched cells for one code are a contiguous key
        run ``[(i*k + y)*A, (i*k + y)*A + A)``; two ``searchsorted``
        calls find every run, and the touched cells scatter into zeroed
        ``(n, A)`` outputs — untouched cells are exactly the zeros the
        dense tables would hold.
        """
        A = self.n_arms
        base = (
            np.arange(self.n, dtype=np.int64) * self.n_features
            + np.asarray(codes, dtype=np.int64)
        ) * A
        lo = np.searchsorted(self._keys, base)
        hi = np.searchsorted(self._keys, base + A)
        lens = hi - lo
        counts_g = np.zeros((self.n, A), dtype=np.float32)
        sums_g = np.zeros((self.n, A), dtype=np.float32)
        total = int(lens.sum())
        if total:
            rows = np.repeat(np.arange(self.n), lens)
            pos = np.repeat(lo, lens) + (
                np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
            )
            arms = (self._keys[pos] % A).astype(np.intp)
            counts_g[rows, arms] = self._counts[pos]
            sums_g[rows, arms] = self._sums[pos]
        return counts_g, sums_g

    def scores_for_codes(self, codes: np.ndarray) -> np.ndarray:
        # same expression as the bit stacker, computed in float32
        if self._dense_counts is not None:
            idx = np.arange(self.n)
            counts_g = self._dense_counts[idx, :, codes]
            sums_g = self._dense_sums[idx, :, codes]
        else:
            counts_g, sums_g = self._gather(codes)
        denom = np.float32(self.ridge) + counts_g
        means = sums_g / denom
        return means + np.float32(self.alpha) * np.sqrt(np.float32(1.0) / denom)

    def select(self, codes: np.ndarray) -> np.ndarray:
        return self._tiebreak(self.scores_for_codes(codes))

    def update(self, codes, actions, rewards) -> None:
        idx = np.arange(self.n)
        if self._dense_counts is not None:
            self._dense_counts[idx, actions, codes] += np.float32(1.0)
            self._dense_sums[idx, actions, codes] += rewards.astype(np.float32)
            self.t += 1
            return
        A = self.n_arms
        keys = (
            idx.astype(np.int64) * self.n_features + np.asarray(codes, dtype=np.int64)
        ) * A + np.asarray(actions, dtype=np.int64)
        pos = np.searchsorted(self._keys, keys)
        in_range = pos < self._keys.size
        exists = np.zeros(keys.size, dtype=bool)
        exists[in_range] = self._keys[pos[in_range]] == keys[in_range]
        if exists.any():
            hit = pos[exists]
            self._counts[hit] += np.float32(1.0)
            self._sums[hit] += rewards[exists].astype(np.float32)
        if not exists.all():
            miss = ~exists
            # one key per agent, agent-major => already ascending
            new_keys = keys[miss]
            ins = np.searchsorted(self._keys, new_keys)
            self._keys = np.insert(self._keys, ins, new_keys)
            self._counts = np.insert(
                self._counts, ins, np.ones(new_keys.size, dtype=np.float32)
            )
            self._sums = np.insert(self._sums, ins, rewards[miss].astype(np.float32))
            self._maybe_densify()
        self.t += 1

    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(agent, arm, code)`` index of every COO cell."""
        A, k = self.n_arms, self.n_features
        i = self._keys // (A * k)
        rem = self._keys - i * (A * k)
        y = rem // A
        return i, rem - y * A, y

    def _maybe_densify(self) -> None:
        n_cells = self.n * self.n_arms * self.n_features
        if self._keys.size < self.densify_occupancy * n_cells:
            return
        i, a, y = self._cells()
        counts = np.zeros((self.n, self.n_arms, self.n_features), dtype=np.float32)
        sums = np.zeros_like(counts)
        counts[i, a, y] = self._counts
        sums[i, a, y] = self._sums
        self._dense_counts, self._dense_sums = counts, sums
        self._keys = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.float32)
        self._sums = np.empty(0, dtype=np.float32)

    def writeback(self) -> None:
        shape = (self.n, self.n_arms, self.n_features)
        out = self._copy_out(counts=(shape, np.float32), sums=(shape, np.float32))
        if self._dense_counts is not None:
            np.copyto(out.counts, self._dense_counts)
            np.copyto(out.sums, self._dense_sums)
            return
        # scatter the COO cells straight into the zeroed tables
        cells = self._cells()
        for name, values in (("counts", self._counts), ("sums", self._sums)):
            table = getattr(out, name)
            table.fill(0.0)
            table[cells] = values


class StackedUCB1(StackedPolicies):
    """``n`` independent :class:`~repro.bandits.ucb1.UCB1` agents (context-free)."""

    columns = (*StackedPolicies.columns, "counts", "sums")

    def _stack(self, policies: Sequence[UCB1]) -> None:
        self.c = _uniform([p.c for p in policies], "c")

    def scores(self) -> np.ndarray:
        scores = np.full((self.n, self.n_arms), np.inf)
        played = self.counts > 0
        if played.any():
            means = np.zeros_like(self.sums)
            np.divide(self.sums, self.counts, out=means, where=played)
            total = np.maximum(self.t, 1).astype(np.float64)
            log_over_n = np.zeros_like(self.sums)
            np.divide(np.log(total)[:, None], self.counts, out=log_over_n, where=played)
            bonus = self.c * np.sqrt(log_over_n)
            scores[played] = means[played] + bonus[played]
        return scores

    def select(self, contexts: np.ndarray | None = None) -> np.ndarray:
        return self._tiebreak(self.scores())

    def update(self, contexts, actions, rewards) -> None:
        idx = np.arange(self.n)
        self.counts[idx, actions] += 1
        self.sums[idx, actions] += rewards
        self.t += 1


_STACKERS: dict[str, type[StackedPolicies]] = {
    LinUCB.kind: StackedLinUCB,
    EpsilonGreedy.kind: StackedEpsilonGreedy,
    LinearThompsonSampling.kind: StackedThompson,
    CodeLinUCB.kind: StackedCodeLinUCB,
    UCB1.kind: StackedUCB1,
}

#: kinds with a dedicated ``fast``-tier stacker; every other kind runs
#: its bit stacker under ``exactness="fast"`` (degenerates to ``bit``).
_FAST_STACKERS: dict[str, type[StackedPolicies]] = {
    CodeLinUCB.kind: StackedCodeLinUCBFast,
    LinUCB.kind: StackedLinUCBFast,
}


def policies_stackable(policies: Sequence[BanditPolicy]) -> bool:
    """Whether :func:`stack_policies` would accept this population.

    Stackability is exactly "every policy shares one non-``None``
    :meth:`~repro.bandits.base.BanditPolicy.fleet_key`": same kind, same
    shapes, same hyperparameters.  Populations that merely *mix* keys
    are not stackable into one state, but the sharded fleet engine
    (:func:`repro.sim.fleet.shard_indices`) still runs them — one
    stacked state per key.
    """
    policies = list(policies)
    if not policies:
        return False
    first = type(policies[0])
    if not all(type(p) is first for p in policies):
        return False
    key = policies[0].fleet_key()
    if key is None or policies[0].kind not in _STACKERS:
        return False
    return all(p.fleet_key() == key for p in policies[1:])


def stack_policies(
    policies: Sequence[BanditPolicy],
    *,
    exactness: str = "bit",
) -> StackedPolicies:
    """Stack a homogeneous policy population for the fleet engine.

    ``exactness`` selects the contract tier (:data:`EXACTNESS_TIERS`):
    ``"bit"`` always uses the bit-identical stackers; ``"fast"`` uses a
    memory-lean stacker for kinds that have one and silently falls back
    to the bit stacker for the rest.
    """
    if exactness not in EXACTNESS_TIERS:
        raise ConfigError(
            f"unknown exactness tier {exactness!r}; "
            f"expected one of {EXACTNESS_TIERS}"
        )
    policies = list(policies)
    if not policies:
        raise ConfigError("cannot stack an empty policy list")
    kind = policies[0].kind
    if kind not in _STACKERS or not policies[0].supports_fleet:
        raise ConfigError(
            f"policy kind {kind!r} does not support fleet stacking; "
            f"stackable kinds: {sorted(_STACKERS)}"
        )
    cls = (
        _FAST_STACKERS[kind]
        if exactness == "fast" and kind in _FAST_STACKERS
        else _STACKERS[kind]
    )
    return cls(policies)
