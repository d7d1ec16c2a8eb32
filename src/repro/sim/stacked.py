"""Stacked per-agent policy state for the fleet engine.

A stacked policy holds the state of ``n`` *independent* policy
instances as arrays with a leading agent axis — e.g. LinUCB's design
inverses as ``(n_agents, n_arms, d, d)`` — and steps all agents per
round with one kernel call instead of ``n`` Python calls.

Exactness contract (see :mod:`repro.sim`): every floating-point
operation here is the *same* :mod:`repro.bandits.kernels` einsum or the
same elementwise expression the scalar policy performs, applied with a
broadcast leading axis.  Randomness is never batched: each agent's
tie-breaks and exploration coins are drawn from that agent's own
generator, in the same within-agent order as the sequential path, so
stacked and sequential runs consume identical streams.

Concurrency: a stacked policy is confined to its shard — its arrays,
generators and policy objects belong to that shard's agents alone — so
:class:`~repro.sim.fleet.FleetRunner`'s parallel shard stepping
(``n_workers > 1``) never has two threads inside the same stacked
state; the numpy kernels additionally release the GIL, which is what
makes thread-level shard parallelism pay.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from ..bandits.base import BanditPolicy, argmax_random_tiebreak
from ..bandits.code_linucb import CodeLinUCB
from ..bandits.epsilon_greedy import EpsilonGreedy
from ..bandits.kernels import (
    auto_block_size,
    linear_scores,
    mat_vec,
    sherman_morrison,
    sm_quad_downdate,
    theta_refresh,
    ucb_explore,
    ucb_explore_fast,
    vec_dot,
)
from ..bandits.linucb import LinUCB
from ..bandits.thompson import LinearThompsonSampling
from ..bandits.ucb1 import UCB1
from ..utils.exceptions import ConfigError

__all__ = [
    "StackedPolicies",
    "StackedLinUCB",
    "StackedLinUCBFast",
    "StackedEpsilonGreedy",
    "StackedThompson",
    "StackedThompsonFast",
    "StackedCodeLinUCB",
    "StackedCodeLinUCBFast",
    "StackedUCB1",
    "stack_policies",
    "policies_stackable",
    "EXACTNESS_TIERS",
]

#: recognized exactness tiers for stacked policy state: ``bit`` (the
#: default) keeps every stacked operation bit-identical to the scalar
#: policies; ``fast`` trades bit-identity for memory and speed — policy
#: kinds with a fast stacker (:class:`StackedCodeLinUCBFast`'s float32
#: sparse tables, :class:`StackedLinUCBFast`'s float32 dense posteriors
#: with incremental UCB, :class:`StackedThompsonFast`'s shard-batched
#: posterior draws) produce trajectories that are *statistically*
#: equivalent to the bit tier (same math up to float32 rounding / draw
#: stream regrouping, and the tie-breaks those can flip); kinds without
#: a fast stacker run their bit stacker unchanged, so ``fast``
#: degenerates to ``bit`` for them.
EXACTNESS_TIERS = ("bit", "fast")


def _tiebreak_rows(
    scores: np.ndarray, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Row-wise :func:`argmax_random_tiebreak` with per-row generators.

    Rows with a unique maximum take the vectorized argmax and consume
    no randomness — exactly like the scalar helper.  Only tied rows
    fall back to that row's generator, with the same ``choice`` call.
    """
    row_max = scores.max(axis=1)
    is_max = scores == row_max[:, None]
    actions = scores.argmax(axis=1).astype(np.intp)
    for i in np.flatnonzero(is_max.sum(axis=1) > 1):
        best = is_max[i].nonzero()[0]
        # one integers draw == rng.choice(best) on the stream (see
        # argmax_random_tiebreak), so tied rows stay bit-identical
        actions[i] = int(best[rngs[i].integers(0, best.size)])
    return actions


def _uniform(values, what: str):
    """Assert all agents share a hyperparameter; return the shared value."""
    first = values[0]
    if any(v != first for v in values[1:]):
        raise ConfigError(f"cannot stack policies with differing {what}: {sorted(set(values))}")
    return first


class StackedPolicies(abc.ABC):
    """Base class: ``n`` same-kind policies as one stacked state.

    Subclasses stack in ``__init__``, mutate only their stacked arrays
    during the run, and copy state back into the policy objects in
    :meth:`writeback`.  The policy objects' generators are used in
    place throughout, so their streams are already advanced correctly
    when writeback happens.
    """

    #: True when the stacked select/update consume integer codes
    #: (one-hot specialists) rather than dense context rows.
    wants_codes: bool = False

    def __init__(self, policies: Sequence[BanditPolicy]) -> None:
        policies = list(policies)
        if not policies:
            raise ConfigError("cannot stack an empty policy list")
        kinds = {type(p) for p in policies}
        if len(kinds) != 1:
            raise ConfigError(
                f"cannot stack mixed policy types: {sorted(c.__name__ for c in kinds)}"
            )
        self.policies = policies
        self.n_agents = len(policies)
        self.n_arms = _uniform([p.n_arms for p in policies], "n_arms")
        self.n_features = _uniform([p.n_features for p in policies], "n_features")
        self.rngs = [p._rng for p in policies]
        self.t = np.array([p.t for p in policies], dtype=np.int64)

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def select(self, contexts: np.ndarray) -> np.ndarray:
        """One action per agent for that agent's context row."""

    @abc.abstractmethod
    def update(self, contexts: np.ndarray, actions: np.ndarray, rewards: np.ndarray) -> None:
        """One update per agent (row ``i`` updates agent ``i``'s state)."""

    @abc.abstractmethod
    def writeback(self) -> None:
        """Copy stacked state back into the underlying policy objects."""

    def _writeback_t(self) -> None:
        for i, p in enumerate(self.policies):
            p.t = int(self.t[i])

    def state_nbytes(self) -> int:
        """Bytes of stacked policy-state arrays currently held.

        Counts every ndarray attribute of the stacked instance (count
        and sum tables, design inverses, Cholesky factors, the ``t``
        vector, ...) — the engine-side policy state whose footprint the
        memory bench compares across exactness tiers.  Scalar policy
        objects and generators are not included.
        """
        return sum(
            v.nbytes for v in self.__dict__.values() if isinstance(v, np.ndarray)
        )


class _StackedDenseLinear(StackedPolicies):
    """Shared stacking for the dense ridge family (LinUCB, eps-greedy)."""

    def __init__(self, policies: Sequence[BanditPolicy]) -> None:
        super().__init__(policies)
        self.ridge = _uniform([p.ridge for p in policies], "ridge")
        self.A_inv = np.stack([p.A_inv for p in policies])  # (n, k, d, d)
        self.b = np.stack([p.b for p in policies])  # (n, k, d)
        self.theta = np.stack([p.theta for p in policies])  # (n, k, d)

    def _score_block(self) -> int:
        """Rows per blocked scoring chunk, sized to cache (blocked and
        unblocked evaluation are bitwise identical)."""
        return auto_block_size(self.A_inv[0].nbytes)

    def _dense_update(
        self, contexts: np.ndarray, actions: np.ndarray, rewards: np.ndarray
    ) -> None:
        idx = np.arange(self.n_agents)
        A_sel = self.A_inv[idx, actions]  # gather copies (n, d, d)
        sherman_morrison(A_sel, contexts)
        b_sel = self.b[idx, actions]
        b_sel += rewards[:, None] * contexts
        self.A_inv[idx, actions] = A_sel
        self.b[idx, actions] = b_sel
        self.theta[idx, actions] = theta_refresh(A_sel, b_sel)
        self.t += 1

    def _writeback_dense(self) -> None:
        # three bulk copies + per-agent views instead of 3n row copies:
        # each policy gets a disjoint row of one snapshot array (agents
        # never alias each other's rows, and the snapshot is decoupled
        # from the live stacked state, so a persistent fleet stepping on
        # after writeback cannot mutate what the policies now hold)
        A_out, b_out, theta_out = self.A_inv.copy(), self.b.copy(), self.theta.copy()
        for i, p in enumerate(self.policies):
            p.A_inv = A_out[i]
            p.b = b_out[i]
            p.theta = theta_out[i]
        self._writeback_t()


class StackedLinUCB(_StackedDenseLinear):
    """``n`` independent :class:`~repro.bandits.linucb.LinUCB` agents."""

    def __init__(self, policies: Sequence[LinUCB]) -> None:
        super().__init__(policies)
        self.alpha = _uniform([p.alpha for p in policies], "alpha")
        self.arm_counts = np.stack([p.arm_counts for p in policies])

    def scores(self, contexts: np.ndarray) -> np.ndarray:
        block = self._score_block()
        means = linear_scores(self.theta, contexts, block_size=block)
        explore = ucb_explore(contexts, self.A_inv, block_size=block)
        return means + self.alpha * np.sqrt(explore)

    def select(self, contexts: np.ndarray) -> np.ndarray:
        return _tiebreak_rows(self.scores(contexts), self.rngs)

    def update(self, contexts, actions, rewards) -> None:
        self._dense_update(contexts, actions, rewards)
        self.arm_counts[np.arange(self.n_agents), actions] += 1

    def writeback(self) -> None:
        counts_out = self.arm_counts.copy()
        for i, p in enumerate(self.policies):
            p.arm_counts = counts_out[i]
        self._writeback_dense()


class StackedLinUCBFast(StackedLinUCB):
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

    :meth:`writeback` (inherited) leaves float32 arrays on the scalar
    policies — every LinUCB operation accepts them, mirroring
    :class:`StackedCodeLinUCBFast`'s convention; ``set_state``
    round-trips restore float64.
    """

    def __init__(self, policies: Sequence[LinUCB]) -> None:
        super().__init__(policies)
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
            block = self._score_block()
            self._means = linear_scores(self.theta, ctx32, block_size=block)
            self._quads = ucb_explore_fast(ctx32, self.A_inv, block_size=block)
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
            idx = np.arange(self.n_agents)
            self._quads[idx, actions] = sm_quad_downdate(self._quads[idx, actions])
            self._means[idx, actions] = vec_dot(self.theta[idx, actions], ctx32)
        else:
            # updated with contexts the cache was not scored against
            # (drifted mid-round) — drop it; next scores() recomputes
            self._ctx_cache = None


class StackedEpsilonGreedy(_StackedDenseLinear):
    """``n`` independent :class:`~repro.bandits.epsilon_greedy.EpsilonGreedy` agents."""

    def __init__(self, policies: Sequence[EpsilonGreedy]) -> None:
        super().__init__(policies)
        self.decay = _uniform([p.decay for p in policies], "decay")
        # epsilon is *state* (it decays), so it stays per-agent
        self.epsilon = np.array([p.epsilon for p in policies], dtype=np.float64)

    def select(self, contexts: np.ndarray) -> np.ndarray:
        scores = linear_scores(self.theta, contexts)
        actions = np.empty(self.n_agents, dtype=np.intp)
        for i in range(self.n_agents):
            rng = self.rngs[i]
            if rng.random() < self.epsilon[i]:
                actions[i] = int(rng.integers(self.n_arms))
            else:
                actions[i] = argmax_random_tiebreak(scores[i], rng)
        return actions

    def update(self, contexts, actions, rewards) -> None:
        self._dense_update(contexts, actions, rewards)
        self.epsilon *= self.decay

    def writeback(self) -> None:
        for i, p in enumerate(self.policies):
            p.epsilon = float(self.epsilon[i])
        self._writeback_dense()


class StackedThompson(_StackedDenseLinear):
    """``n`` independent :class:`~repro.bandits.thompson.LinearThompsonSampling` agents.

    All O(d²) work — Cholesky refresh, posterior-mean shifts, scoring,
    Sherman–Morrison — runs stacked; only the posterior draws stay in a
    thin per-agent loop, because each draw must come from that agent's
    own generator.  One ``standard_normal((A, d))`` fill per agent
    consumes the stream in exactly the arm-major order the scalar
    policy's per-arm loop does (the stream order
    :class:`~repro.bandits.thompson.LinearThompsonSampling` defines), so
    Thompson joins the bit-identity contract instead of breaking it.
    """

    def __init__(self, policies: Sequence[LinearThompsonSampling]) -> None:
        super().__init__(policies)
        self.v = _uniform([p.v for p in policies], "v")
        self.chol = np.stack([p._chol for p in policies])  # (n, A, d, d)
        self.chol_fresh = np.stack([p._chol_fresh for p in policies])  # (n, A)

    def _refresh_chol(self) -> None:
        """Batched equivalent of the scalar lazy per-arm refresh.

        The scalar policy refreshes every stale arm (consuming no RNG)
        at the top of each selection; here all stale ``(agent, arm)``
        pairs refresh in one gufunc call — numpy's batched ``cholesky``
        runs the same LAPACK factorization per matrix, so the factors
        are bitwise those of the scalar path.
        """
        stale = ~self.chol_fresh
        if not stale.any():
            return
        rows, arms = np.nonzero(stale)
        try:
            self.chol[rows, arms] = np.linalg.cholesky(self.A_inv[rows, arms])
        except np.linalg.LinAlgError:
            # mirror the scalar fallback per matrix: jitter only the
            # matrices that actually fail
            jitter = 1e-10 * np.eye(self.n_features)
            for i, a in zip(rows, arms):
                try:
                    self.chol[i, a] = np.linalg.cholesky(self.A_inv[i, a])
                except np.linalg.LinAlgError:
                    self.chol[i, a] = np.linalg.cholesky(self.A_inv[i, a] + jitter)
        self.chol_fresh[rows, arms] = True

    def sample_scores(self, contexts: np.ndarray) -> np.ndarray:
        self._refresh_chol()
        Z = np.empty((self.n_agents, self.n_arms, self.n_features))
        for i, rng in enumerate(self.rngs):
            Z[i] = rng.standard_normal((self.n_arms, self.n_features))
        theta_tilde = self.theta + self.v * mat_vec(self.chol, Z)
        return vec_dot(theta_tilde, contexts[:, None, :])

    def select(self, contexts: np.ndarray) -> np.ndarray:
        return _tiebreak_rows(self.sample_scores(contexts), self.rngs)

    def update(self, contexts, actions, rewards) -> None:
        self._dense_update(contexts, actions, rewards)
        self.chol_fresh[np.arange(self.n_agents), actions] = False

    def writeback(self) -> None:
        chol_out, fresh_out = self.chol.copy(), self.chol_fresh.copy()
        for i, p in enumerate(self.policies):
            p._chol = chol_out[i]
            p._chol_fresh = fresh_out[i]
        self._writeback_dense()


class StackedThompsonFast(StackedThompson):
    """``fast``-tier Thompson: one batched posterior-draw fill per shard.

    The bit stacker's only per-agent Python is the posterior-draw loop —
    ``n`` ``standard_normal((A, d))`` calls per round, because each draw
    must come from that agent's own generator to preserve the scalar
    stream order.  Here the whole shard fills from **one** generator and
    **one** ``standard_normal((n, A, d))`` call per round; the fill is
    laid out agent-major, each agent's block in the same arm-major order
    the scalar policy defines, so per-agent draws are simply regrouped
    into one stream rather than reordered within an agent.  The draws
    are iid normals either way — trajectories are *statistically*
    equivalent, not bitwise (the tier's contract), and the agents' own
    generators (still used for tie-breaks) advance differently from the
    bit tier.

    The shard generator is spawned from agent 0's stream at stacking
    time, so a fast-tier run remains fully seeded and reproducible.
    """

    def __init__(self, policies: Sequence[LinearThompsonSampling]) -> None:
        super().__init__(policies)
        self._draw_rng = self.rngs[0].spawn(1)[0]

    def sample_scores(self, contexts: np.ndarray) -> np.ndarray:
        self._refresh_chol()
        Z = self._draw_rng.standard_normal(
            (self.n_agents, self.n_arms, self.n_features)
        )
        theta_tilde = self.theta + self.v * mat_vec(self.chol, Z)
        return vec_dot(theta_tilde, contexts[:, None, :])


class StackedCodeLinUCB(StackedPolicies):
    """``n`` independent :class:`~repro.bandits.code_linucb.CodeLinUCB` agents.

    Operates on integer codes directly (``wants_codes``): the one-hot
    detour the scalar interface takes is a pure re-derivation of the
    code, so skipping it changes nothing observable.
    """

    wants_codes = True

    def __init__(self, policies: Sequence[CodeLinUCB]) -> None:
        super().__init__(policies)
        self.alpha = _uniform([p.alpha for p in policies], "alpha")
        self.ridge = _uniform([p.ridge for p in policies], "ridge")
        self.counts = np.stack([p.counts for p in policies])  # (n, A, k)
        self.sums = np.stack([p.sums for p in policies])  # (n, A, k)

    def scores_for_codes(self, codes: np.ndarray) -> np.ndarray:
        idx = np.arange(self.n_agents)
        counts_g = self.counts[idx, :, codes]  # (n, A)
        sums_g = self.sums[idx, :, codes]
        denom = self.ridge + counts_g
        means = sums_g / denom
        return means + self.alpha * np.sqrt(1.0 / denom)

    def select(self, codes: np.ndarray) -> np.ndarray:
        return _tiebreak_rows(self.scores_for_codes(codes), self.rngs)

    def update(self, codes, actions, rewards) -> None:
        idx = np.arange(self.n_agents)
        self.counts[idx, actions, codes] += 1.0
        self.sums[idx, actions, codes] += rewards
        self.t += 1

    def writeback(self) -> None:
        counts_out, sums_out = self.counts.copy(), self.sums.copy()
        for i, p in enumerate(self.policies):
            p.counts = counts_out[i]
            p.sums = sums_out[i]
        self._writeback_t()


class StackedCodeLinUCBFast(StackedPolicies):
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
      flip near-exact ties and therefore consume tie-break randomness
      differently.  Trajectories are *statistically* equivalent, not
      bit-identical; ``tests/sim/test_exactness.py`` gates the tier
      with curve tolerance bands.

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

    def __init__(self, policies: Sequence[CodeLinUCB]) -> None:
        super().__init__(policies)
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
            np.arange(self.n_agents, dtype=np.int64) * self.n_features
            + np.asarray(codes, dtype=np.int64)
        ) * A
        lo = np.searchsorted(self._keys, base)
        hi = np.searchsorted(self._keys, base + A)
        lens = hi - lo
        counts_g = np.zeros((self.n_agents, A), dtype=np.float32)
        sums_g = np.zeros((self.n_agents, A), dtype=np.float32)
        total = int(lens.sum())
        if total:
            rows = np.repeat(np.arange(self.n_agents), lens)
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
            idx = np.arange(self.n_agents)
            counts_g = self._dense_counts[idx, :, codes]
            sums_g = self._dense_sums[idx, :, codes]
        else:
            counts_g, sums_g = self._gather(codes)
        denom = np.float32(self.ridge) + counts_g
        means = sums_g / denom
        return means + np.float32(self.alpha) * np.sqrt(np.float32(1.0) / denom)

    def select(self, codes: np.ndarray) -> np.ndarray:
        return _tiebreak_rows(self.scores_for_codes(codes), self.rngs)

    def update(self, codes, actions, rewards) -> None:
        idx = np.arange(self.n_agents)
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

    def _maybe_densify(self) -> None:
        n_cells = self.n_agents * self.n_arms * self.n_features
        if self._keys.size < self.densify_occupancy * n_cells:
            return
        A, k = self.n_arms, self.n_features
        i = self._keys // (A * k)
        rem = self._keys - i * (A * k)
        y = rem // A
        a = rem - y * A
        counts = np.zeros((self.n_agents, A, k), dtype=np.float32)
        sums = np.zeros_like(counts)
        counts[i, a, y] = self._counts
        sums[i, a, y] = self._sums
        self._dense_counts, self._dense_sums = counts, sums
        self._keys = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.float32)
        self._sums = np.empty(0, dtype=np.float32)

    def writeback(self) -> None:
        A, k = self.n_arms, self.n_features
        if self._dense_counts is not None:
            for i, p in enumerate(self.policies):
                p.counts = self._dense_counts[i].copy()
                p.sums = self._dense_sums[i].copy()
        else:
            span = A * k
            bounds = np.searchsorted(
                self._keys, np.arange(self.n_agents + 1, dtype=np.int64) * span
            )
            rem = self._keys - (self._keys // span) * span
            y_all = rem // A
            a_all = rem - y_all * A
            for i, p in enumerate(self.policies):
                lo, hi = bounds[i], bounds[i + 1]
                counts = np.zeros((A, k), dtype=np.float32)
                sums = np.zeros((A, k), dtype=np.float32)
                counts[a_all[lo:hi], y_all[lo:hi]] = self._counts[lo:hi]
                sums[a_all[lo:hi], y_all[lo:hi]] = self._sums[lo:hi]
                p.counts = counts
                p.sums = sums
        self._writeback_t()


class StackedUCB1(StackedPolicies):
    """``n`` independent :class:`~repro.bandits.ucb1.UCB1` agents (context-free)."""

    def __init__(self, policies: Sequence[UCB1]) -> None:
        super().__init__(policies)
        self.c = _uniform([p.c for p in policies], "c")
        self.counts = np.stack([p.counts for p in policies])  # (n, A) int64
        self.sums = np.stack([p.sums for p in policies])  # (n, A)

    def scores(self) -> np.ndarray:
        scores = np.full((self.n_agents, self.n_arms), np.inf)
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
        return _tiebreak_rows(self.scores(), self.rngs)

    def update(self, contexts, actions, rewards) -> None:
        idx = np.arange(self.n_agents)
        self.counts[idx, actions] += 1
        self.sums[idx, actions] += rewards
        self.t += 1

    def writeback(self) -> None:
        counts_out, sums_out = self.counts.copy(), self.sums.copy()
        for i, p in enumerate(self.policies):
            p.counts = counts_out[i]
            p.sums = sums_out[i]
        self._writeback_t()


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
    LinearThompsonSampling.kind: StackedThompsonFast,
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
