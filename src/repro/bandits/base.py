"""Contextual-bandit policy interface.

The paper's setting (§2): at time ``t`` the agent observes a
``d``-dimensional context ``x_t``, selects an action
``a_t ∈ {0, …, A-1}``, and observes the reward ``r_{t,a}`` of the chosen
action only.  Every policy in :mod:`repro.bandits` implements this
interface, plus:

* **batch updates** — the P2B server trains the central model from a
  shuffled batch of tuples, so ``update_batch`` must be order-invariant
  for policies used server-side (true for all linear policies here,
  whose sufficient statistics are sums);
* **state serialization** — the central model is shipped to devices as a
  state dict (see :mod:`repro.utils.serialization`); ``get_state`` /
  ``set_state`` round-trip exactly.
"""

from __future__ import annotations

import abc
from typing import Any, Mapping

import numpy as np

from ..utils.exceptions import ValidationError
from ..utils.rng import ensure_rng
from ..utils.validation import check_in_range, check_positive_int, check_vector
from .keyed import NAN_SCORES, STREAM_TIEBREAK, draw_key, keyed_index

__all__ = ["BanditPolicy", "argmax_random_tiebreak", "check_batch"]


def check_batch(policy, contexts, actions, rewards) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A batch update's ``(contexts, actions, rewards)`` as arrays, checked.

    Every batch update calls this before it writes anything, so a
    refused batch leaves the policy untouched: the row counts must
    match and every action must lie in ``[0, n_arms)``.  A context-free
    policy may pass ``None`` contexts.
    """
    if contexts is not None:
        contexts = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
    actions = np.asarray(actions, dtype=np.intp).ravel()
    rewards = np.asarray(rewards, dtype=np.float64).ravel()
    rows = [len(a) for a in (contexts, actions, rewards) if a is not None]
    if len(set(rows)) > 1:
        raise ValidationError(
            f"contexts, actions and rewards must have matching first dimensions: {rows}"
        )
    if actions.size and (actions.min() < 0 or actions.max() >= policy.n_arms):
        raise ValidationError(
            f"actions must lie in [0, {policy.n_arms}), got range "
            f"[{int(actions.min())}, {int(actions.max())}]"
        )
    return contexts, actions, rewards


def grouped_ridge_update(
    policy, contexts, actions, rewards, *, on_arm_done=None
) -> int:
    """Shared ``update_many`` body for the per-arm ridge family.

    Validates shapes and *every* action up front (all-or-nothing —
    strictly safer than the per-row loop, which would raise mid-batch
    with earlier rows already applied), then applies the rank-1
    Sherman–Morrison updates grouped by arm: cross-arm updates commute
    exactly, within-arm order is preserved, and ``theta`` is re-solved
    once per touched arm — the same float operation the last per-row
    update would do, so the end state is bit-identical to the loop.

    ``on_arm_done(arm, rows)`` lets callers update their per-arm
    extras (LinUCB's ``arm_counts``).
    Returns the number of rows applied.
    """
    from ..utils.validation import check_matrix
    from .kernels import mat_vec, sherman_morrison

    X, actions, rewards = check_batch(policy, contexts, actions, rewards)
    check_matrix(X, name="contexts", n_cols=policy.n_features)
    for a in np.unique(actions):
        rows = np.flatnonzero(actions == a)
        A_inv = policy.A_inv[a]
        for i in rows:
            sherman_morrison(A_inv, X[i])
            policy.b[a] += rewards[i] * X[i]
        policy.theta[a] = mat_vec(A_inv, policy.b[a])
        if on_arm_done is not None:
            on_arm_done(int(a), rows)
    return int(actions.shape[0])


def argmax_random_tiebreak(scores: np.ndarray, key, counter: int) -> int:
    """Arm with the highest score; ties broken by the keyed draw.

    Deterministic ``np.argmax`` would bias early exploration toward
    low-indexed arms (all scores start equal), which visibly skews the
    cold-start curves the paper measures — hence randomized tie-breaks.
    The draw is ``H(key, STREAM_TIEBREAK, counter)``
    (:mod:`repro.bandits.keyed`): the one-row case of
    :func:`~repro.bandits.keyed.tiebreak_rows`, bitwise, and like it
    raises :class:`~repro.utils.exceptions.ValidationError` when a NaN
    score leaves no maximum.
    """
    scores = np.asarray(scores, dtype=np.float64)
    best = np.flatnonzero(scores == scores.max())
    if best.size == 1:
        return int(best[0])
    if best.size == 0:
        raise ValidationError(NAN_SCORES)
    return int(best[keyed_index(key, STREAM_TIEBREAK, counter, best.size)[0]])


class BanditPolicy(abc.ABC):
    """Abstract base class for contextual bandit policies.

    Parameters
    ----------
    n_arms:
        Number of actions ``A``.
    n_features:
        Context dimensionality ``d`` (ignored by context-free policies,
        which still validate it for interface uniformity).
    seed:
        Seed / generator for the policy's internal randomness.  Its
        first draw is the policy's ``uint64`` key, which with a draw
        counter keys the tie-breaks, exploration and posterior draws
        (:mod:`repro.bandits.keyed`).  Neither the key nor the counter is part of
        :meth:`get_state`, so policies warm-started from one snapshot
        keep their own streams.
    """

    #: registry key used by state serialization; subclasses override.
    kind: str = "abstract"

    #: whether the fleet engine (:mod:`repro.sim`) can stack this
    #: policy's state and step many instances with vectorized kernels.
    #: Policies that set this True guarantee that their scalar methods
    #: route all floating-point math through :mod:`repro.bandits.kernels`
    #: so the stacked path is bit-identical to the sequential one.
    supports_fleet: bool = False

    def fleet_key(self) -> tuple | None:
        """Hashable fingerprint of everything that must match for two
        instances to share one stacked state in the fleet engine.

        The sharded :class:`~repro.sim.fleet.FleetRunner` groups agents
        by this key (together with agent-level mode/encoder facts): two
        policies with equal keys are guaranteed stackable by
        :func:`repro.sim.stacked.stack_policies`.  Returns ``None`` when
        the policy cannot be stacked at all (``supports_fleet`` False).

        The concrete class (not just ``kind``) is part of the key so a
        subclass never lands in a base-class shard — stacking requires
        exact type equality.
        """
        if not self.supports_fleet:
            return None
        return (type(self), self.n_arms, self.n_features, *self._fleet_hyperparams())

    def _fleet_hyperparams(self) -> tuple:
        """The hyperparameters :func:`fleet_key` fingerprints.

        Subclasses with ``supports_fleet = True`` list every constructor
        hyperparameter their stacked counterpart requires to be uniform
        (mutable *state* — e.g. a decaying epsilon — stays out: state is
        stacked per-agent, only shared constants shard).
        """
        return ()

    def __init__(self, n_arms: int, n_features: int, *, seed=None) -> None:
        self.n_arms = check_positive_int(n_arms, name="n_arms")
        self.n_features = check_positive_int(n_features, name="n_features")
        self._rng = ensure_rng(seed)
        self._key = draw_key(self._rng)
        self._draws = 0  # keyed draw counter: one per select call
        self.t = 0  # total updates observed

    # ------------------------------------------------------------------ #
    # core interface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def select(self, context: np.ndarray) -> int:
        """Choose an action for ``context``."""

    @abc.abstractmethod
    def update(self, context: np.ndarray, action: int, reward: float) -> None:
        """Incorporate one observed ``(context, action, reward)``."""

    def update_batch(
        self, contexts: np.ndarray, actions: np.ndarray, rewards: np.ndarray
    ) -> None:
        """Incorporate a batch of observations (default: loop over rows).

        Linear subclasses keep this loop — their per-step update is a
        rank-1 operation and batches in P2B are modest — but the method
        exists so the server code is policy-agnostic.
        """
        contexts, actions, rewards = check_batch(self, contexts, actions, rewards)
        for x, a, r in zip(contexts, actions, rewards):
            self.update(x, int(a), float(r))

    # ------------------------------------------------------------------ #
    # vectorized batch interface (fleet / server hot paths)
    # ------------------------------------------------------------------ #
    def select_batch(self, contexts: np.ndarray) -> np.ndarray:
        """Choose one action per row of ``contexts``.

        Contract: equivalent to ``[self.select(x) for x in contexts]``
        — including internal RNG consumption and the draw counter, row
        by row — because selection does not mutate policy state.  The
        default loops; subclasses vectorize the scoring and take row
        ``i``'s keyed draws at counter ``_draws + i``.
        """
        contexts = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        return np.array([self.select(x) for x in contexts], dtype=np.intp)

    def update_many(
        self, contexts: np.ndarray, actions: np.ndarray, rewards: np.ndarray
    ) -> None:
        """Incorporate rows *as if* ``update`` were called row by row.

        Unlike :meth:`update_batch` (documented order-invariant for the
        server), ``update_many`` promises exact sequential semantics:
        the resulting state is bit-identical to the per-row loop.
        Subclasses vectorize what commutes (cross-arm work) and keep
        within-arm ordering intact.
        """
        self.update_batch(contexts, actions, rewards)

    # ------------------------------------------------------------------ #
    # helpers for subclasses
    # ------------------------------------------------------------------ #
    def _next_draws(self, n: int) -> np.ndarray:
        """Counters for the next ``n`` select calls, advancing the counter."""
        counters = np.arange(self._draws, self._draws + n, dtype=np.uint64)
        self._draws += n
        return counters

    def _tiebreak(self, scores: np.ndarray) -> int:
        """:func:`argmax_random_tiebreak` at this policy's next counter."""
        counter = self._draws
        self._draws += 1
        return argmax_random_tiebreak(scores, self._key, counter)

    def _check_context(self, context: np.ndarray) -> np.ndarray:
        return check_vector(context, name="context", size=self.n_features)

    def _check_action(self, action: int) -> int:
        return check_in_range(action, name="action", low=0, high=self.n_arms)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def get_state(self) -> dict[str, Any]:
        """Serializable snapshot of the learned parameters.

        Must include ``kind``, ``n_arms``, ``n_features`` and ``t``; the
        remainder is subclass-specific.  The snapshot must contain only
        aggregate statistics — never raw interaction logs — because in
        P2B this object travels from server to every device.
        """

    @abc.abstractmethod
    def set_state(self, state: Mapping[str, Any]) -> None:
        """Restore parameters from :meth:`get_state` output."""

    def _state_header(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "n_arms": self.n_arms,
            "n_features": self.n_features,
            "t": self.t,
        }

    def _check_state_header(self, state: Mapping[str, Any]) -> None:
        if state.get("kind") != self.kind:
            raise ValidationError(
                f"state kind {state.get('kind')!r} does not match policy {self.kind!r}"
            )
        for key in ("n_arms", "n_features"):
            if int(state.get(key, -1)) != getattr(self, key):
                raise ValidationError(
                    f"state {key}={state.get(key)} does not match policy {getattr(self, key)}"
                )

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def expected_rewards(self, context: np.ndarray) -> np.ndarray:
        """Point estimate of each arm's reward (exploitation scores).

        Context-free policies return their empirical means.  Default
        raises; subclasses that can, override.
        """
        raise NotImplementedError(f"{type(self).__name__} has no reward model")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_arms={self.n_arms}, "
            f"n_features={self.n_features}, t={self.t})"
        )
