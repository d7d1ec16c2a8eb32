"""Disjoint LinUCB (Chu et al., AISTATS 2011; Li et al., WWW 2010).

This is the agent the paper runs on-device (§2, §5): per arm ``a`` it
maintains the ridge-regression sufficient statistics

.. math::

    A_a = \\lambda I + \\sum_t x_t x_t^T,
    \\qquad b_a = \\sum_t r_t x_t,

and selects the arm maximizing the upper confidence bound

.. math::

    p_a = \\theta_a^T x + \\alpha \\sqrt{x^T A_a^{-1} x},
    \\qquad \\theta_a = A_a^{-1} b_a .

``alpha`` controls the exploration/exploitation trade-off; the paper's
experiments all use ``alpha = 1`` ("the local agent is equally likely to
propose an exploration or exploitation action").

Implementation notes (ml-systems guide: vectorize, avoid per-step
solves):

* ``A_a^{-1}`` is maintained directly through rank-1 Sherman–Morrison
  updates — O(d²) per update instead of O(d³);
* arm scores are computed for *all* arms with one einsum each;
* sufficient statistics are additive, so server-side batch training is
  order-invariant, matching the shuffler's order destruction;
* all floating-point math goes through :mod:`repro.bandits.kernels`, so
  the fleet engine's stacked path (:mod:`repro.sim`) reproduces this
  policy bit-for-bit (see the kernels module docstring for why ``@``
  must not be reintroduced here).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..utils.validation import check_matrix, check_scalar
from .base import BanditPolicy, grouped_ridge_update
from .kernels import linear_scores, mat_vec, sherman_morrison, theta_refresh, ucb_explore
from .keyed import tiebreak_rows

__all__ = ["LinUCB"]


class LinUCB(BanditPolicy):
    """Disjoint linear UCB policy.

    Parameters
    ----------
    n_arms, n_features:
        Action count ``A`` and context dimension ``d``.
    alpha:
        Exploration width (paper: 1.0).
    ridge:
        Ridge regularizer ``lambda`` initializing ``A_a = lambda * I``.
    seed:
        Randomness for tie-breaking.

    Examples
    --------
    >>> import numpy as np
    >>> pol = LinUCB(n_arms=2, n_features=3, seed=0)
    >>> a = pol.select(np.array([1.0, 0.0, 0.0]))
    >>> pol.update(np.array([1.0, 0.0, 0.0]), a, reward=1.0)
    """

    kind = "linucb"
    supports_fleet = True

    def __init__(
        self,
        n_arms: int,
        n_features: int,
        *,
        alpha: float = 1.0,
        ridge: float = 1.0,
        seed=None,
    ) -> None:
        super().__init__(n_arms, n_features, seed=seed)
        self.alpha = check_scalar(alpha, name="alpha", minimum=0.0)
        self.ridge = check_scalar(ridge, name="ridge", minimum=0.0, include_min=False)
        d = self.n_features
        # A_inv[a] == inverse of (ridge*I + sum x x^T) for arm a
        self.A_inv = np.repeat((np.eye(d) / self.ridge)[None, :, :], self.n_arms, axis=0)
        self.b = np.zeros((self.n_arms, d))
        self.theta = np.zeros((self.n_arms, d))
        self.arm_counts = np.zeros(self.n_arms, dtype=np.int64)

    def _fleet_hyperparams(self) -> tuple:
        return (self.alpha, self.ridge)

    # ------------------------------------------------------------------ #
    def ucb_scores(self, context: np.ndarray) -> np.ndarray:
        """Upper-confidence scores ``theta_a . x + alpha sqrt(x A_a^{-1} x)``."""
        x = self._check_context(context)
        means = linear_scores(self.theta, x)
        explore = ucb_explore(x, self.A_inv)
        return means + self.alpha * np.sqrt(explore)

    def expected_rewards(self, context: np.ndarray) -> np.ndarray:
        """Exploitation-only estimates ``theta_a . x``."""
        x = self._check_context(context)
        return linear_scores(self.theta, x)

    def select(self, context: np.ndarray) -> int:
        """UCB action for ``context`` (ties broken at random)."""
        return self._tiebreak(self.ucb_scores(context))

    def select_batch(self, contexts: np.ndarray) -> np.ndarray:
        """Vectorized selection: score and tie-break all rows at once."""
        X = check_matrix(contexts, name="contexts", n_cols=self.n_features)
        scores = linear_scores(self.theta, X) + self.alpha * np.sqrt(
            ucb_explore(X, self.A_inv[None, :, :, :])
        )
        return tiebreak_rows(scores, self._key, self._next_draws(X.shape[0]))

    def update(self, context: np.ndarray, action: int, reward: float) -> None:
        """Rank-1 Sherman–Morrison update of arm ``action``'s statistics."""
        x = self._check_context(context)
        a = self._check_action(action)
        r = float(reward)
        A_inv = sherman_morrison(self.A_inv[a], x)
        self.b[a] += r * x
        self.theta[a] = mat_vec(A_inv, self.b[a])
        self.arm_counts[a] += 1
        self.t += 1

    def update_many(self, contexts, actions, rewards) -> None:
        """Sequential-exact batch update (see :func:`grouped_ridge_update`)."""

        def _count(arm: int, rows: np.ndarray) -> None:
            self.arm_counts[arm] += rows.size

        self.t += grouped_ridge_update(
            self, contexts, actions, rewards, on_arm_done=_count
        )

    # ------------------------------------------------------------------ #
    def confidence_width(self, context: np.ndarray, action: int) -> float:
        """``alpha * sqrt(x^T A_a^{-1} x)`` for one arm (diagnostics)."""
        x = self._check_context(context)
        a = self._check_action(action)
        val = float(x @ self.A_inv[a] @ x)
        return self.alpha * float(np.sqrt(max(val, 0.0)))

    # ------------------------------------------------------------------ #
    def get_state(self) -> dict[str, Any]:
        state = self._state_header()
        state.update(
            alpha=self.alpha,
            ridge=self.ridge,
            A_inv=self.A_inv.copy(),
            b=self.b.copy(),
            arm_counts=self.arm_counts.copy(),
        )
        return state

    def set_state(self, state: Mapping[str, Any]) -> None:
        self._check_state_header(state)
        self.alpha = float(state["alpha"])
        self.ridge = float(state["ridge"])
        self.A_inv = np.array(state["A_inv"], dtype=np.float64).reshape(
            self.n_arms, self.n_features, self.n_features
        )
        self.b = np.array(state["b"], dtype=np.float64).reshape(self.n_arms, self.n_features)
        self.arm_counts = np.array(state["arm_counts"], dtype=np.int64).reshape(self.n_arms)
        self.t = int(state["t"])
        self.theta = theta_refresh(self.A_inv, self.b)
