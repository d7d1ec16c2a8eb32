"""Epsilon-greedy linear bandit.

Maintains the same per-arm ridge statistics as LinUCB but explores by
flipping an ``epsilon`` coin: with probability ``epsilon`` play a
uniform action, otherwise play the greedy arm.  The coin, the uniform
action and the greedy tie-break are keyed draws at one counter value
per ``select`` (:mod:`repro.bandits.keyed`), so the sequential policy
and the stacked fleet share one vectorized expression,
:func:`epsilon_greedy_rows`.  Serves as the simplest
"alternative CBA" for the paper's future-work axis, and as a sanity
baseline in the ablation benches.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..utils.validation import check_matrix, check_probability, check_scalar
from .base import BanditPolicy, grouped_ridge_update
from .kernels import linear_scores, mat_vec, sherman_morrison, theta_refresh
from .keyed import (
    STREAM_EXPLORE_ARM,
    STREAM_EXPLORE_COIN,
    keyed_index,
    keyed_uniform,
    tiebreak_rows,
)

__all__ = ["EpsilonGreedy", "epsilon_greedy_rows"]


def epsilon_greedy_rows(scores: np.ndarray, epsilon, keys, counters) -> np.ndarray:
    """One epsilon-greedy action per row of ``scores``, from keyed draws.

    Row ``i`` explores when its coin at ``counters[i]`` falls below
    ``epsilon`` (a scalar or per-row array) and then plays a uniform
    arm; otherwise it plays its greedy arm, ties broken at the same
    counter.
    """
    explore = keyed_uniform(keys, STREAM_EXPLORE_COIN, counters) < epsilon
    arms = keyed_index(keys, STREAM_EXPLORE_ARM, counters, scores.shape[-1])
    return np.where(explore, arms, tiebreak_rows(scores, keys, counters))


class EpsilonGreedy(BanditPolicy):
    """Linear epsilon-greedy policy.

    Parameters
    ----------
    epsilon:
        Exploration probability in [0, 1].
    decay:
        Optional multiplicative epsilon decay applied after every update
        (1.0 = constant epsilon).
    ridge:
        Ridge regularizer for the per-arm least-squares model.
    """

    kind = "epsilon_greedy"
    supports_fleet = True

    def __init__(
        self,
        n_arms: int,
        n_features: int,
        *,
        epsilon: float = 0.1,
        decay: float = 1.0,
        ridge: float = 1.0,
        seed=None,
    ) -> None:
        super().__init__(n_arms, n_features, seed=seed)
        self.epsilon = check_probability(epsilon, name="epsilon")
        self.decay = check_scalar(decay, name="decay", minimum=0.0, maximum=1.0, include_min=False)
        self.ridge = check_scalar(ridge, name="ridge", minimum=0.0, include_min=False)
        d = self.n_features
        self.A_inv = np.repeat((np.eye(d) / self.ridge)[None, :, :], self.n_arms, axis=0)
        self.b = np.zeros((self.n_arms, d))
        self.theta = np.zeros((self.n_arms, d))

    def _fleet_hyperparams(self) -> tuple:
        # epsilon is decaying *state* (stacked per-agent), not a shard key
        return (self.decay, self.ridge)

    def expected_rewards(self, context: np.ndarray) -> np.ndarray:
        x = self._check_context(context)
        return linear_scores(self.theta, x)

    def select(self, context: np.ndarray) -> int:
        scores = self.expected_rewards(context)[None, :]
        return int(epsilon_greedy_rows(scores, self.epsilon, self._key, self._next_draws(1))[0])

    def select_batch(self, contexts: np.ndarray) -> np.ndarray:
        """Vectorized scoring and draws; row ``i`` draws at counter ``_draws + i``."""
        X = check_matrix(contexts, name="contexts", n_cols=self.n_features)
        scores = linear_scores(self.theta, X)
        return epsilon_greedy_rows(scores, self.epsilon, self._key, self._next_draws(X.shape[0]))

    def update(self, context: np.ndarray, action: int, reward: float) -> None:
        x = self._check_context(context)
        a = self._check_action(action)
        A_inv = sherman_morrison(self.A_inv[a], x)
        self.b[a] += float(reward) * x
        self.theta[a] = mat_vec(A_inv, self.b[a])
        self.epsilon *= self.decay
        self.t += 1

    def update_many(self, contexts, actions, rewards) -> None:
        """Sequential-exact batch update (see :func:`grouped_ridge_update`).

        The epsilon decay is a per-row scalar multiply, so it is applied
        once per row (``epsilon * decay**n`` would round differently).
        """
        n = grouped_ridge_update(self, contexts, actions, rewards)
        for _ in range(n):
            self.epsilon *= self.decay
        self.t += n

    def get_state(self) -> dict[str, Any]:
        state = self._state_header()
        state.update(
            epsilon=self.epsilon,
            decay=self.decay,
            ridge=self.ridge,
            A_inv=self.A_inv.copy(),
            b=self.b.copy(),
        )
        return state

    def set_state(self, state: Mapping[str, Any]) -> None:
        self._check_state_header(state)
        self.epsilon = float(state["epsilon"])
        self.decay = float(state["decay"])
        self.ridge = float(state["ridge"])
        self.A_inv = np.array(state["A_inv"], dtype=np.float64).reshape(
            self.n_arms, self.n_features, self.n_features
        )
        self.b = np.array(state["b"], dtype=np.float64).reshape(self.n_arms, self.n_features)
        self.t = int(state["t"])
        self.theta = theta_refresh(self.A_inv, self.b)
