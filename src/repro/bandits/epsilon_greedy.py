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

from ..utils.columns import Column
from ..utils.validation import check_matrix, check_probability, check_scalar
from .base import RidgePolicy, grouped_ridge_update
from .kernels import linear_scores
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


class EpsilonGreedy(RidgePolicy):
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

    #: the exploration probability: decaying state
    epsilon = Column()

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
        self.decay = check_scalar(decay, name="decay", minimum=0.0, maximum=1.0, include_min=False)
        self.ridge = check_scalar(ridge, name="ridge", minimum=0.0, include_min=False)
        self._hold_prior(epsilon=np.float64(check_probability(epsilon, name="epsilon")))

    def _fleet_hyperparams(self) -> tuple:
        # epsilon is decaying *state* (stacked per-agent), not a shard key
        return (self.decay, self.ridge)

    def select(self, context: np.ndarray) -> int:
        scores = self.expected_rewards(context)[None, :]
        return int(epsilon_greedy_rows(scores, self.epsilon, self._key, self._next_draws(1))[0])

    def select_batch(self, contexts: np.ndarray) -> np.ndarray:
        """Vectorized scoring and draws; row ``i`` draws at counter ``_draws + i``."""
        X = check_matrix(contexts, name="contexts", n_cols=self.n_features)
        scores = linear_scores(self.theta, X)
        return epsilon_greedy_rows(scores, self.epsilon, self._key, self._next_draws(X.shape[0]))

    def update(self, context: np.ndarray, action: int, reward: float) -> None:
        self._ridge_update(context, action, reward)
        self.epsilon *= self.decay

    def update_many(self, contexts, actions, rewards) -> None:
        """Sequential-exact batch update (see :func:`grouped_ridge_update`).

        The epsilon decay is a per-row scalar multiply, so it is applied
        once per row (``epsilon * decay**n`` would round differently).
        """
        n = grouped_ridge_update(self, contexts, actions, rewards)
        epsilon = self.epsilon
        for _ in range(n):
            epsilon *= self.decay
        self.epsilon = epsilon
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
        self._load(
            {"decay": float(state["decay"]), "ridge": float(state["ridge"])},
            epsilon=float(state["epsilon"]),
            **self._ridge_state(state),
            t=int(state["t"]),
        )
