"""UCB1 (Auer et al., 2002) — context-free upper-confidence baseline.

Included because the paper's background (§2) frames UCB methods
generally before specializing to LinUCB; in benches UCB1 quantifies how
much the *contextual* part of LinUCB is worth on each workload.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..utils.exceptions import ValidationError
from ..utils.validation import check_scalar
from .base import BanditPolicy, check_batch
from .keyed import tiebreak_rows

__all__ = ["UCB1"]


class UCB1(BanditPolicy):
    """Classic UCB1 over arm means; ignores context.

    Parameters
    ----------
    c:
        Confidence scaling (sqrt(2) in the original analysis).
    """

    kind = "ucb1"
    supports_fleet = True

    def __init__(
        self, n_arms: int, n_features: int = 1, *, c: float = np.sqrt(2.0), seed=None
    ) -> None:
        super().__init__(n_arms, n_features, seed=seed)
        self.c = check_scalar(c, name="c", minimum=0.0)
        self.counts = np.zeros(self.n_arms, dtype=np.int64)
        self.sums = np.zeros(self.n_arms, dtype=np.float64)

    def _fleet_hyperparams(self) -> tuple:
        return (self.c,)

    def ucb_scores(self, context: np.ndarray | None = None) -> np.ndarray:
        """UCB1 index per arm; unplayed arms get +inf (forced first plays)."""
        scores = np.full(self.n_arms, np.inf)
        played = self.counts > 0
        if played.any():
            means = self.sums[played] / self.counts[played]
            total = max(self.t, 1)
            bonus = self.c * np.sqrt(np.log(total) / self.counts[played])
            scores[played] = means + bonus
        return scores

    def expected_rewards(self, context: np.ndarray | None = None) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(self.counts > 0, self.sums / np.maximum(self.counts, 1), 0.0)
        return means

    def select(self, context: np.ndarray | None = None) -> int:
        return self._tiebreak(self.ucb_scores())

    def select_batch(self, contexts: np.ndarray | None = None) -> np.ndarray:
        """Batch selection; scores are context-free so one scoring pass serves
        every row, and row ``i`` tie-breaks at counter ``_draws + i``, as
        ``n`` ``select`` calls would."""
        if contexts is None:
            raise ValidationError("select_batch needs contexts (or an int count) to size the batch")
        n = int(contexts) if np.isscalar(contexts) else np.atleast_2d(np.asarray(contexts)).shape[0]
        scores = np.broadcast_to(self.ucb_scores(), (n, self.n_arms))
        return tiebreak_rows(scores, self._key, self._next_draws(n))

    def update(self, context: np.ndarray | None, action: int, reward: float) -> None:
        a = self._check_action(action)
        self.counts[a] += 1
        self.sums[a] += float(reward)
        self.t += 1

    def update_batch(self, contexts, actions, rewards) -> None:
        _, actions, rewards = check_batch(self, contexts, actions, rewards)
        np.add.at(self.counts, actions, 1)
        np.add.at(self.sums, actions, rewards)
        self.t += actions.shape[0]

    def get_state(self) -> dict[str, Any]:
        state = self._state_header()
        state.update(c=self.c, counts=self.counts.copy(), sums=self.sums.copy())
        return state

    def set_state(self, state: Mapping[str, Any]) -> None:
        self._check_state_header(state)
        self.c = float(state["c"])
        self.counts = np.array(state["counts"], dtype=np.int64).reshape(self.n_arms)
        self.sums = np.array(state["sums"], dtype=np.float64).reshape(self.n_arms)
        self.t = int(state["t"])
