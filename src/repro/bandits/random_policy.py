"""Uniform-random policy — the floor every other policy must beat."""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from .base import BanditPolicy

__all__ = ["RandomPolicy"]


class RandomPolicy(BanditPolicy):
    """Selects actions uniformly at random; learns nothing.

    Its expected reward equals the context-averaged mean reward over
    arms, which is exactly the paper's 'no personalization' reference
    line in the synthetic benchmark.
    """

    kind = "random"

    def __init__(self, n_arms: int, n_features: int = 1, *, seed=None) -> None:
        super().__init__(n_arms, n_features, seed=seed)

    def select(self, context: np.ndarray | None = None) -> int:
        return int(self._rng.integers(self.n_arms))

    def update(self, context: np.ndarray | None, action: int, reward: float) -> None:
        self._check_action(action)
        self.t += 1

    def expected_rewards(self, context: np.ndarray | None = None) -> np.ndarray:
        return np.zeros(self.n_arms)

    def get_state(self) -> dict[str, Any]:
        return self._state_header()

    def set_state(self, state: Mapping[str, Any]) -> None:
        self._check_state_header(state)
        self.t = int(state["t"])
