"""LinUCB specialized to one-hot (encoded-context) inputs.

Warm-private P2B agents act on one-hot indicators of the context code
(paper §5.3).  For one-hot inputs the disjoint LinUCB design matrix

.. math::

    A_a = \\lambda I + \\sum_t e_{y_t} e_{y_t}^T

is *diagonal*, so maintaining the full ``(k, k)`` inverse — O(k²) per
update, O(A k²) per selection — is pure waste.  :class:`CodeLinUCB`
stores the diagonal only: per (arm, code) counts and reward sums, giving
O(1) updates and O(A) selection given the code.  It is **exactly**
LinUCB restricted to one-hot inputs (a property test pins the
equivalence against the dense implementation), and its UCB takes the
familiar per-cell form

.. math::

    p_a = \\frac{s_{a,y}}{\\lambda + n_{a,y}}
          + \\alpha \\sqrt{\\tfrac{1}{\\lambda + n_{a,y}}}.

The class still implements the generic :class:`BanditPolicy` interface
(contexts are one-hot vectors; the hot index is recovered with an
``argmax``), so agents, servers and the serialization registry treat it
like any other policy.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..utils.exceptions import ValidationError
from ..utils.validation import check_scalar
from .base import BanditPolicy, check_batch
from .keyed import tiebreak_rows

__all__ = ["CodeLinUCB"]


class CodeLinUCB(BanditPolicy):
    """Tabular-per-code LinUCB (one-hot contexts only).

    Parameters
    ----------
    n_arms:
        Action count ``A``.
    n_features:
        Codebook size ``k`` (the one-hot dimension).
    alpha, ridge:
        As in :class:`~repro.bandits.linucb.LinUCB`.
    """

    kind = "code_linucb"
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
        # counts[a, y] — observations of arm a under code y
        self.counts = np.zeros((self.n_arms, self.n_features), dtype=np.float64)
        # sums[a, y] — reward totals
        self.sums = np.zeros((self.n_arms, self.n_features), dtype=np.float64)

    def _fleet_hyperparams(self) -> tuple:
        return (self.alpha, self.ridge)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _hot_index(context: np.ndarray) -> int:
        idx = int(np.argmax(context))
        # verify the context really is one-hot (cheap: one comparison pass)
        if context[idx] != 1.0 or np.count_nonzero(context) != 1:
            raise ValidationError(
                "CodeLinUCB requires one-hot contexts; use LinUCB for dense contexts"
            )
        return idx

    def ucb_scores_for_code(self, code: int) -> np.ndarray:
        """UCB score of every arm under code ``code`` (vectorized)."""
        denom = self.ridge + self.counts[:, code]
        means = self.sums[:, code] / denom
        return means + self.alpha * np.sqrt(1.0 / denom)

    def ucb_scores_for_codes(self, codes: np.ndarray) -> np.ndarray:
        """UCB scores of every arm for a batch of codes, shape ``(n, A)``.

        Elementwise over gathered ``(arm, code)`` cells, so each row is
        bit-identical to :meth:`ucb_scores_for_code` on that code.
        """
        codes = np.asarray(codes, dtype=np.intp).ravel()
        denom = self.ridge + self.counts[:, codes].T  # (n, A)
        means = self.sums[:, codes].T / denom
        return means + self.alpha * np.sqrt(1.0 / denom)

    def select_codes(self, codes: np.ndarray) -> np.ndarray:
        """Batch of :meth:`select_code`: vectorized scores and tie-breaks."""
        scores = self.ucb_scores_for_codes(codes)
        return tiebreak_rows(scores, self._key, self._next_draws(scores.shape[0]))

    def expected_rewards_for_code(self, code: int) -> np.ndarray:
        denom = self.ridge + self.counts[:, code]
        return self.sums[:, code] / denom

    def select_code(self, code: int) -> int:
        """Fast path: choose an arm given the integer code directly."""
        return self._tiebreak(self.ucb_scores_for_code(code))

    def update_code(self, code: int, action: int, reward: float) -> None:
        """Fast path: O(1) update given the integer code."""
        a = self._check_action(action)
        self.counts[a, code] += 1.0
        self.sums[a, code] += float(reward)
        self.t += 1

    # ------------------------------------------------------------------ #
    # generic BanditPolicy interface (one-hot vectors)
    # ------------------------------------------------------------------ #
    def ucb_scores(self, context: np.ndarray) -> np.ndarray:
        x = self._check_context(context)
        return self.ucb_scores_for_code(self._hot_index(x))

    def expected_rewards(self, context: np.ndarray) -> np.ndarray:
        x = self._check_context(context)
        return self.expected_rewards_for_code(self._hot_index(x))

    def select(self, context: np.ndarray) -> int:
        return self._tiebreak(self.ucb_scores(context))

    def update(self, context: np.ndarray, action: int, reward: float) -> None:
        x = self._check_context(context)
        self.update_code(self._hot_index(x), action, reward)

    def select_batch(self, contexts: np.ndarray) -> np.ndarray:
        """Vectorized selection over one-hot context rows."""
        contexts = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        codes = np.argmax(contexts, axis=1)
        rows_ok = (
            contexts[np.arange(contexts.shape[0]), codes] == 1.0
        ) & (np.count_nonzero(contexts, axis=1) == 1)
        if not rows_ok.all():
            raise ValidationError("CodeLinUCB batch contains non-one-hot contexts")
        return self.select_codes(codes)

    # update_many stays the base default, which delegates to
    # update_batch: np.add.at accumulates in row order, so the
    # vectorized ingestion below already has exact sequential semantics.

    def update_batch(self, contexts, actions, rewards) -> None:
        """Vectorized batch ingestion (the server's hot path)."""
        contexts, actions, rewards = check_batch(self, contexts, actions, rewards)
        if contexts.shape[0] == 0:
            return
        codes = np.argmax(contexts, axis=1)
        rows_ok = (
            contexts[np.arange(contexts.shape[0]), codes] == 1.0
        ) & (np.count_nonzero(contexts, axis=1) == 1)
        if not rows_ok.all():
            raise ValidationError("CodeLinUCB batch contains non-one-hot contexts")
        np.add.at(self.counts, (actions, codes), 1.0)
        np.add.at(self.sums, (actions, codes), rewards)
        self.t += int(actions.shape[0])

    # ------------------------------------------------------------------ #
    def get_state(self) -> dict[str, Any]:
        state = self._state_header()
        state.update(
            alpha=self.alpha,
            ridge=self.ridge,
            counts=self.counts.copy(),
            sums=self.sums.copy(),
        )
        return state

    def set_state(self, state: Mapping[str, Any]) -> None:
        self._check_state_header(state)
        self.alpha = float(state["alpha"])
        self.ridge = float(state["ridge"])
        self.counts = np.array(state["counts"], dtype=np.float64).reshape(
            self.n_arms, self.n_features
        )
        self.sums = np.array(state["sums"], dtype=np.float64).reshape(
            self.n_arms, self.n_features
        )
        self.t = int(state["t"])
