"""Linear Thompson sampling (Agrawal & Goyal, ICML 2013).

The paper's conclusion lists "the interplay with alternative contextual
bandit algorithms" as future work; this policy (and epsilon-greedy) are
the natural first alternatives, sharing LinUCB's per-arm ridge
statistics but exploring by posterior sampling:

.. math::

    \\tilde\\theta_a \\sim \\mathcal N(\\theta_a, v^2 A_a^{-1}),
    \\qquad a_t = \\arg\\max_a x^T \\tilde\\theta_a .

**Per-arm scalar draws.**  The models are disjoint: each arm has its
own posterior, the draws are independent across arms, and selection
reads only the scores ``x^T theta~_a``.  A linear image of a Gaussian is
Gaussian, so each score is ``N(theta_a . x, v^2 x^T A_a^{-1} x)`` and the
scores are independent across arms.  Drawing each arm's score directly,

.. math::

    s_a = \\theta_a^T x + v \\sqrt{x^T A_a^{-1} x}\\, z_a,
    \\qquad z_a \\sim \\mathcal N(0, 1) \\text{ i.i.d.},

therefore gives the score vector, and so the action, exactly the
distribution of the full ``d``-dimensional draw, with ``A`` normals
instead of ``A d`` and no factorization of ``A_a^{-1}`` (a tiny negative
quadratic form from accumulated rounding clamps to zero, as in LinUCB).
This is LinUCB's score with ``alpha`` replaced by ``v z_a``.  It does
*not* carry over to a shared-parameter LinTS, where one
``theta~ ~ N(theta, v^2 B^{-1})`` scores every arm's feature vector
``x_a``: those scores are correlated across arms (covariance
``v^2 x_a^T B^{-1} x_b``), and independent per-arm draws would change
the law of the argmax.

The normals are keyed draws (:mod:`repro.bandits.keyed`): arm ``a`` at
draw counter ``c`` takes ``keyed_normal(key, STREAM_POSTERIOR, c A + a)``,
and ``select`` tie-breaks at the same ``c`` before advancing it once.
:class:`repro.sim.stacked.StackedThompson` evaluates the same
:func:`posterior_scores` on ``(n, A)`` arrays, bitwise per agent.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..utils.validation import check_matrix, check_scalar
from .base import RidgePolicy, grouped_ridge_update
from .kernels import linear_scores, ucb_explore
from .keyed import STREAM_POSTERIOR, keyed_normal, tiebreak_rows

__all__ = ["LinearThompsonSampling", "posterior_scores"]


def posterior_scores(theta, A_inv, x, v: float, keys, counters) -> np.ndarray:
    """One posterior draw of each arm's score: ``theta_a . x + v
    sqrt(x^T A_a^{-1} x) z_a``.

    Shapes follow the kernels: ``theta (..., a, d)``, ``A_inv
    (..., a, d, d)``, ``x (..., d)`` give ``(..., a)`` scores.  ``keys``
    and ``counters`` broadcast against the leading ``...`` shape; arm
    ``a`` of a row at counter ``c`` draws its normal at slot ``c A + a``.
    """
    n_arms = theta.shape[-2]
    keys = np.asarray(keys, dtype=np.uint64)[..., None]
    slots = np.asarray(counters, dtype=np.uint64)[..., None] * np.uint64(n_arms)
    z = keyed_normal(keys, STREAM_POSTERIOR, slots + np.arange(n_arms, dtype=np.uint64))
    return linear_scores(theta, x) + v * np.sqrt(ucb_explore(x, A_inv)) * z


class LinearThompsonSampling(RidgePolicy):
    """Per-arm Gaussian posterior sampling over linear reward models.

    All float math routes through :mod:`repro.bandits.kernels` and every
    normal is a keyed draw at the policy's counter (module docstring),
    which the stacked fleet counterpart
    (:class:`repro.sim.stacked.StackedThompson`) reproduces bitwise.

    Parameters
    ----------
    v:
        Posterior scale; larger means more exploration.
    ridge:
        Prior precision ``lambda``.
    """

    kind = "lin_ts"
    supports_fleet = True

    def __init__(
        self,
        n_arms: int,
        n_features: int,
        *,
        v: float = 0.5,
        ridge: float = 1.0,
        seed=None,
    ) -> None:
        super().__init__(n_arms, n_features, seed=seed)
        self.v = check_scalar(v, name="v", minimum=0.0)
        self.ridge = check_scalar(ridge, name="ridge", minimum=0.0, include_min=False)
        self._hold_prior()

    def _fleet_hyperparams(self) -> tuple:
        return (self.v, self.ridge)

    def _scores_at(self, x: np.ndarray, counter: int) -> np.ndarray:
        return posterior_scores(self.theta, self.A_inv, x, self.v, self._key, counter)

    def sample_scores(self, context: np.ndarray) -> np.ndarray:
        """One posterior draw of each arm's expected reward at ``context``.

        Draws at the next counter and advances it, so repeated calls
        return fresh draws.
        """
        x = self._check_context(context)
        return self._scores_at(x, self._next_draws(1)[0])

    def select(self, context: np.ndarray) -> int:
        x = self._check_context(context)
        return self._tiebreak(self._scores_at(x, self._draws))

    def select_batch(self, contexts: np.ndarray) -> np.ndarray:
        """Vectorized selection: row ``i`` draws and tie-breaks at counter
        ``_draws + i``, as the ``select`` loop does."""
        X = check_matrix(contexts, name="contexts", n_cols=self.n_features)
        counters = self._next_draws(X.shape[0])
        scores = posterior_scores(
            self.theta, self.A_inv[None, :, :, :], X, self.v, self._key, counters
        )
        return tiebreak_rows(scores, self._key, counters)

    def update(self, context: np.ndarray, action: int, reward: float) -> None:
        self._ridge_update(context, action, reward)

    def update_many(self, contexts, actions, rewards) -> None:
        """Sequential-exact batch update (see :func:`grouped_ridge_update`)."""
        self.t += grouped_ridge_update(self, contexts, actions, rewards)

    def get_state(self) -> dict[str, Any]:
        state = self._state_header()
        state.update(v=self.v, ridge=self.ridge, A_inv=self.A_inv.copy(), b=self.b.copy())
        return state

    def set_state(self, state: Mapping[str, Any]) -> None:
        self._check_state_header(state)
        self._load(
            {"v": float(state["v"]), "ridge": float(state["ridge"])},
            **self._ridge_state(state),
            t=int(state["t"]),
        )
