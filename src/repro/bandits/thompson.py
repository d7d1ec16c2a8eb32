"""Linear Thompson sampling (Agrawal & Goyal, ICML 2013).

The paper's conclusion lists "the interplay with alternative contextual
bandit algorithms" as future work; this policy (and epsilon-greedy) are
the natural first alternatives, sharing LinUCB's per-arm ridge
statistics but exploring by posterior sampling:

.. math::

    \\tilde\\theta_a \\sim \\mathcal N(\\theta_a, v^2 A_a^{-1}),
    \\qquad a_t = \\arg\\max_a x^T \\tilde\\theta_a .
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..utils.validation import check_scalar
from .base import BanditPolicy, grouped_ridge_update
from .kernels import linear_scores, mat_vec, sherman_morrison, theta_refresh, vec_dot

__all__ = ["LinearThompsonSampling"]


class LinearThompsonSampling(BanditPolicy):
    """Per-arm Gaussian posterior sampling over linear reward models.

    All float math routes through :mod:`repro.bandits.kernels` and the
    posterior-draw stream order is defined as *arm-major per selection*
    (arm 0's ``d`` normals, then arm 1's, …), which is exactly the order
    one ``standard_normal((A, d))`` fill consumes — the property the
    stacked fleet counterpart (:class:`repro.sim.stacked.StackedThompson`)
    relies on to batch the O(d²) math while keeping draws per-agent.

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
        d = self.n_features
        self.A_inv = np.repeat((np.eye(d) / self.ridge)[None, :, :], self.n_arms, axis=0)
        self.b = np.zeros((self.n_arms, d))
        self.theta = np.zeros((self.n_arms, d))
        # Cholesky factors of A_inv, cached for fast posterior draws
        self._chol = np.repeat(
            (np.eye(d) / np.sqrt(self.ridge))[None, :, :], self.n_arms, axis=0
        )
        self._chol_fresh = np.ones(self.n_arms, dtype=bool)

    def _fleet_hyperparams(self) -> tuple:
        return (self.v, self.ridge)

    def _refresh_chol(self, a: int) -> None:
        if not self._chol_fresh[a]:
            # A_inv is SPD by construction; jitter guards accumulated error
            M = self.A_inv[a]
            try:
                self._chol[a] = np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                jitter = 1e-10 * np.eye(self.n_features)
                self._chol[a] = np.linalg.cholesky(M + jitter)
            self._chol_fresh[a] = True

    def sample_scores(self, context: np.ndarray) -> np.ndarray:
        """One posterior draw of each arm's expected reward at ``context``."""
        x = self._check_context(context)
        scores = np.empty(self.n_arms)
        for a in range(self.n_arms):
            self._refresh_chol(a)
            z = self._rng.standard_normal(self.n_features)
            theta_tilde = self.theta[a] + self.v * mat_vec(self._chol[a], z)
            scores[a] = float(vec_dot(theta_tilde, x))
        return scores

    def expected_rewards(self, context: np.ndarray) -> np.ndarray:
        x = self._check_context(context)
        return linear_scores(self.theta, x)

    def select(self, context: np.ndarray) -> int:
        return self._tiebreak(self.sample_scores(context))

    # select_batch stays the base-class per-row loop: every row draws
    # its posterior normals from this policy's one generator, row by
    # row (tie-breaks are keyed and consume none of it).  The fleet
    # engine batches the math across agents instead and keeps the
    # normals per-agent (StackedThompson).

    def update(self, context: np.ndarray, action: int, reward: float) -> None:
        x = self._check_context(context)
        a = self._check_action(action)
        A_inv = sherman_morrison(self.A_inv[a], x)
        self.b[a] += float(reward) * x
        self.theta[a] = mat_vec(A_inv, self.b[a])
        self._chol_fresh[a] = False
        self.t += 1

    def update_many(self, contexts, actions, rewards) -> None:
        """Sequential-exact batch update (see :func:`grouped_ridge_update`);
        the Cholesky cache is invalidated per touched arm."""

        def _stale(arm: int, rows: np.ndarray) -> None:
            self._chol_fresh[arm] = False

        self.t += grouped_ridge_update(
            self, contexts, actions, rewards, on_arm_done=_stale
        )

    def get_state(self) -> dict[str, Any]:
        state = self._state_header()
        state.update(v=self.v, ridge=self.ridge, A_inv=self.A_inv.copy(), b=self.b.copy())
        return state

    def set_state(self, state: Mapping[str, Any]) -> None:
        self._check_state_header(state)
        self.v = float(state["v"])
        self.ridge = float(state["ridge"])
        self.A_inv = np.array(state["A_inv"], dtype=np.float64).reshape(
            self.n_arms, self.n_features, self.n_features
        )
        self.b = np.array(state["b"], dtype=np.float64).reshape(self.n_arms, self.n_features)
        self.t = int(state["t"])
        self.theta = theta_refresh(self.A_inv, self.b)
        self._chol_fresh = np.zeros(self.n_arms, dtype=bool)
