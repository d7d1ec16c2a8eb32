"""Non-stationary synthetic users: reward drift and latent-state switches.

The paper's pipeline (Fig. 1) targets production traffic, where a
user's preferences are not frozen for the lifetime of a deployment —
they *drift* (gradual taste change) and occasionally *switch* (a latent
state change: new job, new household member).  This module extends the
synthetic benchmark (§5.1) with both, following the latent-bandit
regime studied by "Beyond Random Noise: Insights on Anonymization
Strategies from a Latent Bandit Study" (see PAPERS.md): each user's
preference vector is piecewise-stationary over *epochs* of
``epoch_length`` interactions, and at every epoch boundary the user
either re-draws a fresh preference from the simplex (probability
``switch_prob`` — a latent switch) or perturbs the current one with
Gaussian drift re-projected onto the simplex.

Fleet contract
--------------

A drifting session still advertises ``has_reward_plan`` — within one
epoch it *is* stationary — and joins the fleet engine's plan fast path
through :meth:`~repro.data.environment.UserSession.plan_horizon_limit`:
the engine plans each session's run horizon as consecutive segments,
each capped at that session's own next drift boundary, so epochs
advance exactly where the sequential loop would advance them and every
segment is one row of the shard's segment table.
Both engines funnel every boundary through one code path
(:meth:`DriftingSyntheticSession._advance_epoch`), which consumes the
session's generator identically whether the horizon is walked step by
step or planned epoch by epoch — keeping drifting fleet runs
bit-identical to sequential (``tests/data/test_drift.py`` pins this).
"""

from __future__ import annotations

import numpy as np

from ..utils.exceptions import ValidationError
from ..utils.rng import ensure_rng
from ..utils.validation import check_positive_int, check_scalar
from .environment import StationaryRewardPlan
from .synthetic import SyntheticPreferenceEnvironment, SyntheticUserSession

__all__ = ["DriftingSyntheticEnvironment", "DriftingSyntheticSession"]


class DriftingSyntheticSession(SyntheticUserSession):
    """A synthetic user whose preference drifts at epoch boundaries.

    Between boundaries the session behaves exactly like its stationary
    parent (fixed preference context, noisy scaled-softmax rewards).
    At each boundary — reached after every ``epoch_length``
    interactions — one uniform draw decides between a latent switch
    (fresh Dirichlet preference) and Gaussian drift (perturb, take
    ``abs``, renormalize onto the simplex); the mean-reward profile is
    then recomputed from the environment's fixed ``W``.
    """

    def __init__(
        self,
        preference: np.ndarray,
        env: "DriftingSyntheticEnvironment",
        rng: np.random.Generator,
        *,
        epoch_length: int,
        switch_prob: float,
        drift_scale: float,
    ) -> None:
        super().__init__(preference, env, rng)
        self._epoch_length = epoch_length
        self._switch_prob = switch_prob
        self._drift_scale = drift_scale
        self._t = 0  # interactions completed (next_context calls / planned steps)
        self._next_boundary = epoch_length

    # -- drift mechanics ----------------------------------------------- #
    def _advance_epoch(self) -> None:
        """Advance one epoch boundary — the *single* drift code path.

        Both the per-step walk (:meth:`next_context`) and the fleet
        plan path (:meth:`plan_rewards`) land here, so the generator is
        consumed identically on both engines: one uniform coin, then
        either a Dirichlet draw (switch) or a ``d``-sized normal draw
        (drift).
        """
        d = self.preference.shape[0]
        if self._rng.random() < self._switch_prob:
            self.preference = self._rng.dirichlet(np.ones(d))
        else:
            p = np.abs(
                self.preference + self._rng.normal(0.0, self._drift_scale, size=d)
            )
            self.preference = p / p.sum()
        self._mean_rewards = self._env.mean_rewards(self.preference)

    def _advance_if_due(self) -> None:
        if self._t == self._next_boundary:
            self._advance_epoch()
            self._next_boundary += self._epoch_length

    # -- UserSession interface ----------------------------------------- #
    def next_context(self) -> np.ndarray:
        self._advance_if_due()
        self._current = self.preference
        self._t += 1
        return self.preference.copy()

    def plan_horizon_limit(self) -> int:
        """Steps until the next epoch boundary (pure; see the base hook)."""
        remaining = self._next_boundary - self._t
        return remaining if remaining > 0 else self._epoch_length

    def plan_rewards(self, horizon: int) -> StationaryRewardPlan:
        """Pre-realize one *within-epoch* stretch (fleet fast path).

        The engine promises ``horizon <= plan_horizon_limit()`` (it
        cuts each session's plan into segments at that session's
        drift boundaries); under that promise the
        stretch is stationary and the parent's plan contract carries
        over verbatim — boundary draws happen here, through the same
        :meth:`_advance_epoch` the sequential walk uses, then the
        noise block draws exactly like ``horizon`` scalar rewards.
        """
        horizon = check_positive_int(horizon, name="horizon")
        limit = self.plan_horizon_limit()
        if horizon > limit:
            raise ValidationError(
                f"plan_rewards(horizon={horizon}) crosses a drift boundary "
                f"(only {limit} stationary steps remain); the fleet engine "
                "caps plans at plan_horizon_limit()"
            )
        self._advance_if_due()
        self._current = self.preference  # as next_context() would set
        noise = self._rng.normal(0.0, self._env.sigma, size=horizon)
        plan = StationaryRewardPlan(
            context=self.preference.copy(),
            mean_rewards=self._mean_rewards.copy(),
            noise=noise,
        )
        self._t += horizon
        return plan


class DriftingSyntheticEnvironment(SyntheticPreferenceEnvironment):
    """The synthetic benchmark with piecewise-stationary users.

    Parameters (beyond :class:`SyntheticPreferenceEnvironment`'s)
    ----------------------------------------------------------------
    epoch_length:
        Interactions per stationary stretch (every user drifts on its
        own clock, but all share this period).
    switch_prob:
        Probability that a boundary is a latent *switch* (fresh simplex
        draw) rather than gradual drift.
    drift_scale:
        Standard deviation of the Gaussian perturbation applied to the
        preference on a non-switch boundary (re-projected onto the
        simplex via ``abs`` + renormalize).
    """

    def __init__(
        self,
        n_actions: int,
        n_features: int,
        *,
        epoch_length: int = 20,
        switch_prob: float = 0.25,
        drift_scale: float = 0.05,
        **kwargs,
    ) -> None:
        super().__init__(n_actions, n_features, **kwargs)
        self.epoch_length = check_positive_int(epoch_length, name="epoch_length")
        self.switch_prob = check_scalar(
            switch_prob, name="switch_prob", minimum=0.0, maximum=1.0
        )
        self.drift_scale = check_scalar(drift_scale, name="drift_scale", minimum=0.0)

    def new_user(self, seed=None) -> DriftingSyntheticSession:
        rng = ensure_rng(seed)
        preference = rng.dirichlet(np.ones(self.n_features))
        return DriftingSyntheticSession(
            preference,
            self,
            rng,
            epoch_length=self.epoch_length,
            switch_prob=self.switch_prob,
            drift_scale=self.drift_scale,
        )
