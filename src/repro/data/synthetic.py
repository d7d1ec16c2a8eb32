"""Synthetic preference benchmark (paper §5.1).

"There's a stochastic function F that relates context vectors with the
probability of a proposed action receiving a reward.  Specifically, F
is the scaled softmax output of a matrix-vector product of the user
preferences with a randomly generated weight matrix W.  We set the mean
reward r̄_{t,a} for a proposed action a_t given context vector x_t as
r̄_{t,a} = β f^{(i)}(x) + z."

Concretely, with paper defaults ``beta = 0.1`` and ``sigma^2 = 0.01``:

* the environment fixes one weight matrix ``W ∈ R^{A×d}``;
* each *user* draws a preference vector ``x_u`` uniformly from the
  probability simplex (the paper's §4 uniformity assumption) — the
  user's context at every interaction;
* the realized reward of action ``a`` is
  ``clip_{[0,1]}( beta * softmax(W x)_a + z )``, ``z ~ N(0, sigma^2)``.

Each user's noise is a keyed draw (:mod:`repro.bandits.keyed`): the
user's ``n``-th realized reward adds ``sigma * keyed_normal(key,
STREAM_REWARD_NOISE, n)``, with the key drawn from the user's
generator right after the preference.  The noise is a function of the
user and a counter alone, so
:meth:`SyntheticPreferenceEnvironment.plan_block` realizes it for any
number of users and steps in one array expression, bitwise the
sequential loop's.

Rewards are clipped into the bandit range ``[0, 1]`` (§2); the clip
affects every arm and setting identically, so curve *shapes* —
the object of the reproduction — are unaffected.
"""

from __future__ import annotations

import numpy as np

from ..bandits.keyed import STREAM_REWARD_NOISE, draw_key, keyed_normal
from ..utils.math import clip01, softmax
from ..utils.rng import ensure_rng
from ..utils.validation import (
    check_in_range,
    check_positive_int,
    check_scalar,
)
from .environment import Environment, RewardBlock, UserSession

__all__ = ["SyntheticPreferenceEnvironment", "SyntheticUserSession"]


class SyntheticUserSession(UserSession):
    """One synthetic user: fixed preference vector, noisy scaled-softmax rewards."""

    has_reward_plan = True  # stationary: plan_rewards() is an exact stand-in

    def __init__(
        self,
        preference: np.ndarray,
        env: "SyntheticPreferenceEnvironment",
        rng: np.random.Generator,
    ) -> None:
        self.preference = preference
        self.environment = env
        self._rng = rng
        # the reward-noise key, drawn right after the preference, and
        # the rewards realized so far (reward calls and planned steps):
        # the n-th reward's noise is the keyed draw at counter n
        self._key = draw_key(rng)
        self._draws = 0
        # the means of ``_means_of`` — computed on first use, so a
        # session the fleet engine plans never computes them itself
        self._means: np.ndarray | None = None
        self._means_of: np.ndarray | None = None
        self._current: np.ndarray | None = None

    def _mean_rewards(self) -> np.ndarray:
        """``environment.mean_rewards(preference)``, cached per preference array."""
        if self._means_of is not self.preference:
            self._means = self.environment.mean_rewards(self.preference)
            self._means_of = self.preference
        return self._means  # type: ignore[return-value]

    def next_context(self) -> np.ndarray:
        self._current = self.preference
        return self.preference.copy()

    def reward(self, action: int) -> float:
        self._require_context(self._current)
        action = check_in_range(action, name="action", low=0, high=self.environment.n_actions)
        z = self.environment.reward_noise(self._key, self._draws)
        self._draws += 1
        return float(clip01(self._mean_rewards()[action] + z[0]))

    def expected_rewards(self) -> np.ndarray:
        self._require_context(self._current)
        return self._mean_rewards().copy()

    def plan_rewards(self, horizon: int) -> RewardBlock:
        """Plan ``horizon`` interactions: the one-session ``plan_block``."""
        return self.environment.plan_block([self], horizon)


class SyntheticPreferenceEnvironment(Environment):
    """The paper's synthetic benchmark population.

    Parameters
    ----------
    n_actions:
        Number of arms ``A`` (paper sweeps 10 / 20 / 50).
    n_features:
        Context dimension ``d`` (paper sweeps 5–20).
    beta:
        Softmax scaling factor (paper: 0.1).
    sigma2:
        Reward noise variance (paper: 0.01).
    weight_scale:
        Standard deviation of the entries of ``W`` (the paper says only
        "randomly generated").  This controls softmax sharpness and
        hence the oracle/random reward ratio: with ``weight_scale=1``
        the best arm earns only ~2.5x a random arm, while the paper's
        Fig. 4 shows warm-starting "more than doubles" reward — which
        requires a sharper preference landscape.  The experiment
        harness uses ``weight_scale=8`` (documented in EXPERIMENTS.md);
        the default here is the neutral 1.0.
    seed:
        Seeds the weight matrix ``W`` only; user randomness comes from
        per-user seeds so populations are reproducible and independent.

    Examples
    --------
    >>> env = SyntheticPreferenceEnvironment(n_actions=5, n_features=4, seed=0)
    >>> user = env.new_user(seed=1)
    >>> x = user.next_context()
    >>> 0.0 <= user.reward(0) <= 1.0
    True
    """

    def __init__(
        self,
        n_actions: int,
        n_features: int,
        *,
        beta: float = 0.1,
        sigma2: float = 0.01,
        weight_scale: float = 1.0,
        seed=None,
    ) -> None:
        check_positive_int(n_actions, name="n_actions")
        check_positive_int(n_features, name="n_features", minimum=2)
        super().__init__(n_actions, n_features)
        self.beta = check_scalar(beta, name="beta", minimum=0.0, maximum=1.0)
        self.sigma2 = check_scalar(sigma2, name="sigma2", minimum=0.0)
        self.sigma = float(np.sqrt(self.sigma2))
        self.weight_scale = check_scalar(
            weight_scale, name="weight_scale", minimum=0.0, include_min=False
        )
        rng = ensure_rng(seed)
        # W fixed for the lifetime of the environment: the "randomly
        # generated weight matrix" all users share.
        self.W = self.weight_scale * rng.standard_normal((n_actions, n_features))

    def mean_rewards(self, preference: np.ndarray) -> np.ndarray:
        """``beta * softmax(W x)`` — the noiseless reward profile of a user.

        ``preference`` is one context ``(d,)`` → ``(A,)``, or a stack of
        them ``(S, d)`` → ``(S, A)``, row ``i`` bitwise the ``(d,)``
        result for row ``i`` (``tests/data/test_synthetic.py`` pins
        this): ``np.matmul`` over a stack of ``(d, 1)`` columns runs the
        same matrix-vector product per row, and the softmax is
        row-wise.  ``X @ W.T`` and ``einsum`` reassociate the sums and
        do not match.
        """
        x = np.asarray(preference, dtype=np.float64)
        if x.ndim == 1:
            return self.beta * softmax(self.W @ x)
        return self.beta * softmax(np.matmul(self.W, x[:, :, None])[:, :, 0])

    def reward_noise(self, keys, counters) -> np.ndarray:
        """Reward noise of interaction ``counters`` of the users keyed ``keys``.

        ``sigma * keyed_normal(keys, STREAM_REWARD_NOISE, counters)``,
        broadcast elementwise: the one expression both the step loop
        (length 1) and :meth:`plan_block` (``(n, horizon)``) evaluate.
        """
        return self.sigma * keyed_normal(keys, STREAM_REWARD_NOISE, counters)

    def plan_block(self, sessions: list[SyntheticUserSession], horizon: int) -> RewardBlock:
        """Plan ``horizon`` interactions of ``sessions`` in one call.

        The ``(n, horizon)`` noise is one :meth:`reward_noise`
        evaluation at each session's next ``horizon`` counters (the
        counters advance as ``horizon`` ``reward`` calls would advance
        them); the segments come from :meth:`_plan_segments`, which
        advances the sessions as ``horizon`` ``next_context`` calls
        would.
        """
        horizon = check_positive_int(horizon, name="horizon")
        n = len(sessions)
        keys = np.fromiter((s._key for s in sessions), dtype=np.uint64, count=n)
        starts = np.fromiter((s._draws for s in sessions), dtype=np.int64, count=n)
        noise = self.reward_noise(keys[:, None], starts[:, None] + np.arange(horizon))
        for s in sessions:
            s._draws += horizon
        contexts, counts, lengths = self._plan_segments(sessions, horizon)
        return RewardBlock(contexts, counts, lengths, noise, self)

    def _plan_segments(self, sessions, horizon: int):
        """Advance ``sessions`` ``horizon`` steps; their ``(contexts,
        counts, lengths)``.  A stationary user's horizon is one segment
        of its preference."""
        for s in sessions:
            s._current = s.preference  # as next_context() would set
        n = len(sessions)
        return (
            np.array([s.preference for s in sessions]),
            np.ones(n, dtype=np.intp),
            np.full(n, horizon, dtype=np.intp),
        )

    def best_expected_reward(self, preference: np.ndarray) -> float:
        """The oracle's expected reward for this user."""
        return float(self.mean_rewards(preference).max())

    def new_user(self, seed=None) -> SyntheticUserSession:
        rng = ensure_rng(seed)
        preference = rng.dirichlet(np.ones(self.n_features))
        return SyntheticUserSession(preference, self, rng)
