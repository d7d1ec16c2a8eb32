"""Tests for Thompson sampling, epsilon-greedy, UCB1, random."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from repro.bandits import (
    EpsilonGreedy,
    LinearThompsonSampling,
    RandomPolicy,
    UCB1,
)
from repro.utils.rng import rng_state_digest


def _run_stationary(policy, rng, probs, n_steps=800, d=3):
    """Run a context-free stationary Bernoulli problem through a policy."""
    picks = []
    for _ in range(n_steps):
        x = np.ones(d) / d
        a = policy.select(x)
        r = float(rng.random() < probs[a])
        policy.update(x, a, r)
        picks.append(a)
    return np.array(picks)


class TestThompson:
    def test_learns_best_arm(self, rng):
        pol = LinearThompsonSampling(n_arms=3, n_features=3, v=0.3, seed=0)
        picks = _run_stationary(pol, rng, probs=[0.2, 0.8, 0.3])
        assert np.mean(picks[-200:] == 1) > 0.7

    def test_sampling_is_stochastic(self):
        pol = LinearThompsonSampling(n_arms=3, n_features=2, v=1.0, seed=0)
        x = np.array([1.0, 0.0])
        draws = {tuple(np.round(pol.sample_scores(x), 6)) for _ in range(5)}
        assert len(draws) > 1

    def test_v_zero_is_greedy_mean(self):
        pol = LinearThompsonSampling(n_arms=2, n_features=2, v=0.0, seed=0)
        x = np.array([1.0, 0.0])
        pol.update(x, 0, 1.0)
        np.testing.assert_allclose(pol.sample_scores(x), pol.expected_rewards(x))

    def test_select_tiebreaks_at_the_draw_counter(self, rng):
        """``select`` draws and tie-breaks at one counter and advances it
        once, as a public ``sample_scores`` call does; the generator is
        idle after the key."""
        drawn = LinearThompsonSampling(n_arms=3, n_features=4, seed=9)
        selected = LinearThompsonSampling(n_arms=3, n_features=4, seed=9)
        state = rng_state_digest(selected._rng)
        for x in rng.dirichlet(np.ones(4), size=20):
            assert int(np.argmax(drawn.sample_scores(x))) == selected.select(x)
            assert drawn._draws == selected._draws
        assert selected._draws == 20 and rng_state_digest(selected._rng) == state

    def test_non_positive_definite_posterior_clamps(self):
        """A negative quadratic form (accumulated rounding) clamps at zero:
        that arm scores its mean, with no factorization to fail."""
        pol = LinearThompsonSampling(n_arms=3, n_features=2, v=1.0, seed=0)
        pol.A_inv[1] = -np.eye(2)
        x = np.array([0.6, 0.8])
        scores = pol.sample_scores(x)
        assert scores[1] == pol.expected_rewards(x)[1] == 0.0
        assert np.isfinite(scores).all() and np.count_nonzero(scores) == 2

    def test_action_law_matches_full_posterior_draw(self):
        """Keyed per-arm score draws pick each action with the frequency
        of the full ``theta~_a ~ N(theta_a, v^2 A_a^{-1})`` draw.

        At a posterior from 40 updates (A=4, d=5), 40,000 keyed
        selections against 40,000 Cholesky draws from a seeded generator.
        Bounds: total variation < 0.02 and a chi-square homogeneity
        p-value > 1e-3 (these draws read 0.006 and 0.3).  The same check
        fails against full draws at 1.2 v (0.04 and ~1e-60), so it can
        tell a wrong scale.
        """
        n_arms, d, n = 4, 5, 40_000
        pol = LinearThompsonSampling(n_arms=n_arms, n_features=d, v=0.5, seed=3)
        rng = np.random.default_rng(0)
        for x, a in zip(rng.dirichlet(np.ones(d), size=40), rng.integers(n_arms, size=40)):
            pol.update(x, int(a), float(rng.random() < 0.3 + 0.1 * a))
        x = rng.dirichlet(np.ones(d))
        keyed_freq = np.bincount(pol.select_batch(np.tile(x, (n, 1))), minlength=n_arms)
        chol = np.linalg.cholesky(pol.A_inv)
        z = np.random.default_rng(1).standard_normal((n, n_arms, d))

        def full_freq(v):
            theta = pol.theta + v * np.einsum("aij,naj->nai", chol, z)
            return np.bincount((theta @ x).argmax(axis=1), minlength=n_arms)

        def agree(freq):
            tv = 0.5 * np.abs(keyed_freq - freq).sum() / n
            return tv < 0.02 and chi2_contingency(np.stack([keyed_freq, freq]))[1] > 1e-3

        assert keyed_freq.min() > 0.02 * n  # every arm is in play
        assert agree(full_freq(pol.v))
        assert not agree(full_freq(1.2 * pol.v))

    def test_state_round_trip(self, rng):
        pol = LinearThompsonSampling(n_arms=2, n_features=3, seed=0)
        for _ in range(15):
            pol.update(rng.normal(size=3), int(rng.integers(2)), float(rng.random()))
        clone = LinearThompsonSampling(n_arms=2, n_features=3, seed=5)
        clone.set_state(pol.get_state())
        x = rng.normal(size=3)
        np.testing.assert_allclose(pol.expected_rewards(x), clone.expected_rewards(x))


class TestEpsilonGreedy:
    def test_epsilon_one_is_uniform(self, rng):
        pol = EpsilonGreedy(n_arms=4, n_features=2, epsilon=1.0, seed=0)
        picks = _run_stationary(pol, rng, probs=[0.9, 0.1, 0.1, 0.1], n_steps=1000, d=2)
        counts = np.bincount(picks, minlength=4)
        assert counts.min() > 150

    def test_epsilon_zero_exploits(self, rng):
        pol = EpsilonGreedy(n_arms=2, n_features=2, epsilon=0.0, seed=0)
        x = np.ones(2)
        pol.update(x, 1, 1.0)
        assert all(pol.select(x) == 1 for _ in range(20))

    def test_decay_shrinks_epsilon(self):
        pol = EpsilonGreedy(n_arms=2, n_features=2, epsilon=0.5, decay=0.9, seed=0)
        x = np.ones(2)
        for _ in range(10):
            pol.update(x, 0, 0.5)
        assert pol.epsilon == pytest.approx(0.5 * 0.9**10)

    def test_learns_best_arm(self, rng):
        pol = EpsilonGreedy(n_arms=3, n_features=3, epsilon=0.15, seed=0)
        picks = _run_stationary(pol, rng, probs=[0.1, 0.2, 0.9])
        assert np.mean(picks[-200:] == 2) > 0.6

    def test_state_round_trip(self, rng):
        pol = EpsilonGreedy(n_arms=2, n_features=2, epsilon=0.3, seed=0)
        for _ in range(10):
            pol.update(rng.normal(size=2), int(rng.integers(2)), float(rng.random()))
        clone = EpsilonGreedy(n_arms=2, n_features=2, seed=1)
        clone.set_state(pol.get_state())
        assert clone.epsilon == pol.epsilon


class TestUCB1:
    def test_plays_every_arm_first(self):
        pol = UCB1(n_arms=5, seed=0)
        seen = set()
        for _ in range(5):
            a = pol.select()
            seen.add(a)
            pol.update(None, a, 0.5)
        assert seen == set(range(5))

    def test_learns_best_arm(self, rng):
        pol = UCB1(n_arms=3, seed=0)
        picks = []
        probs = [0.2, 0.5, 0.8]
        for _ in range(1200):
            a = pol.select()
            pol.update(None, a, float(rng.random() < probs[a]))
            picks.append(a)
        assert np.mean(np.array(picks[-300:]) == 2) > 0.6

    def test_batch_update_vectorized(self, rng):
        pol = UCB1(n_arms=3, seed=0)
        actions = rng.integers(0, 3, size=100)
        rewards = rng.random(100)
        pol.update_batch(None, actions, rewards)
        assert pol.t == 100
        assert pol.counts.sum() == 100
        np.testing.assert_allclose(pol.sums.sum(), rewards.sum())

    def test_state_round_trip(self):
        pol = UCB1(n_arms=3, seed=0)
        pol.update(None, 1, 1.0)
        clone = UCB1(n_arms=3, seed=4)
        clone.set_state(pol.get_state())
        np.testing.assert_array_equal(clone.counts, pol.counts)


class TestRandomPolicy:
    def test_uniform(self, rng):
        pol = RandomPolicy(n_arms=4, seed=0)
        picks = np.array([pol.select() for _ in range(2000)])
        counts = np.bincount(picks, minlength=4)
        assert counts.min() > 380

    def test_update_noop_but_counts(self):
        pol = RandomPolicy(n_arms=2, seed=0)
        pol.update(None, 0, 1.0)
        assert pol.t == 1
