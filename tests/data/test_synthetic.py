"""Tests for repro.data.synthetic — the §5.1 benchmark."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SyntheticPreferenceEnvironment
from repro.utils.exceptions import ValidationError


@pytest.fixture(scope="module")
def env() -> SyntheticPreferenceEnvironment:
    return SyntheticPreferenceEnvironment(n_actions=5, n_features=4, seed=0)


class TestEnvironment:
    def test_w_fixed_per_environment(self):
        a = SyntheticPreferenceEnvironment(3, 4, seed=7)
        b = SyntheticPreferenceEnvironment(3, 4, seed=7)
        np.testing.assert_array_equal(a.W, b.W)

    def test_mean_rewards_scaled_softmax(self, env):
        x = np.array([0.4, 0.3, 0.2, 0.1])
        means = env.mean_rewards(x)
        assert means.shape == (5,)
        assert means.sum() == pytest.approx(env.beta)  # softmax sums to 1, scaled by beta
        assert (means > 0).all()

    def test_best_expected_reward(self, env):
        x = np.array([0.4, 0.3, 0.2, 0.1])
        assert env.best_expected_reward(x) == pytest.approx(env.mean_rewards(x).max())

    def test_default_paper_parameters(self):
        env = SyntheticPreferenceEnvironment(3, 4, seed=0)
        assert env.beta == 0.1
        assert env.sigma2 == 0.01

    def test_invalid_beta(self):
        with pytest.raises(ValidationError):
            SyntheticPreferenceEnvironment(3, 4, beta=1.5)


class TestUserSession:
    def test_preference_on_simplex(self, env):
        user = env.new_user(seed=1)
        x = user.next_context()
        assert x.sum() == pytest.approx(1.0)
        assert (x >= 0).all()

    def test_context_constant_per_user(self, env):
        user = env.new_user(seed=2)
        a = user.next_context()
        b = user.next_context()
        np.testing.assert_array_equal(a, b)

    def test_different_users_different_preferences(self, env):
        a = env.new_user(seed=3).next_context()
        b = env.new_user(seed=4).next_context()
        assert not np.array_equal(a, b)

    def test_rewards_in_unit_interval(self, env):
        user = env.new_user(seed=5)
        user.next_context()
        rewards = [user.reward(0) for _ in range(200)]
        assert all(0.0 <= r <= 1.0 for r in rewards)

    def test_reward_mean_tracks_expected(self, env):
        user = env.new_user(seed=6)
        user.next_context()
        expected = user.expected_rewards()
        best = int(np.argmax(expected))
        draws = np.array([user.reward(best) for _ in range(4000)])
        # clipping at 0 adds upward bias; allow a tolerance band
        assert draws.mean() == pytest.approx(expected[best], abs=0.05)

    def test_better_arm_earns_more(self, env):
        user = env.new_user(seed=7)
        user.next_context()
        expected = user.expected_rewards()
        best, worst = int(np.argmax(expected)), int(np.argmin(expected))
        mean_best = np.mean([user.reward(best) for _ in range(3000)])
        mean_worst = np.mean([user.reward(worst) for _ in range(3000)])
        assert mean_best > mean_worst

    def test_reward_before_context_raises(self, env):
        user = env.new_user(seed=8)
        with pytest.raises(ValidationError, match="before next_context"):
            user.reward(0)

    def test_invalid_action(self, env):
        user = env.new_user(seed=9)
        user.next_context()
        with pytest.raises(ValidationError):
            user.reward(5)

    def test_user_population(self, env):
        users = env.user_population(10, seed=0)
        assert len(users) == 10
        prefs = {tuple(np.round(u.next_context(), 6)) for u in users}
        assert len(prefs) == 10


class TestBatchedMeanRewards:
    """``mean_rewards`` over ``(S, d)`` is the fleet shard's one call per
    environment; like the stacked kernels' leading-axis rule, row ``i``
    must be bitwise the ``(d,)`` result, and the ``(d,)`` result bitwise
    ``beta * softmax(W @ x)``, so batching moves no reward."""

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    @pytest.mark.parametrize("weight_scale", [1.0, 8.0, 50.0])
    @pytest.mark.parametrize(("n_actions", "n_features"), [(3, 4), (10, 10), (20, 5), (50, 17)])
    def test_rows_match_single_contexts(self, weight_scale, n_actions, n_features):
        from repro.utils.math import softmax

        env = SyntheticPreferenceEnvironment(
            n_actions, n_features, weight_scale=weight_scale, seed=3
        )
        X = np.random.default_rng(1).dirichlet(np.ones(n_features), size=300)
        batch = env.mean_rewards(X)
        assert batch.shape == (300, n_actions)
        for i, x in enumerate(X):
            single = env.mean_rewards(x)
            np.testing.assert_array_equal(self._bits(single), self._bits(batch[i]))
            np.testing.assert_array_equal(
                self._bits(single), self._bits(env.beta * softmax(env.W @ x))
            )
        for n in (1, 7):  # a batch's rows do not depend on its size
            np.testing.assert_array_equal(
                self._bits(env.mean_rewards(X[:n])), self._bits(batch[:n])
            )

    def test_near_tied_logits(self):
        env = SyntheticPreferenceEnvironment(6, 5, weight_scale=50.0, seed=4)
        # arms 1 and 2 differ from arm 0 in the last bit of one weight
        env.W[1] = env.W[0]
        env.W[2] = env.W[0]
        env.W[1, 0] = np.nextafter(env.W[0, 0], np.inf)
        env.W[2, 0] = np.nextafter(env.W[0, 0], -np.inf)
        X = np.vstack(
            [np.full(5, 0.2), np.eye(5), np.random.default_rng(2).dirichlet(np.ones(5), 50)]
        )
        batch = env.mean_rewards(X)
        for i, x in enumerate(X):
            np.testing.assert_array_equal(self._bits(env.mean_rewards(x)), self._bits(batch[i]))


def _realize(block, actions):
    """Realized rewards of a one-session reward ``block``, one action per step."""
    actions = np.asarray(actions, dtype=np.intp)
    steps = np.repeat(block.model.mean_rewards(block.contexts), block.lengths, axis=0)
    return np.clip(steps[np.arange(actions.shape[0]), actions] + block.noise[0], 0.0, 1.0)


class TestRewardPlan:
    """plan_rewards is the fleet engine's stand-in for the sequential
    next_context()/reward() loop; pin the exact-equivalence contract."""

    def _twin_sessions(self):
        import numpy as np

        from repro.data.synthetic import SyntheticPreferenceEnvironment

        env = SyntheticPreferenceEnvironment(n_actions=5, n_features=4, seed=2)
        return env, env.new_user(9), env.new_user(9)

    def test_realize_matches_sequential_reward_stream(self):
        import numpy as np

        env, planned, sequential = self._twin_sessions()
        horizon = 17
        actions = np.random.default_rng(0).integers(0, env.n_actions, size=horizon)
        plan = planned.plan_rewards(horizon)
        realized = _realize(plan, actions)
        expected = []
        for a in actions:
            sequential.next_context()
            expected.append(sequential.reward(int(a)))
        np.testing.assert_array_equal(realized, np.array(expected))

    def test_plan_leaves_stream_where_sequential_would(self):
        import numpy as np

        from repro.utils.rng import rng_state_digest

        env, planned, sequential = self._twin_sessions()
        planned.plan_rewards(8)
        for _ in range(8):
            sequential.next_context()
            sequential.reward(0)
        assert rng_state_digest(planned._rng) == rng_state_digest(sequential._rng)
        # the noise is keyed: the counters, not the generator, carry it
        assert planned._key == sequential._key
        assert planned._draws == sequential._draws == 8
        # and the session is still usable afterwards, in sync
        planned.next_context()
        sequential.next_context()
        assert planned.reward(1) == sequential.reward(1)

    def test_plan_is_one_segment_matching_session_views(self):
        import numpy as np

        env, planned, twin = self._twin_sessions()
        plan = planned.plan_rewards(3)
        assert plan.lengths.tolist() == [3] and plan.model is env
        assert plan.counts.tolist() == [1] and plan.noise.shape == (1, 3)
        np.testing.assert_array_equal(plan.contexts, planned.preference[None, :])
        np.testing.assert_array_equal(
            env.mean_rewards(plan.contexts), planned.expected_rewards()[None, :]
        )
        # the one-session case of plan_block, bitwise
        block = env.plan_block([twin], 3)
        assert block.counts.tolist() == [1] and block.model is env
        np.testing.assert_array_equal(block.noise, plan.noise)
        np.testing.assert_array_equal(block.contexts, plan.contexts)

    def test_split_plans_realize_the_sequential_stream(self):
        """``plan_rewards(1)`` then ``plan_rewards(T - 1)`` realize what
        one ``plan_rewards(T)`` and the step loop realize."""
        import numpy as np

        env, split, sequential = self._twin_sessions()
        whole = env.new_user(9)
        actions = np.random.default_rng(1).integers(0, env.n_actions, size=12)
        expected = []
        for a in actions:
            sequential.next_context()
            expected.append(sequential.reward(int(a)))
        head = _realize(split.plan_rewards(1), actions[:1])
        parts = np.concatenate([head, _realize(split.plan_rewards(11), actions[1:])])
        np.testing.assert_array_equal(parts, np.array(expected))
        np.testing.assert_array_equal(_realize(whole.plan_rewards(12), actions), np.array(expected))
        assert split._draws == whole._draws == sequential._draws == 12

    def test_block_rows_are_each_sessions_plan(self):
        """Row ``j`` of a multi-session block is session ``j``'s own
        one-session plan: batching moves no noise."""
        import numpy as np

        from repro.utils.rng import spawn_seeds

        env, _, _ = self._twin_sessions()
        seeds = spawn_seeds(4, 5)
        blocked = [env.new_user(s) for s in seeds]
        alone = [env.new_user(s) for s in seeds]
        alone[2].next_context()
        alone[2].reward(0)  # a session one draw ahead
        blocked[2].next_context()
        blocked[2].reward(0)
        block = env.plan_block(blocked, 6)
        assert block.noise.shape == (5, 6) and block.counts.tolist() == [1] * 5
        for j, session in enumerate(alone):
            plan = session.plan_rewards(6)
            np.testing.assert_array_equal(block.noise[j], plan.noise[0])
            np.testing.assert_array_equal(block.contexts[j], plan.contexts[0])
        assert [s._draws for s in blocked] == [6, 6, 7, 6, 6]
