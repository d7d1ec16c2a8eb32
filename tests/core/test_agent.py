"""Tests for repro.core.agent."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import LinUCB
from repro.core import AgentMode, LocalAgent, RandomizedParticipation, drain_report_batches
from repro.encoding import KMeansEncoder
from repro.utils.exceptions import ConfigError


@pytest.fixture(scope="module")
def encoder() -> KMeansEncoder:
    return KMeansEncoder(n_codes=8, n_features=4, n_fit_samples=2000, seed=0).fit()


def _ctx(rng):
    return rng.dirichlet(np.ones(4))


class TestConstruction:
    def test_cold_agent_minimal(self):
        agent = LocalAgent("u", LinUCB(3, 4, seed=0), mode=AgentMode.COLD)
        assert agent.mode == "cold"

    def test_invalid_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            LocalAgent("u", LinUCB(3, 4, seed=0), mode="lukewarm")

    def test_private_requires_encoder(self):
        with pytest.raises(ConfigError, match="encoder"):
            LocalAgent(
                "u",
                LinUCB(3, 8, seed=0),
                mode=AgentMode.WARM_PRIVATE,
                participation=RandomizedParticipation(seed=0),
            )

    def test_private_feature_mismatch(self, encoder):
        with pytest.raises(ConfigError, match="one-hot"):
            LocalAgent(
                "u",
                LinUCB(3, 4, seed=0),  # should be n_features=8 (= n_codes)
                mode=AgentMode.WARM_PRIVATE,
                encoder=encoder,
                participation=RandomizedParticipation(seed=0),
            )

    def test_warm_requires_participation(self, encoder):
        with pytest.raises(ConfigError, match="participation"):
            LocalAgent(
                "u", LinUCB(3, 8, seed=0), mode=AgentMode.WARM_PRIVATE, encoder=encoder
            )


class TestActingContext:
    def test_cold_acts_on_raw(self, rng):
        agent = LocalAgent("u", LinUCB(3, 4, seed=0), mode=AgentMode.COLD)
        x = _ctx(rng)
        np.testing.assert_array_equal(agent.acting_context(x), x)

    def test_private_acts_on_one_hot(self, rng, encoder):
        agent = LocalAgent(
            "u",
            LinUCB(3, 8, seed=0),
            mode=AgentMode.WARM_PRIVATE,
            encoder=encoder,
            participation=RandomizedParticipation(seed=0),
        )
        x = _ctx(rng)
        ctx = agent.acting_context(x)
        assert ctx.shape == (8,)
        assert ctx.sum() == 1.0
        assert ctx[encoder.encode(x)] == 1.0


class TestReporting:
    def test_cold_never_reports(self, rng):
        agent = LocalAgent("u", LinUCB(3, 4, seed=0), mode=AgentMode.COLD)
        for _ in range(50):
            x = _ctx(rng)
            agent.learn(x, agent.act(x), 1.0)
        assert agent.report_log is None
        enc, raw = drain_report_batches([agent])
        assert len(enc) == len(raw) == 0

    def test_private_reports_encoded(self, rng, encoder):
        agent = LocalAgent(
            "u7",
            LinUCB(3, 8, seed=0),
            mode=AgentMode.WARM_PRIVATE,
            encoder=encoder,
            participation=RandomizedParticipation(p=1.0, window=5, seed=0),
        )
        for _ in range(5):
            x = _ctx(rng)
            agent.learn(x, agent.act(x), 0.5)
        enc, raw = drain_report_batches([agent])
        assert len(enc) == 1 and len(raw) == 0
        assert list(enc.interaction_indices) == [5]  # reported as its window closed
        assert 0 <= enc.codes[0] < 8

    def test_nonprivate_reports_raw_context(self, rng):
        agent = LocalAgent(
            "u",
            LinUCB(3, 4, seed=0),
            mode=AgentMode.WARM_NONPRIVATE,
            participation=RandomizedParticipation(p=1.0, window=3, seed=0),
        )
        contexts = []
        for _ in range(3):
            x = _ctx(rng)
            contexts.append(x)
            agent.learn(x, agent.act(x), 0.5)
        enc, raw = drain_report_batches([agent])
        assert len(raw) == 1 and len(enc) == 0
        assert any(np.array_equal(raw.contexts[0], c) for c in contexts)

    def test_nonprivate_row_keeps_a_copy_of_the_context(self, rng):
        """A pending raw row is the context as it was observed: a caller
        that reuses its context buffer afterwards cannot change it."""
        agent = LocalAgent(
            "u",
            LinUCB(3, 4, seed=0),
            mode=AgentMode.WARM_NONPRIVATE,
            participation=RandomizedParticipation(p=1.0, window=1, seed=0),
        )
        x = _ctx(rng)
        seen = x.copy()
        agent.learn(x, 0, 0.5)
        x[:] = -1.0  # the caller overwrites its buffer in place
        pending = agent.report_log.rows(agent.report_row)
        np.testing.assert_array_equal(pending.contexts, [seen])

    def test_report_budget_respected(self, rng, encoder):
        agent = LocalAgent(
            "u",
            LinUCB(3, 8, seed=0),
            mode=AgentMode.WARM_PRIVATE,
            encoder=encoder,
            participation=RandomizedParticipation(p=1.0, window=2, max_reports=1, seed=0),
        )
        for _ in range(20):
            x = _ctx(rng)
            agent.learn(x, agent.act(x), 0.5)
        assert len(drain_report_batches([agent])[0]) == 1

    def test_drain_takes_the_rows(self, rng, encoder):
        agent = LocalAgent(
            "u",
            LinUCB(3, 8, seed=0),
            mode=AgentMode.WARM_PRIVATE,
            encoder=encoder,
            participation=RandomizedParticipation(p=1.0, window=1, seed=0),
        )
        x = _ctx(rng)
        agent.learn(x, 0, 1.0)
        assert len(agent.report_log.rows(agent.report_row)) == 1  # reading leaves it
        assert len(drain_report_batches([agent])[0]) == 1
        assert len(drain_report_batches([agent])[0]) == 0


class TestLearningAndWarmStart:
    def test_learning_happens_locally(self, rng):
        agent = LocalAgent("u", LinUCB(2, 4, seed=0), mode=AgentMode.COLD)
        x = _ctx(rng)
        before = agent.policy.t
        agent.learn(x, 0, 1.0)
        assert agent.policy.t == before + 1

    def test_step_helper(self, rng):
        agent = LocalAgent("u", LinUCB(2, 4, seed=0), mode=AgentMode.COLD)
        action, reward = agent.step(_ctx(rng), lambda a: 0.25)
        assert reward == 0.25
        assert agent.n_interactions == 1
        assert agent.mean_reward == 0.25

    def test_warm_start_copies_model(self, rng):
        donor = LinUCB(2, 4, seed=0)
        for _ in range(30):
            x = _ctx(rng)
            donor.update(x, int(rng.integers(2)), float(rng.random()))
        agent = LocalAgent("u", LinUCB(2, 4, seed=1), mode=AgentMode.COLD)
        agent.warm_start(donor.get_state())
        x = _ctx(rng)
        np.testing.assert_allclose(
            agent.policy.expected_rewards(x), donor.expected_rewards(x)
        )

    def test_mean_reward_zero_when_no_interactions(self):
        agent = LocalAgent("u", LinUCB(2, 4, seed=0), mode=AgentMode.COLD)
        assert agent.mean_reward == 0.0
