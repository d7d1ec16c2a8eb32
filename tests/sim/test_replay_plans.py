"""Replay-plan fast path: the plan contract of dataset sessions.

``plan_trace`` is an exact stand-in for the sequential walk (same
values, same generator consumption, same session state), and the
capability flags route shards: sessions that *inherit* a working plan
stay on the fast path, a reward-plan session from outside the package
plans through the default ``Environment.plan_block``, and shards mixing
plan-capable and plan-less sessions fall back to the generic loop.
That replay populations reproduce the sequential spec is the harness's
(``test_harness.py``) to check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import LinUCB
from repro.core.agent import LocalAgent
from repro.data.environment import Environment, RewardBlock, UserSession
from repro.data.multilabel import MultilabelUserSession
from repro.data.synthetic import SyntheticPreferenceEnvironment, SyntheticUserSession
from repro.experiments.runner import _simulate_agent
from repro.sim import FleetRunner
from repro.sim.fleet import _Shard
from repro.utils.exceptions import DataError
from repro.utils.rng import rng_state_digest, spawn_seeds

from _testkit import N_ACTIONS, N_FEATURES, assert_states_equal, environment


def _ml_env():
    return environment("multilabel")


def _criteo_env():
    return environment("criteo")


# --------------------------------------------------------------------- #
# plan_trace exactness contract
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("env_factory", [_ml_env, _criteo_env], ids=["multilabel", "criteo"])
def test_plan_trace_is_exact_stand_in_for_sequential_walk(env_factory):
    """Contexts, rewards, generator consumption and walk state after
    ``plan_trace(T)`` are identical to ``T`` sequential interactions."""
    horizon = 20  # > samples/impressions per user => reshuffles happen
    walker = env_factory().new_user(11)
    contexts, rewards, expected = [], [], []
    rng = np.random.default_rng(5)
    actions = rng.integers(0, walker._dataset.n_actions
                           if hasattr(walker._dataset, "n_actions")
                           else N_ACTIONS, size=horizon)
    for t in range(horizon):
        contexts.append(walker.next_context())
        rewards.append(walker.reward(int(actions[t])))
        expected.append(walker.expected_rewards())

    planner = env_factory().new_user(11)
    plan = planner.plan_trace(horizon)
    np.testing.assert_array_equal(np.stack(contexts), plan.contexts)
    np.testing.assert_array_equal(np.asarray(rewards), plan.realize(actions))
    steps = np.arange(horizon)
    np.testing.assert_array_equal(
        np.stack(expected), plan.expected[steps].astype(np.float64)
    )
    # post-plan state: generator, walk cursors, current row
    assert planner._rng.bit_generator.state == walker._rng.bit_generator.state
    assert planner._cursor == walker._cursor
    assert planner._current == walker._current
    np.testing.assert_array_equal(planner._order, walker._order)
    # and the *next* contexts still agree, i.e. the streams stay merged
    for _ in range(5):
        np.testing.assert_array_equal(walker.next_context(), planner.next_context())


def test_plan_trace_rejects_bad_horizon():
    from repro.utils.exceptions import ValidationError

    session = _ml_env().new_user(0)
    with pytest.raises(ValidationError):
        session.plan_trace(0)


# --------------------------------------------------------------------- #
# capability flags: inheritance keeps the fast path; mixtures fall back
# --------------------------------------------------------------------- #
class _InheritingMultilabelSession(MultilabelUserSession):
    """Overrides something unrelated; inherits the working plan."""

    def expected_rewards(self) -> np.ndarray:  # pragma: no cover - same math
        return super().expected_rewards()


class _InheritingSyntheticSession(SyntheticUserSession):
    pass


def _cold_agents(n, seed):
    return [
        LocalAgent(
            f"a{i}", LinUCB(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=s), mode="cold"
        )
        for i, s in enumerate(spawn_seeds(seed, n))
    ]


def test_plan_inheriting_subclasses_stay_on_fast_path():
    """Regression for the old method-identity probe: subclasses that
    inherit ``plan_trace`` / ``plan_rewards`` must keep the fast path
    (the capability flags are inherited class attributes)."""
    env = _ml_env()
    sessions = [env.new_user(s) for s in spawn_seeds(3, 4)]
    inheriting = [
        _InheritingMultilabelSession(s._dataset, s._indices, s._rng) for s in sessions
    ]
    shard = _Shard(np.arange(4), _cold_agents(4, 0), inheriting)
    shard.prepare(6)
    assert shard.traced and not shard.stationary

    syn = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=2
    )
    syn_sessions = []
    for s in spawn_seeds(4, 4):
        base = syn.new_user(s)
        syn_sessions.append(
            _InheritingSyntheticSession(base.preference, syn, base._rng)
        )
    shard = _Shard(np.arange(4), _cold_agents(4, 1), syn_sessions)
    shard.prepare(6)
    assert shard.stationary and not shard.traced


class _GeneratorNoiseSession(UserSession):
    """A reward-plan session from outside the package: stationary, its
    noise drawn from its own generator, planned through its plain
    environment's default ``plan_block``, which stacks ``plan_rewards``."""

    has_reward_plan = True

    def __init__(self, environment, preference, rng):
        self.environment = environment
        self.preference = preference
        self._rng = rng
        self.plan_calls = 0

    def next_context(self):
        return self.preference.copy()

    def reward(self, action):
        mean = self.environment.model.mean_rewards(self.preference)[action]
        return float(np.clip(mean + self._rng.normal(0.0, 0.1), 0.0, 1.0))

    def plan_rewards(self, horizon):
        self.plan_calls += 1
        return RewardBlock(
            contexts=self.preference[None, :],
            counts=np.ones(1, dtype=np.intp),
            lengths=np.array([horizon], dtype=np.intp),
            noise=self._rng.normal(0.0, 0.1, size=(1, horizon)),
            model=self.environment.model,
        )


class _GeneratorNoiseEnvironment(Environment):
    def __init__(self, model):
        super().__init__(model.n_actions, model.n_features)
        self.model = model

    def new_user(self, seed=None):
        rng = np.random.default_rng(seed)
        return _GeneratorNoiseSession(self, rng.dirichlet(np.ones(self.n_features)), rng)


def test_default_plan_block_session_matches_sequential():
    """A third-party reward-plan session takes the fast path through the
    default ``Environment.plan_block``, beside keyed synthetic users of
    another environment and a second reward model, with the shard's
    environments interleaved — and stays bit-identical to the sequential
    loop over a horizon split into two runs."""
    syn = SyntheticPreferenceEnvironment(n_actions=N_ACTIONS, n_features=N_FEATURES, seed=2)
    other = SyntheticPreferenceEnvironment(n_actions=N_ACTIONS, n_features=N_FEATURES, seed=3)

    def build(seed):
        envs = [syn, _GeneratorNoiseEnvironment(syn), _GeneratorNoiseEnvironment(other)]
        seeds = spawn_seeds(seed + 100, 6)
        return _cold_agents(6, seed), [envs[i % 3].new_user(s) for i, s in enumerate(seeds)]

    seq_agents, seq_sessions = build(5)
    expected = np.stack([_simulate_agent(a, s, 8)[0] for a, s in zip(seq_agents, seq_sessions)])
    fleet_agents, fleet_sessions = build(5)
    runner = FleetRunner(fleet_agents, fleet_sessions)
    assert runner.n_shards == 1
    rewards = np.hstack([runner.run(3).rewards, runner.run(5).rewards])
    np.testing.assert_array_equal(rewards, expected)
    for sa, fa in zip(seq_agents, fleet_agents):
        assert_states_equal(sa.policy, fa.policy)
    custom = [s for s in fleet_sessions if isinstance(s, _GeneratorNoiseSession)]
    assert [s.plan_calls for s in custom] == [2] * 4
    for planned, stepped in zip(fleet_sessions, seq_sessions):
        assert rng_state_digest(planned._rng) == rng_state_digest(stepped._rng)


def test_default_plan_block_refuses_sessions_of_two_reward_models():
    """One block has one reward model: the shard computes its means
    with it, so stacking plans of another model would misprice them."""
    syn = SyntheticPreferenceEnvironment(n_actions=N_ACTIONS, n_features=N_FEATURES, seed=2)
    other = SyntheticPreferenceEnvironment(n_actions=N_ACTIONS, n_features=N_FEATURES, seed=3)
    env = _GeneratorNoiseEnvironment(syn)
    stray = _GeneratorNoiseEnvironment(other).new_user(2)
    with pytest.raises(DataError, match="one reward model"):
        env.plan_block([env.new_user(1), stray], 3)


def test_mixed_capability_shard_falls_back_to_generic():
    """One shard holding stationary *and* traced sessions takes the
    generic per-round path: neither flag holds for all (the harness case
    ``mixed_plan_capabilities`` pins it bit-identical)."""
    syn = SyntheticPreferenceEnvironment(n_actions=N_ACTIONS, n_features=N_FEATURES, seed=2)
    env = _ml_env()
    sessions = [
        (syn if i % 2 else env).new_user(s) for i, s in enumerate(spawn_seeds(109, 6))
    ]
    agents = _cold_agents(6, 9)
    assert FleetRunner(agents, sessions).n_shards == 1  # same policy config => one shard
    shard = _Shard(np.arange(6), agents, sessions)
    shard.prepare(5)
    assert not shard.stationary and not shard.traced
