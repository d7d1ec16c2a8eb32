"""Drifting synthetic sessions: epoch semantics + fleet bit-identity.

The drifting workload is piecewise-stationary: within an epoch it obeys
the stationary plan contract, and at every boundary one uniform coin
picks switch vs drift.  The fleet engine joins via
``plan_horizon_limit()`` — chunks are capped at the earliest boundary —
so drifting fleet runs must stay bit-identical to the sequential loop
for every chunk size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits.linucb import LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.data import DriftingSyntheticEnvironment
from repro.sim import EngineConfig, FleetRunner
from repro.utils.exceptions import ValidationError
from repro.utils.rng import spawn_seeds

N_ACTIONS = 4
N_FEATURES = 5
EPOCH = 6


def _env(**kwargs):
    kwargs.setdefault("epoch_length", EPOCH)
    return DriftingSyntheticEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7, **kwargs
    )


def _population(n_agents: int, seed: int):
    env = _env()
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, session_seed = s.spawn(2)
        policy = LinUCB(
            n_arms=N_ACTIONS, n_features=N_FEATURES, alpha=1.0, seed=policy_seed
        )
        agents.append(LocalAgent(f"agent-{i}", policy, mode=AgentMode.COLD))
        sessions.append(env.new_user(session_seed))
    return agents, sessions


def _sequential(agents, sessions, n):
    rewards = np.empty((len(agents), n))
    for u, (agent, session) in enumerate(zip(agents, sessions)):
        for t in range(n):
            x = session.next_context()
            action = agent.act(x)
            r = session.reward(action)
            agent.learn(x, action, r)
            rewards[u, t] = r
    return rewards


class TestEpochSemantics:
    def test_preference_fixed_within_epoch(self):
        session = _env(switch_prob=1.0).new_user(3)
        first = session.next_context()
        for _ in range(EPOCH - 1):
            np.testing.assert_array_equal(session.next_context(), first)
        # boundary: a switch_prob=1.0 boundary re-draws the preference
        assert not np.array_equal(session.next_context(), first)

    def test_preference_stays_on_simplex(self):
        session = _env(switch_prob=0.0, drift_scale=0.3).new_user(5)
        for _ in range(5 * EPOCH):
            x = session.next_context()
            assert np.all(x >= 0)
            assert np.isclose(x.sum(), 1.0)

    def test_zero_drift_zero_switch_still_consumes_boundary_draws(self):
        """Even a degenerate boundary flips the coin — the RNG discipline
        both engines share."""
        drifting = _env(switch_prob=0.0, drift_scale=0.0).new_user(9)
        first = drifting.next_context()
        for _ in range(3 * EPOCH):
            drifting.next_context()
        # drift of scale 0 keeps |p + 0| / sum = p
        np.testing.assert_allclose(drifting.next_context(), first)

    def test_plan_horizon_limit_counts_down(self):
        session = _env().new_user(3)
        assert session.plan_horizon_limit() == EPOCH
        session.next_context()
        assert session.plan_horizon_limit() == EPOCH - 1
        for _ in range(EPOCH - 1):
            session.next_context()
        # at the (not yet crossed) boundary a full epoch is plannable
        assert session.plan_horizon_limit() == EPOCH

    def test_oversized_plan_rejected(self):
        session = _env().new_user(3)
        session.next_context()
        with pytest.raises(ValidationError, match="drift boundary"):
            session.plan_rewards(EPOCH)  # only EPOCH-1 stationary steps remain

    def test_plan_walk_equals_step_walk(self):
        """Planning epoch stretches reproduces stepping bit-for-bit."""
        horizon = 3 * EPOCH + 2
        actions = np.arange(horizon) % N_ACTIONS
        stepped = _env().new_user(4)
        planned = _env().new_user(4)

        step_contexts, step_rewards = [], []
        for t in range(horizon):
            step_contexts.append(stepped.next_context())
            step_rewards.append(stepped.reward(int(actions[t])))

        taken = 0
        plan_contexts, plan_rewards = [], []
        while taken < horizon:
            h = min(planned.plan_horizon_limit(), horizon - taken)
            plan = planned.plan_rewards(h)
            plan_contexts.extend([plan.context] * h)
            plan_rewards.extend(plan.realize(actions[taken : taken + h]))
            taken += h

        for a, b in zip(step_contexts, plan_contexts):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.asarray(step_rewards), np.asarray(plan_rewards))


class TestFleetBitIdentity:
    @pytest.mark.parametrize("chunk", [None, 1, 3, EPOCH, EPOCH + 5, 64])
    def test_fleet_matches_sequential_across_chunk_sizes(self, chunk):
        n, horizon = 5, 3 * EPOCH + 2
        seq_agents, seq_sessions = _population(n, seed=17)
        fleet_agents, fleet_sessions = _population(n, seed=17)

        seq_rewards = _sequential(seq_agents, seq_sessions, horizon)
        result = FleetRunner(
            fleet_agents,
            fleet_sessions,
            config=EngineConfig(plan_chunk_size=chunk),
        ).run(horizon)

        np.testing.assert_array_equal(seq_rewards, result.rewards)
        for a, b in zip(seq_agents, fleet_agents):
            state_a, state_b = a.policy.get_state(), b.policy.get_state()
            for key in state_a:
                np.testing.assert_array_equal(
                    np.asarray(state_a[key]), np.asarray(state_b[key]), err_msg=key
                )

    def test_mixed_drifting_and_stationary_population(self):
        """Drifting agents shard with stationary ones; both stay exact."""
        from repro.data.synthetic import SyntheticPreferenceEnvironment

        stationary_env = SyntheticPreferenceEnvironment(
            n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
        )

        def build():
            agents, sessions = _population(3, seed=23)
            for i, s in enumerate(spawn_seeds(99, 3)):
                policy_seed, session_seed = s.spawn(2)
                agents.append(
                    LocalAgent(
                        f"stat-{i}",
                        LinUCB(
                            n_arms=N_ACTIONS,
                            n_features=N_FEATURES,
                            alpha=1.0,
                            seed=policy_seed,
                        ),
                        mode=AgentMode.COLD,
                    )
                )
                sessions.append(stationary_env.new_user(session_seed))
            return agents, sessions

        seq_agents, seq_sessions = build()
        fleet_agents, fleet_sessions = build()
        seq_rewards = _sequential(seq_agents, seq_sessions, 2 * EPOCH)
        result = FleetRunner(
            fleet_agents,
            fleet_sessions,
            config=EngineConfig(plan_chunk_size=4),
        ).run(2 * EPOCH)
        np.testing.assert_array_equal(seq_rewards, result.rewards)
