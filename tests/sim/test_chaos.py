"""Seeded chaos behind the ``REPRO_FAULTS`` env knob, end to end.

CI's chaos-smoke job arms a seeded :class:`FaultPlan` over the whole
sim suite; these tests pin what that job relies on: an armed plan with
default supervision recovers every injected fault with **zero
unhandled crashes and zero bitwise drift**, and corrupted report
batches are quarantined — collection continues and the crowd-blending
audit still passes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import UCB1, EpsilonGreedy, LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode, P2BConfig
from repro.core.system import P2BSystem
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments import runner
from repro.sim import FleetRunner
from repro.sim.faults import FAULTS_ENV_VAR, FaultPlan
from repro.utils.rng import spawn_seeds

from _testkit import assert_outboxes_equal, assert_states_equal

N_ACTIONS = 4
N_FEATURES = 5


def _population(seed, n_agents=9):
    env = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
    )
    kinds = [LinUCB, EpsilonGreedy, UCB1]
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, session_seed = s.spawn(2)
        policy = kinds[i % 3](n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed)
        agents.append(LocalAgent(f"u{i}", policy, mode="cold"))
        sessions.append(env.new_user(session_seed))
    return agents, sessions


class TestEnvKnobChaos:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_armed_chaos_is_bitwise_invisible(self, n_workers, monkeypatch):
        """Arming the knob changes nothing observable: default
        supervision retries every fired fault, and retries run clean."""
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        agents_a, sessions_a = _population(0)
        base = FleetRunner(agents_a, sessions_a, n_workers=n_workers).run(10)

        spec = "seed=2;raise=0.1;crash=0.1"
        monkeypatch.setenv(FAULTS_ENV_VAR, spec)
        # the rates above fire somewhere in this grid — the run is chaos,
        # not a no-op
        plan = FaultPlan.parse(spec)
        assert any(
            plan.step_fault(s, t, 0) for s in range(3) for t in range(10)
        ), "chaos spec never fires; raise the rates"
        agents_b, sessions_b = _population(0)
        chaos = FleetRunner(agents_b, sessions_b, n_workers=n_workers).run(10)

        assert chaos.dropped == ()
        np.testing.assert_array_equal(base.rewards, chaos.rewards)
        np.testing.assert_array_equal(base.actions, chaos.actions)
        for a, b in zip(agents_a, agents_b):
            assert_states_equal(a.policy, b.policy, a.agent_id)
        assert_outboxes_equal(agents_a, agents_b)

    def test_run_setting_under_chaos_matches_fault_free(self, monkeypatch):
        """The full two-phase experiment pipeline under an armed plan."""
        env_args = dict(n_actions=5, n_features=6, weight_scale=8.0)
        config = P2BConfig(
            n_actions=5, n_features=6, n_codes=8, p=0.5, window=5,
            shuffler_threshold=1,
        )
        kwargs = dict(
            n_contributors=8, n_eval_agents=6, eval_interactions=8, seed=3
        )
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        base = runner.run_setting(
            SyntheticPreferenceEnvironment(**env_args, seed=0),
            config, AgentMode.WARM_PRIVATE, **kwargs,
        )
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=5;raise=0.15")
        chaos = runner.run_setting(
            SyntheticPreferenceEnvironment(**env_args, seed=0),
            config, AgentMode.WARM_PRIVATE, **kwargs,
        )
        np.testing.assert_array_equal(base.curve, chaos.curve)
        assert base.mean_reward == chaos.mean_reward
        assert base.n_reports == chaos.n_reports
        assert base.n_released == chaos.n_released
        assert base.privacy == chaos.privacy


class TestCorruptionChaos:
    """The chaos tap sits on the columnar (fleet) collection path."""

    def _fleet_population(self, seed=0, n_agents=12):
        config = P2BConfig(
            n_actions=3, n_features=4, n_codes=6, q=1, p=0.7, window=3,
            shuffler_threshold=2, max_reports_per_user=2,
        )
        system = P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=seed)
        env = SyntheticPreferenceEnvironment(n_actions=3, n_features=4, seed=7)
        agents = [system.new_agent() for _ in range(n_agents)]
        sessions = [env.new_user(s) for s in spawn_seeds(seed + 1, n_agents)]
        return system, agents, sessions

    def test_corrupted_batches_quarantined_audit_passes(self, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV_VAR, "seed=4;corrupt=1.0;corrupt_frac=0.25"
        )
        system, agents, sessions = self._fleet_population()
        FleetRunner(agents, sessions).run(9)
        # collect() runs the crowd-blending audit internally
        # (stats.audit.raise_if_violated) — completing is the assertion
        outcome = system.collect(agents)
        assert system.shuffler.total_quarantined > 0
        assert outcome.n_reports > 0
        assert outcome.shuffler_stats.n_quarantined == system.shuffler.total_quarantined
        report = system.privacy_report()
        assert report is not None

    def test_corruption_on_the_async_path(self, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV_VAR, "seed=6;corrupt=1.0;corrupt_frac=0.25"
        )
        system, agents, sessions = self._fleet_population(seed=1, n_agents=10)
        FleetRunner(agents, sessions).run(9)
        released = 0
        for agent in agents:  # devices report on their own clocks
            released += system.collect_async([agent]).n_released
        final = system.flush_async()
        assert system.shuffler.total_quarantined > 0
        assert released + final.n_released >= 0
        assert system.n_pending_reports == 0

    def test_quarantine_leaves_clean_collection_untouched(self, monkeypatch):
        """Same population, knob off: nothing quarantined."""
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        system, agents, sessions = self._fleet_population()
        FleetRunner(agents, sessions).run(9)
        outcome = system.collect(agents)
        assert system.shuffler.total_quarantined == 0
        assert outcome.shuffler_stats.n_quarantined == 0
