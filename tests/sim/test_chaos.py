"""Seeded report corruption behind the ``REPRO_FAULTS`` env knob, end to end.

CI's chaos-smoke job runs these: corrupted report batches are
quarantined — collection continues and the crowd-blending audit still
passes — and with the knob off nothing is quarantined.  That an armed
knob leaves every run alone and corrupts the same batches whichever
engine recorded the reports is the harness's (``test_harness.py``, its
``faults`` cases) to check.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import AgentMode, P2BConfig
from repro.core.system import P2BSystem
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments import runner
from repro.sim import FleetRunner
from repro.sim.faults import FAULTS_ENV_VAR
from repro.utils.rng import spawn_seeds


class TestEnvKnobChaos:
    def test_run_setting_under_chaos_quarantines_and_completes(self, monkeypatch):
        """The full two-phase experiment pipeline under an armed plan:
        every report is still collected, the malformed ones never reach
        the server, and the evaluation phase runs to the end."""
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
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=5;corrupt=1.0;corrupt_frac=0.5")
        chaos = runner.run_setting(
            SyntheticPreferenceEnvironment(**env_args, seed=0),
            config, AgentMode.WARM_PRIVATE, **kwargs,
        )
        assert chaos.n_reports == base.n_reports > 0
        assert chaos.n_released < base.n_released
        assert chaos.curve.shape == base.curve.shape
        assert np.isfinite(chaos.curve).all() and np.isfinite(chaos.mean_reward)


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
