"""Seeded report corruption behind the ``REPRO_FAULTS`` env knob, end to end.

CI's chaos-smoke job runs these: corrupted report batches are
quarantined — collection continues and the crowd-blending audit still
passes — and with the knob off nothing is quarantined.  The tap sits on
collection only, so an armed knob leaves the simulation bitwise alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import UCB1, EpsilonGreedy, LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode, P2BConfig
from repro.core.payload import EncodedReport, drain_report_batches
from repro.core.rounds import DeploymentLoop
from repro.core.system import P2BSystem
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments import runner
from repro.experiments.runner import _simulate_agent
from repro.sim import EngineConfig, FleetRunner
from repro.sim.faults import FAULTS_ENV_VAR
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
        """Arming the knob changes nothing a fleet run produces: results,
        policy states and outboxes match the unarmed run bitwise."""
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        agents_a, sessions_a = _population(0)
        base = FleetRunner(agents_a, sessions_a, config=EngineConfig(n_workers=n_workers)).run(10)

        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=2;corrupt=1.0;corrupt_frac=0.5")
        agents_b, sessions_b = _population(0)
        chaos = FleetRunner(agents_b, sessions_b, config=EngineConfig(n_workers=n_workers)).run(10)

        np.testing.assert_array_equal(base.rewards, chaos.rewards)
        np.testing.assert_array_equal(base.actions, chaos.actions)
        for a, b in zip(agents_a, agents_b):
            assert_states_equal(a.policy, b.policy, a.agent_id)
        assert_outboxes_equal(agents_a, agents_b)

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


def _reporting_population(n_agents):
    """Warm-private agents that report at almost every window boundary."""
    config = P2BConfig(
        n_actions=3, n_features=4, n_codes=6, q=1, p=0.95, window=2, max_reports_per_user=20
    )
    system = P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=0)
    env = SyntheticPreferenceEnvironment(n_actions=3, n_features=4, seed=7)
    agents = [system.new_agent() for _ in range(n_agents)]
    sessions = [env.new_user(s) for s in spawn_seeds(1, n_agents)]
    return agents, sessions


def _collect_spy(monkeypatch):
    """Record ``(system, outcome)`` of every ``P2BSystem.collect`` call."""
    calls = []
    collect = P2BSystem.collect

    def spy(self, agents):
        outcome = collect(self, agents)
        calls.append((self, outcome))
        return outcome

    monkeypatch.setattr(P2BSystem, "collect", spy)
    return calls


def _drained_rows(agents):
    encoded, _ = drain_report_batches(agents)
    return list(
        zip(
            encoded.agent_rows.tolist(),
            encoded.interaction_indices.tolist(),
            encoded.codes.tolist(),
            encoded.actions.tolist(),
            encoded.rewards.tolist(),
        )
    )


def _outbox_rows(agents):
    """The reference: concatenated per-agent ``drain_outbox()`` calls."""
    return [
        (pos, r.metadata.get("interaction_index", -1), r.code, r.action, r.reward)
        for pos, agent in enumerate(agents)
        for r in agent.drain_outbox()
    ]


class TestCorruptionEnginesAgree:
    """Collection takes one route whichever engine recorded the reports,
    so an armed corruption plan hits the sequential spec and the fleet
    alike: the same batches are corrupted, the same tuples quarantined."""

    SPEC = "seed=3;corrupt=1.0;corrupt_frac=0.2"

    def test_run_setting_sequential_equals_fleet(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, self.SPEC)
        calls = _collect_spy(monkeypatch)
        config = P2BConfig(
            n_actions=5, n_features=6, n_codes=8, p=0.5, window=5, shuffler_threshold=2
        )
        results = {}
        for engine in ("sequential", "fleet"):
            results[engine] = runner.run_setting(
                SyntheticPreferenceEnvironment(n_actions=5, n_features=6, seed=0),
                config,
                AgentMode.WARM_PRIVATE,
                n_contributors=60,
                n_eval_agents=6,
                eval_interactions=8,
                seed=3,
                engine=engine,
            )
        seq, fleet = results["sequential"], results["fleet"]
        (seq_sys, seq_out), (fleet_sys, fleet_out) = calls
        assert seq_out == fleet_out
        assert seq_out.shuffler_stats.n_quarantined > 0
        assert seq_sys.shuffler.total_quarantined == fleet_sys.shuffler.total_quarantined
        assert (seq.n_reports, seq.n_released) == (fleet.n_reports, fleet.n_released)
        assert seq.privacy == fleet.privacy
        assert_states_equal(seq_sys.server.policy, fleet_sys.server.policy, "central")
        np.testing.assert_array_equal(seq.curve, fleet.curve)
        assert seq.mean_reward == fleet.mean_reward

    def test_deployment_loop_sequential_equals_fleet(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, self.SPEC)
        config = P2BConfig(
            n_actions=3,
            n_features=4,
            n_codes=6,
            q=1,
            p=0.7,
            window=3,
            shuffler_threshold=2,
            max_reports_per_user=3,
        )
        loops = {}
        for engine in ("sequential", "fleet"):
            env = SyntheticPreferenceEnvironment(n_actions=3, n_features=4, seed=11)
            loop = DeploymentLoop(
                config, env, interactions_per_round=5, refresh=True, seed=5, engine=engine
            )
            loop.enroll(20)
            for i in range(3):
                loop.run_round(new_users=3 if i == 1 else 0)
            loops[engine] = loop
        seq, fleet = loops["sequential"], loops["fleet"]
        assert seq.rounds == fleet.rounds  # released counts and reward curve
        assert seq.system.shuffler.total_quarantined > 0
        assert seq.system.shuffler.total_quarantined == fleet.system.shuffler.total_quarantined
        assert seq.privacy_report() == fleet.privacy_report()
        # the server policy's state is the central model snapshot
        assert_states_equal(seq.system.server.policy, fleet.system.server.policy, "central")

    def test_drain_rows_follow_outbox_order(self):
        """An object prefix from scalar steps, a fleet run, more scalar
        steps: the drained rows equal a twin's ``drain_outbox()`` calls.
        An object set through the ``outbox`` setter without metadata
        keeps its outbox position (interaction index -1)."""
        populations = [_reporting_population(6) for _ in range(2)]
        bare = EncodedReport(code=0, action=1, reward=0.5)
        for agents, sessions in populations:
            _simulate_agent(agents[0], sessions[0], 4)
            FleetRunner(agents, sessions).run(7)
            _simulate_agent(agents[0], sessions[0], 5)
            first, *rest = agents[1].outbox
            agents[1].outbox = [first, bare, *rest]
        (agents, _), (twins, _) = populations
        # scalar prefix, fleet rows and scalar suffix share one store
        log = agents[0].report_log
        assert all(a.report_log is log for a in agents)
        indices = [r.metadata["interaction_index"] for r in agents[0].outbox]
        assert indices[0] <= 4 < 11 < indices[-1]
        rows = _drained_rows(agents)
        assert rows == _outbox_rows(twins)
        assert [row for row in rows if row[0] == 1][1] == (1, -1, 0, 1, 0.5)
        assert len(log) == 0 and all(not a.outbox for a in agents)
