"""FleetRunner API behavior: validation, dispatch, outbox interplay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import EpsilonGreedy, LinUCB, RandomPolicy
from repro.core.agent import LocalAgent
from repro.core.payload import ReportBatch, drain_report_batches
from repro.core.config import AgentMode, P2BConfig
from repro.core.system import P2BSystem
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments.runner import run_setting
from repro.sim import FleetRunner, fleet_supported
from repro.utils.exceptions import ConfigError

from _participation import assert_participation_equal
from _testkit import N_FEATURES, make_population, simulate_sequential


def _linucb(n_arms, n_features, seed):
    return LinUCB(n_arms=n_arms, n_features=n_features, seed=seed)


def _random(n_arms, n_features, seed):
    return RandomPolicy(n_arms=n_arms, n_features=n_features, seed=seed)


class TestValidation:
    def test_empty_population_returns_empty_result(self):
        # zero agents shard to zero worker-pool tasks; the engine must
        # short-circuit (max_workers=0 would raise) and return the
        # sequential engine's empty-result shape
        result = FleetRunner([], []).run(7)
        assert result.rewards.shape == (0, 7)
        assert result.actions.shape == (0, 7)
        assert result.expected is None
        assert result.expected_mask.shape == (0,)

    def test_misaligned_sessions_rejected(self):
        agents, sessions = make_population(_linucb, AgentMode.COLD, 3, 0)
        with pytest.raises(ConfigError):
            FleetRunner(agents, sessions[:-1])

    def test_unsupported_policy_rejected(self):
        agents, sessions = make_population(_random, AgentMode.COLD, 3, 0)
        assert not fleet_supported(agents)
        with pytest.raises(ConfigError):
            FleetRunner(agents, sessions)

    def test_one_unsupported_agent_poisons_the_population(self):
        agents, sessions = make_population(_linucb, AgentMode.COLD, 3, 0)
        bad, bad_sessions = make_population(_random, AgentMode.COLD, 1, 1)
        mixed = agents + bad
        assert not fleet_supported(mixed)
        with pytest.raises(ConfigError, match="not fleet-capable"):
            FleetRunner(mixed, sessions + bad_sessions)

    def test_heterogeneous_policies_shard(self):
        # mixed policy kinds are no longer rejected: they partition
        # into one stacked state per kind
        agents_a, sessions_a = make_population(_linucb, AgentMode.COLD, 2, 0)
        agents_b, sessions_b = make_population(
            lambda a, d, s: EpsilonGreedy(n_arms=a, n_features=d, seed=s),
            AgentMode.COLD,
            2,
            1,
        )
        mixed = agents_a + agents_b
        assert fleet_supported(mixed)
        runner = FleetRunner(mixed, sessions_a + sessions_b)
        assert runner.n_shards == 2

    def test_mixed_modes_shard(self):
        cold, cold_sessions = make_population(_linucb, AgentMode.COLD, 2, 0)
        warm, warm_sessions = make_population(_linucb, AgentMode.WARM_NONPRIVATE, 2, 0)
        assert fleet_supported(cold + warm)
        runner = FleetRunner(cold + warm, cold_sessions + warm_sessions)
        assert runner.n_shards == 2


class TestEngineDispatch:
    def test_engine_fleet_raises_on_unsupported_population(self):
        # RandomPolicy has no fleet support, so the runner must refuse
        agents, sessions = make_population(_random, AgentMode.COLD, 2, 0)
        with pytest.raises(ConfigError):
            FleetRunner(agents, sessions)

    def test_invalid_engine_rejected(self):
        env = SyntheticPreferenceEnvironment(n_actions=3, n_features=N_FEATURES, seed=0)
        config = P2BConfig(n_actions=3, n_features=N_FEATURES, n_codes=8)
        with pytest.raises(ConfigError):
            run_setting(env, config, AgentMode.COLD, n_eval_agents=2,
                        eval_interactions=2, seed=0, engine="warp")


class TestFleetResult:
    def test_measured_falls_back_to_realized_without_tracking(self):
        agents, sessions = make_population(_linucb, AgentMode.COLD, 4, 3)
        result = FleetRunner(agents, sessions).run(6)
        assert result.expected is None
        np.testing.assert_array_equal(result.measured(), result.rewards)

    def test_measured_uses_expected_when_tracked(self):
        agents, sessions = make_population(_linucb, AgentMode.COLD, 4, 3)
        result = FleetRunner(agents, sessions).run(6, track_expected=True)
        assert result.expected is not None
        assert result.expected_mask.all()  # synthetic env knows ground truth
        np.testing.assert_array_equal(result.measured(), result.expected)
        # expected channel is noise-free, realized is noisy: they differ
        assert not np.array_equal(result.expected, result.rewards)

    def test_actions_use_the_narrowest_signed_dtype(self):
        """Actions fit int8 up to 128 arms;
        a population with a wider shard widens the whole matrix."""
        agents, sessions = make_population(_linucb, AgentMode.COLD, 4, 3)
        assert FleetRunner(agents, sessions).run(6).actions.dtype == np.int8

        n_wide = 200
        env = SyntheticPreferenceEnvironment(n_actions=n_wide, n_features=N_FEATURES, seed=1)
        wide = [
            LocalAgent(f"wide-{i}", _linucb(n_wide, N_FEATURES, seed=i), mode=AgentMode.COLD)
            for i in range(3)
        ]
        runner = FleetRunner(agents + wide, sessions + [env.new_user(i) for i in range(3)])
        result = runner.run(40)
        assert runner.n_shards == 2
        assert result.actions.dtype == np.int16
        assert result.actions[4:].max() >= 128  # cold LinUCB explores every arm


class TestBatchDrainInterplay:
    """Satellite: fleet-drained outboxes vs per-agent drains, through
    the shuffler — content, ordering, and metadata-stripping."""

    def _run_both(self, kmeans_encoder, n_agents=24, n_interactions=12, seed=8):
        seq_agents, seq_sessions = make_population(
            _linucb,
            AgentMode.WARM_PRIVATE,
            n_agents,
            seed,
            encoder=kmeans_encoder,
            private_context="centroid",
            max_reports=3,
        )
        fleet_agents, fleet_sessions = make_population(
            _linucb,
            AgentMode.WARM_PRIVATE,
            n_agents,
            seed,
            encoder=kmeans_encoder,
            private_context="centroid",
            max_reports=3,
        )
        simulate_sequential(seq_agents, seq_sessions, n_interactions)
        runner = FleetRunner(fleet_agents, fleet_sessions)
        runner.run(n_interactions)
        return seq_agents, fleet_agents, runner

    def test_batch_drain_matches_per_agent_drains(self, kmeans_encoder):
        seq_agents, fleet_agents, runner = self._run_both(kmeans_encoder)
        per_agent = [drain_report_batches([a])[0] for a in seq_agents]
        batched, raw = drain_report_batches(runner.agents)
        flat = ReportBatch.concat(per_agent, "encoded")
        assert len(raw) == 0 and len(batched) > 0
        for col in ("codes", "actions", "rewards", "interaction_indices"):
            np.testing.assert_array_equal(getattr(batched, col), getattr(flat, col))
        positions = np.repeat(np.arange(len(seq_agents)), [len(b) for b in per_agent])
        np.testing.assert_array_equal(batched.agent_rows, positions)
        # draining is destructive on both paths
        assert all(len(a.report_log) == 0 for a in seq_agents + fleet_agents)
        assert len(drain_report_batches(runner.agents)[0]) == 0

    def test_participation_budgets_advance_identically(self, kmeans_encoder):
        seq_agents, fleet_agents, _ = self._run_both(kmeans_encoder)
        for sa, fa in zip(seq_agents, fleet_agents):
            assert_participation_equal(sa.participation, fa.participation, sa.agent_id)

    def test_metadata_stripped_through_collect(self, kmeans_encoder):
        """System-level: collect() over fleet-run agents anonymizes."""
        config = P2BConfig(
            n_actions=4,
            n_features=N_FEATURES,
            n_codes=kmeans_encoder.n_codes,
            p=0.9,
            window=3,
            max_reports_per_user=3,
            shuffler_threshold=1,
        )
        system = P2BSystem(
            config, mode=AgentMode.WARM_PRIVATE, encoder=kmeans_encoder, seed=0
        )
        env = SyntheticPreferenceEnvironment(n_actions=4, n_features=N_FEATURES, seed=7)
        agents = [system.new_agent() for _ in range(20)]
        sessions = [env.new_user(i) for i in range(20)]
        FleetRunner(agents, sessions).run(9)
        pending = system.report_log.rows  # who reported, and when, ride as columns
        assert any(len(pending(a.report_row)) for a in agents)
        assert all((pending(a.report_row).interaction_indices > 0).all() for a in agents)
        outcome = system.collect(agents)
        assert outcome.n_reports > 0 and len(system.report_log) == 0
        assert outcome.shuffler_stats is not None
        assert outcome.shuffler_stats.audit.satisfied
