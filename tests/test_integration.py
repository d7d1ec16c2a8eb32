"""End-to-end integration tests tying the system to its privacy claims.

These tests exercise the full §3 pipeline (agents -> participation ->
shuffler -> server -> warm start) and assert the properties the paper's
analysis depends on, independent of any workload specifics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AgentMode, P2BConfig, P2BSystem
from repro.data import SyntheticPreferenceEnvironment
from repro.privacy import epsilon_from_p, verify_crowd_blending
from repro.utils.serialization import state_from_json, state_to_json

from _released import record_released


def _pipeline(p=0.5, threshold=3, n_agents=120, seed=0, private_context="one-hot"):
    config = P2BConfig(
        n_actions=4,
        n_features=5,
        n_codes=8,
        p=p,
        window=5,
        shuffler_threshold=threshold,
        private_context=private_context,
    )
    system = P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=seed)
    env = SyntheticPreferenceEnvironment(n_actions=4, n_features=5, seed=seed)
    agents = [system.new_agent() for _ in range(n_agents)]
    users = env.user_population(n_agents, seed=seed + 1)
    for agent, user in zip(agents, users):
        for _ in range(5):
            x = user.next_context()
            a = agent.act(x)
            agent.learn(x, a, user.reward(a))
    return system, agents


class TestPrivacyInvariants:
    def test_outbox_reports_carry_only_codes(self):
        """Pre-shuffler payloads contain a code, never the raw context."""
        _, agents = _pipeline()
        for agent in agents:
            for report in agent.outbox:
                assert not hasattr(report, "context")
                assert isinstance(report.code, int)

    def test_shuffler_strips_all_agent_identities(self):
        system, agents = _pipeline()
        ids_before = {r.metadata.get("agent_id") for a in agents for r in a.outbox}
        assert len(ids_before) > 1  # metadata really was attached
        reports = []
        for a in agents:
            reports.extend(a.drain_outbox())
        released, _ = system.shuffler.process(reports)
        assert all(r.metadata == {} for r in released)

    def test_released_batch_satisfies_crowd_blending(self):
        system, agents = _pipeline(threshold=4)
        released = record_released(system)
        result = system.collect(agents)
        assert result.shuffler_stats.audit.satisfied
        assert len(released) == result.n_released > 0
        assert verify_crowd_blending([code for code, _, _ in released], 4).satisfied

    @given(st.sampled_from([0.1, 0.3, 0.5, 0.7]))
    @settings(max_examples=4, deadline=None)
    def test_property_empirical_participation_below_p_budget(self, p):
        """No agent ever reports more than once; the report rate tracks p."""
        _, agents = _pipeline(p=p, n_agents=300, seed=int(p * 100))
        counts = [len(a.outbox) for a in agents]
        assert max(counts) <= 1
        rate = float(np.mean(counts))
        assert abs(rate - p) < 0.12

    def test_epsilon_reported_matches_configured_p(self):
        system, agents = _pipeline(p=0.3)
        system.collect(agents)
        assert system.privacy_report().epsilon == pytest.approx(epsilon_from_p(0.3))

    def test_central_model_snapshot_is_json_clean(self):
        """The distributed model round-trips through the JSON wire format
        and contains only aggregate arrays (no object payloads)."""
        system, agents = _pipeline()
        system.collect(agents)
        snapshot = system.model_snapshot()
        wire = state_to_json(snapshot)
        assert "agent_id" not in wire
        restored = state_from_json(wire)
        fresh = system.new_agent()
        fresh.warm_start(restored)
        assert fresh.policy.t == system.server.policy.t


class TestDeterminism:
    def test_full_pipeline_reproducible(self):
        def run(seed):
            system, agents = _pipeline(seed=seed)
            system.collect(agents)
            return state_to_json(system.model_snapshot())

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_centroid_pipeline_reproducible(self):
        def run():
            system, agents = _pipeline(private_context="centroid", seed=3)
            system.collect(agents)
            return state_to_json(system.model_snapshot())

        assert run() == run()


class TestFailureInjection:
    def test_collect_with_no_reports_is_safe(self):
        """p=0 (nobody participates) must degrade gracefully, not crash."""
        system, agents = _pipeline(p=0.0)
        result = system.collect(agents)
        assert result.n_reports == 0 and result.n_released == 0
        # warm agent from an empty central model == cold behaviour
        agent = system.new_warm_agent()
        assert agent.policy.t == 0

    def test_all_reports_below_threshold_yields_empty_model(self):
        system, agents = _pipeline(threshold=10_000)
        result = system.collect(agents)
        assert result.n_released == 0
        assert system.server.n_tuples_ingested == 0

    def test_double_collect_is_idempotent_on_drained_outboxes(self):
        system, agents = _pipeline()
        first = system.collect(agents)
        second = system.collect(agents)  # outboxes already drained
        assert second.n_reports == 0
        assert system.server.n_tuples_ingested == first.n_released
