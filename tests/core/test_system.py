"""Integration tests for repro.core.system — the full P2B pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AgentMode, P2BConfig, P2BSystem
from repro.privacy.crowd_blending import smallest_crowd
from repro.utils.exceptions import ConfigError

from _released import record_released


def _config(**overrides) -> P2BConfig:
    base = dict(
        n_actions=4,
        n_features=5,
        n_codes=8,
        p=0.5,
        window=5,
        shuffler_threshold=2,
    )
    base.update(overrides)
    return P2BConfig(**base)


def _run_agents(system: P2BSystem, n_agents: int, n_interactions: int, rng):
    """Simulate agents on a trivial environment: reward 1 iff action == 0."""
    agents = [system.new_agent() for _ in range(n_agents)]
    for agent in agents:
        for _ in range(n_interactions):
            x = rng.dirichlet(np.ones(5))
            agent.step(x, lambda a: 1.0 if a == 0 else 0.0)
    return agents


class TestConstruction:
    def test_private_system_builds_codebook(self):
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=0)
        assert system.encoder is not None
        assert system.encoder.n_codes == 8
        assert system.shuffler is not None

    def test_nonprivate_has_no_shuffler(self):
        system = P2BSystem(_config(), mode=AgentMode.WARM_NONPRIVATE, seed=0)
        assert system.shuffler is None
        assert system.server is not None

    def test_cold_has_no_server(self):
        system = P2BSystem(_config(), mode=AgentMode.COLD, seed=0)
        assert system.server is None
        with pytest.raises(ConfigError):
            system.model_snapshot()

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            P2BSystem(_config(), mode="tepid", seed=0)

    def test_agent_ids_unique(self):
        system = P2BSystem(_config(), mode=AgentMode.COLD, seed=0)
        ids = {system.new_agent().agent_id for _ in range(10)}
        assert len(ids) == 10


class TestPrivatePipeline:
    def test_end_to_end_collection(self, rng):
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=1)
        agents = _run_agents(system, n_agents=60, n_interactions=5, rng=rng)
        result = system.collect(agents)
        # ~half of 60 agents report (p=0.5)
        assert 15 <= result.n_reports <= 45
        assert result.n_released <= result.n_reports
        assert result.shuffler_stats is not None
        assert result.shuffler_stats.audit.satisfied
        assert system.server.n_tuples_ingested == result.n_released

    def test_warm_agent_inherits_central_model(self, rng):
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=2)
        agents = _run_agents(system, n_agents=80, n_interactions=5, rng=rng)
        system.collect(agents)
        warm = system.new_warm_agent()
        np.testing.assert_allclose(
            warm.policy.counts, system.server.policy.counts, atol=1e-12
        )
        np.testing.assert_allclose(
            warm.policy.sums, system.server.policy.sums, atol=1e-12
        )

    def test_privacy_report_uses_realized_l(self, rng):
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=3)
        agents = _run_agents(system, n_agents=100, n_interactions=5, rng=rng)
        system.collect(agents)
        report = system.privacy_report()
        assert report.epsilon == pytest.approx(np.log(2.0))
        assert report.l >= 2  # at least the shuffler threshold

    def test_realized_l_is_smallest_crowd_across_rounds(self, rng):
        """The system keeps per-code counts, not the released codes; its
        realized ``l`` is the smallest crowd of everything released, over
        synchronous and asynchronous rounds alike."""
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=4)
        released = record_released(system)
        system.collect(_run_agents(system, n_agents=60, n_interactions=5, rng=rng))
        system.collect_async(_run_agents(system, n_agents=40, n_interactions=5, rng=rng))
        system.flush_async()
        codes = [code for code, _, _ in released]
        assert system._released_counts.shape == (8,)
        assert system._released_counts.sum() == len(codes) > 0
        assert system.privacy_report().l == smallest_crowd(codes)

    def test_privacy_report_before_collection_uses_threshold(self):
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=0)
        assert system.privacy_report().l == 2

    def test_server_never_sees_raw_contexts(self, rng):
        """Type-level check: everything ingested is an EncodedReport."""
        system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=4)
        agents = _run_agents(system, n_agents=50, n_interactions=5, rng=rng)
        reports = []
        for a in agents:
            reports.extend(a.outbox)
        from repro.core import EncodedReport

        assert all(isinstance(r, EncodedReport) for r in reports)

    def test_reproducible_given_seed(self, rng):
        def run(seed):
            system = P2BSystem(_config(), mode=AgentMode.WARM_PRIVATE, seed=seed)
            rng_local = np.random.default_rng(0)
            agents = _run_agents(system, 40, 5, rng_local)
            system.collect(agents)
            return system.server.policy.sums.copy()

        np.testing.assert_array_equal(run(11), run(11))


class TestNonPrivatePipeline:
    def test_end_to_end(self, rng):
        system = P2BSystem(_config(), mode=AgentMode.WARM_NONPRIVATE, seed=5)
        agents = _run_agents(system, n_agents=40, n_interactions=5, rng=rng)
        result = system.collect(agents)
        assert result.n_released == result.n_reports  # no thresholding
        assert system.server.n_tuples_ingested == result.n_reports

    def test_privacy_report_refused(self):
        system = P2BSystem(_config(), mode=AgentMode.WARM_NONPRIVATE, seed=0)
        with pytest.raises(ConfigError):
            system.privacy_report()


class TestColdPipeline:
    def test_collect_is_noop(self, rng):
        system = P2BSystem(_config(), mode=AgentMode.COLD, seed=6)
        agents = _run_agents(system, n_agents=10, n_interactions=5, rng=rng)
        result = system.collect(agents)
        assert result.n_reports == 0 and result.n_released == 0
