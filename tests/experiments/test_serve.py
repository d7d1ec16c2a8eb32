"""FleetService: the hot serving loop behind `repro-p2b serve`.

End-to-end streaming deployments (churn + drift + async collection)
must run to completion, and — the anchor — a fixed-population service
answering fixed-horizon requests must be bit-identical to driving the
same population through a plain FleetRunner.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import P2BConfig
from repro.data import DriftingSyntheticEnvironment
from repro.experiments import FleetService, ServeStats
from repro.experiments.runner import EngineConfig
from repro.sim import FleetRunner
from repro.utils.exceptions import ConfigError

N_ACTIONS = 4
N_FEATURES = 6


def _env(**kwargs):
    kwargs.setdefault("epoch_length", 5)
    return DriftingSyntheticEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7, **kwargs
    )


def _config(**kwargs):
    kwargs.setdefault("shuffler_threshold", 2)
    kwargs.setdefault("window", 3)
    kwargs.setdefault("max_reports_per_user", 5)
    return P2BConfig(n_actions=N_ACTIONS, n_features=N_FEATURES, n_codes=8, **kwargs)


class TestLifecycle:
    def test_streaming_deployment_end_to_end(self):
        service = FleetService(_config(), _env(), seed=0)
        service.arrive(10)
        for r in range(6):
            service.arrive(2)
            service.depart([0, 1])
            result = service.interact(4)
            assert result.rewards.shape == (service.n_agents, 4)
            if r % 2 == 0:
                service.collect()
        service.collect()
        service.flush()
        stats = service.stats
        assert isinstance(stats, ServeStats)
        assert stats.n_requests == 6
        assert stats.n_arrived == 22
        assert stats.n_departed == 12
        assert stats.n_agents == 10
        assert stats.n_reports > 0
        assert stats.n_pending == 0

    def test_empty_service_answers_empty_requests(self):
        service = FleetService(_config(), _env(), seed=0)
        result = service.interact(3)
        assert result.rewards.shape == (0, 3)
        assert service.collect().n_reports == 0
        service.arrive(4)
        service.depart([0, 1, 2, 3])
        assert service.n_agents == 0
        assert service.interact(2).rewards.shape == (0, 2)

    def test_subset_requests_on_per_agent_clocks(self):
        service = FleetService(_config(), _env(), seed=1)
        agents = service.arrive(6)
        r_subset = service.interact(3, subset=[0, 2, 4])
        assert r_subset.rewards.shape == (3, 3)
        r_subset2 = service.interact(2, subset=[agents[1], agents[3]])
        assert r_subset2.rewards.shape == (2, 2)
        # full-population requests still work after subset requests
        assert service.interact(2).rewards.shape == (6, 2)
        stranger = FleetService(_config(), _env(), seed=9).arrive(1)[0]
        with pytest.raises(ConfigError, match="not in this"):
            service.interact(1, subset=[stranger])

    def test_refresh_distributes_central_model(self):
        service = FleetService(_config(p=0.9), _env(), seed=3)
        service.arrive(12)
        for _ in range(4):
            service.interact(6)
            service.collect()
        service.flush()
        assert service.system.server.n_tuples_ingested > 0
        service.refresh()
        # every device pulled the same central model: the learned design
        # matrices agree across agents after refresh
        states = [a.policy.get_state() for a in service.fleet.agents]
        for key, value in states[0].items():
            ref = np.asarray(value)
            if ref.dtype == object or not np.issubdtype(ref.dtype, np.number):
                continue  # RNG bit generators stay per-agent
            for other in states[1:]:
                np.testing.assert_array_equal(ref, np.asarray(other[key]), err_msg=key)
        # and the next request still runs (the refreshed policies restack)
        assert service.interact(2).rewards.shape == (12, 2)

    def test_depart_resolves_members_once(self):
        """Departures go through FleetRunner.member_indices: an index
        named twice, a negative index and an out-of-range index are
        refused before anything is collected, so the arrival/departure
        counters always balance the population."""
        service = FleetService(_config(), _env(), seed=4)
        agents = service.arrive(4)
        for bad, match in (([0, 0], "unique"), ([-1], "out of range"), ([99], "out of range")):
            with pytest.raises(ConfigError, match=match):
                service.depart(bad)
            assert service.n_agents == 4
        with pytest.raises(ConfigError, match="unique"):
            service.depart([agents[1], 1])
        service.depart([0])
        stats = service.stats
        assert stats.n_departed == 1
        assert stats.n_arrived - stats.n_departed == stats.n_agents == 3
        assert service.fleet.agents == agents[1:]

    def test_engine_config_validation(self):
        with pytest.raises(ConfigError, match="sequential"):
            FleetService(_config(), _env(), engine=EngineConfig(engine="sequential"))
        with pytest.raises(ConfigError, match="EngineConfig"):
            FleetService(_config(), _env(), engine="fleet")

        from repro.experiments.results import CurveSink

        with pytest.raises(ConfigError, match="sink"):
            FleetService(_config(), _env(), engine=EngineConfig(sink=CurveSink()))


class TestBitIdentity:
    def test_fixed_population_serve_matches_plain_fleet(self):
        """No churn, fixed horizon: the service is just a FleetRunner."""
        serve = FleetService(_config(), _env(), seed=11)
        serve_agents = serve.arrive(8)
        r1 = serve.interact(6)
        r2 = serve.interact(6)

        twin = FleetService(_config(), _env(), seed=11)
        twin_agents = twin.arrive(8)
        plain = FleetRunner(twin_agents, twin.fleet.sessions)
        p1 = plain.run(6)
        p2 = plain.run(6)

        np.testing.assert_array_equal(r1.rewards, p1.rewards)
        np.testing.assert_array_equal(r2.rewards, p2.rewards)
        np.testing.assert_array_equal(r1.actions, p1.actions)
        for a, b in zip(serve_agents, twin_agents):
            state_a, state_b = a.policy.get_state(), b.policy.get_state()
            for key in state_a:
                np.testing.assert_array_equal(
                    np.asarray(state_a[key]), np.asarray(state_b[key]), err_msg=key
                )

    def test_arrival_order_is_reproducible(self):
        """Same seed + same arrival schedule => identical deployments,
        regardless of interleaved requests."""
        a = FleetService(_config(), _env(), seed=4)
        b = FleetService(_config(), _env(), seed=4)
        a.arrive(4)
        a.interact(3)
        a.arrive(2)
        ra = a.interact(3)

        b.arrive(4)
        b.interact(3)
        b.arrive(2)
        rb = b.interact(3)
        np.testing.assert_array_equal(ra.rewards, rb.rewards)


class TestSubsetVsRebuild:
    def test_subset_request_bit_identical_to_ephemeral_rebuild(self):
        """The warm held shards answering a subset request must
        produce exactly what a fresh FleetRunner over just those agents
        and sessions would — shard reuse is an optimization, never an
        observable."""
        serve = FleetService(_config(), _env(), seed=21)
        serve.arrive(6)
        twin = FleetService(_config(), _env(), seed=21)
        twin.arrive(6)

        subset = [0, 2, 4]
        r_serve = serve.interact(5, subset=subset)
        rebuild = FleetRunner(
            [twin.fleet.agents[i] for i in subset],
            [twin.fleet.sessions[i] for i in subset],
        )
        r_rebuild = rebuild.run(5)
        np.testing.assert_array_equal(r_serve.rewards, r_rebuild.rewards)
        np.testing.assert_array_equal(r_serve.actions, r_rebuild.actions)

        # the held fleet is still coherent afterwards: a full request
        # matches the twin's, whose subset agents another runner advanced
        np.testing.assert_array_equal(
            serve.interact(3).rewards, twin.interact(3).rewards
        )


class TestHardening:
    def test_request_timeout_validation(self):
        with pytest.raises(ConfigError, match="request_timeout"):
            FleetService(_config(), _env(), request_timeout=0.0)

    def test_generous_timeout_is_invisible(self):
        """Within budget, the guarded path is bit-identical to inline."""
        service = FleetService(_config(), _env(), seed=1, request_timeout=30.0)
        service.arrive(4)
        assert service.interact(3).rewards.shape == (4, 3)
        assert service.status()["state"] == "ok"
        twin = FleetService(_config(), _env(), seed=1)
        twin.arrive(4)
        twin.interact(3)
        np.testing.assert_array_equal(
            service.interact(2).rewards, twin.interact(2).rewards
        )

    def test_timeout_degrades_then_shutdown_drains(self, monkeypatch):
        from repro.sim.faults import FAULTS_ENV_VAR
        from repro.utils.exceptions import ServiceError, ServiceTimeout

        # a seeded delay fault makes round 0 slow — deterministically
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=0;delay_s=1.0;at=delay:0:0")
        service = FleetService(_config(), _env(), seed=2, request_timeout=0.05)
        service.arrive(4)
        with pytest.raises(ServiceTimeout, match="draining"):
            service.interact(2)
        status = service.status()
        assert status["state"] == "degraded" and status["inflight"] == 1
        with pytest.raises(ServiceError, match="degraded"):
            service.interact(1)
        # graceful shutdown joins the draining request, then flushes
        service.shutdown()
        assert service.status()["state"] == "closed"
        # the drained request really ran: its interactions landed
        assert service.fleet.agents[0].n_interactions == 2

    def test_shutdown_flushes_pending_and_is_idempotent(self):
        service = FleetService(_config(), _env(), seed=5)
        service.arrive(8)
        service.interact(6)
        outcome = service.shutdown()
        assert outcome.n_reports > 0  # outboxes drained at shutdown
        assert service.system.n_pending_reports == 0
        again = service.shutdown()
        assert again.n_reports == 0 and again.n_released == 0

    def test_closed_service_rejects_every_entry_point(self):
        from repro.utils.exceptions import ServiceError

        service = FleetService(_config(), _env(), seed=6)
        agents = service.arrive(2)
        service.shutdown()
        for call in (
            lambda: service.interact(1),
            lambda: service.collect(),
            lambda: service.flush(),
            lambda: service.arrive(1),
            lambda: service.depart(agents),
            lambda: service.refresh(),
        ):
            with pytest.raises(ServiceError, match="shut down"):
                call()

    def test_skip_shard_drops_count_and_degrade_status(self, monkeypatch):
        from repro.sim.faults import FAULTS_ENV_VAR
        from repro.sim.fleet import FaultPolicy

        # the same injected fault on both attempts => retries exhaust
        # and the skip_shard policy degrades instead of raising
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=0;at=raise:0:0:0;at=raise:0:0:1")
        service = FleetService(
            _config(),
            _env(),
            seed=7,
            engine=EngineConfig(
                fault_policy=FaultPolicy(
                    max_retries=1, backoff=0.0, on_exhausted="skip_shard"
                )
            ),
        )
        service.arrive(4)  # one policy kind => one shard (shard 0)
        result = service.interact(3)
        assert len(result.dropped) == 1
        assert np.isnan(result.rewards).all()
        stats = service.stats
        assert stats.n_dropped_shards == 1
        assert service.status()["state"] == "degraded"

    def test_quarantine_counts_surface_in_stats(self, monkeypatch):
        from repro.data import SyntheticPreferenceEnvironment
        from repro.sim.faults import FAULTS_ENV_VAR

        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=3;corrupt=1.0;corrupt_frac=0.5")
        # a stationary workload: its sessions are plan-capable, so
        # reporting stays columnar — the path the chaos tap corrupts
        env = SyntheticPreferenceEnvironment(
            n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
        )
        service = FleetService(_config(), env, seed=8)
        service.arrive(8)
        for _ in range(4):
            service.interact(4)
            service.collect()
        service.shutdown()
        assert service.stats.n_quarantined > 0
