"""Fault injection + worker supervision: chaos must be invisible.

A supervised retry of an injected fault (either step-fault kind, serial
or on a thread pool) must leave results bitwise equal to the
fault-free run; exhausted retries either raise a typed
``WorkerError`` or degrade gracefully (``skip_shard``), reporting
exactly which shards dropped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import UCB1, EpsilonGreedy, LinUCB
from repro.core.agent import LocalAgent
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.sim import EngineConfig, FleetRunner
from repro.sim.faults import FAULTS_ENV_VAR, FaultPlan, FaultSpec, InjectedFault, active_plan
from repro.sim.fleet import DroppedShard, FaultPolicy
from repro.utils.exceptions import ConfigError, WorkerError
from repro.utils.rng import spawn_seeds

from _testkit import assert_states_equal

N_ACTIONS = 4
N_FEATURES = 5


def _population(seed, n_agents=9):
    """Three policy kinds => three shards (deterministic shard order)."""
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


def _assert_identical(res_a, res_b, agents_a, agents_b):
    np.testing.assert_array_equal(res_a.rewards, res_b.rewards)
    np.testing.assert_array_equal(res_a.actions, res_b.actions)
    for a, b in zip(agents_a, agents_b):
        assert_states_equal(a.policy, b.policy, a.agent_id)


class TestFaultPlanSpec:
    def test_parse_to_spec_round_trip(self):
        spec = "seed=7;raise=0.05;crash=0.02;corrupt=0.1;at=crash:0:3;at=raise:1:2:1"
        plan = FaultPlan.parse(spec)
        again = FaultPlan.parse(plan.to_spec())
        assert plan.to_spec() == again.to_spec()
        assert again.seed == 7 and again.p_raise == 0.05
        assert again.specs == (FaultSpec("crash", 0, 3), FaultSpec("raise", 1, 2, 1))

    @pytest.mark.parametrize(
        "bad",
        [
            "raise",  # no '='
            "raise=lots",  # not a float
            "frobnicate=1",  # unknown key
            "at=explode:0:1",  # unknown kind
            "at=raise:0",  # too few fields
            "raise=1.5",  # out of [0, 1]
        ],
    )
    def test_bad_fragments_rejected(self, bad):
        with pytest.raises(ConfigError):
            FaultPlan.parse(bad)

    def test_step_fault_is_deterministic_and_attempt0_only(self):
        plan = FaultPlan(seed=3, p_raise=0.3, p_crash=0.1)
        twin = FaultPlan.parse(plan.to_spec())
        fires = [(s, t) for s in range(4) for t in range(50) if plan.step_fault(s, t, 0)]
        assert fires  # the rates are high enough to fire somewhere
        for s, t in fires:
            assert plan.step_fault(s, t, 0) == twin.step_fault(s, t, 0)
            assert plan.step_fault(s, t, 1) is None  # retries run clean

    def test_explicit_spec_fires_at_its_attempt(self):
        plan = FaultPlan([FaultSpec("raise", 1, 4, attempt=2)])
        assert plan.step_fault(1, 4, 2) == "raise"
        assert plan.step_fault(1, 4, 0) is None
        with pytest.raises(InjectedFault):
            plan.on_step(1, 4, 2)

    def test_corrupt_batch_is_deterministic(self):
        plan = FaultPlan(seed=5, p_corrupt=1.0, corrupt_frac=0.5)
        codes = np.arange(10)
        actions = np.zeros(10, dtype=np.intp)
        rewards = np.ones(10)
        c1, a1, r1, n1 = plan.corrupt_batch(3, codes, actions, rewards)
        c2, a2, r2, n2 = plan.corrupt_batch(3, codes, actions, rewards)
        assert n1 == n2 == 5
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(r1, r2, err_msg="NaNs must land identically")
        # the originals are untouched; the malformations are the three
        # kinds the quarantine must catch
        assert codes.min() == 0 and np.isfinite(rewards).all()
        bad = (c1 < 0) | (a1 < 0) | ~np.isfinite(r1)
        assert int(bad.sum()) == 5

    def test_env_knob(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert active_plan() is None
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=9;raise=0.5")
        plan = active_plan()
        assert plan is not None and plan.seed == 9 and plan.p_raise == 0.5
        assert active_plan() is plan  # cached parse
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=10")
        assert active_plan().seed == 10  # re-read on change


class TestFaultPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(max_retries=True),
            dict(backoff=-0.1),
            dict(jitter=2.0),
            dict(on_exhausted="explode"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            FaultPolicy(**kwargs)

    def test_backoff_grows(self):
        policy = FaultPolicy(max_retries=3, backoff=0.1, jitter=0.0)
        waits = [policy.sleep_for(k) for k in range(3)]
        assert waits == sorted(waits) and waits[0] == pytest.approx(0.1)


@pytest.mark.parametrize("n_workers", [1, 2])
class TestRetryInvisibility:
    @pytest.mark.parametrize("kind", ["raise", "crash"])
    def test_injected_fault_below_retries_is_bitwise_invisible(
        self, n_workers, kind
    ):
        plan = FaultPlan([FaultSpec(kind, 1, 3)])
        agents_a, sessions_a = _population(0)
        agents_b, sessions_b = _population(0)
        base = FleetRunner(agents_a, sessions_a, config=EngineConfig(n_workers=n_workers)).run(8)
        chaos = FleetRunner(
            agents_b,
            sessions_b,
            config=EngineConfig(
                n_workers=n_workers, fault_policy=FaultPolicy(max_retries=2, backoff=0.0)
            ),
            fault_plan=plan,
        ).run(8)
        assert chaos.dropped == ()
        _assert_identical(base, chaos, agents_a, agents_b)

    def test_unsupervised_run_fails_fast(self, n_workers):
        plan = FaultPlan([FaultSpec("raise", 0, 2)])
        agents, sessions = _population(1)
        runner = FleetRunner(
            agents,
            sessions,
            config=EngineConfig(
                n_workers=n_workers, fault_policy=FaultPolicy(max_retries=0, backoff=0.0)
            ),
            fault_plan=plan,
        )
        with pytest.raises(WorkerError):
            runner.run(6)


class TestDegradedMode:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_skip_shard_drops_exactly_the_faulty_shard(self, n_workers):
        # the same explicit fault on every attempt => retries exhaust
        specs = [FaultSpec("raise", 1, 2, attempt=k) for k in range(3)]
        agents_a, sessions_a = _population(2)
        agents_b, sessions_b = _population(2)
        base = FleetRunner(agents_a, sessions_a).run(6)
        degraded = FleetRunner(
            agents_b,
            sessions_b,
            config=EngineConfig(
                n_workers=n_workers,
                fault_policy=FaultPolicy(
                    max_retries=2, backoff=0.0, on_exhausted="skip_shard"
                ),
            ),
            fault_plan=FaultPlan(specs),
        ).run(6)
        assert len(degraded.dropped) == 1
        drop = degraded.dropped[0]
        assert isinstance(drop, DroppedShard)
        assert drop.attempts == 3 and "raise" in drop.error
        rows = np.array([a.agent_id in drop.agent_ids for a in agents_b])
        assert rows.sum() == drop.n_agents > 0
        assert np.isnan(degraded.rewards[rows]).all()
        assert (degraded.actions[rows] == -1).all()
        # surviving shards are untouched by the neighbour's failure
        np.testing.assert_array_equal(
            degraded.rewards[~rows], base.rewards[~rows]
        )
        np.testing.assert_array_equal(
            degraded.actions[~rows], base.actions[~rows]
        )

    def test_exhausted_retries_raise_typed_worker_error(self):
        specs = [FaultSpec("raise", 0, 1, attempt=k) for k in range(2)]
        agents, sessions = _population(3)
        runner = FleetRunner(
            agents,
            sessions,
            fault_plan=FaultPlan(specs),
            config=EngineConfig(fault_policy=FaultPolicy(max_retries=1, backoff=0.0)),
        )
        with pytest.raises(WorkerError) as err:
            runner.run(4)
        assert "raise" in str(err.value)


@pytest.mark.parametrize("n_workers", [1, 2])
class TestUnsnapshotablePopulation:
    """Supervision snapshots a shard by pickling it before each attempt;
    a shard holding an unpicklable object cannot be snapshotted."""

    @staticmethod
    def _unpicklable(seed):
        agents, sessions = _population(seed)
        sessions[1].hook = lambda: None  # shard 1 can no longer pickle
        return agents, sessions

    def test_explicit_policy_raises_config_error(self, n_workers):
        agents, sessions = self._unpicklable(4)
        runner = FleetRunner(
            agents,
            sessions,
            config=EngineConfig(
                n_workers=n_workers, fault_policy=FaultPolicy(max_retries=1, backoff=0.0)
            ),
        )
        with pytest.raises(ConfigError, match="picklable"):
            runner.run(4)

    def test_env_knob_runs_that_shard_clean(self, n_workers, monkeypatch):
        """Implicit supervision (the knob armed, no policy asked for)
        must never turn a passing run into a crash: the unsnapshotable
        shard runs unarmed, the others recover their faults."""
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        agents_a, sessions_a = _population(4)
        base = FleetRunner(agents_a, sessions_a).run(10)
        spec = "seed=2;raise=0.1;crash=0.1"
        assert any(
            FaultPlan.parse(spec).step_fault(s, t, 0) for s in (0, 2) for t in range(10)
        )
        monkeypatch.setenv(FAULTS_ENV_VAR, spec)
        agents_b, sessions_b = self._unpicklable(4)
        chaos = FleetRunner(agents_b, sessions_b, config=EngineConfig(n_workers=n_workers)).run(10)
        assert chaos.dropped == ()
        _assert_identical(base, chaos, agents_a, agents_b)
