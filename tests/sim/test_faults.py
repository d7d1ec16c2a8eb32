"""The corruption tap's fault plan, and shard errors that propagate.

A :class:`FaultPlan` only corrupts collected report batches: its spec
grammar, its determinism and the env knob are pinned here.  Shard
horizons are deterministic given the population's state, so an
exception inside one propagates unchanged, serial or pooled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import UCB1, EpsilonGreedy, LinearThompsonSampling, LinUCB
from repro.core.agent import LocalAgent
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.sim import EngineConfig, FleetRunner
from repro.sim import fleet as fleet_module
from repro.sim.faults import FAULTS_ENV_VAR, FaultPlan, active_plan
from repro.sim.stacked import StackedThompson
from repro.utils.exceptions import ConfigError, ValidationError
from repro.utils.rng import spawn_seeds

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


class TestFaultPlanSpec:
    def test_parse(self):
        plan = FaultPlan.parse("seed=7; corrupt=0.1 ;corrupt_frac=0.25")
        assert plan == FaultPlan(seed=7, p_corrupt=0.1, corrupt_frac=0.25)
        assert FaultPlan.parse("") == FaultPlan()

    @pytest.mark.parametrize(
        "bad",
        [
            "corrupt",  # no '='
            "corrupt=lots",  # not a float
            "frobnicate=1",  # unknown key
            "corrupt=1.5",  # out of [0, 1]
            "corrupt_frac=-0.1",  # out of [0, 1]
            "corrupt=-0.1",  # out of [0, 1]
            "corrupt_frac=2",  # out of [0, 1]
            "seed=abc",  # not an int
        ],
    )
    def test_bad_fragments_rejected(self, bad):
        with pytest.raises(ConfigError):
            FaultPlan.parse(bad)

    @pytest.mark.parametrize(
        "fragment",
        ["raise=0.03", "crash=0.03", "delay=0.1", "delay_s=1.0", "at=raise:0:3"],
    )
    def test_retired_step_fault_keys_rejected_by_name(self, fragment):
        key = fragment.partition("=")[0]
        with pytest.raises(ConfigError, match=f"'{key}'"):
            FaultPlan.parse(f"seed=7;{fragment}")

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

    def test_zero_rate_passes_batch_through_untouched(self):
        plan = FaultPlan(seed=5, p_corrupt=0.0, corrupt_frac=1.0)
        codes, actions, rewards = np.arange(6), np.zeros(6, dtype=np.intp), np.ones(6)
        out = plan.corrupt_batch(0, codes, actions, rewards)
        assert out[0] is codes and out[1] is actions and out[2] is rewards
        assert out[3] == 0

    def test_small_batch_loses_at_least_one_tuple(self):
        """``corrupt_frac`` rounds to zero victims on a short batch, yet
        a fired corruption always mangles one tuple; an empty batch
        never fires."""
        plan = FaultPlan(seed=1, p_corrupt=1.0, corrupt_frac=0.01)
        codes, actions, rewards, n_bad = plan.corrupt_batch(
            2, np.arange(3), np.zeros(3, dtype=np.intp), np.ones(3)
        )
        assert n_bad == 1 and int((codes < 0).sum()) == 1
        empty = np.zeros(0, dtype=np.intp)
        assert plan.corrupt_batch(2, empty, empty, np.zeros(0))[3] == 0

    def test_fire_rate_tracks_p_corrupt(self):
        plan = FaultPlan(seed=3, p_corrupt=0.3)
        codes, actions, rewards = np.arange(4), np.zeros(4, dtype=np.intp), np.ones(4)
        fired = [plan.corrupt_batch(b, codes, actions, rewards)[3] > 0 for b in range(400)]
        assert 0.22 < np.mean(fired) < 0.38
        # a different seed fires on a different schedule
        other = FaultPlan(seed=4, p_corrupt=0.3)
        assert fired != [
            other.corrupt_batch(b, codes, actions, rewards)[3] > 0 for b in range(400)
        ]

    def test_env_knob(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert active_plan() is None
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=9;corrupt=0.5")
        plan = active_plan()
        assert plan is not None and plan.seed == 9 and plan.p_corrupt == 0.5
        assert active_plan() is plan  # cached parse
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=10")
        assert active_plan().seed == 10  # re-read on change


class TestUnpicklablePopulation:
    """Nothing snapshots a shard by pickling it any more: a session
    holding an unpicklable object runs like any other, with the
    corruption knob armed or not."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_unpicklable_session_runs_like_a_plain_one(self, n_workers, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        agents_a, sessions_a = _population(4)
        base = FleetRunner(agents_a, sessions_a).run(10)
        monkeypatch.setenv(FAULTS_ENV_VAR, "seed=2;corrupt=1.0")
        agents_b, sessions_b = _population(4)
        sessions_b[1].hook = lambda: None  # shard 1 can no longer pickle
        run = FleetRunner(agents_b, sessions_b, config=EngineConfig(n_workers=n_workers)).run(10)
        np.testing.assert_array_equal(base.rewards, run.rewards)
        np.testing.assert_array_equal(base.actions, run.actions)
        assert run.dropped == ()


class _Boom(RuntimeError):
    pass


@pytest.mark.parametrize("n_workers", [1, 2])
def test_shard_error_propagates_unchanged(n_workers):
    """A shard horizon that raises, raises: the original exception
    reaches the caller once, neither retried nor wrapped."""
    agents, sessions = _population(1)
    calls = []
    broken = sessions[1]  # a member of shard 1 (the epsilon-greedy one)
    env = broken.environment  # plans every shard: one plan_block call each
    real = env.plan_block

    def plan_block(members, horizon):
        if any(s is broken for s in members):
            calls.append(horizon)
            if len(calls) == 1:
                raise _Boom("session source failed")
        return real(members, horizon)

    env.plan_block = plan_block
    runner = FleetRunner(agents, sessions, config=EngineConfig(n_workers=n_workers))
    with pytest.raises(_Boom, match="session source failed"):
        runner.run(6)
    assert calls == [6]


def _thompson_population(seed=2, n_agents=6):
    env = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
    )
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, session_seed = s.spawn(2)
        policy = LinearThompsonSampling(
            n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed
        )
        agents.append(LocalAgent(f"u{i}", policy, mode="cold"))
        sessions.append(env.new_user(session_seed))
    return agents, sessions


def _fail_once(monkeypatch, owner, name, exc):
    """Make ``owner.name`` raise ``exc``; return the list of calls."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(name)
        raise exc

    monkeypatch.setattr(owner, name, failing)
    return calls


@pytest.mark.parametrize("n_workers", [1, 2])
class TestHorizonErrorsPropagate:
    """The errors a shard horizon can raise with no fault plan armed:
    a :class:`ConfigError` from stacking, a :class:`ValidationError`
    from a NaN score (a non-positive-definite ``A_inv`` is no error: its
    quadratic form clamps at zero) and a :class:`MemoryError`.  Each is
    deterministic given the shard's state, so a retry would replay it:
    each reaches the caller unchanged, from one attempt."""

    def test_stacking_config_error(self, n_workers, monkeypatch):
        agents, sessions = _population(3)
        runner = FleetRunner(agents, sessions, config=EngineConfig(n_workers=n_workers))
        calls = _fail_once(
            monkeypatch, fleet_module, "stack_policies",
            ConfigError("cannot stack policies with differing alpha"),
        )
        with pytest.raises(ConfigError, match="differing alpha"):
            runner.run(4)
        assert 1 <= len(calls) <= 3  # at most once per shard, never retried

    def test_nan_score_validation_error(self, n_workers):
        """A NaN posterior score leaves an agent no highest arm."""
        agents, sessions = _thompson_population()
        agents[1].policy.A_inv[0] = np.nan
        runner = FleetRunner(agents, sessions, config=EngineConfig(n_workers=n_workers))
        with pytest.raises(ValidationError, match="scores contain NaN"):
            runner.run(4)

    def test_memory_error(self, n_workers, monkeypatch):
        agents, sessions = _thompson_population()
        runner = FleetRunner(agents, sessions, config=EngineConfig(n_workers=n_workers))
        calls = _fail_once(monkeypatch, StackedThompson, "sample_scores", MemoryError())
        with pytest.raises(MemoryError):
            runner.run(4)
        assert calls == ["sample_scores"]  # the one Thompson shard, once
