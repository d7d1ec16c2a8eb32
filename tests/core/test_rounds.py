"""Tests for repro.core.rounds — the multi-round deployment loop."""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim
from repro.bandits import CodeLinUCB, LinUCB
from repro.core import DeploymentLoop, P2BConfig
from repro.core.agent import LocalAgent
from repro.data import SyntheticPreferenceEnvironment
from repro.sim import FleetRunner
from repro.utils.exceptions import ConfigError


def _loop(
    max_reports=1, refresh=True, seed=0, engine="auto", **config_overrides
) -> DeploymentLoop:
    config = P2BConfig(
        n_actions=5,
        n_features=6,
        n_codes=16,
        p=0.5,
        window=5,
        shuffler_threshold=1,
        max_reports_per_user=max_reports,
        **config_overrides,
    )
    env = SyntheticPreferenceEnvironment(
        n_actions=5, n_features=6, weight_scale=8.0, seed=seed
    )
    return DeploymentLoop(
        config=config,
        env=env,
        interactions_per_round=5,
        refresh=refresh,
        seed=seed,
        engine=engine,
    )


class TestDeploymentLoop:
    def test_round_without_users_raises(self):
        with pytest.raises(ConfigError, match="no users"):
            _loop().run_round()

    def test_single_round_stats(self):
        loop = _loop()
        stats = loop.run_round(new_users=100)
        assert stats.round_index == 0
        assert stats.n_active_users == 100
        assert 0 < stats.n_reports <= 100
        assert stats.n_released <= stats.n_reports

    def test_population_grows_across_rounds(self):
        loop = _loop()
        loop.run_round(new_users=50)
        stats = loop.run_round(new_users=30)
        assert stats.n_active_users == 80
        assert len(loop.rounds) == 2

    def test_lifetime_report_budget_respected(self):
        loop = _loop(max_reports=1)
        for _ in range(4):
            loop.run_round(new_users=25)
        assert loop.max_reports_by_any_user() <= 1

    def test_composition_accounting_tracks_realized_reports(self):
        loop = _loop(max_reports=3)
        for _ in range(6):
            loop.run_round(new_users=20)
        report = loop.privacy_report()
        realized = loop.max_reports_by_any_user()
        assert 1 <= realized <= 3
        assert report.epsilon_total == pytest.approx(realized * report.epsilon)

    def test_trajectory_length(self):
        loop = _loop()
        for _ in range(3):
            loop.run_round(new_users=30)
        assert loop.mean_reward_trajectory.shape == (3,)

    def test_refresh_pulls_central_model(self):
        loop = _loop(refresh=True)
        loop.run_round(new_users=120)
        ingested = loop.system.server.n_tuples_ingested
        if ingested == 0:
            pytest.skip("no released tuples this seed")
        loop.run_round()
        agent, _ = loop._users[0]
        # two rounds of local learning alone give t = 10; the refresh
        # grafts the central model's observation count on top
        assert agent.policy.t > 2 * loop.interactions_per_round

    def test_reward_improves_with_rounds(self):
        """The Fig. 1 loop pays off: later rounds earn more than round 0."""
        loop = _loop(max_reports=1, seed=3)
        loop.run_round(new_users=400)
        for _ in range(2):
            loop.run_round()
        trajectory = loop.mean_reward_trajectory
        assert trajectory[-1] >= trajectory[0] - 0.005

    def test_reproducible(self):
        def run():
            loop = _loop(seed=9)
            loop.run_round(new_users=40)
            loop.run_round(new_users=10)
            return loop.mean_reward_trajectory

        np.testing.assert_array_equal(run(), run())


class TestFleetRounds:
    """DeploymentLoop on the fleet engine: refresh loads held stacks in
    place, and only newcomers are checked for fleet support."""

    @pytest.mark.parametrize(
        "private_context,kind", [("one-hot", CodeLinUCB), ("centroid", LinUCB)]
    )
    def test_refresh_loads_held_stacks(self, monkeypatch, private_context, kind):
        loop = _loop(max_reports=5, engine="fleet", private_context=private_context)
        loop.run_round(new_users=60)
        loop.run_round()
        assert loop.system.server.n_tuples_ingested
        assert all(type(agent.policy) is kind for agent, _ in loop._users)
        stacks = [shard.stacked for shard in loop._fleet._shards.values()]
        pulled_t = loop.system.model_snapshot()["t"]
        calls = []
        real = LocalAgent.warm_start
        monkeypatch.setattr(
            LocalAgent, "warm_start", lambda self, s: (calls.append(self), real(self, s))
        )
        loop.run_round()
        assert calls == []
        assert [shard.stacked for shard in loop._fleet._shards.values()] == stacks
        # the policies caught up with the pulled model at writeback
        for agent, _ in loop._users:
            assert agent.policy.t == pulled_t + loop.interactions_per_round

    @pytest.mark.parametrize(
        "private_context,kind", [("one-hot", CodeLinUCB), ("centroid", LinUCB)]
    )
    def test_newcomers_join_the_held_stack(self, monkeypatch, private_context, kind):
        """A round with 50 held users and 5 newcomers warm-starts only the
        newcomers scalar-side and stacks only them onto the held stack (the
        harness case ``refresh_rounds`` pins such rounds to the sequential
        spec)."""
        import repro.sim.fleet as fleet_module

        fleet = _loop(max_reports=5, engine="fleet", private_context=private_context)
        fleet.run_round(new_users=50)
        fleet.run_round()
        assert fleet.system.server.n_tuples_ingested
        (shard,) = fleet._fleet._shards.values()
        stack = shard.stacked
        warm, stacked = [], []
        real_warm, real_stack = LocalAgent.warm_start, fleet_module.stack_policies
        monkeypatch.setattr(
            LocalAgent, "warm_start", lambda self, s: (warm.append(self), real_warm(self, s))
        )
        monkeypatch.setattr(
            fleet_module,
            "stack_policies",
            lambda policies, **kw: (stacked.append(policies), real_stack(policies, **kw))[1],
        )
        fleet.run_round(new_users=5)
        newcomers = [agent for agent, _ in fleet._users[50:]]
        assert len(warm) == 5 and set(map(id, warm)) == set(map(id, newcomers))
        assert [[id(p) for p in ps] for ps in stacked] == [[id(a.policy) for a in newcomers]]
        assert shard.stacked is stack
        assert all(type(agent.policy) is kind for agent in newcomers)

    def test_only_newcomers_are_checked(self, monkeypatch):
        checked = []
        real = repro.sim.fleet_supported
        monkeypatch.setattr(
            repro.sim,
            "fleet_supported",
            lambda agents: (checked.append(len(agents)), real(agents))[1],
        )
        loop = _loop(engine="fleet")
        loop.run_round(new_users=30)
        loop.run_round()
        loop.run_round(new_users=4)
        assert checked == [30, 4]

    @staticmethod
    def _enroll_unsupported(loop):
        loop.enroll(1)
        loop._users[-1][0].policy.supports_fleet = False

    def test_fleet_raises_on_unsupported_newcomer(self):
        loop = _loop(engine="fleet")
        loop.run_round(new_users=20)
        self._enroll_unsupported(loop)
        with pytest.raises(ConfigError, match="not fleet-capable"):
            loop.run_round()

    def test_auto_falls_back_for_good(self, monkeypatch):
        auto, seq = _loop(max_reports=3), _loop(max_reports=3, engine="sequential")
        runs = []
        real_run = FleetRunner.run
        monkeypatch.setattr(
            FleetRunner,
            "run",
            lambda self, *a, **k: (runs.append(1), real_run(self, *a, **k))[1],
        )
        assert auto.run_round(new_users=20) == seq.run_round(new_users=20)
        assert runs and auto._fleet is not None
        for loop in (auto, seq):
            self._enroll_unsupported(loop)
        runs.clear()
        for new_users in (0, 3, 0):
            assert auto.run_round(new_users=new_users) == seq.run_round(new_users=new_users)
            assert auto._fleet is None
        assert runs == []
        for (a, _), (b, _) in zip(auto._users, seq._users, strict=True):
            for key, value in a.policy.get_state().items():
                np.testing.assert_array_equal(
                    np.asarray(value), np.asarray(b.policy.get_state()[key])
                )


def _reference_round(loop, new_users):
    """A round as it ran when ``enroll`` warm-started every newcomer,
    even when the round's refresh pulled the same snapshot again."""
    if new_users:
        loop.enroll(new_users)
        if loop.refresh and loop.system.server.n_tuples_ingested:
            for agent, _ in loop._users[-new_users:]:
                agent.warm_start(loop.system.model_snapshot())
    return loop.run_round()


class TestEnrollWarmStart:
    """A newcomer warm-starts once per round: in ``enroll`` only when
    ``refresh`` is off, since a refreshing round pulls the same snapshot
    for every user and ``set_state`` replaces the whole policy state."""

    SCHEDULE = (20, 6, 0, 5)

    @staticmethod
    def _record_rewards(loop):
        matrices = []
        real = loop._interact

        def interact(snapshot):
            rewards = real(snapshot)
            matrices.append(rewards.copy())
            return rewards

        loop._interact = interact
        return matrices

    @pytest.mark.parametrize("engine", ["sequential", "fleet"])
    @pytest.mark.parametrize("refresh", [True, False], ids=["refresh", "no-refresh"])
    def test_matches_double_warm_start_and_counts_once(self, engine, refresh, monkeypatch):
        ref = _loop(max_reports=5, refresh=refresh, engine=engine)
        want = self._record_rewards(ref)
        want_stats = [_reference_round(ref, n) for n in self.SCHEDULE]

        loop = _loop(max_reports=5, refresh=refresh, engine=engine)
        got = self._record_rewards(loop)
        calls: list[list[str]] = []
        real = LocalAgent.warm_start
        monkeypatch.setattr(
            LocalAgent,
            "warm_start",
            lambda self, s: (calls[-1].append(self.agent_id), real(self, s))[1],
        )
        for i, new_users in enumerate(self.SCHEDULE):
            calls.append([])
            served = bool(loop.system.server.n_tuples_ingested)
            assert served == (i > 0)  # every round after the first has a model
            stats = loop.run_round(new_users=new_users)
            assert (stats.mean_reward, stats.n_reports, stats.n_released) == (
                want_stats[i].mean_reward,
                want_stats[i].n_reports,
                want_stats[i].n_released,
            )
            assert all(calls[-1].count(a) == 1 for a in set(calls[-1]))
            if served and new_users:
                for agent, _ in loop._users[-new_users:]:
                    assert calls[-1].count(agent.agent_id) == 1

        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        for (a, _), (b, _) in zip(loop._users, ref._users, strict=True):
            assert a.policy.t == b.policy.t
            for key, value in a.policy.get_state().items():
                np.testing.assert_array_equal(
                    np.asarray(value), np.asarray(b.policy.get_state()[key])
                )
