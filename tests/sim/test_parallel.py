"""Parallel shard stepping: identical to serial, by construction.

Shards share no mutable state, so ``EngineConfig(n_workers=k)`` running
them concurrently on a thread pool must produce bit-identical rewards,
actions, policy states and outboxes.  These tests pin that, plus
``run_subset`` on pooled and supervised fleets, the ``n_workers``
plumbing through ``run_setting`` and ``DeploymentLoop`` and the
validation guard rails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import UCB1, EpsilonGreedy, LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode, P2BConfig
from repro.core.participation import RandomizedParticipation
from repro.core.rounds import DeploymentLoop
from repro.data.multilabel import MultilabelBanditEnvironment, make_multilabel_dataset
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments.runner import run_setting
from repro.sim import (
    FAULTS_ENV_VAR,
    EngineConfig,
    FaultPlan,
    FaultPolicy,
    FaultSpec,
    FleetRunner,
)
from repro.utils.rng import spawn_seeds

from _testkit import N_FEATURES, assert_outboxes_equal, assert_states_equal

N_ACTIONS = 4

_ML_DATASET = make_multilabel_dataset(90, N_FEATURES, N_ACTIONS, n_clusters=4, seed=0)


def _mixed_population(seed, n_agents=12):
    """Three policy kinds over two session kinds => multiple shards,
    some traced (multilabel) and some stationary (synthetic)."""
    syn = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
    )
    ml = MultilabelBanditEnvironment(_ML_DATASET, samples_per_user=6, seed=1)
    kinds = [LinUCB, EpsilonGreedy, UCB1]
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, session_seed = s.spawn(2)
        policy = kinds[i % 3](n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed)
        agents.append(LocalAgent(f"u{i}", policy, mode="cold"))
        sessions.append(
            (ml if i % 2 else syn).new_user(session_seed)
        )
    return agents, sessions


def _assert_runs_identical(result_a, result_b, agents_a, agents_b):
    np.testing.assert_array_equal(result_a.rewards, result_b.rewards)
    np.testing.assert_array_equal(result_a.actions, result_b.actions)
    if result_a.expected is not None:
        np.testing.assert_array_equal(result_a.expected, result_b.expected)
        np.testing.assert_array_equal(result_a.expected_mask, result_b.expected_mask)
    for a, b in zip(agents_a, agents_b):
        assert_states_equal(a.policy, b.policy)
    assert_outboxes_equal(agents_a, agents_b)


class TestThreadBackend:
    def test_parallel_identical_to_serial(self):
        a1, s1 = _mixed_population(0)
        serial = FleetRunner(a1, s1)
        assert serial.n_shards == 3
        r1 = serial.run(14, track_expected=True)

        a2, s2 = _mixed_population(0)
        r2 = FleetRunner(a2, s2, config=EngineConfig(n_workers=3)).run(14, track_expected=True)
        _assert_runs_identical(r1, r2, a1, a2)

    def test_more_workers_than_shards_is_fine(self):
        a1, s1 = _mixed_population(3)
        r1 = FleetRunner(a1, s1).run(6)
        a2, s2 = _mixed_population(3)
        r2 = FleetRunner(a2, s2, config=EngineConfig(n_workers=64)).run(6)
        _assert_runs_identical(r1, r2, a1, a2)

    def test_single_shard_population_unaffected(self):
        def build(seed):
            env = SyntheticPreferenceEnvironment(
                n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
            )
            agents, sessions = [], []
            for i, s in enumerate(spawn_seeds(seed, 5)):
                ps, ss = s.spawn(2)
                agents.append(
                    LocalAgent(
                        f"u{i}",
                        LinUCB(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=ps),
                        mode="cold",
                    )
                )
                sessions.append(env.new_user(ss))
            return agents, sessions

        a1, s1 = build(4)
        r1 = FleetRunner(a1, s1).run(7)
        a2, s2 = build(4)
        r2 = FleetRunner(a2, s2, config=EngineConfig(n_workers=8)).run(7)
        _assert_runs_identical(r1, r2, a1, a2)


def _participating_population(seed, n_agents=6):
    """Warm participating agents of two policy kinds => two shards."""
    syn = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
    )
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        ps, parts, ss = s.spawn(3)
        kind = LinUCB if i % 2 else EpsilonGreedy
        agents.append(
            LocalAgent(
                f"u{i}",
                kind(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=ps),
                mode=AgentMode.WARM_NONPRIVATE,
                participation=RandomizedParticipation(
                    p=0.9, window=3, max_reports=2, seed=parts
                ),
            )
        )
        sessions.append(syn.new_user(ss))
    return agents, sessions


class TestPooledIdentity:
    def test_pooled_run_keeps_component_identity(self, monkeypatch):
        """Threads mutate the caller's objects in place: agents, their
        policies and participation states, and sessions keep identity.
        (A shard restored after a failed attempt holds state-equal
        replacements of its components, so this pins a fault-free run.)"""
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        agents, sessions = _participating_population(2)
        policies = [a.policy for a in agents]
        participations = [a.participation for a in agents]
        runner = FleetRunner(agents, sessions, config=EngineConfig(n_workers=2))
        assert runner.n_shards == 2
        runner.run(5)
        assert all(x is y for x, y in zip(runner.agents, agents))
        assert all(x is y for x, y in zip(runner.sessions, sessions))
        assert all(a.policy is p for a, p in zip(agents, policies))
        assert all(a.participation is p for a, p in zip(agents, participations))
        assert all(a.n_interactions == 5 for a in agents)
        # a second run continues from the same objects (streams moved)
        again = runner.run(5)
        assert again.rewards.shape == (len(agents), 5)
        assert all(a.n_interactions == 10 for a in agents)
        assert all(a.policy is p for a, p in zip(agents, policies))


class TestRunSubset:
    # shard 0 (LinUCB: agents 0, 3, 6, 9) runs whole; shard 1
    # (EpsilonGreedy: agents 1, 4, 7, 10) runs two of its four members
    SUBSET = (9, 1, 0, 6, 4, 3)

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("supervised", [False, True], ids=["plain", "armed"])
    @pytest.mark.parametrize("warm_up", ["held", "cold"])
    def test_subset_equals_fresh_runner(self, warm_up, n_workers, supervised):
        agents_a, sessions_a = _mixed_population(6)
        agents_b, sessions_b = _mixed_population(6)
        config = EngineConfig(n_workers=n_workers)
        knobs = {}
        if supervised:
            # faults in both subset shards, on every run of this runner
            config = config.replace(fault_policy=FaultPolicy(max_retries=2, backoff=0.0))
            knobs.update(
                fault_plan=FaultPlan([FaultSpec("raise", 0, 2), FaultSpec("crash", 1, 3)]),
            )
        runner = FleetRunner(agents_b, sessions_b, config=config, **knobs)
        # warm up: "held" runs the whole population on this runner, so
        # every shard is held; "cold" advances the same agents on another
        # runner, so the subset run builds every shard from scratch
        FleetRunner(agents_a, sessions_a).run(4)
        if warm_up == "held":
            runner.run(4)
        else:
            FleetRunner(agents_b, sessions_b).run(4)

        subset = [agents_b[i] for i in self.SUBSET]
        result = runner.run_subset(subset, 6, track_expected=True)
        fresh = FleetRunner(
            [agents_a[i] for i in self.SUBSET], [sessions_a[i] for i in self.SUBSET]
        ).run(6, track_expected=True)
        assert result.dropped == ()
        _assert_runs_identical(fresh, result, agents_a, agents_b)

        # and the next whole-population run sees the advanced state:
        # the whole shard's held stack and the partial shard's members
        # both continue exactly where a fresh runner would
        r_a = FleetRunner(agents_a, sessions_a).run(3)
        r_b = runner.run(3)
        _assert_runs_identical(r_a, r_b, agents_a, agents_b)


class TestValidationAndPlumbing:
    def test_invalid_n_workers_rejected(self):
        agents, sessions = _mixed_population(0, n_agents=3)
        with pytest.raises(Exception):
            FleetRunner(agents, sessions, config=EngineConfig(n_workers=0))

    def test_run_setting_n_workers_identical(self):
        config = P2BConfig(n_actions=N_ACTIONS, n_features=N_FEATURES, n_codes=8)

        def env():
            return SyntheticPreferenceEnvironment(
                n_actions=N_ACTIONS, n_features=N_FEATURES, weight_scale=8.0, seed=2
            )

        results = [
            run_setting(
                env(),
                config,
                AgentMode.COLD,
                n_eval_agents=6,
                eval_interactions=8,
                seed=13,
                engine=EngineConfig(engine="fleet", n_workers=w),
            )
            for w in (1, 3)
        ]
        assert results[0].mean_reward == results[1].mean_reward
        np.testing.assert_array_equal(results[0].curve, results[1].curve)

    def test_deployment_loop_n_workers_identical(self):
        config = P2BConfig(
            n_actions=N_ACTIONS,
            n_features=N_FEATURES,
            n_codes=8,
            p=0.9,
            window=4,
            shuffler_threshold=1,
        )

        def build(n_workers):
            env = SyntheticPreferenceEnvironment(
                n_actions=N_ACTIONS, n_features=N_FEATURES, weight_scale=8.0, seed=2
            )
            return DeploymentLoop(
                config,
                env,
                interactions_per_round=5,
                seed=11,
                engine=EngineConfig(n_workers=n_workers),
            )

        loop_serial, loop_parallel = build(1), build(2)
        for new_users in (8, 4):
            assert loop_serial.run_round(new_users=new_users) == loop_parallel.run_round(
                new_users=new_users
            )

    def test_cli_workers_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig3", "--workers", "3"])
        assert args.workers == 3
