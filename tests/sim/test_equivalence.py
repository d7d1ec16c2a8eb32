"""The fleet/sequential contract: bit-identical outcomes.

Three layers, each pinned exactly (no tolerances anywhere):

* **FleetRunner vs the reference loop** over every supported policy ×
  mode × private-context combination: action sequences, rewards, final
  policy states, outbox reports with metadata.
* **run_setting** with ``engine="sequential"`` vs ``engine="fleet"``
  over every encoder × mode combination the experiment harness wires:
  curves, counts, privacy reports.
* **Released histograms** through the shuffler after both engines'
  collection rounds.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.bandits import UCB1, CodeLinUCB, EpsilonGreedy, LinUCB, LinearThompsonSampling
from repro.core.config import AgentMode, P2BConfig
from repro.core.rounds import DeploymentLoop
from repro.core.shuffler import Shuffler
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.encoding.grid import GridEncoder
from repro.encoding.kmeans_encoder import KMeansEncoder
from repro.encoding.lsh import LSHEncoder
from repro.experiments.runner import run_setting
from repro.sim import EngineConfig, FleetRunner

from _testkit import (
    N_FEATURES,
    assert_outboxes_equal,
    assert_states_equal,
    make_population,
    simulate_sequential,
)


def _linucb(n_arms, n_features, seed):
    return LinUCB(n_arms=n_arms, n_features=n_features, seed=seed)


def _eps_greedy(n_arms, n_features, seed):
    return EpsilonGreedy(n_arms=n_arms, n_features=n_features, epsilon=0.2, seed=seed)


def _code_linucb(n_arms, n_features, seed):
    return CodeLinUCB(n_arms=n_arms, n_features=n_features, seed=seed)


def _ucb1(n_arms, n_features, seed):
    return UCB1(n_arms=n_arms, n_features=n_features, seed=seed)


def _thompson(n_arms, n_features, seed):
    return LinearThompsonSampling(n_arms=n_arms, n_features=n_features, seed=seed)


# (factory, modes it can run in); CodeLinUCB needs one-hot codes, so it
# only participates in warm-private one-hot populations.
_DENSE_FACTORIES = [_linucb, _eps_greedy, _ucb1, _thompson]


def _combos():
    for factory in _DENSE_FACTORIES:
        yield factory, AgentMode.COLD, "one-hot"
        yield factory, AgentMode.WARM_NONPRIVATE, "one-hot"
        yield factory, AgentMode.WARM_PRIVATE, "one-hot"
        yield factory, AgentMode.WARM_PRIVATE, "centroid"
    yield _code_linucb, AgentMode.WARM_PRIVATE, "one-hot"


@pytest.mark.parametrize(
    "factory,mode,private_context",
    list(_combos()),
    ids=lambda v: getattr(v, "__name__", str(v)).lstrip("_"),
)
def test_fleet_matches_sequential_per_policy(factory, mode, private_context, kmeans_encoder):
    n_agents, n_interactions, seed = 11, 18, 99
    seq_agents, seq_sessions = make_population(
        factory, mode, n_agents, seed, encoder=kmeans_encoder, private_context=private_context
    )
    fleet_agents, fleet_sessions = make_population(
        factory, mode, n_agents, seed, encoder=kmeans_encoder, private_context=private_context
    )

    seq_rewards = simulate_sequential(seq_agents, seq_sessions, n_interactions)
    result = FleetRunner(fleet_agents, fleet_sessions).run(n_interactions)

    np.testing.assert_array_equal(seq_rewards, result.rewards)
    for sa, fa in zip(seq_agents, fleet_agents):
        assert sa.n_interactions == fa.n_interactions
        assert sa.total_reward == fa.total_reward
        assert_states_equal(sa.policy, fa.policy, label=f"{factory.__name__}/{mode}")
    assert_outboxes_equal(seq_agents, fleet_agents)


def test_fleet_actions_match_sequential_actions(kmeans_encoder):
    """Action sequences (not just rewards) are identical."""
    n_agents, n_interactions, seed = 7, 15, 5
    seq_agents, seq_sessions = make_population(_linucb, AgentMode.COLD, n_agents, seed)
    fleet_agents, fleet_sessions = make_population(_linucb, AgentMode.COLD, n_agents, seed)

    seq_actions = np.empty((n_agents, n_interactions), dtype=np.intp)
    for i, (agent, session) in enumerate(zip(seq_agents, seq_sessions)):
        for t in range(n_interactions):
            x = session.next_context()
            a = agent.act(x)
            r = session.reward(a)
            agent.learn(x, a, r)
            seq_actions[i, t] = a

    result = FleetRunner(fleet_agents, fleet_sessions).run(n_interactions)
    np.testing.assert_array_equal(seq_actions, result.actions)


def test_released_histograms_identical_through_shuffler(kmeans_encoder):
    """Both engines' outboxes produce the same shuffler release."""
    n_agents, seed = 30, 17
    seq_agents, seq_sessions = make_population(
        _code_linucb, AgentMode.WARM_PRIVATE, n_agents, seed, encoder=kmeans_encoder
    )
    fleet_agents, fleet_sessions = make_population(
        _code_linucb, AgentMode.WARM_PRIVATE, n_agents, seed, encoder=kmeans_encoder
    )
    simulate_sequential(seq_agents, seq_sessions, 12)
    runner = FleetRunner(fleet_agents, fleet_sessions)
    runner.run(12)

    seq_reports = [r for a in seq_agents for r in a.drain_outbox()]
    fleet_reports = runner.drain_outboxes()
    assert seq_reports == fleet_reports

    released_seq, stats_seq = Shuffler(threshold=2, seed=123).process(seq_reports)
    released_fleet, stats_fleet = Shuffler(threshold=2, seed=123).process(fleet_reports)
    assert released_seq == released_fleet
    assert stats_seq.n_released == stats_fleet.n_released
    assert Counter(r.code for r in released_seq) == Counter(r.code for r in released_fleet)
    assert stats_seq.audit.satisfied and stats_fleet.audit.satisfied


# --------------------------------------------------------------------- #
# run_setting-level equivalence across encoders and modes
# --------------------------------------------------------------------- #
def _encoders():
    yield "kmeans", KMeansEncoder(
        n_codes=8, n_features=N_FEATURES, n_fit_samples=600, seed=3
    ).fit()
    yield "lsh", LSHEncoder(n_bits=3, n_features=N_FEATURES, seed=3).fit()
    yield "grid", GridEncoder(n_features=N_FEATURES, q=1)


def _run_setting_cases():
    for name, encoder in _encoders():
        for private_context in ("one-hot", "centroid"):
            label = f"warm-private/{name}/{private_context}"
            yield label, AgentMode.WARM_PRIVATE, encoder, private_context
    yield "cold", AgentMode.COLD, None, "one-hot"
    yield "warm-nonprivate", AgentMode.WARM_NONPRIVATE, None, "one-hot"


@pytest.mark.parametrize(
    "label,mode,encoder,private_context",
    list(_run_setting_cases()),
    ids=[c[0] for c in _run_setting_cases()],
)
@pytest.mark.parametrize("measure", ["realized", "expected"])
def test_run_setting_engines_identical(label, mode, encoder, private_context, measure):
    config = P2BConfig(
        n_actions=3,
        n_features=N_FEATURES,
        n_codes=encoder.n_codes if encoder is not None else 8,
        p=0.9,
        window=4,
        shuffler_threshold=1,
        private_context=private_context,
    )

    def env():
        return SyntheticPreferenceEnvironment(
            n_actions=3, n_features=N_FEATURES, weight_scale=8.0, seed=2
        )

    results = {}
    for engine in ("sequential", "fleet"):
        results[engine] = run_setting(
            env(),
            config,
            mode,
            n_contributors=25 if mode != AgentMode.COLD else 0,
            n_eval_agents=8,
            eval_interactions=12,
            seed=31,
            encoder=encoder,
            measure=measure,
            engine=engine,
        )
    seq, fleet = results["sequential"], results["fleet"]
    assert seq.mean_reward == fleet.mean_reward
    np.testing.assert_array_equal(seq.curve, fleet.curve)
    np.testing.assert_array_equal(seq.cumulative_curve, fleet.cumulative_curve)
    assert seq.n_reports == fleet.n_reports
    assert seq.n_released == fleet.n_released
    assert seq.privacy == fleet.privacy


def _assert_deployment_loops_agree(
    schedule, *, refresh, n_workers, private_context="one-hot"
):
    """Run one sequential and one fleet DeploymentLoop through the
    newcomer ``schedule`` and compare them round by round."""
    config = P2BConfig(
        n_actions=3,
        n_features=N_FEATURES,
        n_codes=8,
        p=0.9,
        window=4,
        max_reports_per_user=3,
        shuffler_threshold=1,
        private_context=private_context,
    )

    def build(engine):
        env = SyntheticPreferenceEnvironment(
            n_actions=3, n_features=N_FEATURES, weight_scale=8.0, seed=2
        )
        return DeploymentLoop(
            config,
            env,
            interactions_per_round=8,
            refresh=refresh,
            seed=11,
            engine=EngineConfig(engine=engine, n_workers=n_workers),
        )

    loop_seq, loop_fleet = build("sequential"), build("fleet")
    for new_users in schedule:
        stats_seq = loop_seq.run_round(new_users=new_users)
        stats_fleet = loop_fleet.run_round(new_users=new_users)
        assert stats_seq == stats_fleet
        for (a, _), (b, _) in zip(loop_seq._users, loop_fleet._users, strict=True):
            assert_states_equal(a.policy, b.policy, a.agent_id)
    assert loop_seq.privacy_report() == loop_fleet.privacy_report()
    np.testing.assert_array_equal(
        loop_seq.mean_reward_trajectory, loop_fleet.mean_reward_trajectory
    )


@pytest.mark.slow
@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("refresh", [True, False])
def test_deployment_loop_engines_identical(refresh, n_workers):
    """Multi-round Fig. 1 loop, round by round: stats and every user's
    policy state agree across engines.  The fleet loop holds one runner
    that users join between rounds; ``refresh=False`` reuses its held
    stacks, ``refresh=True`` passes each model pull into the run."""
    _assert_deployment_loops_agree((10, 5, 0, 4), refresh=refresh, n_workers=n_workers)


@pytest.mark.slow
@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("private_context", ["one-hot", "centroid"])
def test_deployment_loop_refresh_rounds_identical(private_context, n_workers):
    """Consecutive refresh rounds without newcomers: from the second
    one on, the held stacks (CodeLinUCB one-hot, LinUCB centroid) load
    each model pull in place, and the loops still agree bitwise."""
    _assert_deployment_loops_agree(
        (8, 0, 0, 0, 3, 0, 0),
        refresh=True,
        n_workers=n_workers,
        private_context=private_context,
    )
