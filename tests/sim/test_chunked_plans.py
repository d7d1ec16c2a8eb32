"""Split horizons: consecutive runs on one held fleet, bit-identical.

A held :class:`FleetRunner` re-plans its sessions at the start of every
``run`` call, so ``k`` consecutive ``run(C)`` calls must equal one
sequential horizon of the same total length — the plan contract
(planning a horizon in consecutive slices consumes session streams
exactly like one full plan), reached through the public API.  These
suites pin the edge cases: totals not divisible by the split size,
participation windows straddling a run boundary, raw-payload gathers
reaching back across runs, collection rounds landing mid-window
(``DeploymentLoop``), and each horizon planned once — all bit-identical
to the sequential reference on traced and on stationary plans.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import CodeLinUCB, LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode, P2BConfig
from repro.core.participation import RandomizedParticipation
from repro.core.rounds import DeploymentLoop
from repro.data.criteo import (
    CriteoBanditEnvironment,
    build_criteo_actions,
    make_criteo_like,
)
from repro.data.multilabel import MultilabelBanditEnvironment, make_multilabel_dataset
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments.runner import _simulate_agent, run_setting
from repro.sim import EngineConfig, FleetRunner
from repro.sim.fleet import _Shard
from repro.utils.rng import spawn_seeds

from _participation import assert_participation_equal
from _testkit import assert_outboxes_equal, assert_states_equal, join_runs, run_split

N_ACTIONS = 5
N_FEATURES = 6

_ML_DATASET = make_multilabel_dataset(120, N_FEATURES, N_ACTIONS, n_clusters=4, seed=0)
_CRITEO_DATASET = build_criteo_actions(
    make_criteo_like(2_500, seed=0), n_actions=N_ACTIONS, d=N_FEATURES
)


_ML_DATASET_B = make_multilabel_dataset(80, N_FEATURES, N_ACTIONS, n_clusters=3, seed=5)


def _ml_env():
    return MultilabelBanditEnvironment(_ML_DATASET, samples_per_user=7, seed=1)


def _ml_env_b():
    return MultilabelBanditEnvironment(_ML_DATASET_B, samples_per_user=6, seed=2)


def _criteo_env():
    return CriteoBanditEnvironment(_CRITEO_DATASET, impressions_per_user=9, seed=1)


@pytest.fixture(scope="module")
def encoder():
    from repro.encoding.kmeans_encoder import KMeansEncoder

    return KMeansEncoder(
        n_codes=8, n_features=N_FEATURES, n_fit_samples=400, seed=3
    ).fit()


def make_population(
    env_factory,
    policy_factory,
    mode: str,
    n_agents: int,
    seed: int,
    *,
    encoder=None,
    private_context: str = "one-hot",
    p: float = 0.8,
    window: int = 3,
    max_reports: int = 2,
    partner_env_factory=None,
):
    """With ``partner_env_factory``, odd agents walk the partner's
    dataset, so each traced shard gathers through a concatenated table."""
    env = env_factory()
    partner = env if partner_env_factory is None else partner_env_factory()
    if mode == AgentMode.WARM_PRIVATE and private_context == "one-hot":
        acting_dim = encoder.n_codes
    else:
        acting_dim = N_FEATURES
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, part_seed, session_seed = s.spawn(3)
        participation = (
            None
            if mode == AgentMode.COLD
            else RandomizedParticipation(
                p=p, window=window, max_reports=max_reports, seed=part_seed
            )
        )
        agents.append(
            LocalAgent(
                f"agent-{i}",
                policy_factory(N_ACTIONS, acting_dim, policy_seed),
                mode=mode,
                encoder=encoder if mode == AgentMode.WARM_PRIVATE else None,
                participation=participation,
                private_context=private_context,
            )
        )
        sessions.append((partner if i % 2 else env).new_user(session_seed))
    return agents, sessions


def _code_linucb(n_arms, n_features, seed):
    return CodeLinUCB(n_arms=n_arms, n_features=n_features, seed=seed)


def _linucb(n_arms, n_features, seed):
    return LinUCB(n_arms=n_arms, n_features=n_features, seed=seed)


def _assert_agents_identical(agents_a, agents_b):
    for a, b in zip(agents_a, agents_b):
        assert a.n_interactions == b.n_interactions
        assert a.total_reward == b.total_reward
        assert_states_equal(a.policy, b.policy)
        if a.participation is not None:
            assert_participation_equal(a.participation, b.participation, a.agent_id)
    assert_outboxes_equal(agents_a, agents_b)


# --------------------------------------------------------------------- #
# split runs == sequential, awkward split sizes
# --------------------------------------------------------------------- #
_TABLES = {"one-table": None, "two-tables": _ml_env_b}


@pytest.mark.parametrize("env_factory", [_ml_env, _criteo_env], ids=["multilabel", "criteo"])
@pytest.mark.parametrize("tables", list(_TABLES))
@pytest.mark.parametrize("split", [1, 5, 7, 16, 40])
def test_split_replay_matches_sequential(env_factory, tables, split, encoder):
    """T = 16 as runs of 1 / 5 / 7 (not divisors), 16 (exact) and
    40 (> T) steps: warm-private populations with window-3
    participation — windows straddle every run boundary — stay
    bit-identical to the sequential loop, reports and buffers included;
    on one dataset's table and on a shard that concatenates two."""
    n_agents, n_interactions, seed = 9, 16, 42
    kwargs = dict(encoder=encoder, partner_env_factory=_TABLES[tables])
    seq_agents, seq_sessions = make_population(
        env_factory, _code_linucb, AgentMode.WARM_PRIVATE, n_agents, seed, **kwargs
    )
    for agent, session in zip(seq_agents, seq_sessions):
        _simulate_agent(agent, session, n_interactions)

    fleet_agents, fleet_sessions = make_population(
        env_factory, _code_linucb, AgentMode.WARM_PRIVATE, n_agents, seed, **kwargs
    )
    run_split(FleetRunner(fleet_agents, fleet_sessions), n_interactions, split)
    _assert_agents_identical(seq_agents, fleet_agents)


@pytest.mark.parametrize("split", [1, 4, 9, 20])
def test_split_stationary_matches_sequential(split):
    """Stationary shards re-draw their noise per run; block draws split
    at any boundary consume the stream like scalar draws, so the
    synthetic population stays bit-identical too."""
    n_agents, n_interactions = 8, 9
    env_seed, seed = 7, 4

    def build():
        env = SyntheticPreferenceEnvironment(
            n_actions=N_ACTIONS, n_features=N_FEATURES, seed=env_seed
        )
        agents, sessions = [], []
        for i, s in enumerate(spawn_seeds(seed, n_agents)):
            policy_seed, session_seed = s.spawn(2)
            agents.append(
                LocalAgent(
                    f"a{i}",
                    _linucb(N_ACTIONS, N_FEATURES, policy_seed),
                    mode="cold",
                )
            )
            sessions.append(env.new_user(session_seed))
        return agents, sessions

    seq_agents, seq_sessions = build()
    seq_rewards = np.stack(
        [
            _simulate_agent(a, s, n_interactions)[0]
            for a, s in zip(seq_agents, seq_sessions)
        ]
    )
    fleet_agents, fleet_sessions = build()
    results = run_split(FleetRunner(fleet_agents, fleet_sessions), n_interactions, split)
    np.testing.assert_array_equal(seq_rewards, join_runs(results))
    for sa, fa in zip(seq_agents, fleet_agents):
        assert_states_equal(sa.policy, fa.policy)


def test_block_noise_draws_split_like_scalar_draws():
    """The split-run and drift-segment premise: ``normal(size=a)`` then
    ``normal(size=b)`` equals one ``normal(size=a + b)`` draw."""
    a = np.random.default_rng(123).normal(0.0, 0.1, size=13)
    rng = np.random.default_rng(123)
    b = np.concatenate(
        [rng.normal(0.0, 0.1, size=5), rng.normal(0.0, 0.1, size=7), rng.normal(0.0, 0.1, size=1)]
    )
    np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------- #
# participation windows straddling run boundaries
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("env_factory", [_ml_env, _criteo_env], ids=["multilabel", "criteo"])
def test_window_larger_than_split_straddles_boundaries(env_factory, encoder):
    """window = 5 > split = 2 with p = 1: every report samples from a
    window spanning multiple runs, so the payload gather must reach
    back across run boundaries — still identical reports."""
    n_agents, n_interactions, seed = 8, 17, 31
    kwargs = dict(encoder=encoder, p=1.0, window=5, max_reports=3)
    seq_agents, seq_sessions = make_population(
        env_factory, _code_linucb, AgentMode.WARM_PRIVATE, n_agents, seed, **kwargs
    )
    for agent, session in zip(seq_agents, seq_sessions):
        _simulate_agent(agent, session, n_interactions)
    assert any(a.outbox for a in seq_agents)

    fleet_agents, fleet_sessions = make_population(
        env_factory, _code_linucb, AgentMode.WARM_PRIVATE, n_agents, seed, **kwargs
    )
    run_split(FleetRunner(fleet_agents, fleet_sessions), n_interactions, 2)
    _assert_agents_identical(seq_agents, fleet_agents)


def test_window_never_fills_across_runs(encoder):
    """window > T: no report ever fires, but ``finish`` must carry the
    partial window (its fill and held item) across every run boundary."""
    n_agents, n_interactions, seed = 6, 10, 12
    kwargs = dict(encoder=encoder, p=1.0, window=50, max_reports=1)
    seq_agents, seq_sessions = make_population(
        _ml_env, _code_linucb, AgentMode.WARM_PRIVATE, n_agents, seed, **kwargs
    )
    for agent, session in zip(seq_agents, seq_sessions):
        _simulate_agent(agent, session, n_interactions)
    assert all(a.participation.fill == n_interactions for a in seq_agents)

    fleet_agents, fleet_sessions = make_population(
        _ml_env, _code_linucb, AgentMode.WARM_PRIVATE, n_agents, seed, **kwargs
    )
    run_split(FleetRunner(fleet_agents, fleet_sessions), n_interactions, 3)
    _assert_agents_identical(seq_agents, fleet_agents)


@pytest.mark.parametrize("tables", list(_TABLES))
def test_raw_payloads_straddle_boundaries(tables, encoder):
    """Warm-nonprivate shards carry raw contexts in reports; the
    context gather crosses run boundaries too, through one table or
    a concatenation of two."""
    n_agents, n_interactions, seed = 7, 13, 23
    kwargs = dict(p=1.0, window=4, max_reports=3, partner_env_factory=_TABLES[tables])
    seq_agents, seq_sessions = make_population(
        _ml_env, _linucb, AgentMode.WARM_NONPRIVATE, n_agents, seed, **kwargs
    )
    for agent, session in zip(seq_agents, seq_sessions):
        _simulate_agent(agent, session, n_interactions)

    fleet_agents, fleet_sessions = make_population(
        _ml_env, _linucb, AgentMode.WARM_NONPRIVATE, n_agents, seed, **kwargs
    )
    run_split(FleetRunner(fleet_agents, fleet_sessions), n_interactions, 3)
    _assert_agents_identical(seq_agents, fleet_agents)


# --------------------------------------------------------------------- #
# one plan per horizon
# --------------------------------------------------------------------- #
def test_traced_horizon_is_planned_once(encoder):
    """A traced shard plans its whole horizon in one plan call per
    session — the only re-plans are new runs."""
    agents, sessions = make_population(
        _ml_env, _code_linucb, AgentMode.WARM_PRIVATE, 5, 2, encoder=encoder
    )
    shard = _Shard(np.arange(5), agents, sessions)
    calls = {"n": 0}
    real = type(sessions[0]).plan_trace_indexed

    def counting(self, horizon):
        calls["n"] += 1
        return real(self, horizon)

    type(sessions[0]).plan_trace_indexed = counting
    try:
        shard.prepare(8)
    finally:
        type(sessions[0]).plan_trace_indexed = real
    assert shard._walk.shape == (5, 8)
    assert calls["n"] == len(sessions)


# --------------------------------------------------------------------- #
# collection rounds landing mid-window
# --------------------------------------------------------------------- #
@pytest.mark.slow
def test_deployment_loop_collects_mid_window():
    """Fig. 1 loop on the multilabel workload, one held fleet whose
    round length (10) the participation window (6) does not divide:
    every round's collection lands mid-window, partial windows carry
    across rounds (and therefore across run boundaries), and all round
    stats match the sequential engine."""
    config = P2BConfig(
        n_actions=N_ACTIONS,
        n_features=N_FEATURES,
        n_codes=8,
        p=0.9,
        window=6,
        max_reports_per_user=3,
        shuffler_threshold=1,
    )

    def build(engine):
        return DeploymentLoop(
            config,
            _ml_env(),
            interactions_per_round=10,
            seed=11,
            engine=EngineConfig(engine=engine),
        )

    loop_seq = build("sequential")
    loop_fleet = build("fleet")
    for new_users in (8, 4, 0):
        stats_seq = loop_seq.run_round(new_users=new_users)
        stats_fleet = loop_fleet.run_round(new_users=new_users)
        assert stats_seq == stats_fleet
    assert loop_seq.privacy_report() == loop_fleet.privacy_report()
    np.testing.assert_array_equal(
        loop_seq.mean_reward_trajectory, loop_fleet.mean_reward_trajectory
    )
    server_seq = loop_seq.system.server
    server_fleet = loop_fleet.system.server
    assert server_seq.n_tuples_ingested == server_fleet.n_tuples_ingested


@pytest.mark.slow
def test_run_setting_identical_across_engines(encoder):
    """The full §5.2 protocol agrees between the sequential engine and
    the fleet engine (contribution, shuffler release, warm eval)."""
    config = P2BConfig(
        n_actions=N_ACTIONS,
        n_features=N_FEATURES,
        n_codes=encoder.n_codes,
        p=0.9,
        window=4,
        shuffler_threshold=1,
    )
    results = {}
    for engine in ("sequential", "fleet"):
        results[engine] = run_setting(
            _ml_env(),
            config,
            AgentMode.WARM_PRIVATE,
            n_contributors=20,
            n_eval_agents=6,
            eval_interactions=10,
            seed=31,
            encoder=encoder,
            engine=EngineConfig(engine=engine),
        )
    seq, fleet = results["sequential"], results["fleet"]
    assert seq.mean_reward == fleet.mean_reward
    np.testing.assert_array_equal(seq.curve, fleet.curve)
    assert seq.n_reports == fleet.n_reports
    assert seq.n_released == fleet.n_released
    assert seq.privacy == fleet.privacy
