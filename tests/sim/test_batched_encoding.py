"""Batched warm-private encoding on the fleet engine.

Every warm-private shard encodes through :meth:`Encoder.encode_batch`
(one call per encoder group) and gathers centroid representations
through :meth:`Encoder.decode_batch`; both are row-exact against their
scalar counterparts, so the fleet stays bit-identical to the sequential
``act``/``learn`` loop.  These suites pin that on the two cases no
other suite covers:

* one *stationary or drifting* shard holding two distinct encoder
  objects of equal codebook size — a shard guarantees equal ``n_codes``
  only, so encoding every agent with one shard-wide encoder would
  silently change the codes of half the population;
* LSH encoders acting on centroids over a replay dataset, where the
  pre-images come from a least-squares solve whose batched form used to
  round differently from the per-code one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import CodeLinUCB, LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.core.participation import RandomizedParticipation
from repro.data.drift import DriftingSyntheticEnvironment
from repro.data.multilabel import MultilabelBanditEnvironment, make_mediamill_like
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.encoding import KMeansEncoder, LSHEncoder
from repro.sim import FleetResult, FleetRunner
from repro.utils.rng import spawn_seeds

from _recording import assert_pending_rows_equal
from _testkit import assert_states_equal

N_ACTIONS = 4
N_FEATURES = 5
N_CODES = 8


def _run_sequential(agents, sessions, n_interactions):
    rewards = np.empty((len(agents), n_interactions))
    actions = np.empty((len(agents), n_interactions), dtype=np.intp)
    for i, (agent, session) in enumerate(zip(agents, sessions)):
        for t in range(n_interactions):
            x = session.next_context()
            a = agent.act(x)
            r = session.reward(a)
            agent.learn(x, a, r)
            rewards[i, t] = r
            actions[i, t] = a
    return rewards, actions


def _assert_fleet_matches(seq, fleet, result, seq_rewards, seq_actions):
    np.testing.assert_array_equal(seq_actions, result.actions)
    np.testing.assert_array_equal(seq_rewards, result.rewards)
    for i, (sa, fa) in enumerate(zip(seq, fleet)):
        assert sa.total_reward == fa.total_reward
        assert_states_equal(sa.policy, fa.policy, label=f"agent {i}")
    assert_pending_rows_equal(seq, fleet)


# --------------------------------------------------------------------- #
# two equal-size encoders sharing one stationary / drifting shard
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def twin_encoders():
    """Two distinct codebooks with the same ``n_codes`` (one shard)."""
    return tuple(
        KMeansEncoder(n_codes=N_CODES, n_features=N_FEATURES, n_fit_samples=600, seed=seed).fit()
        for seed in (3, 11)
    )


def _synthetic_envs():
    return [SyntheticPreferenceEnvironment(N_ACTIONS, N_FEATURES, seed=7)]


def _drifting_envs():
    # two drift clocks in one shard: at every boundary of one clock
    # only that clock's agents hold a new context, so the shard
    # re-encodes a stale subset while the rest are served from cache
    return [
        DriftingSyntheticEnvironment(
            N_ACTIONS, N_FEATURES, epoch_length=epoch, switch_prob=0.5, seed=7
        )
        for epoch in (4, 6)
    ]


def _twin_population(envs, encoders, factory, private_context, seed=5, n_agents=8):
    acting_dim = N_CODES if private_context == "one-hot" else N_FEATURES
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, part_seed, session_seed = s.spawn(3)
        agents.append(
            LocalAgent(
                f"agent-{i}",
                factory(n_arms=N_ACTIONS, n_features=acting_dim, seed=policy_seed),
                mode=AgentMode.WARM_PRIVATE,
                encoder=encoders[i % 2],
                participation=RandomizedParticipation(
                    p=0.8, window=3, max_reports=4, seed=part_seed
                ),
                private_context=private_context,
            )
        )
        sessions.append(envs[(i // 2) % len(envs)].new_user(session_seed))
    return agents, sessions


@pytest.mark.parametrize(
    "env_factory", [_synthetic_envs, _drifting_envs], ids=["synthetic", "drifting"]
)
@pytest.mark.parametrize(
    "factory,private_context",
    [(CodeLinUCB, "one-hot"), (LinUCB, "one-hot"), (LinUCB, "centroid")],
    ids=["code_linucb-one-hot", "linucb-one-hot", "linucb-centroid"],
)
def test_twin_encoders_in_one_shard_match_sequential(
    env_factory, factory, private_context, twin_encoders, monkeypatch
):
    """Two runs on one held fleet (21 + 3 steps): the first run ends
    mid-epoch on both drift clocks, so the second continues every
    agent's last epoch and must encode nothing.  The split is a
    multiple of the window, so no report samples an item buffered
    before the second run (those are encoded one at a time)."""
    n_interactions, first_run = 24, 21

    def build():
        return _twin_population(env_factory(), twin_encoders, factory, private_context)

    seq_agents, seq_sessions = build()
    seq_rewards, seq_actions = _run_sequential(seq_agents, seq_sessions, n_interactions)

    fleet_agents, fleet_sessions = build()
    batch_rows: list[int] = []
    real_batch = KMeansEncoder.encode_batch

    def counting_batch(self, X):
        batch_rows.append(len(X))
        return real_batch(self, X)

    def no_scalar(self, x):  # pragma: no cover - the assertion is that it never runs
        raise AssertionError("plan shards must not encode one agent at a time")

    monkeypatch.setattr(KMeansEncoder, "encode_batch", counting_batch)
    # acting and reporting both gather plan-time codes: no agent is
    # ever encoded on its own, drifting or not
    monkeypatch.setattr(KMeansEncoder, "encode", no_scalar)
    runner = FleetRunner(fleet_agents, fleet_sessions)
    assert runner.n_shards == 1
    results, rows_per_run = [], []
    for start, stop in ((0, first_run), (first_run, n_interactions)):
        results.append(runner.run(stop - start))
        rows_per_run.append(batch_rows[:])
        batch_rows.clear()
    monkeypatch.undo()

    result = FleetResult(
        rewards=np.concatenate([r.rewards for r in results], axis=1),
        actions=np.concatenate([r.actions for r in results], axis=1),
        expected=None,
        expected_mask=np.zeros(len(fleet_agents), dtype=bool),
    )
    _assert_fleet_matches(seq_agents, fleet_agents, result, seq_rewards, seq_actions)

    def epoch(session):
        return getattr(session, "_epoch_length", n_interactions)

    # the first run encodes each epoch context of each agent exactly
    # once, in one encode_batch call per encoder group
    per_group = [0, 0]
    for j, session in enumerate(fleet_sessions):
        per_group[j % 2] += (first_run - 1) // epoch(session) + 1
    assert rows_per_run[0] == per_group
    # the second run continues every agent's cached epoch
    assert rows_per_run[1] == []


# --------------------------------------------------------------------- #
# LSH centroids on replay shards
# --------------------------------------------------------------------- #
def test_lsh_centroid_replay_matches_sequential():
    """LSH pre-images are least-squares solves; the fleet gathers them
    through ``decode_batch``, which must round exactly like per-code
    ``decode`` or the learned policy states drift apart."""
    dataset = make_mediamill_like(600, seed=0)
    encoder = LSHEncoder(n_bits=8, n_features=dataset.n_features, seed=2).fit()
    n_agents, n_interactions = 6, 40

    def build():
        env = MultilabelBanditEnvironment(dataset, samples_per_user=15, seed=1)
        agents, sessions = [], []
        for i, s in enumerate(spawn_seeds(9, n_agents)):
            policy_seed, part_seed, session_seed = s.spawn(3)
            agents.append(
                LocalAgent(
                    f"agent-{i}",
                    LinUCB(
                        n_arms=env.n_actions,
                        n_features=dataset.n_features,
                        seed=policy_seed,
                    ),
                    mode=AgentMode.WARM_PRIVATE,
                    encoder=encoder,
                    participation=RandomizedParticipation(
                        p=0.8, window=3, max_reports=4, seed=part_seed
                    ),
                    private_context="centroid",
                )
            )
            sessions.append(env.new_user(session_seed))
        return agents, sessions

    seq_agents, seq_sessions = build()
    seq_rewards, seq_actions = _run_sequential(seq_agents, seq_sessions, n_interactions)
    fleet_agents, fleet_sessions = build()
    result = FleetRunner(fleet_agents, fleet_sessions).run(n_interactions)
    _assert_fleet_matches(seq_agents, fleet_agents, result, seq_rewards, seq_actions)
