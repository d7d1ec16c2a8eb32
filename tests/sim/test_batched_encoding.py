"""Batched warm-private encoding on the fleet engine.

Every warm-private shard encodes through :meth:`Encoder.encode_batch`
(one call per encoder group) and gathers centroid representations
through :meth:`Encoder.decode_batch`; both are row-exact against their
scalar counterparts.  These tests pin the two cases no other suite
covers:

* one *stationary or drifting* shard holding two distinct encoder
  objects of equal codebook size encodes once per group and epoch — a
  shard guarantees equal ``n_codes`` only, so encoding every agent with
  one shard-wide encoder would silently change the codes of half the
  population;
* LSH encoders acting on centroids over a replay dataset, where the
  pre-images come from a least-squares solve whose batched form used to
  round differently from the per-code one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.core.participation import RandomizedParticipation
from repro.data.multilabel import MultilabelBanditEnvironment, make_mediamill_like
from repro.encoding import KMeansEncoder, LSHEncoder
from repro.sim import FleetRunner
from repro.utils.rng import spawn_seeds

from _recording import assert_pending_rows_equal
from _testkit import PRIVATE, Member, assert_states_equal, population


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
@pytest.mark.parametrize(
    "sessions", [("synthetic",), ("drifting", "drifting_b")], ids=["synthetic", "drifting"]
)
def test_twin_encoders_encode_once_per_group(sessions, monkeypatch):
    """Two runs on one held fleet (22 + 2 steps) of a shard holding two
    distinct codebooks of one size (the harness case ``twin_encoders``
    pins the results): the first run encodes each epoch context of each
    agent exactly once, in one ``encode_batch`` call per encoder group;
    it ends mid-epoch on every drift clock, so the second continues
    every agent's last epoch and encodes nothing.  No agent is ever
    encoded on its own."""
    members = [
        Member("code_linucb", PRIVATE, sessions[(i // 2) % len(sessions)], encoder=enc)
        for i, enc in enumerate(("kmeans", "twin") * 4)
    ]
    agents, fleet_sessions = population(members, seed=5, max_reports=4)
    batch_rows: list[int] = []
    real_batch = KMeansEncoder.encode_batch

    def counting_batch(self, X):
        batch_rows.append(len(X))
        return real_batch(self, X)

    def no_scalar(self, x):  # pragma: no cover - the assertion is that it never runs
        raise AssertionError("plan shards must not encode one agent at a time")

    monkeypatch.setattr(KMeansEncoder, "encode_batch", counting_batch)
    monkeypatch.setattr(KMeansEncoder, "encode", no_scalar)
    runner = FleetRunner(agents, fleet_sessions)
    assert runner.n_shards == 1
    rows_per_run = []
    for steps in (22, 2):
        runner.run(steps)
        rows_per_run.append(batch_rows[:])
        batch_rows.clear()

    per_group = [0, 0]
    for j, session in enumerate(fleet_sessions):
        per_group[j % 2] += 21 // getattr(session, "_epoch_length", 24) + 1
    assert rows_per_run == [per_group, []]


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
