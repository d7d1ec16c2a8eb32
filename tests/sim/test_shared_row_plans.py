"""Shared-row-table trace plans: the one traced plan form.

Pins the :meth:`plan_trace_indexed` contract (same walk, same generator
consumption, same realized values as the reference ``plan_trace``), the
per-dataset table sharing (one :class:`TraceRowTable` object per
dataset, aliasing the dataset's own arrays where possible), the
concatenated table of a shard whose sessions walk several datasets, the
encode-once counters (each dataset row encoded at most once per
encoder) and the A-fold plan footprint.  That traced shards reproduce
the sequential spec is the harness's (``test_harness.py``) to check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import LinUCB
from repro.core.agent import LocalAgent
from repro.data.environment import TraceRowTable
from repro.data.multilabel import (
    MultilabelBanditEnvironment,
    MultilabelUserSession,
    make_multilabel_dataset,
)
from repro.experiments.runner import _simulate_agent
from repro.sim import FleetRunner
from repro.sim.fleet import _Shard
from repro.utils.rng import spawn_seeds

from _testkit import (
    N_ACTIONS,
    N_FEATURES,
    PRIVATE,
    Member,
    assert_states_equal,
    datasets,
    environment,
    population,
    simulate_sequential,
)

REPLAY_ENVS = ["multilabel", "criteo"]


def _cold_agents(n, seed):
    return [
        LocalAgent(
            f"a{i}", LinUCB(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=s), mode="cold"
        )
        for i, s in enumerate(spawn_seeds(seed, n))
    ]


def _two_tables(member, n_agents, seed):
    """``n_agents`` of one config, alternating between two datasets: one
    shard walking two row tables."""
    tables = ("multilabel", "multilabel_b")
    return population(
        [
            Member(member.kind, member.mode, tables[i % 2], member.context)
            for i in range(n_agents)
        ],
        seed=seed,
    )


# --------------------------------------------------------------------- #
# plan_trace_indexed contract and table sharing
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", REPLAY_ENVS)
def test_indexed_plan_realizes_the_dense_walk(kind):
    """Same walk as ``plan_trace``: gathered values, generator
    consumption and post-plan session state all coincide."""
    horizon = 20  # > samples/impressions per user => reshuffles happen
    dense_session = environment(kind).new_user(11)
    indexed_session = environment(kind).new_user(11)
    dense = dense_session.plan_trace(horizon)
    indexed = indexed_session.plan_trace_indexed(horizon)

    assert indexed.horizon == horizon
    table = indexed.table
    np.testing.assert_array_equal(dense.contexts, table.contexts[indexed.rows])
    np.testing.assert_array_equal(dense.action_rewards, table.action_rewards[indexed.rows])
    actions = np.random.default_rng(5).integers(0, N_ACTIONS, size=horizon)
    np.testing.assert_array_equal(dense.realize(actions), indexed.realize(actions))
    # logged data: expected aliases realized in both forms
    assert dense.expected is dense.action_rewards
    assert table.expected is table.action_rewards

    # generator and walk state: the two plan forms are interchangeable
    assert (
        dense_session._rng.bit_generator.state
        == indexed_session._rng.bit_generator.state
    )
    assert dense_session._cursor == indexed_session._cursor
    np.testing.assert_array_equal(dense_session._order, indexed_session._order)
    for _ in range(5):
        np.testing.assert_array_equal(
            dense_session.next_context(), indexed_session.next_context()
        )


@pytest.mark.parametrize("kind", REPLAY_ENVS)
def test_row_table_is_shared_per_dataset(kind):
    """Every session over one dataset returns the identical table
    object — the property the fleet shard keys sharing off."""
    env_a, env_b = environment(kind), environment(kind)
    tables = {
        id(s.trace_row_table())
        for s in (env_a.new_user(0), env_a.new_user(1), env_b.new_user(2))
    }
    assert len(tables) == 1


def test_multilabel_table_aliases_the_dataset():
    """The multilabel row table allocates nothing: contexts are X,
    rewards are Y, expected aliases rewards."""
    dataset = datasets()["ml"]
    table = environment("multilabel").new_user(0).trace_row_table()
    assert table.contexts is dataset.X
    assert table.action_rewards is dataset.Y
    assert table.expected is dataset.Y
    assert table.n_rows == dataset.n_samples
    assert table.n_actions == N_ACTIONS


def test_criteo_table_matches_reward_rows():
    """The Criteo table is the per-row one-hot-and-clicked expansion —
    bit-equal to what ``_reward_rows`` computes on the fly."""
    session = environment("criteo").new_user(0)
    table = session.trace_row_table()
    rows = np.arange(datasets()["criteo"].n_samples)
    np.testing.assert_array_equal(table.action_rewards, session._reward_rows(rows))
    assert table.contexts is datasets()["criteo"].X


def test_auto_picks_indexed_for_one_dataset():
    env = environment("multilabel")
    sessions = [env.new_user(s) for s in spawn_seeds(3, 4)]
    shard = _Shard(np.arange(4), _cold_agents(4, 0), sessions)
    shard.prepare(6)
    assert shard.traced and not shard.stationary


@pytest.mark.parametrize(
    "member",
    [
        Member("linucb"),
        Member("code_linucb", PRIVATE),
        Member("linucb", PRIVATE, context="centroid"),
    ],
    ids=["cold", "private-onehot", "private-centroid"],
)
def test_mixed_dataset_shard_concatenates_tables(member):
    """Sessions over *different* datasets gather through one
    shard-private concatenation of their row tables — still the indexed
    form — and both multilabel tables alias their expected channel, so
    the join does too."""
    probe = _Shard(np.arange(6), *_two_tables(member, 6, 13))
    probe.prepare(5)
    assert probe.traced
    data = datasets()
    assert probe._row_table.n_rows == data["ml"].n_samples + data["ml_b"].n_samples
    assert probe._row_table.expected is probe._row_table.action_rewards


class _NoTruthSession(MultilabelUserSession):
    """A replay session whose row table has no expected channel."""

    def _build_row_table(self) -> TraceRowTable:
        return TraceRowTable(contexts=self._dataset.X, action_rewards=self._dataset.Y)

    def expected_rewards(self) -> np.ndarray:
        raise NotImplementedError("no ground truth")


def test_mixed_expected_channels_are_masked_per_agent():
    """Concatenating a table with an expected channel and one without
    zero-fills the missing rows and masks those agents out — the
    sequential loop drops their expected channel the same way."""
    n_agents, n_interactions = 6, 9

    def build():
        # a fresh dataset object: its row table is cached on it
        dataset = make_multilabel_dataset(80, N_FEATURES, N_ACTIONS, n_clusters=3, seed=9)
        env_b = MultilabelBanditEnvironment(dataset, samples_per_user=5, seed=3)
        env_a = environment("multilabel")
        sessions = []
        for i, s in enumerate(spawn_seeds(54, n_agents)):
            if i % 2:
                user = env_b.new_user(s)
                sessions.append(_NoTruthSession(dataset, user._indices, user._rng))
            else:
                sessions.append(env_a.new_user(s))
        return _cold_agents(n_agents, 4), sessions

    probe = _Shard(np.arange(n_agents), *build())
    probe.prepare(3)
    assert probe.traced
    assert probe._row_table.expected is not probe._row_table.action_rewards

    seq_agents, seq_sessions = build()
    seq = [
        _simulate_agent(a, s, n_interactions, track_expected=True)
        for a, s in zip(seq_agents, seq_sessions)
    ]
    fleet_agents, fleet_sessions = build()
    result = FleetRunner(fleet_agents, fleet_sessions).run(n_interactions, track_expected=True)
    np.testing.assert_array_equal(np.stack([r for r, _ in seq]), result.rewards)
    np.testing.assert_array_equal(result.expected_mask, [e is not None for _, e in seq])
    for i, (_, e) in enumerate(seq):
        if e is not None:
            np.testing.assert_array_equal(e, result.expected[i])


# --------------------------------------------------------------------- #
# encode-once and memory properties
# --------------------------------------------------------------------- #
def _count_encoded_rows(monkeypatch, encoder_type) -> list[int]:
    """Rows of every ``encode_batch`` call from here on; scalar ``encode`` raises."""
    rows: list[int] = []
    real_batch = encoder_type.encode_batch

    def counting_batch(self, X):
        rows.append(X.shape[0])
        return real_batch(self, X)

    def no_scalar(self, x):  # pragma: no cover - the assertion is that it never runs
        raise AssertionError("scalar encode must not run on the indexed path")

    monkeypatch.setattr(encoder_type, "encode_batch", counting_batch)
    monkeypatch.setattr(encoder_type, "encode", no_scalar)
    return rows


def test_held_mixed_shard_encodes_each_row_once(monkeypatch):
    """A runner holds the concatenated table and its code tables across
    runs (keyed on the source tables, not on the id of a rebuilt join):
    once the first run has visited every assigned row, the second run
    encodes nothing — and both runs together still equal one sequential
    horizon."""
    member, horizon = Member("code_linucb", PRIVATE), 8  # 8 > samples per user
    seq_agents, seq_sessions = _two_tables(member, 6, 41)
    seq_rewards = simulate_sequential(seq_agents, seq_sessions, 2 * horizon)

    runner = FleetRunner(*_two_tables(member, 6, 41))
    encoded_rows = _count_encoded_rows(monkeypatch, type(runner.agents[0].encoder))
    first = runner.run(horizon)
    data = datasets()
    assert 0 < sum(encoded_rows) <= data["ml"].n_samples + data["ml_b"].n_samples
    encoded_rows.clear()
    second = runner.run(horizon)
    assert sum(encoded_rows) == 0
    np.testing.assert_array_equal(seq_rewards, np.hstack([first.rewards, second.rewards]))
    for sa, fa in zip(seq_agents, runner.agents):
        assert_states_equal(sa.policy, fa.policy)


def test_each_dataset_row_encoded_at_most_once(monkeypatch):
    """Warm-private indexed shards encode *dataset rows*, not steps:
    with 9 agents x 30 steps over a 90-row dataset, the encoder sees
    each visited row once and the scalar ``encode`` never runs."""
    agents, sessions = population([Member("code_linucb", PRIVATE, "multilabel")] * 9, seed=21)
    seen_rows = _count_encoded_rows(monkeypatch, type(agents[0].encoder))
    FleetRunner(agents, sessions).run(30)
    # one batched call (one encoder group, one plan), bounded by the
    # dataset size — not by agents x steps = 270
    assert sum(seen_rows) <= datasets()["ml"].n_samples


def test_indexed_plan_bytes_shrink_a_fold():
    """The ROADMAP claim in miniature: per-agent plan bytes of the
    row-table walk are a small fraction of the per-step arrays
    ``plan_trace`` materializes for the same walk."""
    n_agents, horizon = 12, 20
    members = [Member("code_linucb", PRIVATE, "multilabel")] * n_agents
    shard = _Shard(np.arange(n_agents), *population(members, seed=17))
    shard.prepare(horizon)
    indexed = shard.plan_nbytes()

    dense = 0
    for session in population(members, seed=17)[1]:
        plan = session.plan_trace(horizon)
        dense += plan.contexts.nbytes + plan.action_rewards.nbytes
        if plan.expected is not plan.action_rewards:
            dense += plan.expected.nbytes
    # the per-agent side is exactly the row walk: horizon intp entries
    assert indexed["per_agent"] == n_agents * horizon * np.intp(0).nbytes
    # per-step (T, d) float contexts + (T, A) rewards per agent are at
    # least A-fold more than the walk even at this toy scale (the
    # §5.2-scale ratio is asserted in bench_memory)
    assert dense >= N_ACTIONS * indexed["per_agent"]
