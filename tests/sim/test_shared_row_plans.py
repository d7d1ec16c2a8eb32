"""Shared-row-table trace plans: the one traced plan form end to end.

Pins the :meth:`plan_trace_indexed` contract (same walk, same generator
consumption, same realized values as the reference ``plan_trace``), the
per-dataset table sharing (one :class:`TraceRowTable` object per
dataset, aliasing the dataset's own arrays where possible), and the
fleet-engine consequences: traced shards are bit-identical to the
sequential reference on the multilabel and Criteo populations across
every mode — including shards whose sessions walk several datasets
through a concatenated table — report payloads gather through the same
row indices (each dataset row encoded at most once per encoder), and
the per-agent plan footprint is A-fold below the per-step ``plan_trace``
arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import CodeLinUCB, LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.core.participation import RandomizedParticipation
from repro.data.criteo import (
    CriteoBanditEnvironment,
    build_criteo_actions,
    make_criteo_like,
)
from repro.data.environment import TraceRowTable
from repro.data.multilabel import (
    MultilabelBanditEnvironment,
    MultilabelUserSession,
    make_multilabel_dataset,
)
from repro.experiments.runner import _simulate_agent
from repro.sim import EngineConfig, FleetRunner
from repro.sim.fleet import _Shard
from repro.utils.rng import spawn_seeds

from _testkit import assert_outboxes_equal, assert_states_equal, join_runs, run_split

N_ACTIONS = 5
N_FEATURES = 6

_ML_DATASET = make_multilabel_dataset(120, N_FEATURES, N_ACTIONS, n_clusters=4, seed=0)
_CRITEO_DATASET = build_criteo_actions(
    make_criteo_like(2_500, seed=0), n_actions=N_ACTIONS, d=N_FEATURES
)


def _ml_env():
    return MultilabelBanditEnvironment(_ML_DATASET, samples_per_user=7, seed=1)


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
):
    env = env_factory()
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
            else RandomizedParticipation(p=p, window=3, max_reports=2, seed=part_seed)
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
        sessions.append(env.new_user(session_seed))
    return agents, sessions


def _sequential(agents, sessions, n_interactions):
    """The spec loop per agent: rewards, actions and expected rewards
    (``None`` for a session without ground truth)."""
    rewards, actions, expected = [], [], []
    for agent, session in zip(agents, sessions):
        r = np.empty(n_interactions)
        a = np.empty(n_interactions, dtype=np.intp)
        e: np.ndarray | None = np.empty(n_interactions)
        for t in range(n_interactions):
            x = session.next_context()
            a[t] = agent.act(x)
            r[t] = session.reward(int(a[t]))
            agent.learn(x, int(a[t]), r[t])
            if e is not None:
                try:
                    e[t] = session.expected_rewards()[a[t]]
                except NotImplementedError:
                    e = None
        rewards.append(r)
        actions.append(a)
        expected.append(e)
    return np.stack(rewards), np.stack(actions), expected


def _linucb(n_arms, n_features, seed):
    return LinUCB(n_arms=n_arms, n_features=n_features, seed=seed)


def _code_linucb(n_arms, n_features, seed):
    return CodeLinUCB(n_arms=n_arms, n_features=n_features, seed=seed)


# --------------------------------------------------------------------- #
# plan_trace_indexed contract
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("env_factory", [_ml_env, _criteo_env], ids=["multilabel", "criteo"])
def test_indexed_plan_realizes_the_dense_walk(env_factory):
    """Same walk as ``plan_trace``: gathered values, generator
    consumption and post-plan session state all coincide."""
    horizon = 20  # > samples/impressions per user => reshuffles happen
    dense_session = env_factory().new_user(11)
    indexed_session = env_factory().new_user(11)
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


@pytest.mark.parametrize("env_factory", [_ml_env, _criteo_env], ids=["multilabel", "criteo"])
def test_row_table_is_shared_per_dataset(env_factory):
    """Every session over one dataset returns the identical table
    object — the property the fleet shard keys sharing off."""
    env_a, env_b = env_factory(), env_factory()
    tables = {
        id(s.trace_row_table())
        for s in (env_a.new_user(0), env_a.new_user(1), env_b.new_user(2))
    }
    assert len(tables) == 1


def test_multilabel_table_aliases_the_dataset():
    """The multilabel row table allocates nothing: contexts are X,
    rewards are Y, expected aliases rewards."""
    table = _ml_env().new_user(0).trace_row_table()
    assert table.contexts is _ML_DATASET.X
    assert table.action_rewards is _ML_DATASET.Y
    assert table.expected is _ML_DATASET.Y
    assert table.n_rows == _ML_DATASET.n_samples
    assert table.n_actions == N_ACTIONS


def test_criteo_table_matches_reward_rows():
    """The Criteo table is the per-row one-hot-and-clicked expansion —
    bit-equal to what ``_reward_rows`` computes on the fly."""
    session = _criteo_env().new_user(0)
    table = session.trace_row_table()
    rows = np.arange(_CRITEO_DATASET.n_samples)
    np.testing.assert_array_equal(table.action_rewards, session._reward_rows(rows))
    assert table.contexts is _CRITEO_DATASET.X


# --------------------------------------------------------------------- #
# golden fleet equivalence: traced shards vs sequential
# --------------------------------------------------------------------- #
def _combos():
    yield _linucb, AgentMode.COLD, "one-hot"
    yield _linucb, AgentMode.WARM_NONPRIVATE, "one-hot"
    yield _linucb, AgentMode.WARM_PRIVATE, "centroid"
    yield _code_linucb, AgentMode.WARM_PRIVATE, "one-hot"


@pytest.mark.parametrize("env_factory", [_ml_env, _criteo_env], ids=["multilabel", "criteo"])
@pytest.mark.parametrize(
    "factory,mode,private_context",
    list(_combos()),
    ids=lambda v: getattr(v, "__name__", str(v)).lstrip("_"),
)
def test_indexed_fleet_matches_sequential(
    env_factory, factory, mode, private_context, encoder
):
    """The golden: the shared-row-table engine reproduces the
    sequential loop bit for bit on both datasets across every mode."""
    n_agents, n_interactions, seed = 9, 16, 42
    seq_agents, seq_sessions = make_population(
        env_factory, factory, mode, n_agents, seed,
        encoder=encoder, private_context=private_context,
    )
    fleet_agents, fleet_sessions = make_population(
        env_factory, factory, mode, n_agents, seed,
        encoder=encoder, private_context=private_context,
    )

    seq_rewards = np.stack(
        [
            _simulate_agent(a, s, n_interactions)[0]
            for a, s in zip(seq_agents, seq_sessions)
        ]
    )
    runner = FleetRunner(fleet_agents, fleet_sessions)
    result = runner.run(n_interactions)
    np.testing.assert_array_equal(seq_rewards, result.rewards)
    for sa, fa in zip(seq_agents, fleet_agents):
        assert sa.n_interactions == fa.n_interactions
        assert sa.total_reward == fa.total_reward
        assert_states_equal(sa.policy, fa.policy, label=f"{mode}/{private_context}")
    assert_outboxes_equal(seq_agents, fleet_agents)


def test_expected_channel_matches_sequential():
    """``track_expected`` gathers through the shared expected table."""
    n_agents, n_interactions, seed = 8, 12, 3
    seq_agents, seq_sessions = make_population(
        _ml_env, _linucb, AgentMode.COLD, n_agents, seed
    )
    _, _, seq_expected = _sequential(seq_agents, seq_sessions, n_interactions)
    agents, sessions = make_population(_ml_env, _linucb, AgentMode.COLD, n_agents, seed)
    result = FleetRunner(agents, sessions).run(n_interactions, track_expected=True)
    assert result.expected_mask.all()
    np.testing.assert_array_equal(result.expected, np.stack(seq_expected))


# --------------------------------------------------------------------- #
# form selection and fallbacks
# --------------------------------------------------------------------- #
def _cold_agents(n, seed):
    return [
        LocalAgent(
            f"a{i}", LinUCB(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=s), mode="cold"
        )
        for i, s in enumerate(spawn_seeds(seed, n))
    ]


def test_auto_picks_indexed_for_one_dataset():
    env = _ml_env()
    sessions = [env.new_user(s) for s in spawn_seeds(3, 4)]
    shard = _Shard(np.arange(4), _cold_agents(4, 0), sessions)
    shard.prepare(6)
    assert shard.indexed and shard.traced and not shard.stationary


_OTHER_DATASET = make_multilabel_dataset(90, N_FEATURES, N_ACTIONS, n_clusters=3, seed=5)


def _other_ml_env():
    return MultilabelBanditEnvironment(_OTHER_DATASET, samples_per_user=6, seed=2)


def _two_dataset_population(
    policy_factory, mode, n_agents, seed, *, encoder=None,
    private_context="one-hot", second_env=_other_ml_env,
):
    """Sessions alternate between two datasets; one policy config, so
    the whole population is one shard walking two row tables."""
    agents, _ = make_population(
        _ml_env, policy_factory, mode, n_agents, seed,
        encoder=encoder, private_context=private_context,
    )
    env_a, env_b = _ml_env(), second_env()
    sessions = [
        (env_b if i % 2 else env_a).new_user(s)
        for i, s in enumerate(spawn_seeds(seed + 50, n_agents))
    ]
    return agents, sessions


@pytest.mark.parametrize("split", [None, 2], ids=["whole", "split2"])
@pytest.mark.parametrize(
    "factory,mode,private_context",
    [
        (_linucb, AgentMode.COLD, "one-hot"),
        (_code_linucb, AgentMode.WARM_PRIVATE, "one-hot"),
        (_linucb, AgentMode.WARM_PRIVATE, "centroid"),
    ],
    ids=["cold", "private-onehot", "private-centroid"],
)
def test_mixed_dataset_shard_concatenates_tables(
    factory, mode, private_context, split, encoder
):
    """Sessions over *different* datasets gather through one
    shard-private concatenation of their row tables — still the indexed
    form, and bit-identical to the sequential loop on rewards, actions,
    the expected channel, policy states and reports, whether the
    horizon runs whole or as consecutive runs of ``split`` steps."""
    n_agents, n_interactions, seed = 6, 11, 13

    def build():
        return _two_dataset_population(
            factory, mode, n_agents, seed,
            encoder=encoder, private_context=private_context,
        )

    probe = _Shard(np.arange(n_agents), *build())
    probe.prepare(5)
    assert probe.indexed and probe.traced
    assert probe._row_table.n_rows == _ML_DATASET.n_samples + _OTHER_DATASET.n_samples
    # both multilabel tables alias their expected channel: so does the join
    assert probe._row_table.expected is probe._row_table.action_rewards

    seq_agents, seq_sessions = build()
    seq_rewards, seq_actions, seq_expected = _sequential(
        seq_agents, seq_sessions, n_interactions
    )
    fleet_agents, fleet_sessions = build()
    results = run_split(
        FleetRunner(fleet_agents, fleet_sessions),
        n_interactions,
        split,
        track_expected=True,
    )
    np.testing.assert_array_equal(seq_rewards, join_runs(results))
    np.testing.assert_array_equal(seq_actions, join_runs(results, "actions"))
    assert all(r.expected_mask.all() for r in results)
    np.testing.assert_array_equal(np.stack(seq_expected), join_runs(results, "expected"))
    for sa, fa in zip(seq_agents, fleet_agents):
        assert sa.n_interactions == fa.n_interactions
        assert sa.total_reward == fa.total_reward
        assert_states_equal(sa.policy, fa.policy)
    assert_outboxes_equal(seq_agents, fleet_agents)


def test_multilabel_and_criteo_share_one_shard(encoder):
    """Tables of different reward dtypes concatenate by value: a shard
    walking a multilabel and a Criteo table stays bit-identical."""
    n_agents, n_interactions, seed = 6, 12, 29

    def build():
        return _two_dataset_population(
            _code_linucb, AgentMode.WARM_PRIVATE, n_agents, seed,
            encoder=encoder, second_env=_criteo_env,
        )

    seq_agents, seq_sessions = build()
    seq_rewards, seq_actions, _ = _sequential(seq_agents, seq_sessions, n_interactions)
    fleet_agents, fleet_sessions = build()
    result = FleetRunner(fleet_agents, fleet_sessions).run(n_interactions)
    np.testing.assert_array_equal(seq_rewards, result.rewards)
    np.testing.assert_array_equal(seq_actions, result.actions)
    for sa, fa in zip(seq_agents, fleet_agents):
        assert_states_equal(sa.policy, fa.policy)
    assert_outboxes_equal(seq_agents, fleet_agents)


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
    n_agents, n_interactions, seed = 6, 9, 4

    def build():
        # a fresh dataset object: its row table is cached on it
        dataset = make_multilabel_dataset(80, N_FEATURES, N_ACTIONS, n_clusters=3, seed=9)
        env_b = MultilabelBanditEnvironment(dataset, samples_per_user=5, seed=3)
        agents, sessions = _two_dataset_population(
            _linucb, AgentMode.COLD, n_agents, seed,
            second_env=lambda: env_b,
        )
        sessions = [
            _NoTruthSession(s._dataset, s._indices, s._rng) if i % 2 else s
            for i, s in enumerate(sessions)
        ]
        return agents, sessions

    probe = _Shard(np.arange(n_agents), *build())
    probe.prepare(3)
    assert probe.indexed
    assert probe._row_table.expected is not probe._row_table.action_rewards

    seq_agents, seq_sessions = build()
    seq_rewards, seq_actions, seq_expected = _sequential(
        seq_agents, seq_sessions, n_interactions
    )
    fleet_agents, fleet_sessions = build()
    result = FleetRunner(fleet_agents, fleet_sessions).run(n_interactions, track_expected=True)
    np.testing.assert_array_equal(seq_rewards, result.rewards)
    np.testing.assert_array_equal(seq_actions, result.actions)
    np.testing.assert_array_equal(
        result.expected_mask, [e is not None for e in seq_expected]
    )
    for i, e in enumerate(seq_expected):
        if e is not None:
            np.testing.assert_array_equal(e, result.expected[i])


def test_held_mixed_shard_encodes_each_row_once(encoder, monkeypatch):
    """A runner holds the concatenated table and its code
    tables across runs (keyed on the source tables, not on the id of a
    rebuilt join): once the first run has visited every assigned row,
    the second run encodes nothing — and both runs together still equal
    one sequential horizon."""
    n_agents, horizon, seed = 6, 8, 41  # 8 > samples per user: all rows seen

    def build():
        return _two_dataset_population(
            _code_linucb, AgentMode.WARM_PRIVATE, n_agents, seed, encoder=encoder
        )

    seq_agents, seq_sessions = build()
    seq_rewards, _, _ = _sequential(seq_agents, seq_sessions, 2 * horizon)

    encoded_rows: list[int] = []
    real_batch = type(encoder).encode_batch

    def counting_batch(self, X):
        encoded_rows.append(X.shape[0])
        return real_batch(self, X)

    monkeypatch.setattr(type(encoder), "encode_batch", counting_batch)
    runner = FleetRunner(*build())
    first = runner.run(horizon)
    assert 0 < sum(encoded_rows) <= _ML_DATASET.n_samples + _OTHER_DATASET.n_samples
    encoded_rows.clear()
    second = runner.run(horizon)
    assert sum(encoded_rows) == 0
    np.testing.assert_array_equal(
        seq_rewards, np.concatenate([first.rewards, second.rewards], axis=1)
    )
    for sa, fa in zip(seq_agents, runner.agents):
        assert_states_equal(sa.policy, fa.policy)


# --------------------------------------------------------------------- #
# encode-once and memory properties
# --------------------------------------------------------------------- #
def test_each_dataset_row_encoded_at_most_once(encoder, monkeypatch):
    """Warm-private indexed shards encode *dataset rows*, not steps:
    with 9 agents x 30 steps over a 120-row dataset, the encoder sees
    each visited row once and the scalar ``encode`` never runs."""
    agents, sessions = make_population(
        _ml_env, _code_linucb, AgentMode.WARM_PRIVATE, 9, 21, encoder=encoder
    )
    seen_rows: list[int] = []
    real_batch = type(encoder).encode_batch

    def counting_batch(self, X):
        seen_rows.append(X.shape[0])
        return real_batch(self, X)

    def no_scalar(self, x):  # pragma: no cover - the assertion is that it never runs
        raise AssertionError("scalar encode must not run on the indexed path")

    monkeypatch.setattr(type(encoder), "encode_batch", counting_batch)
    monkeypatch.setattr(type(encoder), "encode", no_scalar)
    FleetRunner(agents, sessions).run(30)
    # one batched call (one encoder group, one plan), bounded by the
    # dataset size — not by agents x steps = 270
    assert sum(seen_rows) <= _ML_DATASET.n_samples


def test_concurrent_shards_share_one_table():
    """Two shards over one dataset, stepped with ``n_workers=2`` on a
    cold table cache: both must receive the identical row table (the
    build is serialized by a lock) — and parallel equals serial."""
    from repro.bandits import EpsilonGreedy

    dataset = make_multilabel_dataset(100, N_FEATURES, N_ACTIONS, n_clusters=4, seed=8)

    def build():
        env = MultilabelBanditEnvironment(dataset, samples_per_user=7, seed=1)
        agents, sessions = [], []
        for i, s in enumerate(spawn_seeds(3, 12)):
            policy_seed, session_seed = s.spawn(2)
            policy = (
                LinUCB(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed)
                if i % 2
                else EpsilonGreedy(
                    n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed
                )
            )
            agents.append(LocalAgent(f"a{i}", policy, mode="cold"))
            sessions.append(env.new_user(session_seed))
        return agents, sessions

    runner = FleetRunner(*build(), config=EngineConfig(n_workers=2))
    assert runner.n_shards == 2
    parallel = runner.run(10)
    serial = FleetRunner(*build()).run(10)
    np.testing.assert_array_equal(parallel.rewards, serial.rewards)
    np.testing.assert_array_equal(parallel.actions, serial.actions)


def test_indexed_plan_bytes_shrink_a_fold(encoder):
    """The ROADMAP claim in miniature: per-agent plan bytes of the
    row-table walk are a small fraction of the per-step arrays
    ``plan_trace`` materializes for the same walk."""
    n_agents, horizon = 12, 20
    agents, sessions = make_population(
        _ml_env, _code_linucb, AgentMode.WARM_PRIVATE, n_agents, 17, encoder=encoder
    )
    shard = _Shard(np.arange(n_agents), agents, sessions)
    shard.prepare(horizon)
    indexed = shard.plan_nbytes()

    _, ref_sessions = make_population(
        _ml_env, _code_linucb, AgentMode.WARM_PRIVATE, n_agents, 17, encoder=encoder
    )
    dense = 0
    for session in ref_sessions:
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
