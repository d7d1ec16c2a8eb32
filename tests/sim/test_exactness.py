"""The ``fast`` exactness tier and the engine's edge-case hardening.

Gates the tier the way the contract defines it:

* ``exactness="bit"`` stays bit-identical — including when results are
  streamed through a :class:`CurveSink` instead of materialized;
* ``exactness="fast"`` is *statistically* equivalent on CodeLinUCB and
  LinUCB populations (``stat_equiv`` tolerance bands across seeds) and
  *bitwise* identical for policy kinds without a fast stacker
  (Thompson, epsilon-greedy, UCB1);
* the sparse and densified representations of
  :class:`StackedCodeLinUCBFast` are bitwise interchangeable (both
  compute the same float32 values);
* empty populations short-circuit at every worker count instead of
  raising from ``max_workers=0`` pools;
* multi-shard plan accounting counts a shared
  :class:`TraceRowTable` once, not once per shard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import (
    CodeLinUCB,
    EpsilonGreedy,
    LinearThompsonSampling,
    LinUCB,
    UCB1,
    policy_state_nbytes,
)
from repro.bandits.kernels import linear_scores, ucb_explore
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.core.participation import RandomizedParticipation
from repro.data.multilabel import MultilabelBanditEnvironment, make_multilabel_dataset
from repro.experiments.results import CurveSink, NullSink
from repro.sim import (
    EXACTNESS_TIERS,
    EngineConfig,
    FaultPlan,
    FaultPolicy,
    FaultSpec,
    FleetRunner,
    StackedCodeLinUCB,
    StackedCodeLinUCBFast,
    StackedLinUCBFast,
    StackedThompson,
    aggregate_plan_nbytes,
    stack_policies,
)
from repro.sim.fleet import _Shard
from repro.utils.exceptions import ConfigError
from repro.utils.rng import spawn_seeds

from _testkit import (
    assert_outboxes_equal,
    assert_states_equal,
    make_population,
)
from stat_equiv import assert_statistically_equivalent

N_ACTIONS = 5
N_FEATURES = 6
_ML_DATASET = make_multilabel_dataset(120, N_FEATURES, N_ACTIONS, n_clusters=4, seed=0)


@pytest.fixture(scope="module")
def ml_encoder():
    from repro.encoding.kmeans_encoder import KMeansEncoder

    return KMeansEncoder(
        n_codes=8, n_features=N_FEATURES, n_fit_samples=400, seed=3
    ).fit()


def _ml_population(seed, n_agents, encoder, *, alpha=1.0):
    """Warm-private CodeLinUCB agents replaying the multilabel dataset."""
    env = MultilabelBanditEnvironment(_ML_DATASET, samples_per_user=7, seed=1)
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, part_seed, session_seed = s.spawn(3)
        agents.append(
            LocalAgent(
                f"agent-{i}",
                CodeLinUCB(N_ACTIONS, encoder.n_codes, alpha=alpha, seed=policy_seed),
                mode=AgentMode.WARM_PRIVATE,
                encoder=encoder,
                participation=RandomizedParticipation(
                    p=0.8, window=3, max_reports=2, seed=part_seed
                ),
            )
        )
        sessions.append(env.new_user(session_seed))
    return agents, sessions


# --------------------------------------------------------------------- #
# tier selection and validation
# --------------------------------------------------------------------- #
class TestTierSelection:
    def test_tiers_constant(self):
        assert EXACTNESS_TIERS == ("bit", "fast")

    def test_fast_stacker_selected_for_code_linucb(self):
        policies = [CodeLinUCB(N_ACTIONS, 8, seed=i) for i in range(3)]
        assert isinstance(stack_policies(policies), StackedCodeLinUCB)
        assert isinstance(
            stack_policies(policies, exactness="fast"), StackedCodeLinUCBFast
        )

    def test_fast_stackers_selected_for_dense_linear_kinds(self):
        linucb = [LinUCB(N_ACTIONS, N_FEATURES, seed=i) for i in range(3)]
        stacked = stack_policies(linucb, exactness="fast")
        assert isinstance(stacked, StackedLinUCBFast)
        assert stacked.A_inv.dtype == np.float32
        ts = [LinearThompsonSampling(N_ACTIONS, N_FEATURES, seed=i) for i in range(3)]
        assert type(stack_policies(ts, exactness="fast")) is StackedThompson

    def test_unknown_tier_rejected_everywhere(self):
        policies = [LinUCB(N_ACTIONS, N_FEATURES, seed=0)]
        with pytest.raises(ConfigError, match="exactness"):
            stack_policies(policies, exactness="warp")
        agents, sessions = make_population(
            lambda A, d, s: LinUCB(A, d, seed=s), AgentMode.COLD, 2, 0
        )
        with pytest.raises(ConfigError, match="exactness"):
            FleetRunner(agents, sessions, config=EngineConfig(exactness="warp"))


# --------------------------------------------------------------------- #
# fast degenerates to bit for kinds without a fast stacker
# --------------------------------------------------------------------- #
class TestFastDegeneratesToBit:
    # linucb/code_linucb have fast stackers; lin_ts has none either
    # (TestStatisticalEquivalence pins it bitwise across seeds)
    @pytest.mark.parametrize(
        "factory",
        [
            pytest.param(
                lambda A, d, s: EpsilonGreedy(A, d, epsilon=0.2, seed=s),
                id="epsilon_greedy",
            ),
            pytest.param(lambda A, d, s: UCB1(A, d, seed=s), id="ucb1"),
        ],
    )
    def test_population_bitwise_identical(self, factory):
        def build(seed):
            return make_population(factory, AgentMode.COLD, 8, seed)

        a_bit, s_bit = build(4)
        a_fast, s_fast = build(4)
        r_bit = FleetRunner(a_bit, s_bit).run(15)
        r_fast = FleetRunner(a_fast, s_fast, config=EngineConfig(exactness="fast")).run(15)
        np.testing.assert_array_equal(r_bit.rewards, r_fast.rewards)
        np.testing.assert_array_equal(r_bit.actions, r_fast.actions)
        for x, y in zip(a_bit, a_fast):
            assert_states_equal(x.policy, y.policy)
        assert_outboxes_equal(a_bit, a_fast)


# --------------------------------------------------------------------- #
# the tentpole gate: fast-vs-bit statistical equivalence
# --------------------------------------------------------------------- #
class TestStatisticalEquivalence:
    def test_code_linucb_curves_within_band_across_seeds(self, ml_encoder):
        bit_curves, fast_curves = [], []
        for seed in range(4):
            agents, sessions = _ml_population(seed, 15, ml_encoder)
            bit_curves.append(FleetRunner(agents, sessions).run(40).rewards)
            agents, sessions = _ml_population(seed, 15, ml_encoder)
            fast_curves.append(
                FleetRunner(
                    agents,
                    sessions,
                    config=EngineConfig(exactness="fast"),
                ).run(40).rewards
            )
        assert_statistically_equivalent(bit_curves, fast_curves)

    def test_fast_writeback_leaves_consistent_float32_tables(self, ml_encoder):
        T = 25
        agents, sessions = _ml_population(2, 10, ml_encoder)
        FleetRunner(agents, sessions, config=EngineConfig(exactness="fast")).run(T)
        for agent in agents:
            policy = agent.policy
            assert policy.counts.dtype == np.float32
            assert policy.sums.dtype == np.float32
            # one interaction touches exactly one cell: counts sum to T
            assert float(policy.counts.sum()) == pytest.approx(T)
            assert policy.t == T
            # float32 tables halve the scalar footprint the fast tier
            # writes back (policy_state_nbytes counts the state arrays)
            bit_policy = CodeLinUCB(N_ACTIONS, ml_encoder.n_codes, seed=0)
            assert policy_state_nbytes(policy) < policy_state_nbytes(bit_policy)

    def test_dense_linucb_curves_within_band_across_seeds(self):
        def build(seed):
            return make_population(
                lambda A, d, s: LinUCB(A, d, alpha=0.5, seed=s),
                AgentMode.COLD,
                15,
                seed,
            )

        bit_curves, fast_curves = [], []
        for seed in range(4):
            agents, sessions = build(seed)
            bit_curves.append(FleetRunner(agents, sessions).run(40).rewards)
            agents, sessions = build(seed)
            fast_curves.append(
                FleetRunner(
                    agents,
                    sessions,
                    config=EngineConfig(exactness="fast"),
                ).run(40).rewards
            )
        assert_statistically_equivalent(bit_curves, fast_curves)

    def test_thompson_fast_tier_is_bitwise_bit_tier_across_seeds(self):
        # Thompson has no fast stacker: the fast tier runs the bit
        # stacker, so rewards, actions and policy states match bitwise
        def build(seed):
            return make_population(
                lambda A, d, s: LinearThompsonSampling(A, d, v=0.3, seed=s),
                AgentMode.COLD,
                15,
                seed,
            )

        for seed in range(4):
            a_bit, s_bit = build(seed)
            r_bit = FleetRunner(a_bit, s_bit).run(40)
            a_fast, s_fast = build(seed)
            fast = EngineConfig(exactness="fast")
            r_fast = FleetRunner(a_fast, s_fast, config=fast).run(40)
            np.testing.assert_array_equal(r_bit.rewards, r_fast.rewards)
            np.testing.assert_array_equal(r_bit.actions, r_fast.actions)
            for x, y in zip(a_bit, a_fast):
                assert_states_equal(x.policy, y.policy)

    def test_incremental_quads_track_recompute_under_fixed_contexts(self):
        # fixed contexts across rounds: the cache stays valid, so every
        # round after the first goes through sm_quad_downdate instead of
        # a full rescore — the incremental quadratics must track a full
        # ucb_explore recomputation within float32 tolerance
        policies = [LinUCB(N_ACTIONS, N_FEATURES, alpha=0.7, seed=i) for i in range(6)]
        stacked = stack_policies(policies, exactness="fast")
        assert isinstance(stacked, StackedLinUCBFast)
        rng = np.random.default_rng(5)
        contexts = rng.random((6, N_FEATURES))
        ctx32 = contexts.astype(np.float32)
        for t in range(30):
            actions = stacked.select(contexts)
            stacked.update(contexts, actions, rng.random(6))
            recomputed = ucb_explore(ctx32, stacked.A_inv)
            np.testing.assert_allclose(
                stacked._quads, recomputed, rtol=1e-3, atol=1e-5
            )

    def test_changing_contexts_invalidate_the_quad_cache(self):
        # within a round select/update share contexts, so the cache hits
        # and the downdate applies; a new round's fresh contexts must
        # miss and force a full rescore with the post-update state
        policies = [LinUCB(N_ACTIONS, N_FEATURES, seed=i) for i in range(4)]
        stacked = stack_policies(policies, exactness="fast")
        rng = np.random.default_rng(8)
        contexts = rng.random((4, N_FEATURES))
        for t in range(10):
            actions = stacked.select(contexts)
            assert stacked._cache_valid(contexts)
            stacked.update(contexts, actions, rng.random(4))
            contexts = rng.random((4, N_FEATURES))  # fresh next round
            assert not stacked._cache_valid(contexts)
        ctx32 = contexts.astype(np.float32)
        expected = linear_scores(stacked.theta, ctx32) + np.float32(
            stacked.alpha
        ) * np.sqrt(ucb_explore(ctx32, stacked.A_inv))
        np.testing.assert_allclose(
            stacked.scores(contexts), expected, rtol=1e-4, atol=1e-5
        )

    def test_fast_dense_writeback_leaves_float32_state(self):
        agents, sessions = make_population(
            lambda A, d, s: LinUCB(A, d, seed=s), AgentMode.COLD, 4, 6
        )
        FleetRunner(agents, sessions, config=EngineConfig(exactness="fast")).run(10)
        for agent in agents:
            assert agent.policy.A_inv.dtype == np.float32
            assert agent.policy.theta.dtype == np.float32
        # snapshots warm-start other agents (set_state re-coerces)
        source = agents[0].policy
        clone = LinUCB(source.n_arms, source.n_features, seed=9)
        clone.set_state(source.get_state())
        assert clone.A_inv.dtype == np.float64
        np.testing.assert_allclose(clone.A_inv, source.A_inv, rtol=1e-6)

    def test_fast_state_round_trips_through_set_state(self, ml_encoder):
        # a fast-run policy's get_state snapshot must warm-start
        # another agent (set_state re-coerces to float64)
        agents, sessions = _ml_population(3, 4, ml_encoder)
        FleetRunner(agents, sessions, config=EngineConfig(exactness="fast")).run(10)
        state = agents[0].policy.get_state()
        clone = CodeLinUCB(N_ACTIONS, ml_encoder.n_codes, seed=9)
        clone.set_state(state)
        assert clone.counts.dtype == np.float64
        np.testing.assert_allclose(clone.counts, agents[0].policy.counts)


# --------------------------------------------------------------------- #
# sparse and densified representations are bitwise interchangeable
# --------------------------------------------------------------------- #
class TestSparseDenseConsistency:
    def _policies(self, n, seed=0):
        return [CodeLinUCB(N_ACTIONS, 8, alpha=0.3, seed=seed + i) for i in range(n)]

    def test_forced_densify_matches_sparse_bitwise(self):
        class DensifyAlways(StackedCodeLinUCBFast):
            densify_occupancy = 0.0

        rng = np.random.default_rng(7)
        sparse = StackedCodeLinUCBFast(self._policies(6))
        dense = DensifyAlways(self._policies(6))
        assert sparse._dense_counts is None and dense._dense_counts is not None
        for t in range(30):
            codes = rng.integers(0, 8, size=6)
            a_s, a_d = sparse.select(codes), dense.select(codes)
            np.testing.assert_array_equal(a_s, a_d)
            rewards = rng.random(6)
            sparse.update(codes, a_s, rewards)
            dense.update(codes, a_d, rewards)
            np.testing.assert_array_equal(
                sparse.scores_for_codes(codes), dense.scores_for_codes(codes)
            )
        sparse.writeback()
        dense.writeback()
        for p_s, p_d in zip(sparse.policies, dense.policies):
            np.testing.assert_array_equal(p_s.counts, p_d.counts)
            np.testing.assert_array_equal(p_s.sums, p_d.sums)

    def test_occupancy_threshold_densifies_mid_run(self):
        stacked = StackedCodeLinUCBFast(self._policies(2))
        stacked.densify_occupancy = 0.05  # 2 agents x 40 cells => 4 cells
        rng = np.random.default_rng(1)
        for _ in range(10):
            codes = rng.integers(0, 8, size=2)
            acts = stacked.select(codes)
            stacked.update(codes, acts, rng.random(2))
        assert stacked._dense_counts is not None
        assert stacked._keys.size == 0
        assert stacked._dense_counts.dtype == np.float32

    def test_warm_started_tables_seed_the_sparse_state(self):
        policies = self._policies(3, seed=50)
        one_hot = np.zeros(8)
        one_hot[2] = 1.0
        for p in policies:
            for _ in range(4):
                p.update(one_hot, p.select(one_hot), 0.5)
        reference = [(p.counts.copy(), p.sums.copy()) for p in policies]
        stacked = StackedCodeLinUCBFast(policies)
        stacked.writeback()
        for p, (counts, sums) in zip(policies, reference):
            np.testing.assert_allclose(p.counts, counts)
            np.testing.assert_allclose(p.sums, sums)

    def test_sparse_state_is_smaller_than_bit_state(self):
        def fresh():
            return [CodeLinUCB(40, 64, seed=i) for i in range(20)]

        bit = stack_policies(fresh())
        fast = stack_policies(fresh(), exactness="fast")
        rng = np.random.default_rng(0)
        for t in range(50):
            codes = rng.integers(0, 64, size=20)
            bit.update(codes, bit.select(codes), rng.random(20))
            fast.update(codes, fast.select(codes), rng.random(20))
        # <= 50 touched cells/agent out of 2560: far beyond the 4x floor
        assert bit.state_nbytes() > 4 * fast.state_nbytes()


# --------------------------------------------------------------------- #
# result streaming (ResultSink)
# --------------------------------------------------------------------- #
class TestResultSinks:
    def _mixed_population(self, seed):
        from repro.bandits import EpsilonGreedy

        a1, s1 = make_population(
            lambda A, d, s: LinUCB(A, d, seed=s), AgentMode.COLD, 5, seed
        )
        a2, s2 = make_population(
            lambda A, d, s: EpsilonGreedy(A, d, epsilon=0.1, seed=s),
            AgentMode.COLD,
            4,
            seed + 100,
        )
        return a1 + a2, s1 + s2

    def test_curve_sink_matches_matrix_curves_bitwise(self):
        agents_m, sessions_m = self._mixed_population(3)
        result = FleetRunner(agents_m, sessions_m).run(20, track_expected=True)
        measured = result.measured()

        agents_s, sessions_s = self._mixed_population(3)
        sink = CurveSink()
        out = FleetRunner(agents_s, sessions_s).run(20, track_expected=True, sink=sink)
        assert out is None
        np.testing.assert_allclose(sink.curve, measured.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(
            sink.cumulative_curve,
            np.cumsum(measured.mean(axis=0)) / np.arange(1, 21),
            atol=1e-12,
        )
        assert sink.mean_reward == pytest.approx(float(measured.mean()), abs=1e-12)
        # streaming changes nothing observable on the agents
        for x, y in zip(agents_m, agents_s):
            assert_states_equal(x.policy, y.policy)
        assert_outboxes_equal(agents_m, agents_s)

    def test_curve_sink_threaded_matches_serial(self):
        agents_a, sessions_a = self._mixed_population(8)
        serial = CurveSink()
        FleetRunner(agents_a, sessions_a).run(15, sink=serial)
        agents_b, sessions_b = self._mixed_population(8)
        threaded = CurveSink()
        FleetRunner(agents_b, sessions_b, config=EngineConfig(n_workers=3)).run(15, sink=threaded)
        np.testing.assert_allclose(serial.curve, threaded.curve, atol=1e-12)

    def test_null_sink_preserves_side_effects(self, ml_encoder):
        agents_m, sessions_m = _ml_population(5, 6, ml_encoder)
        FleetRunner(agents_m, sessions_m).run(12)
        agents_s, sessions_s = _ml_population(5, 6, ml_encoder)
        assert FleetRunner(agents_s, sessions_s).run(12, sink=NullSink()) is None
        for x, y in zip(agents_m, agents_s):
            assert_states_equal(x.policy, y.policy)
        assert_outboxes_equal(agents_m, agents_s)

    def test_supervised_pooled_run_defers_emission_exactly(self):
        """A supervised run emits each shard's columns only after its
        horizon succeeded (a retried attempt never double-emits); the
        deferred stream equals the unsupervised one."""
        agents_u, sessions_u = self._mixed_population(11)
        unsupervised = CurveSink()
        FleetRunner(agents_u, sessions_u).run(8, sink=unsupervised)
        agents_s, sessions_s = self._mixed_population(11)
        supervised = CurveSink()
        out = FleetRunner(
            agents_s,
            sessions_s,
            config=EngineConfig(
                n_workers=2, fault_policy=FaultPolicy(max_retries=2, backoff=0.0)
            ),
            fault_plan=FaultPlan([FaultSpec("raise", 1, 3)]),
        ).run(8, sink=supervised)
        assert out is None
        assert supervised.n_agents == unsupervised.n_agents
        np.testing.assert_array_equal(supervised.curve, unsupervised.curve)
        for x, y in zip(agents_u, agents_s):
            assert_states_equal(x.policy, y.policy)
        assert_outboxes_equal(agents_u, agents_s)


# --------------------------------------------------------------------- #
# empty populations: no max_workers=0 pools
# --------------------------------------------------------------------- #
class TestEmptyPopulation:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    @pytest.mark.parametrize("track_expected", [False, True])
    def test_empty_run_returns_empty_shapes(self, n_workers, track_expected):
        runner = FleetRunner([], [], config=EngineConfig(n_workers=n_workers))
        assert runner.n_shards == 0
        result = runner.run(6, track_expected=track_expected)
        assert result.rewards.shape == (0, 6)
        assert result.actions.shape == (0, 6)
        if track_expected:
            assert result.expected.shape == (0, 6)
        else:
            assert result.expected is None
        assert result.expected_mask.shape == (0,)
        assert runner.drain_outboxes() == []

    def test_empty_run_with_sink(self):
        sink = CurveSink()
        assert FleetRunner([], []).run(5, sink=sink) is None
        assert sink.n_agents == 0
        assert sink.curve.shape == (5,)
        assert sink.mean_reward == 0.0

    def test_fleet_supported_still_false_for_empty(self):
        # engine="auto"/"fleet" resolution keeps treating [] as
        # non-capable; only a directly constructed FleetRunner runs it
        from repro.sim import fleet_supported

        assert not fleet_supported([])


# --------------------------------------------------------------------- #
# multi-shard plan accounting dedupes the shared row table
# --------------------------------------------------------------------- #
class TestPlanBytesAccounting:
    def _two_shard_population(self, seed, encoder):
        """Two CodeLinUCB hyperparameter groups over ONE dataset: two
        shards gathering through the same TraceRowTable object."""
        env = MultilabelBanditEnvironment(_ML_DATASET, samples_per_user=7, seed=1)
        agents, sessions = [], []
        for i, s in enumerate(spawn_seeds(seed, 6)):
            policy_seed, part_seed, session_seed = s.spawn(3)
            alpha = 0.5 if i % 2 else 1.0  # two fleet keys => two shards
            agents.append(
                LocalAgent(
                    f"agent-{i}",
                    CodeLinUCB(N_ACTIONS, encoder.n_codes, alpha=alpha, seed=policy_seed),
                    mode=AgentMode.WARM_PRIVATE,
                    encoder=encoder,
                    participation=RandomizedParticipation(
                        p=0.8, window=3, max_reports=2, seed=part_seed
                    ),
                )
            )
            sessions.append(env.new_user(session_seed))
        return agents, sessions

    def test_shared_row_table_counted_once_across_shards(self, ml_encoder):
        from repro.sim.fleet import shard_indices

        agents, sessions = self._two_shard_population(0, ml_encoder)
        groups = shard_indices(agents)
        assert len(groups) == 2
        shards = [
            _Shard(idx, [agents[i] for i in idx], [sessions[i] for i in idx])
            for idx in groups
        ]
        for shard in shards:
            shard.prepare(10)
        assert all(shard.indexed for shard in shards)
        table = shards[0]._row_table
        assert shards[1]._row_table is table  # the PR-5 aliasing

        naive = sum(shard.plan_nbytes()["shared"] for shard in shards)
        deduped = aggregate_plan_nbytes(shards)
        # naive accounting billed the table once per shard
        assert naive - deduped["shared"] == table.nbytes()
        per_agent = sum(shard.plan_nbytes()["per_agent"] for shard in shards)
        assert deduped["per_agent"] == per_agent
        assert deduped["total"] == deduped["per_agent"] + deduped["shared"]

    def test_single_shard_unchanged_without_seen(self, ml_encoder):
        from repro.sim.fleet import shard_indices

        agents, sessions = self._two_shard_population(1, ml_encoder)
        idx = shard_indices(agents)[0]
        shard = _Shard(
            idx, [agents[i] for i in idx], [sessions[i] for i in idx]
        )
        shard.prepare(10)
        # keyword-only seen defaults to None: same totals as before
        assert shard.plan_nbytes() == shard.plan_nbytes(seen=None)


# --------------------------------------------------------------------- #
# harness plumbing: run_setting / compare_settings / defaults
# --------------------------------------------------------------------- #
class TestHarnessPlumbing:
    def test_run_setting_fast_tier_end_to_end(self):
        from repro.core.config import P2BConfig
        from repro.experiments.runner import run_setting

        config = P2BConfig(n_actions=N_ACTIONS, n_features=N_FEATURES, n_codes=8)
        env = MultilabelBanditEnvironment(_ML_DATASET, samples_per_user=7, seed=1)
        kwargs = dict(
            n_contributors=10,
            n_eval_agents=8,
            eval_interactions=12,
            seed=0,
        )
        env2 = MultilabelBanditEnvironment(_ML_DATASET, samples_per_user=7, seed=1)
        bit = run_setting(env, config, AgentMode.WARM_PRIVATE, **kwargs)
        fast = run_setting(
            env2,
            config,
            AgentMode.WARM_PRIVATE,
            engine=EngineConfig(exactness="fast"),
            **kwargs,
        )
        assert fast.curve.shape == bit.curve.shape
        assert fast.cumulative_curve.shape == bit.cumulative_curve.shape
        assert abs(fast.mean_reward - bit.mean_reward) <= 0.1
        assert fast.n_reports > 0
