"""Drifting synthetic sessions: epoch semantics + fleet bit-identity.

The drifting workload is piecewise-stationary: within an epoch it obeys
the stationary plan contract, and at every boundary one uniform coin
picks switch vs drift.  An environment plans any horizon of its
sessions in one ``plan_block`` call (a session's ``plan_rewards`` is
the one-session case), walking each session's boundaries inside it and
returning one segment per epoch, so drifting fleet runs — their
reports included — must stay bit-identical to the sequential loop,
however the horizon is split into runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits.linucb import LinUCB
from repro.core import P2BConfig, P2BSystem
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.data import DriftingSyntheticEnvironment, DriftingSyntheticSession
from repro.data.synthetic import SyntheticPreferenceEnvironment, SyntheticUserSession
from repro.sim import FleetRunner
from repro.utils.rng import rng_state_digest, spawn_seeds

from _participation import assert_participation_equal
from _recording import record_counts
from _released import record_released

N_ACTIONS = 4
N_FEATURES = 5
EPOCH = 6
HORIZON = 3 * EPOCH + 2


def _env(**kwargs):
    kwargs.setdefault("epoch_length", EPOCH)
    kwargs.setdefault("seed", 7)
    return DriftingSyntheticEnvironment(n_actions=N_ACTIONS, n_features=N_FEATURES, **kwargs)


def _population(n_agents: int, seed: int):
    env = _env()
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, session_seed = s.spawn(2)
        policy = LinUCB(
            n_arms=N_ACTIONS, n_features=N_FEATURES, alpha=1.0, seed=policy_seed
        )
        agents.append(LocalAgent(f"agent-{i}", policy, mode=AgentMode.COLD))
        sessions.append(env.new_user(session_seed))
    return agents, sessions


def _sequential(agents, sessions, n):
    rewards = np.empty((len(agents), n))
    for u, (agent, session) in enumerate(zip(agents, sessions)):
        for t in range(n):
            x = session.next_context()
            action = agent.act(x)
            r = session.reward(action)
            agent.learn(x, action, r)
            rewards[u, t] = r
    return rewards


def _run_fleet(runner, split):
    """``HORIZON`` as consecutive ``run(split)`` calls (``None`` = one run)."""
    split = split or HORIZON
    results = [runner.run(min(split, HORIZON - start)) for start in range(0, HORIZON, split)]
    return np.concatenate([r.rewards for r in results], axis=1)


def _assert_states_equal(policy_a, policy_b):
    state_a, state_b = policy_a.get_state(), policy_b.get_state()
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        np.testing.assert_array_equal(
            np.asarray(state_a[key]), np.asarray(state_b[key]), err_msg=key
        )


class TestEpochSemantics:
    def test_preference_fixed_within_epoch(self):
        session = _env(switch_prob=1.0).new_user(3)
        first = session.next_context()
        for _ in range(EPOCH - 1):
            np.testing.assert_array_equal(session.next_context(), first)
        # boundary: a switch_prob=1.0 boundary re-draws the preference
        assert not np.array_equal(session.next_context(), first)

    def test_preference_stays_on_simplex(self):
        session = _env(switch_prob=0.0, drift_scale=0.3).new_user(5)
        for _ in range(5 * EPOCH):
            x = session.next_context()
            assert np.all(x >= 0)
            assert np.isclose(x.sum(), 1.0)

    def test_zero_drift_zero_switch_still_consumes_boundary_draws(self):
        """Even a degenerate boundary flips the coin — the RNG discipline
        both engines share."""
        drifting = _env(switch_prob=0.0, drift_scale=0.0).new_user(9)
        first = drifting.next_context()
        for _ in range(3 * EPOCH):
            drifting.next_context()
        # drift of scale 0 keeps |p + 0| / sum = p
        np.testing.assert_allclose(drifting.next_context(), first)


def _boundary_lengths(epoch: int, lead: int, horizon: int) -> list[int]:
    """Segment lengths of steps ``[lead, lead + horizon)``: the step loop
    advances an epoch when step ``k * epoch`` (``k >= 1``) starts."""
    cuts = [t for t in range(lead + 1, lead + horizon) if t % epoch == 0]
    edges = [lead, *cuts, lead + horizon]
    return [b - a for a, b in zip(edges, edges[1:])]


#: (epoch_length, switch_prob, steps walked before the plan, plan horizon)
PLAN_CASES = {
    "mid_epoch": (EPOCH, 0.25, 2, 3),
    "ends_on_boundary": (EPOCH, 0.25, 2, EPOCH - 2),
    "starts_on_boundary": (EPOCH, 0.25, EPOCH, EPOCH),
    "crosses_several": (EPOCH, 0.25, 3, 3 * EPOCH + 2),
    "horizon_1": (EPOCH, 0.25, 4, 1),
    "horizon_1_on_boundary": (EPOCH, 0.25, 2 * EPOCH, 1),
    "epoch_length_1": (1, 0.25, 0, 7),
    "never_switch": (EPOCH, 0.0, 1, 3 * EPOCH),
    "always_switch": (EPOCH, 1.0, 1, 3 * EPOCH),
}


class TestOneCallPlan:
    """One ``plan_rewards(horizon)`` call is the step walk, bit for bit:
    the same contexts, segment boundaries, rewards, means and generator
    state, wherever the horizon starts and ends relative to the epochs."""

    @pytest.mark.parametrize("case", sorted(PLAN_CASES))
    def test_plan_equals_step_walk(self, case):
        epoch, switch_prob, lead, horizon = PLAN_CASES[case]
        env = _env(epoch_length=epoch, switch_prob=switch_prob)
        stepped, planned = env.new_user(4), env.new_user(4)
        actions = np.arange(lead + horizon) % N_ACTIONS
        for session in (stepped, planned):
            for t in range(lead):
                session.next_context()
                session.reward(int(actions[t]))

        contexts, rewards, means = [], [], []
        for t in range(lead, lead + horizon):
            contexts.append(stepped.next_context())
            rewards.append(stepped.reward(int(actions[t])))
            means.append(stepped.expected_rewards())
        plan = planned.plan_rewards(horizon)

        assert plan.lengths.tolist() == _boundary_lengths(epoch, lead, horizon)
        assert plan.noise.shape == (1, horizon)
        np.testing.assert_array_equal(
            np.repeat(plan.contexts, plan.lengths, axis=0), np.asarray(contexts)
        )
        step_means = np.repeat(env.mean_rewards(plan.contexts), plan.lengths, axis=0)
        realized = step_means[np.arange(horizon), actions[lead:]] + plan.noise[0]
        np.testing.assert_array_equal(np.clip(realized, 0.0, 1.0), np.asarray(rewards))
        np.testing.assert_array_equal(step_means, np.asarray(means))
        assert rng_state_digest(planned._rng) == rng_state_digest(stepped._rng)
        assert (planned._t, planned._draws) == (stepped._t, stepped._draws)
        # both continue in sync, across a boundary the horizon ended on
        np.testing.assert_array_equal(planned.next_context(), stepped.next_context())
        assert planned.reward(1) == stepped.reward(1)
        np.testing.assert_array_equal(planned.expected_rewards(), stepped.expected_rewards())

    def test_boundaries_update_only_the_preference(self, monkeypatch):
        """Epoch boundaries compute no means; ``reward`` computes them
        once per epoch, on first use."""
        calls = []
        real = SyntheticPreferenceEnvironment.mean_rewards
        monkeypatch.setattr(
            SyntheticPreferenceEnvironment,
            "mean_rewards",
            lambda self, x: calls.append(np.shape(x)) or real(self, x),
        )
        session = _env().new_user(3)
        session.plan_rewards(3 * EPOCH)
        for _ in range(3 * EPOCH):
            session.next_context()
        assert calls == []
        for _ in range(2 * EPOCH):
            session.next_context()
            session.reward(0)
        assert calls == [(N_FEATURES,)] * 2


class TestFleetBitIdentity:
    @pytest.mark.parametrize("split", [None, 1, 3, EPOCH, EPOCH + 5, 64])
    def test_fleet_matches_sequential_across_split_runs(self, split):
        """The horizon as consecutive ``run(split)`` calls on one held
        fleet (``None`` = one run), with run boundaries before, at and
        after the drift boundaries: boundaries walked inside one plan
        and run re-plans compose exactly."""
        seq_agents, seq_sessions = _population(5, seed=17)
        fleet_agents, fleet_sessions = _population(5, seed=17)

        seq_rewards = _sequential(seq_agents, seq_sessions, HORIZON)
        rewards = _run_fleet(FleetRunner(fleet_agents, fleet_sessions), split)

        np.testing.assert_array_equal(seq_rewards, rewards)
        for a, b in zip(seq_agents, fleet_agents):
            _assert_states_equal(a.policy, b.policy)

    def test_mixed_drifting_and_stationary_population(self):
        """Drifting agents shard with stationary ones; both stay exact."""
        from repro.data.synthetic import SyntheticPreferenceEnvironment

        stationary_env = SyntheticPreferenceEnvironment(
            n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
        )

        def build():
            agents, sessions = _population(3, seed=23)
            for i, s in enumerate(spawn_seeds(99, 3)):
                policy_seed, session_seed = s.spawn(2)
                agents.append(
                    LocalAgent(
                        f"stat-{i}",
                        LinUCB(
                            n_arms=N_ACTIONS,
                            n_features=N_FEATURES,
                            alpha=1.0,
                            seed=policy_seed,
                        ),
                        mode=AgentMode.COLD,
                    )
                )
                sessions.append(stationary_env.new_user(session_seed))
            return agents, sessions

        seq_agents, seq_sessions = build()
        fleet_agents, fleet_sessions = build()
        seq_rewards = _sequential(seq_agents, seq_sessions, 2 * EPOCH)
        # three runs of 4 on one held fleet: run boundaries fall between
        # the drift boundaries
        runner = FleetRunner(fleet_agents, fleet_sessions)
        rewards = np.concatenate([runner.run(4).rewards for _ in range(3)], axis=1)
        np.testing.assert_array_equal(seq_rewards, rewards)


# --------------------------------------------------------------------- #
# the reporting side: warm-private drifting users on the columnar path
# --------------------------------------------------------------------- #
WINDOW = 4  # does not divide EPOCH: sampled items straddle drift boundaries

#: which sessions share the one warm-private shard
SHARD_ENVS = {
    "drifting": lambda: [_env()],
    "mixed": lambda: [
        _env(),
        SyntheticPreferenceEnvironment(n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7),
    ],
    "two_clocks": lambda: [_env(), _env(epoch_length=4)],
    # a different W: the shard computes means in one call per environment
    "two_environments": lambda: [_env(), _env(epoch_length=4, seed=8)],
}


def _warm_population(kind: str, n_agents: int = 8, seed: int = 3):
    config = P2BConfig(
        n_actions=N_ACTIONS,
        n_features=N_FEATURES,
        n_codes=8,
        p=0.8,
        window=WINDOW,
        shuffler_threshold=1,
        max_reports_per_user=50,
    )
    system = P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=seed)
    envs = SHARD_ENVS[kind]()
    agents = [system.new_agent() for _ in range(n_agents)]
    sessions = [
        envs[i % len(envs)].new_user(s) for i, s in enumerate(spawn_seeds(seed + 1, n_agents))
    ]
    return system, agents, sessions


def _assert_reporting_identical(seq, fleet):
    """Outboxes, participation state and the collection round, bitwise."""
    (s_sys, s_agents), (f_sys, f_agents) = seq, fleet
    for sa, fa in zip(s_agents, f_agents):
        assert sa.n_interactions == fa.n_interactions
        assert sa.total_reward == fa.total_reward
        _assert_states_equal(sa.policy, fa.policy)
        # same keyed coin stream, advanced to the same counter
        assert sa.participation._key == fa.participation._key
        assert_participation_equal(sa.participation, fa.participation, sa.agent_id)
        assert (sa.policy._key, sa.policy._draws) == (fa.policy._key, fa.policy._draws)
    # the object view leaves the rows in place for the collection round
    for sa, fa in zip(s_agents, f_agents):
        assert sa.outbox == fa.outbox  # code, action, reward, order
        assert [r.metadata for r in sa.outbox] == [r.metadata for r in fa.outbox]
    released_s, released_f = record_released(s_sys), record_released(f_sys)
    out_s, out_f = s_sys.collect(s_agents), f_sys.collect(f_agents)
    assert out_s == out_f and out_f.n_released > 0
    assert released_s == released_f  # same tuples, same order
    assert s_sys.privacy_report() == f_sys.privacy_report()
    _assert_states_equal(s_sys.server.policy, f_sys.server.policy)


class TestDriftingReports:
    @pytest.mark.parametrize("kind", sorted(SHARD_ENVS))
    @pytest.mark.parametrize("split", [None, 1, 3, EPOCH, EPOCH + 5])
    def test_reports_match_sequential_across_split_runs(self, kind, split, monkeypatch):
        """Warm-private drifting users record columnar: the drained
        reports, participation windows and budgets, and the shuffler's
        output equal the sequential loop's — with run boundaries before,
        at and after drift boundaries, window boundaries straddling
        both, a shard mixing drifting and stationary users, a shard
        running two drift clocks and one over two environments."""
        s_sys, s_agents, s_sessions = _warm_population(kind)
        f_sys, f_agents, f_sessions = _warm_population(kind)
        seq_rewards = _sequential(s_agents, s_sessions, HORIZON)
        runner = FleetRunner(f_agents, f_sessions)
        assert runner.n_shards == 1
        counts = record_counts(monkeypatch)
        fleet_rewards = _run_fleet(runner, split)
        # the columnar recording must actually be engaged, not a fallback
        assert counts == {"objects": 0, "record_interaction": 0}
        np.testing.assert_array_equal(seq_rewards, fleet_rewards)
        _assert_reporting_identical((s_sys, s_agents), (f_sys, f_agents))

    def test_drifting_shards_never_call_record_interaction(self, monkeypatch):
        def boom(self, *args, **kwargs):  # pragma: no cover - should never run
            raise AssertionError("record_interaction called on a plan shard")

        system, agents, sessions = _warm_population("two_clocks")
        monkeypatch.setattr(LocalAgent, "record_interaction", boom)
        FleetRunner(agents, sessions).run(HORIZON)
        assert len(system.report_log) > 0


class TestPlanCalls:
    @pytest.mark.parametrize("kind", ["mixed", "two_environments"])
    @pytest.mark.parametrize("split", [None, EPOCH + 1])
    def test_one_plan_block_and_one_means_call_per_environment(self, kind, split, monkeypatch):
        """Each run plans each environment's sessions in one
        ``plan_block`` call, however many drift boundaries it crosses,
        with no per-session ``plan_rewards`` call, and computes the
        shard's means in one batched call per environment — none per
        boundary."""
        blocks, plans, means = [], [], []
        real_block = SyntheticPreferenceEnvironment.plan_block  # drifting inherits it
        monkeypatch.setattr(
            SyntheticPreferenceEnvironment,
            "plan_block",
            lambda self, members, h: blocks.append((id(self), len(members), h))
            or real_block(self, members, h),
        )
        for cls in (SyntheticUserSession, DriftingSyntheticSession):
            real_plan = cls.plan_rewards
            monkeypatch.setattr(
                cls,
                "plan_rewards",
                lambda self, h, real=real_plan: plans.append(h) or real(self, h),
            )
        real_means = SyntheticPreferenceEnvironment.mean_rewards
        monkeypatch.setattr(
            SyntheticPreferenceEnvironment,
            "mean_rewards",
            lambda self, x: means.append(np.ndim(x)) or real_means(self, x),
        )
        _, agents, sessions = _warm_population(kind)
        runner = FleetRunner(agents, sessions)
        split = split or HORIZON
        for run, start in enumerate(range(0, HORIZON, split), 1):
            horizon = min(split, HORIZON - start)
            runner.run(horizon)
            assert len(blocks) == 2 * run  # two environments, one block each
            last = blocks[-2:]
            assert len({env for env, _, _ in last}) == 2
            assert sum(n for _, n, _ in last) == len(agents)
            assert all(h == horizon for _, _, h in last)
            assert plans == []  # no per-session plan call
            assert means == [2] * (2 * run)  # two environments, batched

    @pytest.mark.parametrize("kind", ["mixed", "two_environments"])
    def test_encode_cache_holds_each_agents_latest_context(self, kind):
        """A shard over interleaved environments plans group by group;
        its acting-encoding cache must still map each agent to its own
        latest context, or the next run re-encodes (or, across
        encoders, reuses) another agent's code."""
        _, agents, sessions = _warm_population(kind)
        runner = FleetRunner(agents, sessions)
        for horizon in (EPOCH + 1, EPOCH):
            runner.run(horizon)
            (shard,) = runner._shards.values()
            assert shard._cache_valid.all()
            for j, session in enumerate(shard.sessions):
                np.testing.assert_array_equal(shard._cached_ctx[j], session.preference)
                code = shard.agents[j].encoder.encode(session.preference)
                assert shard._cached_code[j] == code
