"""The columnar reporting pipeline vs the sequential object reference.

PR 4's tentpole contract: when a plan-capable shard records reports
columnar-side (StackedParticipation masks + ReportLog arrays) and the
collection round flows arrays end-to-end (``drain_report_batches`` →
``Shuffler.process_arrays`` → ``ingest_arrays``), every observable is
*bit-identical* to the sequential object path:

* the released tuple stream — same tuples, same order (the shuffler
  permutes an identically ordered batch with an identical draw);
* ``ShufflerStats`` and the crowd-blending audit;
* the central server's policy state and counters;
* per-agent RNG streams, counters, report budgets and the open
  participation windows (fill, pick, held item) left behind for future
  (object-path) rounds;
* multi-round ``DeploymentLoop`` trajectories, refusals, window
  straddling and budget exhaustion included.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.bandits import CodeLinUCB, LinUCB
from repro.core import P2BConfig, P2BSystem, RandomizedParticipation
from repro.core.config import AgentMode
from repro.core.payload import drain_report_batches
from repro.core.rounds import DeploymentLoop
from repro.data.multilabel import MultilabelBanditEnvironment, make_multilabel_dataset
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments.runner import _simulate_agent, run_setting
from repro.sim import FleetRunner
from repro.utils.rng import spawn_seeds

from _participation import assert_participation_equal
from _recording import record_counts
from _released import record_released
from _testkit import assert_states_equal

N_AGENTS = 30
HORIZON = 12


def _config(**overrides):
    base = dict(
        n_actions=3,
        n_features=4,
        n_codes=6,
        q=1,
        p=0.7,
        window=3,
        shuffler_threshold=2,
        max_reports_per_user=2,
    )
    base.update(overrides)
    return P2BConfig(**base)


def _system_population(mode, config, seed=0, n_agents=N_AGENTS, env_seed=7):
    system = P2BSystem(config, mode=mode, seed=seed)
    env = SyntheticPreferenceEnvironment(n_actions=3, n_features=4, seed=env_seed)
    agents = [system.new_agent() for _ in range(n_agents)]
    sessions = [env.new_user(s) for s in spawn_seeds(seed + 1, n_agents)]
    return system, agents, sessions


def _arrays_reachable(obj) -> int:
    """Arrays reachable from ``obj``'s attributes through containers."""
    count, seen, stack = 0, set(), [vars(obj)]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            count += 1
        elif isinstance(o, (list, tuple, dict)):
            stack.extend(gc.get_referents(o))
    return count


def _assert_collect_identical(seq, fleet):
    """Run both systems' collection rounds and pin every observable."""
    s_sys, s_agents = seq
    f_sys, f_agents = fleet
    private = s_sys.mode == AgentMode.WARM_PRIVATE
    released = [record_released(s) if private else [] for s in (s_sys, f_sys)]
    out_s = s_sys.collect(s_agents)
    out_f = f_sys.collect(f_agents)
    assert out_s == out_f
    assert released[0] == released[1]  # same tuples, same order
    if s_sys.server is not None:
        assert s_sys.server.n_tuples_ingested == f_sys.server.n_tuples_ingested
        assert s_sys.server.n_batches == f_sys.server.n_batches
        assert_states_equal(s_sys.server.policy, f_sys.server.policy, "server")
    if s_sys.mode == AgentMode.WARM_PRIVATE:
        assert s_sys.privacy_report() == f_sys.privacy_report()
    for sa, fa in zip(s_agents, f_agents):
        assert sa.n_interactions == fa.n_interactions
        assert sa.total_reward == fa.total_reward
        if sa.participation is not None:
            # same keyed coin stream, advanced to the same counter
            assert sa.participation._key == fa.participation._key
            assert_participation_equal(sa.participation, fa.participation, sa.agent_id)
    return out_f


class TestColumnarCollectGolden:
    @pytest.mark.parametrize(
        "mode",
        [AgentMode.WARM_PRIVATE, AgentMode.WARM_NONPRIVATE, AgentMode.COLD],
    )
    def test_collect_matches_sequential(self, mode, monkeypatch):
        config = _config()
        s_sys, s_agents, s_sessions = _system_population(mode, config)
        f_sys, f_agents, f_sessions = _system_population(mode, config)
        for a, s in zip(s_agents, s_sessions):
            _simulate_agent(a, s, HORIZON)
        counts = record_counts(monkeypatch)
        FleetRunner(f_agents, f_sessions).run(HORIZON)
        if mode != AgentMode.COLD:
            # the fast path must actually be engaged, not a fallback
            assert counts == {"objects": 0, "record_interaction": 0}
            assert len(f_sys.report_log) > 0
        _assert_collect_identical((s_sys, s_agents), (f_sys, f_agents))

    def test_centroid_context_collect(self):
        config = _config(private_context="centroid")
        s_sys, s_agents, s_sessions = _system_population(AgentMode.WARM_PRIVATE, config)
        f_sys, f_agents, f_sessions = _system_population(AgentMode.WARM_PRIVATE, config)
        for a, s in zip(s_agents, s_sessions):
            _simulate_agent(a, s, HORIZON)
        FleetRunner(f_agents, f_sessions).run(HORIZON)
        out = _assert_collect_identical((s_sys, s_agents), (f_sys, f_agents))
        assert out.n_reports > 0

    def test_released_stream_order_identical(self):
        """Not just multiset equality: the released order matches,
        because the pre-shuffle batch order and permutation draw do."""
        config = _config(shuffler_threshold=1, max_reports_per_user=3)
        s_sys, s_agents, s_sessions = _system_population(AgentMode.WARM_PRIVATE, config)
        f_sys, f_agents, f_sessions = _system_population(AgentMode.WARM_PRIVATE, config)
        for a, s in zip(s_agents, s_sessions):
            _simulate_agent(a, s, HORIZON)
        FleetRunner(f_agents, f_sessions).run(HORIZON)

        seq_reports = [r for a in s_agents for r in a.drain_outbox()]
        released, stats_s = s_sys.shuffler.process(seq_reports)
        batches = drain_report_batches(f_agents)
        assert batches is not None
        enc, raw = batches
        assert len(raw) == 0 and len(enc) == len(seq_reports)
        codes, actions, rewards, stats_f = f_sys.shuffler.process_arrays(
            enc.codes, enc.actions, enc.rewards
        )
        assert stats_s == stats_f
        assert [r.tuple3 for r in released] == [
            (int(c), int(a), float(r)) for c, a, r in zip(codes, actions, rewards)
        ]

    def test_refusals_and_exhaustion(self):
        """p = 0 (all refusals) and tight budgets behave identically."""
        for overrides in ({"p": 0.0}, {"max_reports_per_user": 1, "p": 0.95}):
            config = _config(**overrides)
            s_sys, s_agents, s_sessions = _system_population(
                AgentMode.WARM_PRIVATE, config
            )
            f_sys, f_agents, f_sessions = _system_population(
                AgentMode.WARM_PRIVATE, config
            )
            for a, s in zip(s_agents, s_sessions):
                _simulate_agent(a, s, HORIZON)
            FleetRunner(f_agents, f_sessions).run(HORIZON)
            out = _assert_collect_identical((s_sys, s_agents), (f_sys, f_agents))
            if overrides.get("p") == 0.0:
                assert out.n_reports == 0

    def test_window_longer_than_horizon(self):
        config = _config(window=40)
        s_sys, s_agents, s_sessions = _system_population(AgentMode.WARM_PRIVATE, config)
        f_sys, f_agents, f_sessions = _system_population(AgentMode.WARM_PRIVATE, config)
        for a, s in zip(s_agents, s_sessions):
            _simulate_agent(a, s, HORIZON)
        FleetRunner(f_agents, f_sessions).run(HORIZON)
        out = _assert_collect_identical((s_sys, s_agents), (f_sys, f_agents))
        assert out.n_reports == 0
        # the partial windows survive identically for future rounds
        assert all(a.participation.fill == HORIZON for a in f_agents)

    def test_run_shorter_than_window_holds_one_item(self, monkeypatch):
        """A device holds at most one interaction of its open window,
        however many it has seen: offered contexts on the sequential
        path die unless picked, and a fleet agent's participation state
        reaches at most one context after two runs inside one window."""
        config = _config(window=40, p=0.9)
        s_sys, s_agents, s_sessions = _system_population(AgentMode.WARM_PRIVATE, config)
        f_sys, f_agents, f_sessions = _system_population(AgentMode.WARM_PRIVATE, config)
        offered: dict[int, list] = {}
        offer = RandomizedParticipation.offer

        def watched(self, item):
            offered.setdefault(id(self), []).append(weakref.ref(item[0]))
            return offer(self, item)

        monkeypatch.setattr(RandomizedParticipation, "offer", watched)
        for a, s in zip(s_agents, s_sessions):
            _simulate_agent(a, s, HORIZON)
        monkeypatch.undo()
        runner = FleetRunner(f_agents, f_sessions)
        runner.run(HORIZON // 2)
        runner.run(HORIZON - HORIZON // 2)
        gc.collect()
        for sa, fa in zip(s_agents, f_agents):
            refs = offered[id(sa.participation)]
            assert len(refs) == HORIZON
            assert sum(r() is not None for r in refs) <= 1
            assert fa.participation.fill == HORIZON
            assert _arrays_reachable(fa.participation) <= 1
            assert_participation_equal(sa.participation, fa.participation, sa.agent_id)
        assert any(a.participation._held is not None for a in f_agents)

    def test_two_fleet_runs_before_collect(self):
        """Windows straddling two runs: the second run adopts partial
        windows and its first boundary can report a pre-run item."""
        config = _config(window=5, p=0.8, max_reports_per_user=4, shuffler_threshold=1)
        s_sys, s_agents, s_sessions = _system_population(AgentMode.WARM_PRIVATE, config)
        f_sys, f_agents, f_sessions = _system_population(AgentMode.WARM_PRIVATE, config)
        for a, s in zip(s_agents, s_sessions):
            _simulate_agent(a, s, 7)
            _simulate_agent(a, s, 6)
        FleetRunner(f_agents, f_sessions).run(7)
        FleetRunner(f_agents, f_sessions).run(6)
        _assert_collect_identical((s_sys, s_agents), (f_sys, f_agents))

    def test_object_path_interleaving(self, monkeypatch):
        """A sequential prefix (scalar rows) followed by a fleet run
        (chunk rows) in one store: they drain to one batch in outbox
        order and still match the all-sequential reference exactly."""
        config = _config(shuffler_threshold=1)
        s_sys, s_agents, s_sessions = _system_population(AgentMode.WARM_PRIVATE, config)
        f_sys, f_agents, f_sessions = _system_population(AgentMode.WARM_PRIVATE, config)
        for a, s in zip(s_agents, s_sessions):
            _simulate_agent(a, s, 5)
            _simulate_agent(a, s, HORIZON)
        for a, s in zip(f_agents, f_sessions):
            _simulate_agent(a, s, 5)  # scalar-path prefix
        n_prefix = len(f_sys.report_log)
        counts = record_counts(monkeypatch)
        FleetRunner(f_agents, f_sessions).run(HORIZON)
        assert counts == {"objects": 0, "record_interaction": 0}
        assert 0 < n_prefix < len(f_sys.report_log)
        _assert_collect_identical((s_sys, s_agents), (f_sys, f_agents))


class TestOutboxView:
    @pytest.mark.parametrize("mode", [AgentMode.WARM_PRIVATE, AgentMode.WARM_NONPRIVATE])
    def test_reading_outbox_leaves_collection_unchanged(self, mode):
        """The object view is read-only: reading every outbox twice and
        then collecting releases the same tuples, with the same
        ShufflerStats and server state, as collecting unread."""
        config = _config(shuffler_threshold=1)
        a_sys, a_agents, a_sessions = _system_population(mode, config)
        b_sys, b_agents, b_sessions = _system_population(mode, config)
        for agents, sessions in ((a_agents, a_sessions), (b_agents, b_sessions)):
            _simulate_agent(agents[0], sessions[0], 4)  # scalar rows, then chunk rows
            FleetRunner(agents, sessions).run(HORIZON)
        views = [[a.outbox for a in b_agents] for _ in range(2)]
        assert views[0] == views[1] and any(views[0])
        assert len(b_sys.report_log) == len(a_sys.report_log)
        out = _assert_collect_identical((a_sys, a_agents), (b_sys, b_agents))
        assert out.n_reports == sum(len(box) for box in views[0])


class TestColumnarTracedSessions:
    def test_multilabel_replay_collect(self, monkeypatch):
        ds = make_multilabel_dataset(80, 4, 3, n_clusters=3, seed=17)

        def build():
            config = _config(shuffler_threshold=1)
            system = P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=5)
            env = MultilabelBanditEnvironment(ds, samples_per_user=5, seed=2)
            agents = [system.new_agent() for _ in range(20)]
            sessions = [env.new_user(s) for s in spawn_seeds(6, 20)]
            return system, agents, sessions

        s_sys, s_agents, s_sessions = build()
        f_sys, f_agents, f_sessions = build()
        for a, s in zip(s_agents, s_sessions):
            _simulate_agent(a, s, 10)
        counts = record_counts(monkeypatch)
        FleetRunner(f_agents, f_sessions).run(10)
        assert counts == {"objects": 0, "record_interaction": 0}
        _assert_collect_identical((s_sys, s_agents), (f_sys, f_agents))


class TestColumnarDeploymentLoop:
    @pytest.mark.parametrize("refresh", [True, False])
    def test_multi_round_loop_identical(self, refresh):
        def run(engine):
            config = _config(max_reports_per_user=3)
            env = SyntheticPreferenceEnvironment(n_actions=3, n_features=4, seed=11)
            loop = DeploymentLoop(
                config,
                env,
                interactions_per_round=5,
                refresh=refresh,
                seed=5,
                engine=engine,
            )
            loop.enroll(20)
            stats = [loop.run_round(new_users=(3 if i == 1 else 0)) for i in range(4)]
            return loop, stats

        seq_loop, seq_stats = run("sequential")
        fleet_loop, fleet_stats = run("fleet")
        assert seq_stats == fleet_stats
        assert seq_loop.privacy_report() == fleet_loop.privacy_report()
        assert_states_equal(
            seq_loop.system.server.policy, fleet_loop.system.server.policy, "central"
        )

    def test_run_setting_collection_round_columnar(self):
        """run_setting's contribution-phase collect stays bit-identical
        across engines (it takes the columnar path under fleet)."""
        env_seed = 13

        def run(engine):
            env = SyntheticPreferenceEnvironment(n_actions=3, n_features=4, seed=env_seed)
            return run_setting(
                env,
                _config(),
                AgentMode.WARM_PRIVATE,
                n_contributors=25,
                n_eval_agents=8,
                eval_interactions=6,
                seed=3,
                engine=engine,
            )

        seq = run("sequential")
        fleet = run("fleet")
        assert seq.n_reports == fleet.n_reports
        assert seq.n_released == fleet.n_released
        assert seq.privacy == fleet.privacy
        np.testing.assert_array_equal(seq.curve, fleet.curve)


class TestNoPerAgentRecordLoop:
    def test_plan_shards_never_call_record_interaction(self, monkeypatch):
        """The acceptance criterion, enforced mechanically: stepping a
        plan-capable shard must not touch LocalAgent.record_interaction."""
        from repro.core.agent import LocalAgent

        def boom(self, *args, **kwargs):  # pragma: no cover - should never run
            raise AssertionError("record_interaction called on the columnar path")

        config = _config()
        f_sys, f_agents, f_sessions = _system_population(
            AgentMode.WARM_PRIVATE, config, n_agents=10
        )
        monkeypatch.setattr(LocalAgent, "record_interaction", boom)
        FleetRunner(f_agents, f_sessions).run(HORIZON)
        assert sum(len(a.outbox) for a in f_agents) > 0

    def test_central_policy_used(self):
        # sanity: warm-private populations stack CodeLinUCB / LinUCB
        config = _config()
        system = P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=0)
        agent = system.new_agent()
        assert isinstance(agent.policy, (CodeLinUCB, LinUCB))
