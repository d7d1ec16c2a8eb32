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

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bandits import CodeLinUCB, LinUCB
from repro.core import P2BConfig, P2BSystem, RandomizedParticipation
from repro.core.config import AgentMode
from repro.core.payload import ReportLog, drain_report_batches
from repro.core.rounds import DeploymentLoop
from repro.data.multilabel import MultilabelBanditEnvironment, make_multilabel_dataset
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments.runner import _simulate_agent, run_setting
from repro.sim import FleetRunner
from repro.utils.rng import spawn_seeds

from _participation import assert_participation_equal
from _recording import assert_pending_rows_equal, record_counts
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
            assert counts == {"record_interaction": 0}
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

        s_enc, _ = drain_report_batches(s_agents)
        *released_s, stats_s = s_sys.shuffler.process_arrays(
            s_enc.codes, s_enc.actions, s_enc.rewards
        )
        enc, raw = drain_report_batches(f_agents)
        assert len(raw) == 0 and len(enc) == len(s_enc) > 0
        *released_f, stats_f = f_sys.shuffler.process_arrays(enc.codes, enc.actions, enc.rewards)
        assert stats_s == stats_f
        for got, want in zip(released_f, released_s):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

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
        however many it has seen: the sequential path hands its
        participation only the interaction the window keeps, and a
        fleet device's held item after two runs inside one window is its
        one row of the held-item columns, equal to the sequential one."""
        config = _config(window=40, p=0.9)
        s_sys, s_agents, s_sessions = _system_population(AgentMode.WARM_PRIVATE, config)
        f_sys, f_agents, f_sessions = _system_population(AgentMode.WARM_PRIVATE, config)
        offered: dict[int, list] = {}
        offer = RandomizedParticipation.offer

        def watched(self, item):
            offered.setdefault(id(self), []).append(item)
            return offer(self, item)

        monkeypatch.setattr(RandomizedParticipation, "offer", watched)
        for a, s in zip(s_agents, s_sessions):
            _simulate_agent(a, s, HORIZON)
        monkeypatch.undo()
        runner = FleetRunner(f_agents, f_sessions)
        runner.run(HORIZON // 2)
        runner.run(HORIZON - HORIZON // 2)
        for sa, fa in zip(s_agents, f_agents):
            items = offered[id(sa.participation)]
            assert len(items) == HORIZON
            assert sum(item is not None for item in items) <= 1
            assert fa.participation.fill == HORIZON
            assert_participation_equal(sa.participation, fa.participation, sa.agent_id)
        held = [a.participation.held for a in f_agents]
        assert any(h is not None for h in held)
        # a warm-private device holds its item's code, not its context
        assert all(type(h[0]) is int for h in held if h is not None)

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
        (chunk rows) in one store: they drain to one batch in per-agent
        append order and still match the all-sequential reference exactly."""
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
        assert counts == {"record_interaction": 0}
        assert 0 < n_prefix < len(f_sys.report_log)
        _assert_collect_identical((s_sys, s_agents), (f_sys, f_agents))


class TestFleetAndScalarAlternate:
    """The held shard's columns are the members' state, so a population
    may step through fleet runs and scalar ``record_interaction`` calls
    in any order: every boundary leaves the all-sequential state."""

    @pytest.mark.parametrize(
        "mode", [AgentMode.WARM_PRIVATE, AgentMode.WARM_NONPRIVATE, AgentMode.COLD]
    )
    def test_alternation_matches_all_sequential(self, mode):
        config = _config(window=5, p=0.8, max_reports_per_user=6, shuffler_threshold=1)
        s_sys, s_agents, s_sessions = _system_population(mode, config)
        f_sys, f_agents, f_sessions = _system_population(mode, config)
        held = FleetRunner(f_agents, f_sessions)
        half = slice(0, N_AGENTS, 2)

        def scalar(agents, sessions, n):
            for a, s in zip(agents, sessions):
                _simulate_agent(a, s, n)

        # (fleet step, steps, the agents it moves); windows of 5 straddle
        # every boundary below
        plan = [
            (lambda n: held.run(n), 3, slice(None)),
            (lambda n: scalar(f_agents, f_sessions, n), 4, slice(None)),
            (lambda n: held.run(n), 6, slice(None)),
            (lambda n: scalar(f_agents[half], f_sessions[half], n), 2, half),
            # a second runner takes every row; the held one gathers back
            (lambda n: FleetRunner(f_agents, f_sessions).run(n), 4, slice(None)),
            (lambda n: held.run(n), 2, slice(None)),
            (lambda n: held.run_subset(f_agents[half], n), 3, half),
            (lambda n: held.run(n), 4, slice(None)),
        ]
        open_windows = 0
        for step, n, moved in plan:
            step(n)
            scalar(s_agents[moved], s_sessions[moved], n)
            for sa, fa in zip(s_agents, f_agents):
                assert (sa.n_interactions, sa.total_reward) == (
                    fa.n_interactions,
                    fa.total_reward,
                ), sa.agent_id
                if sa.participation is not None:
                    assert_participation_equal(sa.participation, fa.participation, sa.agent_id)
                    open_windows += fa.participation.fill > 0
            assert_pending_rows_equal(s_agents, f_agents)
        for sa, fa in zip(s_agents, f_agents):
            assert_states_equal(sa.policy, fa.policy, sa.agent_id)
        if mode != AgentMode.COLD:
            assert open_windows > 0
        _assert_collect_identical((s_sys, s_agents), (f_sys, f_agents))


class TestPendingRowsRead:
    @pytest.mark.parametrize("mode", [AgentMode.WARM_PRIVATE, AgentMode.WARM_NONPRIVATE])
    def test_reading_rows_leaves_collection_unchanged(self, mode):
        """``ReportLog.rows`` is read-only: reading every agent's rows
        twice and then collecting releases the same tuples, with the
        same ShufflerStats and server state, as collecting unread."""
        config = _config(shuffler_threshold=1)
        a_sys, a_agents, a_sessions = _system_population(mode, config)
        b_sys, b_agents, b_sessions = _system_population(mode, config)
        for agents, sessions in ((a_agents, a_sessions), (b_agents, b_sessions)):
            _simulate_agent(agents[0], sessions[0], 4)  # scalar rows, then chunk rows
            FleetRunner(agents, sessions).run(HORIZON)
        n_read = sum(len(b_sys.report_log.rows(a.report_row)) for a in b_agents)
        assert_pending_rows_equal(b_agents, b_agents)  # a second read of every row
        assert n_read > 0 and len(b_sys.report_log) == len(a_sys.report_log)
        out = _assert_collect_identical((a_sys, a_agents), (b_sys, b_agents))
        assert out.n_reports == n_read

    @pytest.mark.parametrize(
        "column, change",
        [
            ("codes", {"code": 2}),
            ("rewards", {"reward": np.nextafter(0.1, 1.0)}),
            ("interaction_indices", {"index": 5}),
        ],
    )
    def test_rows_helper_compares_bits(self, column, change):
        """``assert_pending_rows_equal`` compares bits: one changed code,
        a reward one ulp off or a shifted interaction index fails it."""

        def agent(code=3, reward=0.1, index=4):
            log = ReportLog("encoded")
            log.append([0], [code], [1], [reward], [index])
            return SimpleNamespace(report_log=log, report_row=0)

        assert_pending_rows_equal([agent()], [agent()])
        with pytest.raises(AssertionError, match=column):
            assert_pending_rows_equal([agent()], [agent(**change)])


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
        assert counts == {"record_interaction": 0}
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
        assert len(f_sys.report_log) > 0

    def test_central_policy_used(self):
        # sanity: warm-private populations stack CodeLinUCB / LinUCB
        config = _config()
        system = P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=0)
        agent = system.new_agent()
        assert isinstance(agent.policy, (CodeLinUCB, LinUCB))
