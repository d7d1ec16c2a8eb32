"""Checkpoint/resume: a killed run restarts bit-identically.

The golden test: run a horizon with checkpointing, crash mid-horizon
(the dispatcher raises partway through), resume from the snapshot —
rewards, actions and every policy's state must equal the run that was
never interrupted.  Pinned across worker counts, exactness tiers and
uninterrupted references that ran as consecutive split runs.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bandits import UCB1, EpsilonGreedy, LinearThompsonSampling, LinUCB
from repro.core.agent import LocalAgent
from repro.data.multilabel import MultilabelBanditEnvironment, make_multilabel_dataset
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.sim import CHECKPOINT_VERSION, EngineConfig, FleetRunner, load_checkpoint
from repro.sim.checkpoint import CHECKPOINT_MAGIC, save_checkpoint
from repro.utils.exceptions import CheckpointError, ConfigError
from repro.utils.rng import spawn_seeds
from repro.utils.serialization import state_from_bytes, state_to_bytes

from _participation import assert_participation_equal
from _recording import assert_pending_rows_equal
from _testkit import assert_states_equal, join_runs, run_split

N_ACTIONS = 4
N_FEATURES = 5


def _population(seed, n_agents=9):
    env = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
    )
    kinds = [LinUCB, EpsilonGreedy, UCB1]
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, session_seed = s.spawn(2)
        policy = kinds[i % 3](n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed)
        agents.append(LocalAgent(f"u{i}", policy, mode="cold"))
        sessions.append(env.new_user(session_seed))
    return agents, sessions


def _thompson_population(seed, n_agents=4):
    env = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
    )
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, session_seed = s.spawn(2)
        policy = LinearThompsonSampling(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed)
        agents.append(LocalAgent(f"u{i}", policy, mode="cold"))
        sessions.append(env.new_user(session_seed))
    return agents, sessions


_ML_DATASET = make_multilabel_dataset(90, N_FEATURES, N_ACTIONS, n_clusters=4, seed=0)
_ML_DATASET_B = make_multilabel_dataset(70, N_FEATURES, N_ACTIONS, n_clusters=3, seed=4)


def _traced_population(seed, n_agents=6, n_datasets=1):
    """Multilabel (trace-plan) sessions; with two datasets the agents
    alternate between them, so each shard concatenates two tables."""
    envs = [
        MultilabelBanditEnvironment(dataset, samples_per_user=6, seed=1)
        for dataset in (_ML_DATASET, _ML_DATASET_B)[:n_datasets]
    ]
    kinds = [LinUCB, EpsilonGreedy, UCB1]
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, session_seed = s.spawn(2)
        policy = kinds[i % 3](n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed)
        agents.append(LocalAgent(f"u{i}", policy, mode="cold"))
        sessions.append(envs[i % n_datasets].new_user(session_seed))
    return agents, sessions


def _crash_on_call(monkeypatch, n):
    """Patch the shard runner to die on its n-th call, then run clean."""
    real = FleetRunner._run_thread
    calls = {"n": 0}

    def crashing(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == n:
            raise RuntimeError("simulated crash")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FleetRunner, "_run_thread", crashing)
    return lambda: monkeypatch.setattr(FleetRunner, "_run_thread", real)


def _assert_run_identical(base, resumed_result, agents_base, agents_resumed):
    np.testing.assert_array_equal(base.rewards, resumed_result.rewards)
    np.testing.assert_array_equal(base.actions, resumed_result.actions)
    for a, b in zip(agents_base, agents_resumed):
        assert_states_equal(a.policy, b.policy, a.agent_id)
    assert_pending_rows_equal(agents_base, agents_resumed)


class TestGoldenCrashAndResume:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_crash_mid_horizon_resumes_bit_identically(
        self, n_workers, tmp_path, monkeypatch
    ):
        path = tmp_path / "fleet.ckpt"
        agents_a, sessions_a = _population(0)
        base = FleetRunner(agents_a, sessions_a, config=EngineConfig(n_workers=n_workers)).run(12)

        agents_b, sessions_b = _population(0)
        runner = FleetRunner(agents_b, sessions_b, config=EngineConfig(n_workers=n_workers))
        # 12 rounds at every=4 => 3 segments; the crash lands in the
        # third, after two snapshots are already on disk
        restore = _crash_on_call(monkeypatch, 3)
        with pytest.raises(RuntimeError, match="simulated crash"):
            runner.run(12, checkpoint_every=4, checkpoint_path=path)
        restore()

        ckpt = load_checkpoint(path)
        assert ckpt.completed == 8 and ckpt.n_interactions == 12
        resumed = FleetRunner.resume(path)
        result = resumed.resume_run()
        _assert_run_identical(base, result, agents_a, resumed.agents)

    def test_resume_of_finished_run_returns_the_saved_result(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        agents, sessions = _population(1)
        full = FleetRunner(agents, sessions).run(6, checkpoint_every=3, checkpoint_path=path)
        replay = FleetRunner.resume(path).resume_run()
        np.testing.assert_array_equal(full.rewards, replay.rewards)
        np.testing.assert_array_equal(full.actions, replay.actions)


class TestRoundTripMatrix:
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("exactness", ["bit", "fast"])
    @pytest.mark.parametrize("n_datasets", [1, 2], ids=["one-table", "two-tables"])
    @pytest.mark.parametrize("split", [None, 2])
    def test_checkpointed_equals_uninterrupted(
        self, n_workers, exactness, n_datasets, split, tmp_path, monkeypatch
    ):
        """The reference runs the horizon whole (``split=None``) or as
        consecutive ``run(split)`` calls on one held fleet; either way
        the crashed-and-resumed segmented run equals it bitwise."""
        path = tmp_path / "fleet.ckpt"
        knobs = dict(n_workers=n_workers, exactness=exactness)
        agents_a, sessions_a = _traced_population(2, n_datasets=n_datasets)
        config = EngineConfig(**knobs)
        parts = run_split(FleetRunner(agents_a, sessions_a, config=config), 6, split)
        base = SimpleNamespace(rewards=join_runs(parts), actions=join_runs(parts, "actions"))

        agents_b, sessions_b = _traced_population(2, n_datasets=n_datasets)
        runner = FleetRunner(agents_b, sessions_b, config=config)
        restore = _crash_on_call(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            runner.run(6, checkpoint_every=2, checkpoint_path=path)
        restore()

        resumed = FleetRunner.resume(path)
        # the snapshot carries the engine knobs verbatim
        for key, value in knobs.items():
            assert resumed._engine_dict()[key] == value
        result = resumed.resume_run()
        _assert_run_identical(base, result, agents_a, resumed.agents)

    @pytest.mark.parametrize(
        ("stale_key", "stale_value"),
        [
            ("plan_form", "dense"),
            ("worker_backend", "process"),
            ("kernel_block_size", 7),
            ("persistent", True),
            ("plan_chunk_size", 4),
            ("fault_policy", None),
        ],
    )
    def test_stale_engine_key_is_ignored_on_resume(
        self, stale_key, stale_value, tmp_path, monkeypatch
    ):
        """A snapshot from a release that still had a retired knob (the
        ``plan_form`` choice, the process worker backend, the scoring
        kernel block size, the shard-cache flag, the plan chunk size,
        the fault policy) resumes bit-identically on threads: unknown engine keys are
        ignored."""
        path = tmp_path / "fleet.ckpt"
        agents_a, sessions_a = _traced_population(4)
        base = FleetRunner(agents_a, sessions_a).run(6)

        def save_with_stale_key(p, ckpt):
            engine = {**ckpt.engine, stale_key: stale_value}
            save_checkpoint(p, dataclasses.replace(ckpt, engine=engine))

        monkeypatch.setattr("repro.sim.checkpoint.save_checkpoint", save_with_stale_key)
        agents_b, sessions_b = _traced_population(4)
        runner = FleetRunner(agents_b, sessions_b)
        restore = _crash_on_call(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            runner.run(6, checkpoint_every=3, checkpoint_path=path)
        restore()
        assert load_checkpoint(path).engine[stale_key] == stale_value

        resumed = FleetRunner.resume(path)
        assert stale_key not in resumed._engine_dict()
        assert not hasattr(resumed, stale_key)
        result = resumed.resume_run()
        _assert_run_identical(base, result, agents_a, resumed.agents)


class TestHeldAndChurned:
    def test_between_runs_snapshot_of_held_fleet(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        agents, sessions = _population(3)
        runner = FleetRunner(agents, sessions)
        runner.run(4)
        runner.checkpoint(path)
        resumed = FleetRunner.resume(path)
        r_orig = runner.run(4)
        r_resumed = resumed.run(4)
        _assert_run_identical(r_orig, r_resumed, agents, resumed.agents)

    def test_resume_churned_service_fleet(self, tmp_path):
        from repro.core.config import P2BConfig
        from repro.data import DriftingSyntheticEnvironment
        from repro.experiments import FleetService

        path = tmp_path / "fleet.ckpt"

        def deploy():
            env = DriftingSyntheticEnvironment(
                n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7, epoch_length=5
            )
            config = P2BConfig(
                n_actions=N_ACTIONS, n_features=N_FEATURES, n_codes=8,
                shuffler_threshold=2, window=3,
            )
            service = FleetService(config, env, seed=5)
            service.arrive(8)
            service.interact(3)
            service.depart([0, 1])
            service.arrive(2)
            return service

        service = deploy()
        service.fleet.checkpoint(path)
        resumed = FleetRunner.resume(path)
        live_service = deploy()
        live = live_service.interact(4)
        again = resumed.run(4)
        np.testing.assert_array_equal(live.rewards, again.rewards)
        np.testing.assert_array_equal(live.actions, again.actions)
        # the drifting shard records columnar: the reports pending
        # across the snapshot plus the resumed run's match the live ones
        assert len(live_service.system.report_log) > 0
        assert_pending_rows_equal(live_service.fleet.agents, resumed.agents)

    def test_context_blob_round_trips(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        agents, sessions = _population(4, n_agents=3)
        FleetRunner(agents, sessions).run(
            4, checkpoint_every=2, checkpoint_path=path,
            checkpoint_context=b"collection-phase-state",
        )
        assert FleetRunner.resume(path).resume_context == b"collection-phase-state"


class TestValidationAndCorruption:
    def test_cadence_without_path_rejected(self):
        agents, sessions = _population(5, n_agents=3)
        with pytest.raises(ConfigError, match="checkpoint_path"):
            FleetRunner(agents, sessions).run(4, checkpoint_every=2)

    def test_sink_and_checkpointing_are_mutually_exclusive(self, tmp_path):
        from repro.experiments.results import CurveSink

        agents, sessions = _population(5, n_agents=3)
        with pytest.raises(ConfigError, match="sink"):
            FleetRunner(agents, sessions).run(
                4,
                sink=CurveSink(),
                checkpoint_every=2,
                checkpoint_path=tmp_path / "fleet.ckpt",
            )

    def test_resume_run_without_resume_rejected(self):
        agents, sessions = _population(5, n_agents=3)
        with pytest.raises(CheckpointError, match="resume"):
            FleetRunner(agents, sessions).resume_run()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="could not read"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_corrupt_bytes(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_foreign_blob_rejected(self, tmp_path):
        path = tmp_path / "foreign.ckpt"
        path.write_bytes(state_to_bytes({"something": np.zeros(3)}))
        with pytest.raises(CheckpointError, match="format marker"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_bytes(
            state_to_bytes(
                {"magic": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION + 1}
            )
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_version_3_checkpoint_refused(self, tmp_path):
        """Version 3 predates keyed reward noise: its pickled synthetic
        sessions carry no noise key or counter, so it must not load."""
        path = tmp_path / "v3.ckpt"
        agents, sessions = _population(7, n_agents=3)
        runner = FleetRunner(agents, sessions)
        runner.run(2)
        runner.checkpoint(path)
        state = state_from_bytes(path.read_bytes())
        state["version"] = 3
        path.write_bytes(state_to_bytes(state))
        assert CHECKPOINT_VERSION == 7
        with pytest.raises(CheckpointError, match="format version 3"):
            load_checkpoint(path)

    def test_version_4_checkpoint_refused(self, tmp_path, monkeypatch):
        """Version 4 predates keyed Thompson draws: its pickled Thompson
        policies carry a Cholesky cache and a counter that drove only
        tie-breaks, so it must not resume under the new semantics.  The
        same population at the current version resumes bit-identically."""
        path = tmp_path / "thompson.ckpt"
        agents_a, sessions_a = _thompson_population(7)
        base = FleetRunner(agents_a, sessions_a).run(6)
        agents_b, sessions_b = _thompson_population(7)
        restore = _crash_on_call(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            FleetRunner(agents_b, sessions_b).run(6, checkpoint_every=3, checkpoint_path=path)
        restore()
        assert load_checkpoint(path).completed == 3
        resumed = FleetRunner.resume(path)
        _assert_run_identical(base, resumed.resume_run(), agents_a, resumed.agents)
        state = state_from_bytes(path.read_bytes())
        state["version"] = 4
        path.write_bytes(state_to_bytes(state))
        with pytest.raises(CheckpointError, match="format version 4"):
            load_checkpoint(path)

    def test_version_5_checkpoint_refused(self, tmp_path, monkeypatch):
        """Version 5 predates the report store: its pickled agents carry
        an outbox list, not a handle to their system's report log, so it
        must not load.  The same warm-private population at the current
        version resumes with the reports pending across the snapshot."""
        from repro.core import P2BConfig, P2BSystem

        def population():
            config = P2BConfig(
                n_actions=N_ACTIONS, n_features=N_FEATURES, n_codes=6, p=0.9, window=2,
            )
            system = P2BSystem(config, mode="warm-private", seed=3)
            env = SyntheticPreferenceEnvironment(
                n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
            )
            agents = [system.new_agent() for _ in range(4)]
            return agents, [env.new_user(s) for s in spawn_seeds(9, 4)]

        path = tmp_path / "reports.ckpt"
        agents_a, sessions_a = population()
        base = FleetRunner(agents_a, sessions_a).run(6)
        agents_b, sessions_b = population()
        restore = _crash_on_call(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            FleetRunner(agents_b, sessions_b).run(6, checkpoint_every=3, checkpoint_path=path)
        restore()
        resumed = FleetRunner.resume(path)
        assert len(resumed.agents[0].report_log) > 0
        _assert_run_identical(base, resumed.resume_run(), agents_a, resumed.agents)
        state = state_from_bytes(path.read_bytes())
        state["version"] = 5
        path.write_bytes(state_to_bytes(state))
        with pytest.raises(CheckpointError, match="format version 5"):
            load_checkpoint(path)

    def test_version_6_checkpoint_refused(self, tmp_path, monkeypatch):
        """Version 6 predates the one-item participation window: its
        pickled policies carry a buffer of every interaction of the open
        window, so it must not load.  At the current version a
        population whose windows are offset (agents that joined at
        different times, as under serving churn) resumes bit-identically
        with windows open across the snapshot."""
        from repro.core import P2BConfig, P2BSystem
        from repro.experiments.runner import _simulate_agent

        window = 4

        def population():
            config = P2BConfig(
                n_actions=N_ACTIONS,
                n_features=N_FEATURES,
                n_codes=6,
                p=0.7,
                window=window,
                max_reports_per_user=3,
            )
            system = P2BSystem(config, mode="warm-private", seed=5)
            env = SyntheticPreferenceEnvironment(
                n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
            )
            agents = [system.new_agent() for _ in range(6)]
            sessions = [env.new_user(s) for s in spawn_seeds(11, 6)]
            # offset windows: agent i is i interactions into its first
            for i, (agent, session) in enumerate(zip(agents, sessions)):
                _simulate_agent(agent, session, i % window)
            return agents, sessions

        path = tmp_path / "windows.ckpt"
        agents_a, sessions_a = population()
        base = FleetRunner(agents_a, sessions_a).run(9)
        agents_b, sessions_b = population()
        restore = _crash_on_call(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            FleetRunner(agents_b, sessions_b).run(9, checkpoint_every=5, checkpoint_path=path)
        restore()
        assert load_checkpoint(path).completed == 5
        resumed = FleetRunner.resume(path)
        held = [a.participation for a in resumed.agents]
        assert {p.fill for p in held} == {0, 1, 2, 3}  # every offset open
        assert any(p._held is not None for p in held)
        _assert_run_identical(base, resumed.resume_run(), agents_a, resumed.agents)
        for a, b in zip(agents_a, resumed.agents):
            assert_participation_equal(a.participation, b.participation, a.agent_id)
        state = state_from_bytes(path.read_bytes())
        state["version"] = 6
        path.write_bytes(state_to_bytes(state))
        with pytest.raises(CheckpointError, match="format version 6"):
            load_checkpoint(path)

    @staticmethod
    def _with_dropped(path, dropped):
        """Rewrite a snapshot as a release that recorded dropped shards did."""
        state = state_from_bytes(path.read_bytes())
        state["dropped"] = dropped
        path.write_bytes(state_to_bytes(state))

    def test_empty_dropped_list_is_ignored(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        agents, sessions = _population(7, n_agents=3)
        runner = FleetRunner(agents, sessions)
        runner.run(2)
        runner.checkpoint(path)
        self._with_dropped(path, [])
        assert load_checkpoint(path).completed == 0
        resumed = FleetRunner.resume(path)
        for a, b in zip(agents, resumed.agents):
            assert_states_equal(a.policy, b.policy, a.agent_id)

    def test_recorded_dropped_shard_rejected(self, tmp_path):
        """A degraded run's snapshot cannot be resumed by this release."""
        path = tmp_path / "fleet.ckpt"
        agents, sessions = _population(8, n_agents=3)
        FleetRunner(agents, sessions).checkpoint(path)
        dropped = {"shard": 0, "n_agents": 1, "attempts": 3, "error": "RuntimeError: boom"}
        self._with_dropped(path, [dropped])
        with pytest.raises(CheckpointError, match="dropped"):
            load_checkpoint(path)

    def test_truncated_snapshot_never_replaces_a_good_one(self, tmp_path):
        """Atomic writes: killing the writer leaves the old file valid."""
        path = tmp_path / "fleet.ckpt"
        agents, sessions = _population(6, n_agents=3)
        runner = FleetRunner(agents, sessions)
        runner.checkpoint(path)
        good = path.read_bytes()
        # simulate a torn in-progress write beside the real file
        (tmp_path / "fleet.ckpt.tmp.999").write_bytes(good[: len(good) // 2])
        ckpt = load_checkpoint(path)
        assert ckpt.completed == 0
        assert path.read_bytes() == good
