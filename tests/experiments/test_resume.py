"""run_setting checkpoint/resume: a killed experiment finishes later.

The experiment pipeline has two fleet phases (contribution, then
evaluation); a crash in either must resume from the snapshot to the
same :class:`ExperimentResult` — curve, mean reward, report counters
and privacy report all bit-identical to the run that never died.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AgentMode, P2BConfig
from repro.data import SyntheticPreferenceEnvironment
from repro.experiments.runner import EngineConfig, run_setting
from repro.sim import FleetRunner
from repro.utils.exceptions import CheckpointError, ConfigError

KWARGS = dict(n_contributors=8, n_eval_agents=6, eval_interactions=10, seed=3)


def _config(**overrides):
    base = dict(
        n_actions=5, n_features=6, n_codes=8, p=0.5, window=5,
        shuffler_threshold=1,
    )
    base.update(overrides)
    return P2BConfig(**base)


def _env(seed=0):
    return SyntheticPreferenceEnvironment(
        n_actions=5, n_features=6, weight_scale=8.0, seed=seed
    )


def _crash_on_call(monkeypatch, n):
    real = FleetRunner._run_thread
    calls = {"n": 0}

    def crashing(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == n:
            raise RuntimeError("simulated crash")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FleetRunner, "_run_thread", crashing)
    return lambda: monkeypatch.setattr(FleetRunner, "_run_thread", real)


def _assert_results_equal(a, b):
    np.testing.assert_array_equal(a.curve, b.curve)
    assert a.mean_reward == b.mean_reward
    assert a.n_reports == b.n_reports
    assert a.n_released == b.n_released
    assert a.privacy == b.privacy
    assert a.n_contributors == b.n_contributors


class TestCheckpointedRun:
    def test_checkpointing_is_invisible(self, tmp_path):
        base = run_setting(_env(), _config(), AgentMode.WARM_PRIVATE, **KWARGS)
        ckpt = run_setting(
            _env(), _config(), AgentMode.WARM_PRIVATE, **KWARGS,
            checkpoint_every=3, checkpoint_path=tmp_path / "run.ckpt",
        )
        _assert_results_equal(base, ckpt)

    @pytest.mark.parametrize(
        "crash_call, phase",
        [(2, "contrib"), (5, "eval")],
    )
    def test_crash_and_resume_bit_identical(
        self, crash_call, phase, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.ckpt"
        base = run_setting(_env(), _config(), AgentMode.WARM_PRIVATE, **KWARGS)
        restore = _crash_on_call(monkeypatch, crash_call)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_setting(
                _env(), _config(), AgentMode.WARM_PRIVATE, **KWARGS,
                checkpoint_every=2, checkpoint_path=path,
            )
        restore()
        resumed = run_setting(
            _env(), _config(), AgentMode.WARM_PRIVATE,
            resume_from=path,
        )
        _assert_results_equal(base, resumed)

    def test_resume_of_finished_run_replays_the_result(self, tmp_path):
        path = tmp_path / "run.ckpt"
        full = run_setting(
            _env(), _config(), AgentMode.WARM_PRIVATE, **KWARGS,
            checkpoint_every=4, checkpoint_path=path,
        )
        replay = run_setting(
            _env(), _config(), AgentMode.WARM_PRIVATE, resume_from=path
        )
        _assert_results_equal(full, replay)


class TestValidation:
    def test_cadence_and_path_go_together(self, tmp_path):
        with pytest.raises(ConfigError, match="go together"):
            run_setting(
                _env(), _config(), AgentMode.WARM_PRIVATE, **KWARGS,
                checkpoint_every=2,
            )
        with pytest.raises(ConfigError, match="go together"):
            run_setting(
                _env(), _config(), AgentMode.WARM_PRIVATE, **KWARGS,
                checkpoint_path=tmp_path / "run.ckpt",
            )

    def test_sequential_engine_cannot_checkpoint(self, tmp_path):
        with pytest.raises(ConfigError, match="sequential"):
            run_setting(
                _env(), _config(), AgentMode.WARM_PRIVATE, **KWARGS,
                engine="sequential",
                checkpoint_every=2, checkpoint_path=tmp_path / "run.ckpt",
            )

    def test_fast_tier_cannot_checkpoint(self, tmp_path):
        with pytest.raises(ConfigError, match="bit"):
            run_setting(
                _env(), _config(), AgentMode.WARM_PRIVATE, **KWARGS,
                engine=EngineConfig(exactness="fast"),
                checkpoint_every=2, checkpoint_path=tmp_path / "run.ckpt",
            )

    def test_sink_cannot_checkpoint(self, tmp_path):
        from repro.experiments.results import CurveSink

        with pytest.raises(ConfigError, match="sink"):
            run_setting(
                _env(), _config(), AgentMode.WARM_PRIVATE, **KWARGS,
                engine=EngineConfig(sink=CurveSink()),
                checkpoint_every=2, checkpoint_path=tmp_path / "run.ckpt",
            )

    def test_resume_mode_must_match(self, tmp_path, monkeypatch):
        path = tmp_path / "run.ckpt"
        restore = _crash_on_call(monkeypatch, 2)
        with pytest.raises(RuntimeError):
            run_setting(
                _env(), _config(), AgentMode.WARM_PRIVATE, **KWARGS,
                checkpoint_every=2, checkpoint_path=path,
            )
        restore()
        with pytest.raises(ConfigError, match="belongs to"):
            run_setting(
                _env(), _config(), AgentMode.WARM_NONPRIVATE, resume_from=path
            )

    def test_resume_rejects_fleet_level_snapshots(self, tmp_path):
        """A snapshot without run_setting context is FleetRunner's to
        finish, not run_setting's."""
        from repro.bandits import LinUCB
        from repro.core.agent import LocalAgent
        from repro.utils.rng import spawn_seeds

        path = tmp_path / "bare.ckpt"
        env = _env()
        agents, sessions = [], []
        for i, s in enumerate(spawn_seeds(0, 4)):
            ps, ss = s.spawn(2)
            agents.append(
                LocalAgent(f"u{i}", LinUCB(n_arms=5, n_features=6, seed=ps), mode="cold")
            )
            sessions.append(env.new_user(ss))
        FleetRunner(agents, sessions).checkpoint(path)
        with pytest.raises(CheckpointError, match="context"):
            run_setting(
                _env(), _config(), AgentMode.WARM_PRIVATE, resume_from=path
            )
