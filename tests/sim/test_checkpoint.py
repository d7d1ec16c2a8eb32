"""Checkpoint/resume: compatibility, refusals and atomic writes.

That a killed run resumes bit-identically — mid-horizon, between runs,
with windows open across the snapshot, after churn, on every worker
count and tier — is the harness's (``test_harness.py``) to check
(its ``crash`` and ``checkpoint`` ops).  These tests pin what the
harness cannot reach: snapshots of older releases (retired engine keys
resume, older format versions and degraded runs are refused), the
caller context blob, argument refusals and the atomic write.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from _testkit import PRIVATE, Member, assert_states_equal, population

from repro.sim import CHECKPOINT_VERSION, FleetRunner, load_checkpoint
from repro.sim.checkpoint import CHECKPOINT_MAGIC, save_checkpoint
from repro.utils.exceptions import CheckpointError, ConfigError
from repro.utils.serialization import state_from_bytes, state_to_bytes

THREE_KINDS = [Member("linucb"), Member("epsilon_greedy"), Member("ucb1")]


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


def _rewrite(path, **fields):
    """Rewrite a snapshot's top-level fields, as another release wrote them."""
    state = state_from_bytes(path.read_bytes())
    state.update(fields)
    path.write_bytes(state_to_bytes(state))


class TestRoundTripMatrix:
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
        the fault policy) resumes bit-identically on threads: unknown engine
        keys are ignored."""
        path = tmp_path / "fleet.ckpt"
        members = [Member(m.kind, session="multilabel") for m in THREE_KINDS] * 2
        agents_a, sessions_a = population(members, seed=4)
        base = FleetRunner(agents_a, sessions_a).run(6)

        def save_with_stale_key(p, ckpt):
            engine = {**ckpt.engine, stale_key: stale_value}
            save_checkpoint(p, dataclasses.replace(ckpt, engine=engine))

        monkeypatch.setattr("repro.sim.checkpoint.save_checkpoint", save_with_stale_key)
        restore = _crash_on_call(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            FleetRunner(*population(members, seed=4)).run(
                6, checkpoint_every=3, checkpoint_path=path
            )
        restore()
        assert load_checkpoint(path).engine[stale_key] == stale_value

        resumed = FleetRunner.resume(path)
        assert stale_key not in resumed._engine_dict()
        assert not hasattr(resumed, stale_key)
        result = resumed.resume_run()
        np.testing.assert_array_equal(base.rewards, result.rewards)
        np.testing.assert_array_equal(base.actions, result.actions)
        for a, b in zip(agents_a, resumed.agents):
            assert_states_equal(a.policy, b.policy, a.agent_id)


class TestHeldAndChurned:
    def test_context_blob_round_trips(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        FleetRunner(*population(THREE_KINDS, seed=4)).run(
            4, checkpoint_every=2, checkpoint_path=path,
            checkpoint_context=b"collection-phase-state",
        )
        assert FleetRunner.resume(path).resume_context == b"collection-phase-state"


class TestValidationAndCorruption:
    def test_cadence_without_path_rejected(self):
        with pytest.raises(ConfigError, match="checkpoint_path"):
            FleetRunner(*population(THREE_KINDS)).run(4, checkpoint_every=2)

    def test_sink_and_checkpointing_are_mutually_exclusive(self, tmp_path):
        from repro.experiments.results import CurveSink

        with pytest.raises(ConfigError, match="sink"):
            FleetRunner(*population(THREE_KINDS)).run(
                4,
                sink=CurveSink(),
                checkpoint_every=2,
                checkpoint_path=tmp_path / "fleet.ckpt",
            )

    def test_resume_run_without_resume_rejected(self):
        with pytest.raises(CheckpointError, match="resume"):
            FleetRunner(*population(THREE_KINDS)).resume_run()

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
            state_to_bytes({"magic": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION + 1})
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [3, 4, 5, 6, 7, 8])
    def test_older_format_versions_refused(self, version, tmp_path):
        """Each older version pickled state this release no longer reads:
        v3 synthetic sessions without a noise key, v4 Thompson policies
        with a Cholesky cache, v5 agents with an outbox list instead of a
        report-log row, v6 participation windows buffering every
        interaction, v7 held items and counters as attributes instead of
        rows of the participation and counter columns, v8 policies
        holding their arrays as attributes and the caller context apart
        from the population.  A snapshot of warm-private devices,
        windows open, is refused naming both versions."""
        assert CHECKPOINT_VERSION == 9
        path = tmp_path / "old.ckpt"
        runner = FleetRunner(*population([Member("code_linucb", PRIVATE)] * 3, window=4))
        runner.run(2)
        runner.checkpoint(path)
        _rewrite(path, version=version)
        with pytest.raises(CheckpointError, match=f"format version {version}") as refused:
            load_checkpoint(path)
        assert f"reads version {CHECKPOINT_VERSION}" in str(refused.value)

    def test_empty_dropped_list_is_ignored(self, tmp_path):
        """A release that recorded dropped shards wrote an empty list
        for a clean run: it still resumes."""
        path = tmp_path / "fleet.ckpt"
        agents, sessions = population(THREE_KINDS, seed=7)
        runner = FleetRunner(agents, sessions)
        runner.run(2)
        runner.checkpoint(path)
        _rewrite(path, dropped=[])
        assert load_checkpoint(path).completed == 0
        resumed = FleetRunner.resume(path)
        for a, b in zip(agents, resumed.agents):
            assert_states_equal(a.policy, b.policy, a.agent_id)

    def test_recorded_dropped_shard_rejected(self, tmp_path):
        """A degraded run's snapshot cannot be resumed by this release."""
        path = tmp_path / "fleet.ckpt"
        FleetRunner(*population(THREE_KINDS, seed=8)).checkpoint(path)
        dropped = {"shard": 0, "n_agents": 1, "attempts": 3, "error": "RuntimeError: boom"}
        _rewrite(path, dropped=[dropped])
        with pytest.raises(CheckpointError, match="dropped"):
            load_checkpoint(path)

    def test_truncated_snapshot_never_replaces_a_good_one(self, tmp_path):
        """Atomic writes: killing the writer leaves the old file valid."""
        path = tmp_path / "fleet.ckpt"
        FleetRunner(*population(THREE_KINDS, seed=6)).checkpoint(path)
        good = path.read_bytes()
        # simulate a torn in-progress write beside the real file
        (tmp_path / "fleet.ckpt.tmp.999").write_bytes(good[: len(good) // 2])
        assert load_checkpoint(path).completed == 0
        assert path.read_bytes() == good
