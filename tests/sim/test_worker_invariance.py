"""Worker-count invariance: ``n_workers`` must be unobservable.

One serial reference per exactness tier; every ``exactness ×
n_workers`` combination must reproduce it bitwise — results, mid-run
checkpoint snapshots, resumed runs, shuffler statistics, and runs under
a seeded fault plan.  The fast tier's contract is bitwise identity to
a serial fast run with the *same* checkpoint cadence (a segment
boundary restacks its float32 state), so its checkpoint test compares
against that run.  The worker axis is env-tunable so the CI matrix can
pin one count per cell while local runs sweep the full grid:

* ``REPRO_PARALLEL_WORKERS`` — comma list, default ``1,2,4``
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.bandits import UCB1, EpsilonGreedy, LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode, P2BConfig
from repro.core.participation import RandomizedParticipation
from repro.core.system import P2BSystem
from repro.data.multilabel import MultilabelBanditEnvironment, make_multilabel_dataset
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.sim import EngineConfig, FaultPlan, FaultPolicy, FleetRunner, load_checkpoint
from repro.utils.rng import spawn_seeds

from _testkit import N_FEATURES, assert_outboxes_equal, assert_states_equal

N_ACTIONS = 4
SEED = 5
HORIZON = 12
EVERY = 5

_ML_DATASET = make_multilabel_dataset(90, N_FEATURES, N_ACTIONS, n_clusters=4, seed=0)
_ML_DATASET_B = make_multilabel_dataset(70, N_FEATURES, N_ACTIONS, n_clusters=3, seed=4)


def _env_grid():
    workers = [
        int(t)
        for t in os.environ.get("REPRO_PARALLEL_WORKERS", "1,2,4").split(",")
        if t.strip()
    ]
    return [
        pytest.param(x, w, id=f"{x}-w{w}") for x in ("bit", "fast") for w in workers
    ]


GRID = _env_grid()


def _population(seed=SEED, n_agents=12):
    """Six shards: three policy kinds × {cold, participating-warm},
    over traced (multilabel) and stationary (synthetic) sessions.  The
    traced agents alternate between two datasets, so every traced shard
    gathers through a concatenated row table."""
    syn = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
    )
    ml = MultilabelBanditEnvironment(_ML_DATASET, samples_per_user=6, seed=1)
    ml_b = MultilabelBanditEnvironment(_ML_DATASET_B, samples_per_user=5, seed=2)
    kinds = [LinUCB, EpsilonGreedy, UCB1]
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, part_seed, session_seed = s.spawn(3)
        policy = kinds[i % 3](n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed)
        if i % 2:
            agents.append(
                LocalAgent(
                    f"u{i}",
                    policy,
                    mode=AgentMode.WARM_NONPRIVATE,
                    participation=RandomizedParticipation(
                        p=0.9, window=3, max_reports=2, seed=part_seed
                    ),
                )
            )
        else:
            agents.append(LocalAgent(f"u{i}", policy, mode="cold"))
        env = syn if i % 2 == 0 else (ml_b if i % 4 == 3 else ml)
        sessions.append(env.new_user(session_seed))
    return agents, sessions


def _private_population(seed=0, n_agents=12):
    config = P2BConfig(
        n_actions=3, n_features=4, n_codes=6, q=1, p=0.7, window=3,
        shuffler_threshold=2, max_reports_per_user=2,
    )
    system = P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=seed)
    env = SyntheticPreferenceEnvironment(n_actions=3, n_features=4, seed=7)
    agents = [system.new_agent() for _ in range(n_agents)]
    sessions = [env.new_user(s) for s in spawn_seeds(seed + 1, n_agents)]
    return system, agents, sessions


def _stats_signature(system, agents):
    outcome = system.collect(agents)
    stats = outcome.shuffler_stats
    return (
        outcome.n_reports,
        stats.n_received,
        stats.n_released,
        stats.n_dropped,
        stats.codes_received,
        stats.codes_released,
        stats.n_quarantined,
    )


@pytest.fixture(scope="module")
def serial_ref(tmp_path_factory):
    """The serial runs every combination must reproduce, built once per
    ``(exactness, every)``: uninterrupted when ``every`` is ``None``,
    else checkpointed at that cadence (the fast tier's checkpoint
    reference)."""
    refs = {}
    ckpt_dir = tmp_path_factory.mktemp("serial-ref")

    def ref(exactness, every=None):
        if (exactness, every) not in refs:
            agents, sessions = _population()
            kwargs = {}
            if every is not None:
                kwargs = dict(
                    checkpoint_every=every,
                    checkpoint_path=ckpt_dir / f"{exactness}.ckpt",
                )
            result = FleetRunner(agents, sessions, config=EngineConfig(exactness=exactness)).run(
                HORIZON, track_expected=True, **kwargs
            )
            refs[exactness, every] = (result, agents)
        return refs[exactness, every]

    return ref


@pytest.fixture(scope="module")
def serial_stats_ref():
    refs = {}

    def ref(exactness):
        if exactness not in refs:
            system, agents, sessions = _private_population()
            FleetRunner(agents, sessions, config=EngineConfig(exactness=exactness)).run(9)
            refs[exactness] = _stats_signature(system, agents)
        return refs[exactness]

    return ref


def _assert_matches_ref(ref_result, ref_agents, result, agents):
    np.testing.assert_array_equal(ref_result.rewards, result.rewards)
    np.testing.assert_array_equal(ref_result.actions, result.actions)
    np.testing.assert_array_equal(ref_result.expected, result.expected)
    np.testing.assert_array_equal(ref_result.expected_mask, result.expected_mask)
    for a, b in zip(ref_agents, agents):
        assert_states_equal(a.policy, b.policy, a.agent_id)
    assert_outboxes_equal(ref_agents, agents)


@pytest.mark.parametrize(("exactness", "workers"), GRID)
class TestWorkerInvariance:
    def test_results_bitwise_identical(self, exactness, workers, serial_ref):
        ref_result, ref_agents = serial_ref(exactness)
        agents, sessions = _population()
        result = FleetRunner(
            agents,
            sessions,
            config=EngineConfig(n_workers=workers, exactness=exactness),
        ).run(HORIZON, track_expected=True)
        _assert_matches_ref(ref_result, ref_agents, result, agents)

    def test_midrun_checkpoints_and_resume_identical(
        self, exactness, workers, serial_ref, tmp_path
    ):
        ref_result, ref_agents = serial_ref(
            exactness, None if exactness == "bit" else EVERY
        )
        agents, sessions = _population()
        runner = FleetRunner(
            agents,
            sessions,
            config=EngineConfig(n_workers=workers, exactness=exactness),
        )
        path = tmp_path / "fleet.ckpt"
        orig_checkpoint = runner.checkpoint

        def capture(ckpt_path, **kwargs):
            orig_checkpoint(ckpt_path, **kwargs)
            done = kwargs.get("completed", 0)
            if 0 < done < kwargs.get("n_interactions", 0):
                shutil.copy2(ckpt_path, tmp_path / f"mid-{done}.ckpt")

        runner.checkpoint = capture
        result = runner.run(
            HORIZON,
            track_expected=True,
            checkpoint_every=EVERY,
            checkpoint_path=path,
        )
        _assert_matches_ref(ref_result, ref_agents, result, agents)

        # every mid-run snapshot is a prefix of the serial reference,
        # independent of the worker count that wrote it
        for done in range(EVERY, HORIZON, EVERY):
            snap = load_checkpoint(tmp_path / f"mid-{done}.ckpt")
            assert snap.completed == done and snap.n_interactions == HORIZON
            np.testing.assert_array_equal(snap.rewards, ref_result.rewards[:, :done])
            np.testing.assert_array_equal(snap.actions, ref_result.actions[:, :done])
            np.testing.assert_array_equal(
                snap.expected, ref_result.expected[:, :done]
            )

        # resuming the earliest snapshot finishes bit-identically too
        resumed = FleetRunner.resume(tmp_path / f"mid-{EVERY}.ckpt")
        full = resumed.resume_run()
        np.testing.assert_array_equal(full.rewards, ref_result.rewards)
        np.testing.assert_array_equal(full.actions, ref_result.actions)
        for a, b in zip(ref_agents, resumed.agents):
            assert_states_equal(a.policy, b.policy, a.agent_id)

    def test_shuffler_stats_identical(self, exactness, workers, serial_stats_ref):
        system, agents, sessions = _private_population()
        FleetRunner(
            agents,
            sessions,
            config=EngineConfig(n_workers=workers, exactness=exactness),
        ).run(9)
        assert _stats_signature(system, agents) == serial_stats_ref(exactness)

    def test_seeded_fault_plan_is_invisible(self, exactness, workers, serial_ref):
        ref_result, ref_agents = serial_ref(exactness)
        spec = "seed=3;raise=0.04;crash=0.04"
        plan = FaultPlan.parse(spec)
        assert any(
            plan.step_fault(s, t, 0) for s in range(6) for t in range(HORIZON)
        )
        agents, sessions = _population()
        result = FleetRunner(
            agents,
            sessions,
            config=EngineConfig(
                n_workers=workers,
                exactness=exactness,
                fault_policy=FaultPolicy(max_retries=8, backoff=0.0),
            ),
            fault_plan=spec,
        ).run(HORIZON, track_expected=True)
        assert result.dropped == ()
        _assert_matches_ref(ref_result, ref_agents, result, agents)
