"""Worker-count invariance: ``n_workers`` must be unobservable.

One serial reference per exactness tier; every ``exactness ×
n_workers`` combination must reproduce it bitwise — results, mid-run
checkpoint snapshots, resumed runs, shuffler statistics (with and
without seeded report corruption), and a held runner's reused stacks.  The fast tier's contract is bitwise identity to
a serial fast run with the *same* checkpoint cadence (every segment
starts from the float32 score caches a fresh stack would hold), so its
checkpoint test compares against that run.  The worker axis is
env-tunable so the CI matrix can pin one count per cell while local
runs sweep the full grid:

* ``REPRO_PARALLEL_WORKERS`` — comma list, default ``1,2,4``
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.bandits import UCB1, EpsilonGreedy, LinearThompsonSampling, LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode, P2BConfig
from repro.core.participation import RandomizedParticipation
from repro.core.system import P2BSystem
from repro.data.drift import DriftingSyntheticEnvironment
from repro.data.multilabel import MultilabelBanditEnvironment, make_multilabel_dataset
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.sim import EngineConfig, FleetRunner, StackedLinUCBFast, load_checkpoint
from repro.sim.faults import FAULTS_ENV_VAR
from repro.utils.rng import spawn_seeds

from _recording import assert_pending_rows_equal
from _testkit import N_FEATURES, assert_states_equal

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


def _population(seed=SEED, n_agents=16):
    """Eight shards: four policy kinds × {cold, participating-warm},
    over traced (multilabel) and synthetic sessions.  The traced agents
    alternate between two datasets, so every traced shard gathers
    through a concatenated row table; the cold shards mix stationary
    users with drifting users of two environments (different ``W`` and
    epoch lengths, both crossing boundaries within ``HORIZON``), so
    each shard batches its segment means per environment."""
    syn = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
    )
    drift_a = DriftingSyntheticEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, epoch_length=5, seed=8
    )
    drift_b = DriftingSyntheticEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, epoch_length=3, seed=9
    )
    ml = MultilabelBanditEnvironment(_ML_DATASET, samples_per_user=6, seed=1)
    ml_b = MultilabelBanditEnvironment(_ML_DATASET_B, samples_per_user=5, seed=2)
    kinds = [LinUCB, EpsilonGreedy, UCB1, LinearThompsonSampling]
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, part_seed, session_seed = s.spawn(3)
        policy = kinds[(i // 2) % 4](n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed)
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
        if i % 2 == 0:  # cold shard k holds agents 2k and 2k + 8
            env = (syn, drift_a, drift_b)[(i // 2) % 3]
        else:
            env = ml_b if i % 4 == 3 else ml
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


#: a corruption plan that fires on every collected batch
CORRUPT_SPEC = "seed=3;corrupt=1.0;corrupt_frac=0.3"


@pytest.fixture(scope="module")
def serial_corrupt_stats_ref():
    """:func:`serial_stats_ref` under an armed corruption plan."""
    refs = {}

    def ref(exactness):
        if exactness not in refs:
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv(FAULTS_ENV_VAR, CORRUPT_SPEC)
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
    assert_pending_rows_equal(ref_agents, agents)


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

    def test_seeded_fault_plan_is_invisible(
        self, exactness, workers, serial_ref, monkeypatch
    ):
        """The corruption tap sits on collection only: an armed plan
        leaves every fleet run at every worker count bitwise alone."""
        ref_result, ref_agents = serial_ref(exactness)
        monkeypatch.setenv(FAULTS_ENV_VAR, CORRUPT_SPEC)
        agents, sessions = _population()
        result = FleetRunner(
            agents,
            sessions,
            config=EngineConfig(n_workers=workers, exactness=exactness),
        ).run(HORIZON, track_expected=True)
        _assert_matches_ref(ref_result, ref_agents, result, agents)

    def test_corrupted_shuffler_stats_identical(
        self, exactness, workers, serial_corrupt_stats_ref, monkeypatch
    ):
        """Corruption is keyed on the collection batch, never on the
        worker that ran a shard: the quarantine counts match serial."""
        monkeypatch.setenv(FAULTS_ENV_VAR, CORRUPT_SPEC)
        system, agents, sessions = _private_population()
        FleetRunner(
            agents,
            sessions,
            config=EngineConfig(n_workers=workers, exactness=exactness),
        ).run(9)
        signature = _stats_signature(system, agents)
        assert signature == serial_corrupt_stats_ref(exactness)
        assert signature[-1] > 0  # the plan fired: tuples were quarantined

    def test_held_second_run_equals_fresh_runner(self, exactness, workers, monkeypatch):
        """A held runner's second run reuses its stacks, which
        ``restart()`` resets to what a fresh stack holds (the fast
        tier's LinUCB score cache included); a fresh runner over the
        same agents after the first run restacks.  Both must draw the
        same streams and score bitwise alike — a stale score cache moves
        only float32 rounding, which results alone rarely show."""
        config = EngineConfig(n_workers=workers, exactness=exactness)
        agents, sessions = _population()
        f_agents, f_sessions = _population()
        held = FleetRunner(agents, sessions, config=config)
        held.run(HORIZON - EVERY)
        FleetRunner(f_agents, f_sessions, config=config).run(HORIZON - EVERY)
        stacks = [shard.stacked for shard in held._shards.values()]

        scored: dict[int, list] = {}
        real_scores = StackedLinUCBFast.scores

        def recording_scores(stack, contexts):
            out = real_scores(stack, contexts)
            scored.setdefault(id(stack.policies[0]), []).append(out.copy())
            return out

        def scores_by_agent(population):
            by_agent = {i: scored.pop(id(a.policy)) for i, a in enumerate(population)
                        if id(a.policy) in scored}
            assert not scored
            return by_agent

        monkeypatch.setattr(StackedLinUCBFast, "scores", recording_scores)
        result = held.run(EVERY, track_expected=True)
        held_scores = scores_by_agent(agents)
        assert [shard.stacked for shard in held._shards.values()] == stacks
        fresh = FleetRunner(f_agents, f_sessions, config=config).run(
            EVERY, track_expected=True
        )
        fresh_scores = scores_by_agent(f_agents)
        _assert_matches_ref(fresh, f_agents, result, agents)
        assert held_scores.keys() == fresh_scores.keys()
        assert bool(held_scores) == (exactness == "fast")
        for i, calls in held_scores.items():
            assert len(calls) == len(fresh_scores[i]) == EVERY
            for got, want in zip(calls, fresh_scores[i]):
                np.testing.assert_array_equal(got, want)
