"""Tests for repro.bandits.keyed — the keyed, counter-based draws.

The fleet's bit-identity with the sequential spec rests on these draws
not depending on the shape or layout of the arrays they are computed
in; the paper-figure curves rest on the tie-breaks being uniform.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import UCB1, CodeLinUCB
from repro.bandits.keyed import (
    STREAM_TIEBREAK,
    keyed_bits,
    keyed_index,
    keyed_uniform,
    tiebreak_rows,
)
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments.runner import _simulate_agent
from repro.sim import FleetRunner
from repro.sim.stacked import stack_policies
from repro.utils.rng import spawn_seeds


def _strided_inputs(n=40, seed=0):
    """Keys and counters as non-contiguous views (a strided slice and a
    column of a row-major block)."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**64, size=3 * n, dtype=np.uint64)[::3]
    counters = rng.integers(0, 2**40, size=(n, 4), dtype=np.uint64)[:, 2]
    assert not keys.flags.c_contiguous and not counters.flags.c_contiguous
    return keys, counters


class TestShapeIndependence:
    def test_length_one_equals_length_n(self):
        keys, counters = _strided_inputs()
        n_tied = np.arange(1, keys.size + 1)
        bits = keyed_bits(keys, 3, counters)
        unif = keyed_uniform(keys, 3, counters)
        idx = keyed_index(keys, 3, counters, n_tied)
        for i in range(keys.size):
            one_k, one_c = keys[i : i + 1], counters[i : i + 1]
            assert keyed_bits(one_k, 3, one_c).tobytes() == bits[i : i + 1].tobytes()
            assert keyed_uniform(one_k, 3, one_c).tobytes() == unif[i : i + 1].tobytes()
            assert keyed_index(one_k, 3, one_c, n_tied[i]).tobytes() == idx[i : i + 1].tobytes()
            # a scalar key and counter are a length-1 evaluation too
            assert keyed_bits(keys[i], 3, int(counters[i]))[0] == bits[i]
        # contiguous copies give the same bits as the strided views
        np.testing.assert_array_equal(
            keyed_bits(np.ascontiguousarray(keys), 3, np.ascontiguousarray(counters)), bits
        )
        assert ((unif >= 0.0) & (unif < 1.0)).all()
        assert ((idx >= 0) & (idx < n_tied)).all()

    def test_tiebreak_rows_is_row_local(self):
        keys, counters = _strided_inputs(n=60, seed=1)
        rng = np.random.default_rng(2)
        # few distinct values per row, so most rows tie
        block = np.asfortranarray(rng.integers(0, 3, size=(60, 14)).astype(np.float64))
        scores = block[:, ::2]  # strided, non-contiguous rows
        assert not scores.flags.c_contiguous
        actions = tiebreak_rows(scores, keys, counters)
        tied = (scores == scores.max(axis=1, keepdims=True)).sum(axis=1) > 1
        assert tied.sum() > 30
        for i in range(scores.shape[0]):
            one = tiebreak_rows(scores[i : i + 1], keys[i : i + 1], counters[i : i + 1])
            assert one[0] == actions[i]
            assert scores[i, actions[i]] == scores[i].max()


class TestUniformity:
    # chi-square critical values at alpha = 1e-6 for df = n_tied - 1
    CRITICAL = {2: 23.93, 3: 27.63, 7: 38.26, 10: 44.81}

    @pytest.mark.parametrize("n_tied", [2, 3, 7, 10])
    def test_chi_square_of_tiebreak_index(self, n_tied):
        draws = 100_000
        k = keyed_index(np.uint64(0xC0FFEE), STREAM_TIEBREAK, np.arange(draws), n_tied)
        observed = np.bincount(k, minlength=n_tied)
        expected = draws / n_tied
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert observed.size == n_tied
        assert chi2 < self.CRITICAL[n_tied]


def _tied_picks(policy, n=64):
    """``n`` selections on all-equal scores (a zero CodeLinUCB table
    scores every arm alike for any code)."""
    return [policy.select_code(0) for _ in range(n)]


class TestWarmStartIndependence:
    def _snapshot(self):
        central = CodeLinUCB(n_arms=6, n_features=4, seed=0)
        return central.get_state()  # all-zero tables: every code ties

    def test_scalar_warm_start_keeps_each_agents_stream(self):
        state = self._snapshot()
        assert not any(key in state for key in ("_key", "_draws", "key", "draws"))
        agents = [
            LocalAgent(f"a{i}", CodeLinUCB(n_arms=6, n_features=4, seed=s), mode=AgentMode.COLD)
            for i, s in enumerate(spawn_seeds(5, 2))
        ]
        for agent in agents:
            agent.policy.select_code(0)  # a counter the snapshot must not reset
            agent.warm_start(state)
        assert [a.policy._draws for a in agents] == [1, 1]
        first, second = (_tied_picks(a.policy) for a in agents)
        assert first != second

    def test_stacked_load_state_keeps_each_agents_stream(self):
        state = self._snapshot()
        policies = [CodeLinUCB(n_arms=6, n_features=4, seed=s) for s in spawn_seeds(6, 2)]
        stacked = stack_policies(policies)
        keys, draws = stacked.keys.copy(), stacked.draws.copy()
        assert stacked.load_state(state)
        np.testing.assert_array_equal(stacked.keys, keys)
        np.testing.assert_array_equal(stacked.draws, draws)
        picks = np.stack([stacked.select(np.zeros(2, dtype=np.intp)) for _ in range(64)])
        assert not np.array_equal(picks[:, 0], picks[:, 1])
        # the stacked draws are the scalar policies' own, after writeback
        stacked.writeback()
        twins = [CodeLinUCB(n_arms=6, n_features=4, seed=s) for s in spawn_seeds(6, 2)]
        for twin, column in zip(twins, picks.T):
            twin.set_state(state)
            assert _tied_picks(twin) == column.tolist()
        assert [p._draws for p in policies] == [64, 64]


def _ucb1_population(seed, n_agents=6, n_arms=8):
    env = SyntheticPreferenceEnvironment(n_actions=n_arms, n_features=3, seed=1)
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, session_seed = s.spawn(2)
        agents.append(
            LocalAgent(
                f"u{i}", UCB1(n_arms=n_arms, n_features=3, seed=policy_seed), mode=AgentMode.COLD
            )
        )
        sessions.append(env.new_user(session_seed))
    return agents, sessions


class TestHeldShardReuse:
    def test_scalar_act_between_held_runs_matches_sequential(self):
        """A scalar ``act`` advances the draw counter but not ``t``; the
        held shard must notice and restack, or its next tie-breaks draw
        at stale counters.  UCB1 with 8 arms ties on every unplayed arm,
        so both runs tie-break."""
        x = np.full(3, 1.0 / 3)
        agents, sessions = _ucb1_population(4)
        runner = FleetRunner(agents, sessions)
        first = runner.run(3)
        between = [a.act(x) for a in agents]
        second = runner.run(6)

        ref_agents, ref_sessions = _ucb1_population(4)
        ref_first = [_simulate_agent(a, s, 3)[0] for a, s in zip(ref_agents, ref_sessions)]
        ref_between = [a.act(x) for a in ref_agents]
        ref_second = [_simulate_agent(a, s, 6)[0] for a, s in zip(ref_agents, ref_sessions)]

        assert between == ref_between
        np.testing.assert_array_equal(first.rewards, np.stack(ref_first))
        np.testing.assert_array_equal(second.rewards, np.stack(ref_second))
        for a, b in zip(agents, ref_agents):
            assert (a.policy.t, a.policy._draws) == (b.policy.t, b.policy._draws) == (9, 10)
            np.testing.assert_array_equal(a.policy.counts, b.policy.counts)
