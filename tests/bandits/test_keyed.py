"""Tests for repro.bandits.keyed — the keyed, counter-based draws.

The fleet's bit-identity with the sequential spec rests on these draws
not depending on the shape or layout of the arrays they are computed
in; the paper-figure curves rest on the tie-breaks being uniform and
the reward noise being standard normal.  No test pins a normal's bits:
numpy's ``log``/``cos`` may round differently on another SIMD dispatch
target (``make keyed-dispatch`` reruns this module on a second one).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import ndtr

from repro.bandits import UCB1, CodeLinUCB, LinearThompsonSampling, LinUCB, keyed
from repro.bandits.keyed import (
    STREAM_REWARD_NOISE,
    STREAM_TIEBREAK,
    box_muller,
    keyed_bits,
    keyed_index,
    keyed_normal,
    keyed_uniform,
    tiebreak_rows,
)
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.data import DriftingSyntheticEnvironment
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments.runner import _simulate_agent
from repro.sim import EngineConfig, FleetRunner
from repro.sim.stacked import stack_policies
from repro.utils.exceptions import ValidationError
from repro.utils.rng import rng_state_digest, spawn_seeds


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


class TestNanScores:
    def test_scalar_and_stacked_select_raise_alike(self):
        """A NaN reward poisons a LinUCB ``theta``; the scalar spec and
        the stacked fleet must both refuse the NaN score row, not pick
        different arms (or crash on an empty tie set)."""
        x = np.full(3, 1.0 / 3)
        poisoned = LinUCB(n_arms=4, n_features=3, seed=1)
        poisoned.update(x, 0, float("nan"))
        healthy = LinUCB(n_arms=4, n_features=3, seed=2)
        with pytest.raises(ValidationError, match="NaN"):
            poisoned.select(x)
        with pytest.raises(ValidationError, match="NaN"):
            stack_policies([healthy, poisoned]).select(np.stack([x, x]))

    def test_thompson_nan_posterior_raises_alike(self):
        """A NaN in ``A_inv`` makes a NaN posterior score on both paths;
        a non-positive-definite one is no error (the form clamps at 0)."""
        x = np.full(3, 1.0 / 3)
        poisoned = LinearThompsonSampling(n_arms=4, n_features=3, seed=1)
        poisoned.A_inv[2] = np.nan
        healthy = LinearThompsonSampling(n_arms=4, n_features=3, seed=2)
        with pytest.raises(ValidationError, match="NaN"):
            poisoned.select(x)
        with pytest.raises(ValidationError, match="NaN"):
            stack_policies([healthy, poisoned]).select(np.stack([x, x]))

    def test_nan_row_raises_among_tied_rows(self):
        scores = np.array([[1.0, 1.0, 0.0], [0.0, np.nan, 2.0], [3.0, 0.0, 0.0]])
        with pytest.raises(ValidationError, match="NaN"):
            tiebreak_rows(scores, np.arange(3, dtype=np.uint64), np.zeros(3, dtype=np.uint64))


def test_stream_ids_distinct():
    """Draws that share a counter value differ only by stream id, so no
    two kinds of draw may share one; a normal takes its stream and the
    next (Box-Muller's two uniforms)."""
    names = sorted(n for n in dir(keyed) if n.startswith("STREAM_"))
    assert names == sorted(n for n in keyed.__all__ if n.startswith("STREAM_"))
    normals = {"STREAM_REWARD_NOISE", "STREAM_POSTERIOR"}
    taken = [getattr(keyed, n) + k for n in names for k in ((0, 1) if n in normals else (0,))]
    assert len(taken) == len(set(taken)), {n: getattr(keyed, n) for n in names}


class TestKeyedNormal:
    def test_length_one_block_strided_and_fortran_agree(self):
        rng = np.random.default_rng(5)
        n, horizon = 24, 17
        keys = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        counters = rng.integers(0, 2**40, size=n)[:, None] + np.arange(horizon)
        block = keyed_normal(keys[:, None], STREAM_REWARD_NOISE, counters)
        assert block.shape == (n, horizon) and np.isfinite(block).all()
        for i in range(n):
            for t in range(horizon):
                one = keyed_normal(keys[i : i + 1], STREAM_REWARD_NOISE, counters[i, t : t + 1])
                assert one.tobytes() == block[i, t : t + 1].tobytes()
        wide = np.zeros((n, 3 * horizon), dtype=counters.dtype)
        wide[:, ::3] = counters
        strided = keyed_normal(np.repeat(keys, 2)[::2, None], STREAM_REWARD_NOISE, wide[:, ::3])
        fortran = keyed_normal(
            np.asfortranarray(np.broadcast_to(keys[:, None], (n, horizon))),
            STREAM_REWARD_NOISE,
            np.asfortranarray(counters),
        )
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        assert strided.tobytes() == block.tobytes()
        assert fortran.tobytes() == block.tobytes()
        # every prefix length, so SIMD loop tails see each element too
        flat = block.ravel()
        flat_keys = np.repeat(keys, horizon)
        for m in range(1, 40):
            head = keyed_normal(flat_keys[:m], STREAM_REWARD_NOISE, counters.ravel()[:m])
            assert head.tobytes() == flat[:m].tobytes()

    def test_extreme_bits_give_finite_normals(self):
        ends = np.array([0, 2**64 - 1], dtype=np.uint64)
        h1, h2 = (a.ravel() for a in np.meshgrid(ends, ends, indexing="ij"))
        z = box_muller(h1, h2)
        assert np.isfinite(z).all()
        # h1 = 0 is u1 = 1: radius 0; h1 = 2**64 - 1 is u1 = 2**-53,
        # the largest radius, sqrt(106 ln 2)
        np.testing.assert_array_equal(z[:2], [0.0, 0.0])
        np.testing.assert_allclose(np.abs(z[2:]), np.sqrt(106 * np.log(2.0)), rtol=1e-12)

    def test_moments_and_ks_statistic(self):
        draws = 100_000
        keys = np.random.default_rng(11).integers(0, 2**64, size=100, dtype=np.uint64)
        z = np.sort(
            keyed_normal(keys[:, None], STREAM_REWARD_NOISE, np.arange(draws // 100)).ravel()
        )
        # fixed bounds: five standard errors of the mean (1/sqrt(n)) and
        # of the variance (sqrt(2/n)); the Kolmogorov-Smirnov critical
        # value at alpha = 1e-6, sqrt(-ln(alpha/2)/2)/sqrt(n)
        assert abs(z.mean()) < 5 / np.sqrt(draws)
        assert abs(z.var() - 1.0) < 5 * np.sqrt(2 / draws)
        cdf = ndtr(z)
        steps = np.arange(draws + 1) / draws
        ks = max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max())
        assert ks < np.sqrt(-np.log(1e-6 / 2) / 2) / np.sqrt(draws)


N_ARMS, N_DIM, EPOCH, HORIZON = 4, 5, 3, 8
SPLITS = [(HORIZON,), (1, HORIZON - 1)]


def _noise_population(seed, n=6):
    """Stationary and drifting users (``EPOCH`` < ``HORIZON``: the
    drifting ones cross boundaries), on LinUCB policies of two
    ``alpha`` values, so a fleet runs two shards."""
    stationary = SyntheticPreferenceEnvironment(n_actions=N_ARMS, n_features=N_DIM, seed=2)
    drifting = DriftingSyntheticEnvironment(
        n_actions=N_ARMS, n_features=N_DIM, epoch_length=EPOCH, switch_prob=0.5, seed=3
    )
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n)):
        policy_seed, session_seed = s.spawn(2)
        policy = LinUCB(n_arms=N_ARMS, n_features=N_DIM, alpha=1.0 + i % 2, seed=policy_seed)
        agents.append(LocalAgent(f"u{i}", policy, mode=AgentMode.COLD))
        sessions.append((drifting if i % 3 else stationary).new_user(session_seed))
    return agents, sessions


def _assert_sessions_equal(planned, stepped):
    for a, b in zip(planned, stepped):
        assert (a._key, a._draws) == (b._key, b._draws)
        assert rng_state_digest(a._rng) == rng_state_digest(b._rng)
        assert getattr(a, "_t", None) == getattr(b, "_t", None)
        np.testing.assert_array_equal(a.preference, b.preference)


class TestRewardNoiseStreams:
    @pytest.mark.parametrize("splits", SPLITS, ids=["T", "1+(T-1)"])
    def test_plan_block_noise_is_the_scalar_reward_stream(self, splits):
        """``plan_block`` per environment, over split horizons, realizes
        the rewards of the scalar ``next_context`` + ``reward`` loop
        bitwise, stationary and drifting users alike, and leaves each
        session where the loop does."""
        _, stepped = _noise_population(4)
        _, planned = _noise_population(4)
        n = len(planned)
        actions = (np.arange(HORIZON) * 3 + np.arange(n)[:, None]) % N_ARMS
        expected = np.empty((n, HORIZON))
        for j, session in enumerate(stepped):
            for t in range(HORIZON):
                session.next_context()
                expected[j, t] = session.reward(int(actions[j, t]))
        got = np.empty_like(expected)
        start = 0
        for h in splits:
            for env in {id(s.environment): s.environment for s in planned}.values():
                rows = [j for j, s in enumerate(planned) if s.environment is env]
                block = env.plan_block([planned[j] for j in rows], h)
                assert block.noise.shape == (len(rows), h)
                means = np.repeat(env.mean_rewards(block.contexts), block.lengths, axis=0)
                means = means.reshape(len(rows), h, N_ARMS)
                picked = np.take_along_axis(means, actions[rows, start : start + h, None], 2)
                got[rows, start : start + h] = np.clip(picked[..., 0] + block.noise, 0.0, 1.0)
            start += h
        np.testing.assert_array_equal(got, expected)
        _assert_sessions_equal(planned, stepped)
        assert all(s._draws == HORIZON for s in planned)

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("splits", SPLITS, ids=["T", "1+(T-1)"])
    def test_fleet_equals_sequential(self, splits, n_workers):
        seq_agents, seq_sessions = _noise_population(9)
        expected = np.stack(
            [_simulate_agent(a, s, HORIZON)[0] for a, s in zip(seq_agents, seq_sessions)]
        )
        agents, sessions = _noise_population(9)
        runner = FleetRunner(agents, sessions, config=EngineConfig(n_workers=n_workers))
        assert runner.n_shards == 2
        got = np.concatenate([runner.run(h).rewards for h in splits], axis=1)
        np.testing.assert_array_equal(got, expected)
        _assert_sessions_equal(sessions, seq_sessions)
