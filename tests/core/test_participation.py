"""Tests for repro.core.participation — the privacy-critical sampler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RandomizedParticipation, StackedParticipation
from repro.utils.exceptions import ValidationError
from repro.utils.rng import spawn_seeds


class TestBasicBehaviour:
    def test_no_report_before_window(self):
        part = RandomizedParticipation(p=1.0, window=5, seed=0)
        assert all(part.offer(i) is None for i in range(4))

    def test_report_at_window_with_p_one(self):
        part = RandomizedParticipation(p=1.0, window=3, seed=0)
        part.offer(0), part.offer(1)
        assert part.offer(2) in (0, 1, 2)

    def test_never_reports_with_p_zero(self):
        part = RandomizedParticipation(p=0.0, window=2, max_reports=10, seed=0)
        assert all(part.offer(i) is None for i in range(100))
        assert part.windows_seen == 50

    def test_max_reports_budget(self):
        part = RandomizedParticipation(p=1.0, window=1, max_reports=3, seed=0)
        sent = [part.offer(i) for i in range(10)]
        assert sum(s is not None for s in sent) == 3
        assert part.exhausted

    def test_buffer_resets_after_flip(self):
        """Windows are disjoint: an old item can't be reported later."""
        part = RandomizedParticipation(p=1.0, window=2, max_reports=5, seed=0)
        part.offer("a")
        first = part.offer("b")
        assert first in ("a", "b")
        part.offer("c")
        second = part.offer("d")
        assert second in ("c", "d")

    def test_reset(self):
        part = RandomizedParticipation(p=1.0, window=1, max_reports=1, seed=0)
        part.offer(0)
        assert part.exhausted
        part.reset()
        assert not part.exhausted
        assert part.offer(1) is not None

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            RandomizedParticipation(p=1.5)
        with pytest.raises(ValidationError):
            RandomizedParticipation(window=0)


class TestSamplingStatistics:
    def test_participation_rate_matches_p(self):
        """The empirical report rate must track p — eps depends on it."""
        p = 0.3
        n_agents = 4000
        sent = 0
        for i in range(n_agents):
            part = RandomizedParticipation(p=p, window=5, max_reports=1, seed=i)
            for t in range(5):
                if part.offer(t) is not None:
                    sent += 1
        rate = sent / n_agents
        assert rate == pytest.approx(p, abs=0.025)

    def test_within_window_choice_uniform(self):
        counts = np.zeros(4)
        for i in range(3000):
            part = RandomizedParticipation(p=1.0, window=4, seed=i)
            for t in range(4):
                out = part.offer(t)
            counts[out] += 1
        assert counts.min() > 600  # ~750 expected each

    def test_reproducible_given_seed(self):
        def run(seed):
            part = RandomizedParticipation(p=0.5, window=3, max_reports=2, seed=seed)
            return [part.offer(i) for i in range(12)]

        assert run(7) == run(7)
        assert run(7) != run(8)

    @given(st.floats(0.0, 1.0), st.integers(1, 10), st.integers(0, 3))
    @settings(max_examples=50)
    def test_property_budget_never_exceeded(self, p, window, budget):
        part = RandomizedParticipation(p=p, window=window, max_reports=budget, seed=0)
        sent = sum(part.offer(i) is not None for i in range(200))
        assert sent <= budget


# --------------------------------------------------------------------- #
# StackedParticipation: the columnar pipeline's vectorized sampler
# --------------------------------------------------------------------- #
def _population(specs, seed=0):
    """One RandomizedParticipation per (p, window, max_reports) spec."""
    return [
        RandomizedParticipation(p=p, window=w, max_reports=m, seed=s)
        for (p, w, m), s in zip(specs, spawn_seeds(seed, len(specs)))
    ]


def _scalar_offers(policies, horizon):
    """Reference: ``(reported, item)`` matrices per (agent, t).

    Items are the step indices themselves, so ``item`` pins *which*
    buffered interaction each report sampled (0 where not ``reported``).
    """
    reported = np.zeros((len(policies), horizon), dtype=bool)
    out = np.zeros((len(policies), horizon), dtype=np.intp)
    for j, pol in enumerate(policies):
        for t in range(horizon):
            sampled = pol.offer(t)
            if sampled is not None:
                reported[j, t] = True
                out[j, t] = sampled
    return reported, out


def _stacked_offers(stacked, horizon):
    """Same matrices through StackedParticipation.step().

    Sampled steps count from adoption: an item < 0 lies in the buffer
    the scalar policy held when it was adopted.
    """
    reported = np.zeros((stacked.n, horizon), dtype=bool)
    out = np.zeros((stacked.n, horizon), dtype=np.intp)
    for t in range(horizon):
        fired, within = stacked.step()
        rows = np.nonzero(fired)[0]
        reported[rows, t] = True
        out[rows, t] = t - (stacked.window[rows] - 1 - within[rows])
    return reported, out


def _assert_same_streams(scalar, stacked_pols):
    """Counters, keys and draw counters agree policy by policy."""
    for a, b in zip(scalar, stacked_pols):
        assert a.reports_sent == b.reports_sent
        assert a.windows_seen == b.windows_seen
        # same key, and the stacked path advanced each counter exactly
        # as the scalar call sequence did: once per coin
        assert a._key == b._key
        assert a._draws == b._draws == a.windows_seen


class TestStackedParticipation:
    SPECS = [
        (0.5, 3, 2),
        (0.0, 2, 5),  # p=0: always refuses, still consumes the coin
        (1.0, 4, 1),  # p=1: always reports at the first boundary
        (0.7, 1, 3),  # window=1: a coin every step
        (0.9, 50, 2),  # window longer than any test horizon
        (0.8, 3, 0),  # max_reports=0: exhausted from the start, no RNG
        (0.6, 5, 10),
    ]

    def test_matches_scalar_offers_and_streams(self):
        horizon = 30
        scalar = _population(self.SPECS, seed=3)
        stacked_pols = _population(self.SPECS, seed=3)
        stacked = StackedParticipation(stacked_pols)
        rep_s, out_s = _scalar_offers(scalar, horizon)
        rep_a, out_a = _stacked_offers(stacked, horizon)
        np.testing.assert_array_equal(rep_s, rep_a)
        np.testing.assert_array_equal(out_s, out_a)
        assert rep_s.any() and not rep_s.all()
        stacked.writeback()
        _assert_same_streams(scalar, stacked_pols)
        assert sum(p._draws for p in stacked_pols) > 0

    def test_exhausted_agents_consume_no_rng(self):
        pol = RandomizedParticipation(p=0.8, window=3, max_reports=0, seed=1)
        key = pol._key
        stacked = StackedParticipation([pol])
        for _ in range(20):
            reported, _ = stacked.step()
            assert not reported.any()
        stacked.writeback()
        assert pol._key == key and pol._draws == 0
        assert pol.reports_sent == 0 and len(pol._buffer) == 0

    def test_window_longer_than_horizon_never_fires(self):
        pols = _population([(1.0, 40, 1)] * 3, seed=2)
        stacked = StackedParticipation(pols)
        for _ in range(10):
            reported, _ = stacked.step()
            assert not reported.any()
        assert (stacked.fill == 10).all()
        assert not stacked.flipped.any()
        assert (stacked.new_buffered == 10).all()

    def test_mid_stream_adoption_continues_scalar_state(self):
        """Adopting policies with partial buffers / spent budgets mid-run
        reproduces the scalar continuation exactly."""
        horizon_pre, horizon_post = 7, 20
        scalar = _population(self.SPECS, seed=9)
        adopted = _population(self.SPECS, seed=9)
        pre_s = _scalar_offers(scalar, horizon_pre)
        pre_a = _scalar_offers(adopted, horizon_pre)  # object path prefix
        np.testing.assert_array_equal(pre_s[0], pre_a[0])
        np.testing.assert_array_equal(pre_s[1], pre_a[1])
        stacked = StackedParticipation(adopted)
        assert (stacked.fill == [len(p._buffer) for p in adopted]).all()
        rep_s, post_s = _scalar_offers(scalar, horizon_post)
        # the stacked continuation counts steps from adoption; sampled
        # indices < 0 refer into the pre-adoption buffer (and -1, its
        # last item, is a valid sample: "no report" is the mask)
        rep_a, post_a = _stacked_offers(stacked, horizon_post)
        np.testing.assert_array_equal(rep_s, rep_a)
        # scalar offers used absolute step indices 0..horizon_post-1 in
        # the post phase; items carried over from the pre phase appear
        # as their pre-phase indices.  Translate the stacked view: a
        # sampled index s >= 0 is post-step s; s < 0 is pre-buffer
        # position (s + b0) where b0 was the fill at adoption.
        fresh = _population(self.SPECS, seed=9)
        _scalar_offers(fresh, horizon_pre)
        fills0 = [len(p._buffer) for p in fresh]
        for j, t in zip(*np.nonzero(rep_s)):
            s_val, a_val = post_s[j, t], post_a[j, t]
            if a_val >= 0:
                assert s_val == a_val
            else:
                # pre-buffer item: scalar offered a pre-phase step
                pre_items = list(range(horizon_pre - fills0[j], horizon_pre))
                assert s_val == pre_items[a_val + fills0[j]]
        stacked.writeback()
        _assert_same_streams(scalar, adopted)

    def test_adoption_sampling_last_pre_buffer_item(self):
        """A report of the last pre-adoption item (stacked index -1) is
        a report, not silence: find a seed whose first stacked report
        samples it, and check it against the scalar continuation."""
        for seed in range(200):
            scalar = _population([(1.0, 4, 1)], seed=seed)[0]
            adopted = _population([(1.0, 4, 1)], seed=seed)
            for pol in (scalar, adopted[0]):
                pol.offer("pre0"), pol.offer("pre1")
            stacked = StackedParticipation(adopted)
            assert scalar.offer("post0") is None
            sampled = scalar.offer("post1")
            assert not stacked.step()[0].any()
            reported, within = stacked.step()
            assert reported[0] and sampled is not None
            back = stacked.window[0] - 1 - within[0]
            if 1 - back == -1:
                assert sampled == "pre1"
                return
        pytest.fail("no seed in range(200) sampled the last pre-adoption item")

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            StackedParticipation([])


class TestKeyedCoin:
    """The coin is the privacy lever (Eq. 3's eps rests on p): the keyed
    draw must flip at rate p, and a device must never replay a coin."""

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_stacked_coin_rate_within_5_sigma(self, p):
        n_agents, n_windows = 1000, 100  # 10^5 agent-windows
        pols = _population([(p, 1, n_windows)] * n_agents, seed=17)
        stacked = StackedParticipation(pols)
        for _ in range(n_windows):
            stacked.step()
        n = int(stacked.windows_seen.sum())
        assert n == n_agents * n_windows
        rate = stacked.reports_sent.sum() / n
        assert abs(rate - p) < 5 * np.sqrt(p * (1 - p) / n)

    def test_reset_does_not_replay_coins(self):
        def coins(pol, n):
            return [pol.offer(i) is not None for i in range(n)]

        pol = RandomizedParticipation(p=0.5, window=1, max_reports=1000, seed=4)
        first = coins(pol, 64)
        pol.reset()
        assert pol._draws == 64  # the counter does not rewind
        again = coins(pol, 64)
        assert first != again
        # a fresh device on the same seed replays the first 64 coins:
        # only reset must not
        fresh = RandomizedParticipation(p=0.5, window=1, max_reports=1000, seed=4)
        assert coins(fresh, 64) == first
