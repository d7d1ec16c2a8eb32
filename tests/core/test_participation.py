"""Tests for repro.core.participation — the privacy-critical sampler."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bandits.keyed import (
    STREAM_PARTICIPATE,
    STREAM_WINDOW_INDEX,
    draw_key,
    keyed_index,
    keyed_uniform,
)
from repro.core import RandomizedParticipation, StackedParticipation
from repro.utils.exceptions import ValidationError
from repro.utils.rng import ensure_rng, spawn_seeds


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
# The buffer-then-sample reference: §3.1 read literally
# --------------------------------------------------------------------- #
class _BufferedParticipation:
    """§3.1 as written: buffer all ``window`` interactions, flip the
    keyed coin when the window closes and, on heads, draw the reported
    item's index into the full buffer.

    :class:`RandomizedParticipation` draws the same coin and index (same
    key, same counter) when the window opens and keeps only the picked
    item; this class pins that the one-item form is still this
    mechanism.
    """

    def __init__(self, p, window, max_reports, seed):
        self.p, self.window, self.max_reports = p, window, max_reports
        self._key = draw_key(ensure_rng(seed))
        self._buffer = []
        self._draws = self.reports_sent = self.windows_seen = 0

    def offer(self, item):
        if self.reports_sent >= self.max_reports:
            return None
        self._buffer.append(item)
        if len(self._buffer) < self.window:
            return None
        self.windows_seen += 1
        buffer, self._buffer = self._buffer, []
        counter = self._draws
        self._draws += 1
        if keyed_uniform(self._key, STREAM_PARTICIPATE, counter)[0] >= self.p:
            return None
        self.reports_sent += 1
        return buffer[int(keyed_index(self._key, STREAM_WINDOW_INDEX, counter, len(buffer))[0])]

    def reset(self):
        self._buffer.clear()
        self.reports_sent = 0
        self.windows_seen = 0


def _assert_matches_reference(pol, ref):
    """Counters agree, and the one held item is the reference buffer's
    item at the pick (none before the pick or on tails)."""
    assert pol._key == ref._key
    assert (pol._draws, pol.reports_sent, pol.windows_seen) == (
        ref._draws,
        ref.reports_sent,
        ref.windows_seen,
    )
    assert pol.fill == len(ref._buffer)
    if 0 <= pol._pick < pol.fill:
        assert pol._held is ref._buffer[pol._pick]
    else:
        assert pol._held is None


_SPEC = st.tuples(st.sampled_from([0.0, 0.3, 0.5, 1.0]), st.integers(1, 6), st.integers(0, 3))


class TestOneItemFormMatchesReference:
    @given(
        spec=_SPEC,
        seed=st.integers(0, 2**32 - 1),
        n_offers=st.integers(0, 60),
        resets=st.sets(st.integers(0, 59)),
    )
    @settings(max_examples=200, deadline=None)
    def test_scalar_matches_buffered_reference(self, spec, seed, n_offers, resets):
        p, window, budget = spec
        pol = RandomizedParticipation(p=p, window=window, max_reports=budget, seed=seed)
        ref = _BufferedParticipation(p, window, budget, seed)
        for t in range(n_offers):
            if t in resets:
                pol.reset(), ref.reset()
            item = object()
            assert pol.offer(item) is ref.offer(item)
            _assert_matches_reference(pol, ref)

    @given(
        specs=st.lists(_SPEC, min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        n_prefix=st.integers(0, 12),
        resets=st.sets(st.integers(0, 11)),
        horizon=st.integers(0, 30),
    )
    @settings(max_examples=100, deadline=None)
    def test_stacked_matches_buffered_reference(self, specs, seed, n_prefix, resets, horizon):
        """A scalar prefix (with resets), adoption, then stacked steps:
        every report, and the final state, is the reference's."""
        seeds = spawn_seeds(seed, len(specs))
        pols = [
            RandomizedParticipation(p=p, window=w, max_reports=m, seed=s)
            for (p, w, m), s in zip(specs, seeds)
        ]
        refs = [_BufferedParticipation(p, w, m, s) for (p, w, m), s in zip(specs, seeds)]
        for t in range(n_prefix):
            for pol, ref in zip(pols, refs):
                if t in resets:
                    pol.reset(), ref.reset()
                assert pol.offer(("pre", t)) == ref.offer(("pre", t))
        stacked = StackedParticipation(pols)
        for t in range(horizon):
            reported, sampled = stacked.step()
            for j, (pol, ref) in enumerate(zip(pols, refs)):
                expected = ref.offer(("run", t))
                if not reported[j]:
                    assert expected is None
                elif sampled[j] >= 0:
                    assert expected == ("run", sampled[j])
                else:  # the item the scalar policy held at adoption
                    assert expected == pol._held and expected[0] == "pre"
        for j, ref in enumerate(refs):
            assert stacked.keys[j] == ref._key
            assert _stacked_state(stacked, j) == (
                len(ref._buffer),
                ref._draws,
                ref.reports_sent,
                ref.windows_seen,
            )


class TestHeldItemsOnly:
    """A window holds one item, not ``window`` of them: a device's
    memory does not grow with ``T``."""

    def test_scalar_window_of_1000_keeps_at_most_one_item(self):
        pol = RandomizedParticipation(p=1.0, window=1000, max_reports=1, seed=3)
        refs = []
        for _ in range(999):
            item = np.zeros(4)
            refs.append(weakref.ref(item))
            assert pol.offer(item) is None
            del item
        gc.collect()
        alive = [r for r in refs if r() is not None]
        assert len(alive) <= 1
        assert pol.fill == 999
        if alive:
            assert alive[0]() is pol._held


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
    interaction each report sampled (0 where not ``reported``).
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

    Sampled steps count from adoption: -1 is the item the scalar policy
    held when it was adopted.
    """
    reported = np.zeros((stacked.n, horizon), dtype=bool)
    out = np.zeros((stacked.n, horizon), dtype=np.intp)
    for t in range(horizon):
        fired, sampled = stacked.step()
        rows = np.flatnonzero(fired)
        reported[rows, t] = True
        out[rows, t] = sampled[rows]
    return reported, out


def _stacked_state(stacked, j):
    """Agent ``j``'s fill level and counters, as Python ints."""
    return (
        int(stacked.fill[j]),
        int(stacked.draws[j]),
        int(stacked.reports_sent[j]),
        int(stacked.windows_seen[j]),
    )


def _assert_same_streams(scalar, stacked):
    """Counters, keys, draw counters and picks agree policy by policy."""
    for j, pol in enumerate(scalar):
        assert _stacked_state(stacked, j) == (
            pol.fill,
            pol._draws,
            pol.reports_sent,
            pol.windows_seen,
        )
        # same key, and the stacked path advanced each counter exactly
        # as the scalar call sequence did: once per window
        assert stacked.keys[j] == pol._key
        assert pol._draws == pol.windows_seen
        assert stacked.pick[j] == pol._pick


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
        stacked = StackedParticipation(_population(self.SPECS, seed=3))
        rep_s, out_s = _scalar_offers(scalar, horizon)
        rep_a, out_a = _stacked_offers(stacked, horizon)
        np.testing.assert_array_equal(rep_s, rep_a)
        np.testing.assert_array_equal(out_s, out_a)
        assert rep_s.any() and not rep_s.all()
        _assert_same_streams(scalar, stacked)
        assert stacked.draws.sum() > 0

    def test_exhausted_agents_consume_no_rng(self):
        pol = RandomizedParticipation(p=0.8, window=3, max_reports=0, seed=1)
        key = pol._key
        stacked = StackedParticipation([pol])
        for _ in range(20):
            reported, _ = stacked.step()
            assert not reported.any()
        assert stacked.keys[0] == key and stacked.draws[0] == 0
        assert stacked.reports_sent[0] == 0 and stacked.fill[0] == 0
        assert stacked.held_at[0] == -1

    def test_window_longer_than_horizon_never_fires(self):
        pols = _population([(1.0, 40, 1)] * 3, seed=2)
        stacked = StackedParticipation(pols)
        for _ in range(10):
            reported, _ = stacked.step()
            assert not reported.any()
        assert (stacked.fill == 10).all()
        # no window closed, and each open window drew its pick at the
        # first step: an in-run item is held iff the pick fell in it
        assert (stacked.draws == 0).all() and (stacked.windows_seen == 0).all()
        assert (stacked.pick >= 0).all()
        np.testing.assert_array_equal(
            stacked.held_at, np.where(stacked.pick < 10, stacked.pick, -1)
        )

    def test_mid_stream_adoption_continues_scalar_state(self):
        """Adopting policies with partial windows / spent budgets mid-run
        reproduces the scalar continuation exactly."""
        horizon_pre, horizon_post = 7, 20
        scalar = _population(self.SPECS, seed=9)
        adopted = _population(self.SPECS, seed=9)
        pre_s = _scalar_offers(scalar, horizon_pre)
        pre_a = _scalar_offers(adopted, horizon_pre)  # object path prefix
        np.testing.assert_array_equal(pre_s[0], pre_a[0])
        np.testing.assert_array_equal(pre_s[1], pre_a[1])
        stacked = StackedParticipation(adopted)
        assert (stacked.fill == [p.fill for p in adopted]).all()
        assert (stacked.pick == [p._pick for p in adopted]).all()
        held0 = [p._held for p in adopted]
        rep_s, post_s = _scalar_offers(scalar, horizon_post)
        # the stacked continuation counts steps from adoption; -1 is the
        # item the scalar policy held at adoption ("no report" is the
        # mask, not the index)
        rep_a, post_a = _stacked_offers(stacked, horizon_post)
        np.testing.assert_array_equal(rep_s, rep_a)
        # scalar offers used step indices 0..horizon_post-1 in the post
        # phase too; an item held from the pre phase is its pre-phase
        # step, the one the adopted policy still holds untouched
        for j, t in zip(*np.nonzero(rep_s)):
            s_val, a_val = post_s[j, t], post_a[j, t]
            if a_val >= 0:
                assert s_val == a_val
            else:
                assert s_val == held0[j] == adopted[j]._held
                assert s_val == horizon_pre - adopted[j].fill + adopted[j]._pick
        _assert_same_streams(scalar, stacked)

    def test_adoption_sampling_last_pre_buffer_item(self):
        """A report of the last pre-adoption item (stacked index -1, the
        adopted policy's held item) is a report, not silence: find a
        seed whose window picked it, and check it against the scalar
        continuation."""
        for seed in range(200):
            scalar = _population([(1.0, 4, 1)], seed=seed)[0]
            adopted = _population([(1.0, 4, 1)], seed=seed)
            for pol in (scalar, adopted[0]):
                pol.offer("pre0"), pol.offer("pre1")
            stacked = StackedParticipation(adopted)
            assert scalar.offer("post0") is None
            sampled = scalar.offer("post1")
            assert not stacked.step()[0].any()
            reported, at = stacked.step()
            assert reported[0] and sampled is not None
            if at[0] == -1 and adopted[0]._pick == 1:
                assert sampled == adopted[0]._held == "pre1"
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
