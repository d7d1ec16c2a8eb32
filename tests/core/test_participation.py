"""Tests for repro.core.participation — the privacy-critical sampler.

Items are ``(payload, action, reward)`` triples, the form a device
holds: a payload is a code (an int) or a context row.
"""

from __future__ import annotations

import gc
import pickle
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


def _item(k: int) -> tuple:
    """A distinct interaction: payload ``k``, an action and a reward."""
    return (k, k % 3, k / 8)


class TestBasicBehaviour:
    def test_no_report_before_window(self):
        part = RandomizedParticipation(p=1.0, window=5, seed=0)
        assert all(part.offer(_item(i)) is None for i in range(4))

    def test_report_at_window_with_p_one(self):
        part = RandomizedParticipation(p=1.0, window=3, seed=0)
        part.offer(_item(0)), part.offer(_item(1))
        assert part.offer(_item(2)) in [_item(i) for i in range(3)]

    def test_never_reports_with_p_zero(self):
        part = RandomizedParticipation(p=0.0, window=2, max_reports=10, seed=0)
        assert all(part.offer(_item(i)) is None for i in range(100))
        assert part.windows_seen == 50

    def test_max_reports_budget(self):
        part = RandomizedParticipation(p=1.0, window=1, max_reports=3, seed=0)
        sent = [part.offer(_item(i)) for i in range(10)]
        assert sum(s is not None for s in sent) == 3
        assert part.exhausted

    def test_buffer_resets_after_flip(self):
        """Windows are disjoint: an old item can't be reported later."""
        part = RandomizedParticipation(p=1.0, window=2, max_reports=5, seed=0)
        part.offer(_item(0))
        first = part.offer(_item(1))
        assert first in (_item(0), _item(1))
        part.offer(_item(2))
        second = part.offer(_item(3))
        assert second in (_item(2), _item(3))

    def test_reset(self):
        part = RandomizedParticipation(p=1.0, window=1, max_reports=1, seed=0)
        part.offer(_item(0))
        assert part.exhausted
        part.reset()
        assert not part.exhausted
        assert part.offer(_item(1)) is not None

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            RandomizedParticipation(p=1.5)
        with pytest.raises(ValidationError):
            RandomizedParticipation(window=0)

    def test_item_is_read_only_when_kept(self):
        """``holds_next`` says whether an offer keeps its item; any other
        offer may pass ``None``, as ``LocalAgent.record_interaction``
        does instead of encoding an interaction no window keeps."""
        part = RandomizedParticipation(p=0.6, window=4, max_reports=50, seed=2)
        ref = RandomizedParticipation(p=0.6, window=4, max_reports=50, seed=2)
        for k in range(80):
            kept = part.holds_next
            out = part.offer(_item(k) if kept else None)
            assert out == ref.offer(_item(k))
            if kept:  # held in the open window, or reported as it closed
                assert _item(k) in (part.held, out)
        assert part.state() == ref.state()


class TestSamplingStatistics:
    def test_participation_rate_matches_p(self):
        """The empirical report rate must track p — eps depends on it."""
        p = 0.3
        n_agents = 4000
        sent = 0
        for i in range(n_agents):
            part = RandomizedParticipation(p=p, window=5, max_reports=1, seed=i)
            for t in range(5):
                if part.offer(_item(t)) is not None:
                    sent += 1
        rate = sent / n_agents
        assert rate == pytest.approx(p, abs=0.025)

    def test_within_window_choice_uniform(self):
        counts = np.zeros(4)
        for i in range(3000):
            part = RandomizedParticipation(p=1.0, window=4, seed=i)
            for t in range(4):
                out = part.offer(_item(t))
            counts[out[0]] += 1
        assert counts.min() > 600  # ~750 expected each

    def test_reproducible_given_seed(self):
        def run(seed):
            part = RandomizedParticipation(p=0.5, window=3, max_reports=2, seed=seed)
            return [part.offer(_item(i)) for i in range(12)]

        assert run(7) == run(7)
        assert run(7) != run(8)

    @given(st.floats(0.0, 1.0), st.integers(1, 10), st.integers(0, 3))
    @settings(max_examples=50)
    def test_property_budget_never_exceeded(self, p, window, budget):
        part = RandomizedParticipation(p=p, window=window, max_reports=budget, seed=0)
        sent = sum(part.offer(_item(i)) is not None for i in range(200))
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
    state = pol.state()
    assert state["keys"] == ref._key
    assert (state["draws"], state["reports_sent"], state["windows_seen"]) == (
        ref._draws,
        ref.reports_sent,
        ref.windows_seen,
    )
    assert state["fill"] == len(ref._buffer)
    if 0 <= state["pick"] < state["fill"]:
        assert state["held"] == ref._buffer[state["pick"]]
    else:
        assert state["held"] is None


_SPEC = st.tuples(st.sampled_from([0.0, 0.3, 0.5, 1.0]), st.integers(1, 6), st.integers(0, 3))


def _stack(policies) -> StackedParticipation:
    """A store holding ``policies``' rows, each policy bound to its row."""
    stacked = StackedParticipation(0)
    stacked.join(policies)
    return stacked


def _step(stacked, t):
    """Offer every device the item of step ``t``; the reporting rows."""
    n = stacked.n
    return stacked.step(np.full(n, t), np.zeros(n, dtype=np.intp), np.zeros(n))


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
            item = _item(t)
            assert pol.offer(item) == ref.offer(item)
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
        """A scalar prefix (with resets), a join, then stacked steps:
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
                assert pol.offer(_item(1000 + t)) == ref.offer(_item(1000 + t))
        stacked = _stack(pols)
        for t in range(horizon):
            reported = set(_step(stacked, t).tolist())
            for j, ref in enumerate(refs):
                expected = ref.offer((t, 0, 0.0))
                if j not in reported:
                    assert expected is None
                else:  # this run's step, or an item held before the join
                    assert expected == stacked.item(j)
        for pol, ref in zip(pols, refs):
            _assert_matches_reference(pol, ref)


class TestHeldItemsOnly:
    """A window holds one item, not ``window`` of them: a device's
    memory does not grow with ``T``."""

    def test_scalar_window_of_1000_keeps_at_most_one_item(self):
        pol = RandomizedParticipation(p=1.0, window=1000, max_reports=1, seed=3)
        refs = []
        for k in range(999):
            item = np.full(4, float(k))
            refs.append(weakref.ref(item))
            assert pol.offer((item, 0, 0.0)) is None
            del item
        gc.collect()
        # the held item is a copy in the device's row: no offered
        # array stays alive, and the row holds the picked one
        assert all(r() is None for r in refs)
        assert pol.fill == 999
        held = pol.held
        if pol.pick < 999:
            np.testing.assert_array_equal(held[0], np.full(4, float(pol.pick)))
        else:
            assert held is None


# --------------------------------------------------------------------- #
# StackedParticipation: the columns and their vectorized step
# --------------------------------------------------------------------- #
def _population(specs, seed=0):
    """One RandomizedParticipation per (p, window, max_reports) spec."""
    return [
        RandomizedParticipation(p=p, window=w, max_reports=m, seed=s)
        for (p, w, m), s in zip(specs, spawn_seeds(seed, len(specs)))
    ]


def _scalar_offers(policies, horizon, start=0):
    """Reference: ``(reported, payload)`` matrices per (agent, t).

    Payloads are the step indices ``start + t``, so ``payload`` pins
    *which* interaction each report sampled (0 where not ``reported``).
    """
    reported = np.zeros((len(policies), horizon), dtype=bool)
    out = np.zeros((len(policies), horizon), dtype=np.intp)
    for j, pol in enumerate(policies):
        for t in range(horizon):
            sampled = pol.offer((start + t, 0, 0.0))
            if sampled is not None:
                reported[j, t] = True
                out[j, t] = sampled[0]
    return reported, out


def _stacked_offers(stacked, horizon, start=0):
    """Same matrices through StackedParticipation.step()."""
    reported = np.zeros((stacked.n, horizon), dtype=bool)
    out = np.zeros((stacked.n, horizon), dtype=np.intp)
    for t in range(horizon):
        rows = _step(stacked, start + t)
        reported[rows, t] = True
        out[rows, t] = stacked.held_payload[rows]
    return reported, out


def _assert_same_streams(scalar, joined):
    """Every device's state agrees; counters advanced once per window."""
    for a, b in zip(scalar, joined):
        assert a.state() == b.state()
        assert a._draws == a.windows_seen


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
        joined = _population(self.SPECS, seed=3)
        stacked = _stack(joined)
        rep_s, out_s = _scalar_offers(scalar, horizon)
        rep_a, out_a = _stacked_offers(stacked, horizon)
        np.testing.assert_array_equal(rep_s, rep_a)
        np.testing.assert_array_equal(out_s, out_a)
        assert rep_s.any() and not rep_s.all()
        _assert_same_streams(scalar, joined)
        assert stacked.draws.sum() > 0

    def test_joined_device_is_its_store_row(self):
        """One state, two forms: a joined device's scalar offers and the
        stacked steps advance the same row, interleaved in any order."""
        scalar = _population(self.SPECS, seed=5)
        joined = _population(self.SPECS, seed=5)
        stacked = _stack(joined)
        for t in range(24):
            if t % 3 == 0:
                rep_a, out_a = _stacked_offers(stacked, 1, start=t)
            else:
                rep_a, out_a = _scalar_offers(joined, 1, start=t)
            rep_s, out_s = _scalar_offers(scalar, 1, start=t)
            np.testing.assert_array_equal(rep_s, rep_a)
            np.testing.assert_array_equal(out_s, out_a)
        _assert_same_streams(scalar, joined)
        for j, pol in enumerate(joined):
            assert pol.fill == stacked.fill[j] and pol.pick == stacked.pick[j]

    def test_exhausted_agents_consume_no_rng(self):
        pol = RandomizedParticipation(p=0.8, window=3, max_reports=0, seed=1)
        key = pol._key
        stacked = _stack([pol])
        for t in range(20):
            assert _step(stacked, t).size == 0
        assert stacked.keys[0] == key and stacked.draws[0] == 0
        assert stacked.reports_sent[0] == 0 and stacked.fill[0] == 0
        assert stacked.held_payload is None and pol.held is None

    def test_window_longer_than_horizon_never_fires(self):
        pols = _population([(1.0, 40, 1)] * 3, seed=2)
        stacked = _stack(pols)
        for t in range(10):
            assert _step(stacked, t).size == 0
        assert (stacked.fill == 10).all()
        # no window closed, and each open window drew its pick when it
        # opened: the step at the pick is held iff it fell in the run
        assert (stacked.draws == 0).all() and (stacked.windows_seen == 0).all()
        assert (stacked.pick >= 0).all()
        for pol in pols:
            assert pol.held == ((pol.pick, 0, 0.0) if pol.pick < 10 else None)

    def test_mid_stream_join_continues_scalar_state(self):
        """Joining devices with partial windows / spent budgets mid-run
        reproduces the scalar continuation exactly."""
        horizon_pre, horizon_post = 7, 20
        scalar = _population(self.SPECS, seed=9)
        joined = _population(self.SPECS, seed=9)
        pre_s = _scalar_offers(scalar, horizon_pre)
        pre_a = _scalar_offers(joined, horizon_pre)  # scalar prefix
        np.testing.assert_array_equal(pre_s[0], pre_a[0])
        np.testing.assert_array_equal(pre_s[1], pre_a[1])
        before = [p.state() for p in joined]
        stacked = _stack(joined)
        assert [p.state() for p in joined] == before
        rep_s, post_s = _scalar_offers(scalar, horizon_post, start=horizon_pre)
        rep_a, post_a = _stacked_offers(stacked, horizon_post, start=horizon_pre)
        np.testing.assert_array_equal(rep_s, rep_a)
        # a report of an item held before the join is its pre-join step
        np.testing.assert_array_equal(post_s, post_a)
        _assert_same_streams(scalar, joined)

    def test_join_then_report_last_pre_join_item(self):
        """A report of the last pre-join item (held in the device's row
        before the join) is a report, not silence: find a seed whose
        window picked it, and check it against the scalar
        continuation."""
        for seed in range(200):
            scalar = _population([(1.0, 4, 1)], seed=seed)[0]
            joined = _population([(1.0, 4, 1)], seed=seed)
            for pol in (scalar, joined[0]):
                pol.offer((0, 0, 0.0)), pol.offer((1, 0, 0.0))
            stacked = _stack(joined)
            pick = joined[0].pick
            assert scalar.offer((2, 0, 0.0)) is None
            sampled = scalar.offer((3, 0, 0.0))
            assert _step(stacked, 2).size == 0
            rows = _step(stacked, 3)
            assert rows.tolist() == [0] and sampled is not None
            if pick == 1:
                assert sampled == stacked.item(0) == (1, 0, 0.0)
                return
        pytest.fail("no seed in range(200) sampled the last pre-join item")

    def test_empty_store_steps_to_no_reports(self):
        stacked = StackedParticipation(0)
        stacked.join([])
        assert stacked.n == 0
        assert _step(stacked, 0).size == 0


class TestOneRowState:
    """A device that never joined a store holds a private one-row store;
    a departed device and a copy hold their own rows."""

    def test_pickle_is_a_copy(self):
        pols = _population([(0.7, 3, 5)] * 4, seed=6)
        stacked = _stack(pols)
        for t in range(5):
            _step(stacked, t)
        copy = pickle.loads(pickle.dumps(pols[2]))
        assert copy.state() == pols[2].state()
        assert copy._cols is not stacked
        before = pols[2].state()
        copy.offer((99, 0, 0.0))
        assert pols[2].state() == before

    def test_departed_row_is_a_copy(self):
        pols = _population([(0.7, 3, 5)] * 4, seed=8)
        stacked = _stack(pols)
        for t in range(4):
            _step(stacked, t)
        gone = pols[1].state()
        stacked.leave(pols, np.array([0, 2, 3]))
        assert pols[1].state() == gone and pols[1]._cols is not stacked
        for t in range(4, 10):
            _step(stacked, t)
        assert pols[1].state() == gone
        assert [p._row for p in (pols[0], pols[2], pols[3])] == [0, 1, 2]


class TestKeyedCoin:
    """The coin is the privacy lever (Eq. 3's eps rests on p): the keyed
    draw must flip at rate p, and a device must never replay a coin."""

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_stacked_coin_rate_within_5_sigma(self, p):
        n_agents, n_windows = 1000, 100  # 10^5 agent-windows
        stacked = _stack(_population([(p, 1, n_windows)] * n_agents, seed=17))
        for t in range(n_windows):
            _step(stacked, t)
        n = int(stacked.windows_seen.sum())
        assert n == n_agents * n_windows
        rate = stacked.reports_sent.sum() / n
        assert abs(rate - p) < 5 * np.sqrt(p * (1 - p) / n)

    def test_reset_does_not_replay_coins(self):
        def coins(pol, n):
            return [pol.offer(_item(i)) is not None for i in range(n)]

        pol = RandomizedParticipation(p=0.5, window=1, max_reports=1000, seed=4)
        first = coins(pol, 64)
        pol.reset()
        assert pol.state()["draws"] == 64  # the counter does not rewind
        again = coins(pol, 64)
        assert first != again
        # a fresh device on the same seed replays the first 64 coins:
        # only reset must not
        fresh = RandomizedParticipation(p=0.5, window=1, max_reports=1000, seed=4)
        assert coins(fresh, 64) == first
