"""Asynchronous collection: threshold-fill release, no global barrier.

Devices report on per-agent clocks; the shuffler buffers tuples and
releases a code the moment its crowd (``>= threshold`` across the whole
buffer) has filled.  Sub-threshold tuples keep waiting — surviving even
their reporter's departure — and are dropped only by the final flush.
"""

from __future__ import annotations

import numpy as np

from repro.core import Shuffler
from repro.core.config import AgentMode, P2BConfig
from repro.core.system import P2BSystem


class TestShufflerBuffer:
    def test_subthreshold_tuples_stay_pending(self):
        sh = Shuffler(threshold=3, seed=0)
        assert sh.buffer_arrays([1, 1], [0, 0], [1.0, 1.0]) == 2
        codes, _, _, stats = sh.release_ready()
        assert codes.shape[0] == 0
        assert stats.n_released == 0
        assert stats.n_dropped == 0  # retained, not dropped
        assert sh.n_pending == 2

    def test_release_when_crowd_fills_across_buffers(self):
        sh = Shuffler(threshold=3, seed=0)
        sh.buffer_arrays([5, 5], [0, 1], [0.5, 0.6])
        sh.release_ready()  # crowd of 2 < 3: still pending
        sh.buffer_arrays([5], [2], [0.7])
        codes, actions, rewards, stats = sh.release_ready()
        assert list(codes) == [5, 5, 5]
        assert sorted(actions) == [0, 1, 2]
        assert stats.n_released == 3
        assert sh.n_pending == 0

    def test_partial_release_keeps_stragglers(self):
        sh = Shuffler(threshold=2, seed=0)
        sh.buffer_arrays([1, 1, 2], [0, 0, 0], [1.0, 1.0, 1.0])
        codes, _, _, stats = sh.release_ready()
        assert sorted(codes) == [1, 1]
        assert stats.n_released == 2
        assert sh.n_pending == 1  # code 2 waits for a crowd-mate

    def test_final_flush_drops_stragglers(self):
        sh = Shuffler(threshold=2, seed=0)
        sh.buffer_arrays([1, 2, 2], [0, 0, 0], [1.0, 1.0, 1.0])
        codes, _, _, stats = sh.release_ready(final=True)
        assert sorted(codes) == [2, 2]
        assert stats.n_dropped == 1
        assert sh.n_pending == 0

    def test_audit_holds_per_release(self):
        rng = np.random.default_rng(3)
        sh = Shuffler(threshold=4, seed=0)
        for _ in range(10):
            batch = rng.integers(0, 6, size=rng.integers(1, 8))
            sh.buffer_arrays(batch, np.zeros_like(batch), np.ones(batch.size))
            *_, stats = sh.release_ready()
            stats.audit.raise_if_violated()
        *_, stats = sh.release_ready(final=True)
        stats.audit.raise_if_violated()

    def test_misaligned_columns_quarantined(self):
        # malformed transport batches are refused at the door, not raised:
        # collection must survive one bad reporter (see ISSUE 8)
        sh = Shuffler(threshold=2, seed=0)
        assert sh.buffer_arrays([1, 2], [0], [1.0, 1.0]) == 0
        assert sh.total_quarantined == 2
        *_, stats = sh.release_ready()
        assert stats.n_quarantined == 2
        # counter resets once reported
        *_, stats = sh.release_ready()
        assert stats.n_quarantined == 0

    def test_rng_discipline_matches_batch_path(self):
        """One permutation draw per non-empty release, none when empty —
        so async and batch shufflers stay interchangeable mid-stream."""
        a = Shuffler(threshold=1, seed=42)
        b = Shuffler(threshold=1, seed=42)
        a.buffer_arrays([1, 2, 3], [0, 0, 0], [1.0, 1.0, 1.0])
        ra = a.release_ready()
        rb = b.process_arrays(
            np.array([1, 2, 3]), np.array([0, 0, 0]), np.array([1.0, 1.0, 1.0])
        )
        np.testing.assert_array_equal(ra[0], rb[0])
        # empty release consumes nothing: the next draws still agree
        a.release_ready()
        a.buffer_arrays([7, 7], [0, 1], [1.0, 1.0])
        rb2 = b.process_arrays(np.array([7, 7]), np.array([0, 1]), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(a.release_ready()[1], rb2[1])


def _private_system(threshold=3, seed=0, window=2, max_reports=4, p=0.9):
    config = P2BConfig(
        n_actions=3,
        n_features=4,
        n_codes=4,
        shuffler_threshold=threshold,
        window=window,
        max_reports_per_user=max_reports,
        p=p,
    )
    return P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=seed)


def _interact(agent, rng, steps):
    for _ in range(steps):
        x = rng.dirichlet(np.ones(4))
        action = agent.act(x)
        agent.learn(x, action, float(rng.random()))


class TestSystemAsync:
    def test_collect_async_releases_when_threshold_fills(self):
        system = _private_system(threshold=2)
        rng = np.random.default_rng(0)
        agents = [system.new_agent() for _ in range(8)]
        released_total = 0
        for agent in agents:  # per-agent clocks: one device at a time
            _interact(agent, rng, 6)
            outcome = system.collect_async([agent])
            released_total += outcome.n_released
        final = system.flush_async()
        assert released_total + final.n_released > 0
        assert system.n_pending_reports == 0

    def test_departed_agents_buffered_reports_release_later(self):
        """A straggler tuple outlives its reporter: crowd-mates arriving
        after the departure release it."""
        system = _private_system(threshold=50)  # nothing releases early
        rng = np.random.default_rng(1)
        early = system.new_agent()
        _interact(early, rng, 8)
        outcome = system.collect_async([early])
        assert outcome.n_released == 0
        pending_before = system.n_pending_reports
        assert pending_before > 0
        del early  # the device is gone; its tuples are not

        late = [system.new_agent() for _ in range(60)]
        for agent in late:
            _interact(agent, rng, 8)
        outcome = system.collect_async(late)
        final = system.flush_async()
        # at threshold 50 over 4 codes, some crowd must eventually fill —
        # and the release accounting covers every buffered tuple: nothing
        # is lost between the departure and the final flush
        assert outcome.n_released > 0
        assert system.n_pending_reports == 0
        released_or_dropped = (
            outcome.n_released + final.n_released + final.shuffler_stats.n_dropped
        )
        assert released_or_dropped == pending_before + outcome.n_reports

    def test_nonprivate_degenerates_to_direct_ingest(self):
        config = P2BConfig(
            n_actions=3, n_features=4, n_codes=4, window=2, max_reports_per_user=4, p=0.9
        )
        system = P2BSystem(config, mode=AgentMode.WARM_NONPRIVATE, seed=0)
        rng = np.random.default_rng(2)
        agent = system.new_agent()
        _interact(agent, rng, 6)
        outcome = system.collect_async([agent])
        assert outcome.n_released == outcome.n_reports
        assert system.n_pending_reports == 0
        assert system.flush_async().n_released == 0

    def test_cold_mode_noop(self):
        config = P2BConfig(n_actions=3, n_features=4, n_codes=4)
        system = P2BSystem(config, mode=AgentMode.COLD, seed=0)
        agent = system.new_agent()
        assert system.collect_async([agent]).n_released == 0
        assert system.flush_async().n_released == 0

    def test_async_total_matches_sync_collection_counts(self):
        """Same reports in: async (released + final-drop) accounting must
        cover every report a synchronous round would have seen."""
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        sync_system = _private_system(threshold=3, seed=9)
        async_system = _private_system(threshold=3, seed=9)

        sync_agents = [sync_system.new_agent() for _ in range(10)]
        async_agents = [async_system.new_agent() for _ in range(10)]
        for agent in sync_agents:
            _interact(agent, rng_a, 6)
        for agent in async_agents:
            _interact(agent, rng_b, 6)

        sync_out = sync_system.collect(sync_agents)
        n_async_reports = 0
        for agent in async_agents:  # trickle in one device at a time
            n_async_reports += async_system.collect_async([agent]).n_reports
        async_system.flush_async()
        assert n_async_reports == sync_out.n_reports
