"""Tests for repro.core.shuffler — anonymize / shuffle / threshold."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ReportLog, Shuffler, drain_report_batches


def _columns(codes):
    """A report batch as the shuffler receives it: ``(code, action,
    reward)`` columns, and nothing that names a sender."""
    codes = np.asarray(codes, dtype=np.intp)
    return codes, np.zeros(codes.size, dtype=np.intp), np.ones(codes.size)


class TestAnonymization:
    def test_all_metadata_removed(self):
        """The release is bare ``(code, action, reward)`` columns: two
        logs holding the same tuples from different store rows, at
        different interaction indices, release the same bytes."""
        released = []
        for rows, indices in (([0, 1, 2, 3], [1, 1, 2, 5]), ([7, 7, 9, 4], [30, 2, 8, 8])):
            log = ReportLog("encoded")
            log.append(rows, [1, 1, 2, 2], [0, 1, 1, 0], [1.0, 0.5, 0.25, 0.0], indices)
            drained, _ = drain_report_batches(
                [SimpleNamespace(report_log=log, report_row=r) for r in dict.fromkeys(rows)]
            )
            *columns, _ = Shuffler(threshold=1, seed=0).process_arrays(
                drained.codes, drained.actions, drained.rewards
            )
            released.append(columns)
        assert len(released[0]) == 3  # nothing beside the tuple leaves the shuffler
        for got, want in zip(*released):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_tuples_unchanged(self):
        sh = Shuffler(threshold=1, seed=0)
        r_codes, r_actions, r_rewards, _ = sh.process_arrays(*_columns([3, 3]))
        assert list(zip(r_codes.tolist(), r_actions.tolist(), r_rewards.tolist())) == [
            (3, 0, 1.0),
            (3, 0, 1.0),
        ]


class TestShuffling:
    def test_order_randomized(self):
        codes = list(range(50)) * 2  # every code appears twice
        sh = Shuffler(threshold=1, seed=0)
        r_codes, *_ = sh.process_arrays(*_columns(codes))
        assert r_codes.tolist() != codes

    def test_content_preserved_when_no_thresholding(self):
        codes = [1, 1, 2, 2, 3, 3]
        sh = Shuffler(threshold=1, seed=0)
        r_codes, *_ = sh.process_arrays(*_columns(codes))
        assert sorted(r_codes.tolist()) == sorted(codes)


class TestThresholding:
    def test_rare_codes_dropped(self):
        codes = [1] * 5 + [2] * 2
        sh = Shuffler(threshold=3, seed=0)
        r_codes, _, _, stats = sh.process_arrays(*_columns(codes))
        assert set(r_codes.tolist()) == {1}
        assert stats.n_dropped == 2
        assert stats.codes_received == 2 and stats.codes_released == 1

    def test_exact_threshold_released(self):
        codes = [7] * 3
        sh = Shuffler(threshold=3, seed=0)
        r_codes, *_ = sh.process_arrays(*_columns(codes))
        assert r_codes.size == 3

    def test_empty_batch(self):
        sh = Shuffler(threshold=5, seed=0)
        r_codes, _, _, stats = sh.process_arrays(*_columns([]))
        assert r_codes.size == 0 and stats.n_received == 0
        assert stats.audit.satisfied

    def test_all_dropped(self):
        sh = Shuffler(threshold=10, seed=0)
        r_codes, _, _, stats = sh.process_arrays(*_columns([1, 2, 3]))
        assert r_codes.size == 0 and stats.n_dropped == 3


class TestCrowdBlendingInvariant:
    def test_release_always_satisfies_audit(self):
        sh = Shuffler(threshold=4, seed=0)
        *_, stats = sh.process_arrays(*_columns([1] * 6 + [2] * 3 + [3] * 4))
        assert stats.audit.satisfied
        stats.audit.raise_if_violated()

    @given(st.lists(st.integers(0, 10), max_size=100), st.integers(1, 8))
    @settings(max_examples=100)
    def test_property_released_codes_blend(self, codes, threshold):
        """For any input batch, every released code appears >= threshold
        times — the mechanism-level crowd-blending guarantee."""
        sh = Shuffler(threshold=threshold, seed=0)
        r_codes, _, _, stats = sh.process_arrays(*_columns(codes))
        assert stats.audit.satisfied
        from collections import Counter

        counts = Counter(r_codes.tolist())
        assert all(c >= threshold for c in counts.values())

    @given(st.lists(st.integers(0, 5), max_size=60), st.integers(1, 6))
    @settings(max_examples=60)
    def test_property_threshold_is_exact_filter(self, codes, threshold):
        """Thresholding drops exactly the tuples of under-threshold codes."""
        from collections import Counter

        sh = Shuffler(threshold=threshold, seed=0)
        r_codes, *_ = sh.process_arrays(*_columns(codes))
        counts = Counter(codes)
        expected = sorted(c for c in codes if counts[c] >= threshold)
        assert sorted(r_codes.tolist()) == expected


class TestColumnarPath:
    def test_array_path_empty_batch_consumes_no_rng(self):
        from repro.utils.rng import rng_state_digest

        shuffler = Shuffler(threshold=2, seed=0)
        before = rng_state_digest(shuffler._rng)
        out = shuffler.process_arrays(np.array([]), np.array([]), np.array([]))
        assert out[3].n_received == 0
        assert rng_state_digest(shuffler._rng) == before

    def test_huge_sparse_code_space_no_dense_allocation(self):
        """LSH-style 2^30 code ids must not blow up thresholding."""
        codes = np.array([2**30 - 1] * 4 + [123456789] * 2, dtype=np.intp)
        r_codes, _, _, stats = Shuffler(threshold=3, seed=1).process_arrays(
            codes, np.zeros(6, dtype=np.intp), np.ones(6)
        )
        assert set(r_codes.tolist()) == {2**30 - 1}
        assert stats.n_released == 4

    def test_stats_pinned_after_single_unique_refactor(self):
        """Satellite pin: ShufflerStats field-for-field golden values
        (the one-unique-call thresholding must not change any stat)."""
        codes = np.array([4, 4, 4, 9, 9, 2, 7, 7, 7, 7, 2], dtype=np.intp)
        _, _, _, stats = Shuffler(threshold=3, seed=5).process_arrays(
            codes, np.zeros(codes.size, dtype=np.intp), np.ones(codes.size)
        )
        assert stats.n_received == 11
        assert stats.n_released == 7
        assert stats.n_dropped == 4
        assert stats.codes_received == 4
        assert stats.codes_released == 2
        assert stats.audit.satisfied
        assert stats.audit.smallest == 3
        assert stats.audit.n_tuples == 7
        assert stats.audit.violations == {}

    def test_audit_accepts_ndarrays_natively(self):
        """Satellite: the audit consumes code arrays without a Python
        list round trip, with identical results."""
        from repro.privacy import verify_crowd_blending

        codes = np.array([1, 1, 1, 2, 2, 5], dtype=np.intp)
        from_array = verify_crowd_blending(codes, 3)
        from_list = verify_crowd_blending(codes.tolist(), 3)
        assert from_array == from_list
        assert from_array.violations == {2: 2, 5: 1}


class TestQuarantine:
    """Malformed tuples are refused at the door, never raised."""

    def test_malformed_rows_quarantined_row_wise(self):
        sh = Shuffler(threshold=1, seed=0)
        codes = np.array([1, -1, 1, 2, 2, 1])
        actions = np.array([0, 0, -1, 0, 0, 0])
        rewards = np.array([1.0, 1.0, 1.0, np.nan, np.inf, 1.0])
        r_codes, _, r_rewards, stats = sh.process_arrays(codes, actions, rewards)
        assert stats.n_quarantined == 4
        assert sh.total_quarantined == 4
        assert sorted(map(int, r_codes)) == [1, 1]  # only the clean rows
        assert np.isfinite(r_rewards).all()
        assert stats.audit.satisfied

    def test_out_of_range_codes_need_a_codebook_size(self):
        clean = (np.array([0, 99]), np.zeros(2, dtype=np.intp), np.ones(2))
        open_space = Shuffler(threshold=1, seed=0)
        r_codes, _, _, stats = open_space.process_arrays(*clean)
        assert stats.n_quarantined == 0 and r_codes.size == 2

        bounded = Shuffler(threshold=1, seed=0, n_codes=8)
        r_codes, _, _, stats = bounded.process_arrays(*clean)
        assert stats.n_quarantined == 1
        assert list(map(int, r_codes)) == [0]

    def test_clean_batches_consume_rng_exactly_as_before(self):
        """The quarantine stage must not perturb the permutation draw."""
        codes = np.arange(20) % 4
        actions = np.zeros(20, dtype=np.intp)
        rewards = np.ones(20)
        a = Shuffler(threshold=2, seed=5)
        b = Shuffler(threshold=2, seed=5, n_codes=4)
        ra = a.process_arrays(codes, actions, rewards)
        rb = b.process_arrays(codes, actions, rewards)
        np.testing.assert_array_equal(ra[0], rb[0])
        np.testing.assert_array_equal(ra[2], rb[2])

    def test_quarantined_batch_equals_clean_twin(self):
        """Dropping the bad rows first, the release stream is identical
        to a twin fed only the clean rows."""
        dirty = Shuffler(threshold=2, seed=9, n_codes=4)
        clean = Shuffler(threshold=2, seed=9, n_codes=4)
        codes = np.array([1, 1, -3, 2, 2, 7])  # -3 negative, 7 out of range
        r_dirty = dirty.process_arrays(
            codes, np.zeros(6, dtype=np.intp), np.ones(6)
        )
        r_clean = clean.process_arrays(
            np.array([1, 1, 2, 2]), np.zeros(4, dtype=np.intp), np.ones(4)
        )
        np.testing.assert_array_equal(r_dirty[0], r_clean[0])
        assert r_dirty[3].n_quarantined == 2 and r_clean[3].n_quarantined == 0

    def test_async_misaligned_batch_voided_whole(self):
        sh = Shuffler(threshold=1, seed=0)
        pending = sh.buffer_arrays([1, 2, 3], [0, 0], [1.0, 1.0, 1.0])
        assert pending == 0  # nothing pair-able entered the buffer
        assert sh.total_quarantined == 3
        sh.buffer_arrays([1], [0], [1.0])  # collection continues
        _, _, _, stats = sh.release_ready()
        assert stats.n_quarantined == 3  # reported once...
        _, _, _, stats = sh.release_ready()
        assert stats.n_quarantined == 0  # ...then the pending count resets
        assert sh.total_quarantined == 3  # the lifetime count does not

    def test_sync_misaligned_batch_voided_whole(self):
        """The one-batch path quarantines misaligned columns like the
        buffer does, and draws no permutation for them."""
        sh = Shuffler(threshold=1, seed=4)
        r_codes, r_actions, r_rewards, stats = sh.process_arrays(
            np.array([1, 2, 3]), np.array([0, 0]), np.array([1.0, 1.0, 1.0])
        )
        assert stats.n_quarantined == 3 and sh.total_quarantined == 3
        assert stats.n_received == 3
        assert stats.n_released == stats.n_dropped == 0
        assert r_codes.size == r_actions.size == r_rewards.size == 0
        # the next batch releases exactly what a fresh shuffler would
        batch = (np.array([5, 6, 5, 6]), np.array([0, 1, 2, 3]), np.array([0.1, 0.2, 0.3, 0.4]))
        after = sh.process_arrays(*batch)
        fresh = Shuffler(threshold=1, seed=4).process_arrays(*batch)
        for got, want in zip(after[:3], fresh[:3]):
            np.testing.assert_array_equal(got, want)
        assert after[3] == fresh[3]

    def test_counts_accumulate_across_batches(self):
        sh = Shuffler(threshold=1, seed=0, n_codes=4)
        sh.process_arrays(np.array([-1]), np.array([0]), np.array([1.0]))
        sh.buffer_arrays([9], [0], [1.0])
        sh.release_ready()
        assert sh.total_quarantined == 2
