"""Tests for repro.core.server."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import CodeLinUCB, LinUCB
from repro.core import NonPrivateServer, PrivateServer, ReportLog, drain_report_batches
from repro.encoding import KMeansEncoder
from repro.utils.exceptions import ValidationError


class _Device:
    """One device's pending reports, as the collection drain reads them:
    its rows in a report log, appended one at a time as the sequential
    path appends them."""

    def __init__(self, kind, payload, actions, rewards):
        self.report_log, self.report_row = ReportLog(kind), 0
        for i, (y, a, r) in enumerate(zip(payload, actions, rewards)):
            self.report_log.append([0], [y], [a], [r], [i + 1])


def _drained(kind, payload, actions, rewards):
    """The report columns collection hands the server for these rows."""
    encoded, raw = drain_report_batches([_Device(kind, payload, actions, rewards)])
    return encoded if kind == "encoded" else raw


@pytest.fixture(scope="module")
def encoder() -> KMeansEncoder:
    return KMeansEncoder(n_codes=4, n_features=3, n_fit_samples=1000, seed=0).fit()


class TestPrivateServer:
    def test_feature_mismatch_rejected(self, encoder):
        with pytest.raises(ValidationError, match="one-hot contexts"):
            PrivateServer(LinUCB(2, 3, seed=0), encoder)

    def test_centroid_mode_feature_check(self, encoder):
        # centroid mode expects n_features = encoder.n_features (3)
        PrivateServer(LinUCB(2, 3, seed=0), encoder, context_mode="centroid")
        with pytest.raises(ValidationError, match="centroid contexts"):
            PrivateServer(LinUCB(2, 4, seed=0), encoder, context_mode="centroid")

    def test_centroid_ingest_trains_on_centroids(self, encoder):
        import numpy as np

        server = PrivateServer(LinUCB(2, 3, seed=0), encoder, context_mode="centroid")
        server.ingest_arrays([1] * 6, [0] * 6, [1.0] * 6)
        centroid = encoder.decode(1)
        est = server.policy.expected_rewards(centroid)
        assert est[0] > est[1]

    def test_invalid_context_mode(self, encoder):
        with pytest.raises(ValidationError, match="context_mode"):
            PrivateServer(LinUCB(2, 3, seed=0), encoder, context_mode="fourier")

    def test_ingest_trains_on_one_hot(self, encoder):
        server = PrivateServer(LinUCB(2, 4, seed=0), encoder)
        server.ingest_arrays([1] * 5, [0] * 5, [1.0] * 5)
        assert server.n_tuples_ingested == 5
        # arm 0 must now predict high reward for one-hot code 1
        one_hot = np.zeros(4)
        one_hot[1] = 1.0
        est = server.policy.expected_rewards(one_hot)
        assert est[0] > est[1]

    def test_out_of_range_code_rejected(self, encoder):
        server = PrivateServer(LinUCB(2, 4, seed=0), encoder)
        with pytest.raises(ValidationError, match="outside the codebook"):
            server.ingest_arrays([4], [0], [1.0])

    def test_empty_batch_counts_round(self, encoder):
        server = PrivateServer(LinUCB(2, 4, seed=0), encoder)
        server.ingest_arrays([], [], [])
        assert server.n_batches == 1 and server.n_tuples_ingested == 0

    def test_snapshot_is_deep(self, encoder):
        server = PrivateServer(LinUCB(2, 4, seed=0), encoder)
        snap = server.model_snapshot()
        snap["b"][0, 0] = 99.0
        assert server.policy.b[0, 0] == 0.0

    def test_order_invariance(self, encoder, rng):
        codes = rng.integers(0, 4, size=30)
        actions = rng.integers(0, 2, size=30)
        rewards = rng.random(30)
        s1 = PrivateServer(LinUCB(2, 4, seed=0), encoder)
        s2 = PrivateServer(LinUCB(2, 4, seed=0), encoder)
        s1.ingest_arrays(codes, actions, rewards)
        perm = rng.permutation(30)
        s2.ingest_arrays(codes[perm], actions[perm], rewards[perm])
        np.testing.assert_allclose(s1.policy.theta, s2.policy.theta, atol=1e-9)


class TestIngestArrays:
    """Report rows drained from a log train the server bit-identically
    to the same columns handed over directly."""

    @pytest.mark.parametrize("context_mode", ["one-hot", "centroid"])
    def test_private_drained_rows_match_arrays(self, encoder, rng, context_mode):
        codes = rng.integers(0, 4, size=40)
        actions = rng.integers(0, 2, size=40)
        rewards = rng.random(40)
        dim = 4 if context_mode == "one-hot" else 3
        s_rows = PrivateServer(LinUCB(2, dim, seed=0), encoder, context_mode=context_mode)
        s_arr = PrivateServer(LinUCB(2, dim, seed=0), encoder, context_mode=context_mode)
        drained = _drained("encoded", codes, actions, rewards)
        s_rows.ingest_arrays(drained.codes, drained.actions, drained.rewards)
        s_arr.ingest_arrays(codes, actions, rewards)
        assert s_rows.n_tuples_ingested == s_arr.n_tuples_ingested
        assert s_rows.n_batches == s_arr.n_batches
        st1, st2 = s_rows.model_snapshot(), s_arr.model_snapshot()
        for key in st1:
            np.testing.assert_array_equal(
                np.asarray(st1[key]), np.asarray(st2[key]), err_msg=key
            )

    def test_centroid_mode_uses_decode_batch_bit_equal(self, encoder, rng):
        """Satellite: the batched decode feeds update_batch the exact
        rows the per-code decode loop used to build."""
        codes = rng.integers(0, 4, size=25)
        looped = np.stack([encoder.decode(int(c)) for c in codes])
        batched = encoder.decode_batch(codes)
        np.testing.assert_array_equal(looped, batched)

    def test_private_arrays_empty_counts_round(self, encoder):
        server = PrivateServer(LinUCB(2, 4, seed=0), encoder)
        server.ingest_arrays(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))
        assert server.n_batches == 1 and server.n_tuples_ingested == 0

    def test_private_arrays_validation(self, encoder):
        server = PrivateServer(LinUCB(2, 4, seed=0), encoder)
        with pytest.raises(ValidationError, match="outside the codebook"):
            server.ingest_arrays(np.array([9]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValidationError, match="matching lengths"):
            server.ingest_arrays(np.array([1]), np.array([0, 1]), np.array([1.0]))

    def test_nonprivate_drained_rows_match_arrays(self, rng):
        contexts = rng.dirichlet(np.ones(3), size=20)
        actions = rng.integers(0, 2, size=20)
        rewards = rng.random(20)
        s_rows = NonPrivateServer(LinUCB(2, 3, seed=0))
        s_arr = NonPrivateServer(LinUCB(2, 3, seed=0))
        drained = _drained("raw", contexts, actions, rewards)
        s_rows.ingest_arrays(drained.contexts, drained.actions, drained.rewards)
        s_arr.ingest_arrays(contexts, actions, rewards)
        assert s_rows.n_tuples_ingested == s_arr.n_tuples_ingested
        st1, st2 = s_rows.model_snapshot(), s_arr.model_snapshot()
        for key in st1:
            np.testing.assert_array_equal(
                np.asarray(st1[key]), np.asarray(st2[key]), err_msg=key
            )

    def test_nonprivate_arrays_validation(self):
        server = NonPrivateServer(LinUCB(2, 3, seed=0))
        with pytest.raises(ValidationError, match="dimension"):
            server.ingest_arrays(np.ones((2, 4)), np.zeros(2, np.intp), np.ones(2))
        with pytest.raises(ValidationError, match="2-D"):
            server.ingest_arrays(np.ones(3), np.zeros(1, np.intp), np.ones(1))


    def test_nonprivate_drained_nonfinite_context_refused(self):
        """Raw rows skip the shuffler, so the server is where a pending
        context with a NaN entry is refused, before any update."""
        contexts = np.array([[0.2, 0.3, 0.5], [np.nan, 0.5, 0.5]])
        drained = _drained("raw", contexts, [0, 1], [1.0, 0.0])
        server = NonPrivateServer(LinUCB(2, 3, seed=0))
        with pytest.raises(ValidationError, match="NaN or infinite"):
            server.ingest_arrays(drained.contexts, drained.actions, drained.rewards)
        assert server.n_tuples_ingested == 0


def _assert_refused_unchanged(server, columns):
    """``ingest_arrays(*columns)`` raises and leaves the model untouched."""
    before = server.model_snapshot()
    counters = (server.n_tuples_ingested, server.n_batches)
    with pytest.raises(ValidationError):
        server.ingest_arrays(*columns)
    assert (server.n_tuples_ingested, server.n_batches) == counters
    after = server.model_snapshot()
    assert after.keys() == before.keys()
    for key in before:
        np.testing.assert_array_equal(np.asarray(after[key]), np.asarray(before[key]), key)


#: one bad column each, next to good rows: (codes, actions, rewards)
_BAD_PRIVATE = {
    "negative-code": ([1, -1], [0, 1], [1.0, 0.0]),
    "nan-reward": ([1, 2], [0, 1], [1.0, np.nan]),
    "infinite-reward": ([1, 2], [0, 1], [np.inf, 0.0]),
    "negative-action": ([1, 2], [0, -1], [1.0, 0.0]),
    "action-past-the-arms": ([1, 2], [2, 0], [1.0, 0.0]),
}


class TestIngestRefusals:
    """A malformed batch raises ``ValidationError`` before any update."""

    @pytest.mark.parametrize("bad", sorted(_BAD_PRIVATE))
    @pytest.mark.parametrize("central", [LinUCB, CodeLinUCB])
    def test_private_model_unchanged(self, encoder, rng, central, bad):
        server = PrivateServer(central(2, 4, seed=0), encoder)
        server.ingest_arrays(rng.integers(0, 4, 30), rng.integers(0, 2, 30), rng.random(30))
        codes, actions, rewards = (np.array(c) for c in _BAD_PRIVATE[bad])
        _assert_refused_unchanged(server, (codes, actions, rewards))

    @pytest.mark.parametrize("bad", ["nan-reward", "infinite-reward", "negative-action"])
    def test_nonprivate_model_unchanged(self, rng, bad):
        server = NonPrivateServer(LinUCB(2, 3, seed=0))
        server.ingest_arrays(rng.dirichlet(np.ones(3), 30), rng.integers(0, 2, 30), rng.random(30))
        _, actions, rewards = (np.array(c) for c in _BAD_PRIVATE[bad])
        _assert_refused_unchanged(server, (rng.dirichlet(np.ones(3), 2), actions, rewards))


class TestNonPrivateServer:
    def test_ingest_raw(self, rng):
        server = NonPrivateServer(LinUCB(2, 3, seed=0))
        server.ingest_arrays(rng.dirichlet(np.ones(3), size=5), [0] * 5, [1.0] * 5)
        assert server.n_tuples_ingested == 5

    def test_dim_mismatch_rejected(self, rng):
        server = NonPrivateServer(LinUCB(2, 3, seed=0))
        with pytest.raises(ValidationError, match="dimension"):
            server.ingest_arrays(np.ones((1, 4)), [0], [0.0])

    def test_empty_batch(self):
        server = NonPrivateServer(LinUCB(2, 3, seed=0))
        server.ingest_arrays(np.empty((0, 3)), [], [])
        assert server.n_batches == 1
