"""Tests for repro.core.server."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import LinUCB
from repro.core import (
    EncodedReport,
    NonPrivateServer,
    PrivateServer,
    RawReport,
    ReportLog,
    drain_report_batches,
)
from repro.encoding import KMeansEncoder
from repro.utils.exceptions import ValidationError


class _Device:
    """One device's pending reports, as the collection drain reads them:
    its rows in a report log."""

    def __init__(self, reports):
        encoded = isinstance(reports[0], EncodedReport)
        self.report_log, self.report_row = ReportLog("encoded" if encoded else "raw"), 0
        for r in reports:
            self.report_log.append(
                [0], [r.code if encoded else r.context], [r.action], [r.reward], [-1]
            )


def _drained(reports):
    """The report columns collection hands the server for ``reports``."""
    encoded, raw = drain_report_batches([_Device(reports)])
    return encoded if len(encoded) else raw


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
    """Report objects drained to columns train the server bit-identically
    to the same columns handed over directly."""

    def _batch(self, rng, n=40):
        codes = rng.integers(0, 4, size=n)
        actions = rng.integers(0, 2, size=n)
        rewards = rng.random(n)
        reports = [
            EncodedReport(code=int(c), action=int(a), reward=float(r))
            for c, a, r in zip(codes, actions, rewards)
        ]
        return codes, actions, rewards, reports

    @pytest.mark.parametrize("context_mode", ["one-hot", "centroid"])
    def test_private_arrays_match_objects(self, encoder, rng, context_mode):
        codes, actions, rewards, reports = self._batch(rng)
        dim = 4 if context_mode == "one-hot" else 3
        s_obj = PrivateServer(LinUCB(2, dim, seed=0), encoder, context_mode=context_mode)
        s_arr = PrivateServer(LinUCB(2, dim, seed=0), encoder, context_mode=context_mode)
        drained = _drained(reports)
        s_obj.ingest_arrays(drained.codes, drained.actions, drained.rewards)
        s_arr.ingest_arrays(codes, actions, rewards)
        assert s_obj.n_tuples_ingested == s_arr.n_tuples_ingested
        assert s_obj.n_batches == s_arr.n_batches
        st1, st2 = s_obj.model_snapshot(), s_arr.model_snapshot()
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

    def test_nonprivate_arrays_match_objects(self, rng):
        contexts = rng.dirichlet(np.ones(3), size=20)
        actions = rng.integers(0, 2, size=20)
        rewards = rng.random(20)
        reports = [
            RawReport(context=c, action=int(a), reward=float(r))
            for c, a, r in zip(contexts, actions, rewards)
        ]
        s_obj = NonPrivateServer(LinUCB(2, 3, seed=0))
        s_arr = NonPrivateServer(LinUCB(2, 3, seed=0))
        drained = _drained(reports)
        s_obj.ingest_arrays(drained.contexts, drained.actions, drained.rewards)
        s_arr.ingest_arrays(contexts, actions, rewards)
        assert s_obj.n_tuples_ingested == s_arr.n_tuples_ingested
        st1, st2 = s_obj.model_snapshot(), s_arr.model_snapshot()
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
