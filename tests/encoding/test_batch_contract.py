"""The batch-API contract shared by every encoder.

``encode_batch(X)[i] == encode(X[i])`` and
``decode_batch(codes)[i] == decode(codes[i])`` must hold *bitwise*: the
fleet engine encodes and decodes through the batch methods only, and
its bit-identity with the sequential loop inherits both contracts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.encoding import GridEncoder, KMeansEncoder, LSHEncoder


def _kmeans():
    return KMeansEncoder(n_codes=16, n_features=12, n_fit_samples=800, seed=0).fit()


def _lsh():
    # d >= 10 is where a multi-right-hand-side least-squares solve
    # starts rounding differently from one solve per code
    return LSHEncoder(n_bits=8, n_features=12, seed=1).fit()


def _grid():
    return GridEncoder(n_features=4, q=1)


ENCODERS = [_kmeans, _lsh, _grid]
IDS = ["kmeans", "lsh", "grid"]


@pytest.mark.parametrize("factory", ENCODERS, ids=IDS)
def test_decode_batch_is_row_exact(factory):
    enc = factory()
    rng = np.random.default_rng(3)
    # every code once plus shuffled repeats, so deduplicating decoders
    # are exercised on unsorted input
    codes = np.concatenate(
        [np.arange(min(enc.n_codes, 256)), rng.integers(0, enc.n_codes, size=64)]
    )
    rng.shuffle(codes)
    batch = enc.decode_batch(codes)
    assert batch.shape == (codes.size, enc.n_features)
    for i, code in enumerate(codes):
        row = enc.decode(int(code))
        assert np.array_equal(batch[i], row), f"code {code} differs at row {i}"
        assert batch[i].tobytes() == row.tobytes()


@pytest.mark.parametrize("factory", ENCODERS, ids=IDS)
def test_encode_batch_is_row_exact(factory):
    enc = factory()
    X = np.random.default_rng(4).dirichlet(np.ones(enc.n_features), size=150)
    np.testing.assert_array_equal(enc.encode_batch(X), [enc.encode(x) for x in X])


@pytest.mark.parametrize("factory", ENCODERS, ids=IDS)
def test_empty_batches(factory):
    enc = factory()
    codes = enc.encode_batch(np.empty((0, enc.n_features)))
    assert codes.shape == (0,) and codes.dtype == np.intp
    assert enc.decode_batch(codes).shape == (0, enc.n_features)
