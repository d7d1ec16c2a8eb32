"""Throughput micro-benchmarks for the substrates on P2B's hot paths.

These are classic pytest-benchmark timings (many rounds) covering the
operations a production deployment performs constantly: on-device
encoding (O(kd) per §6), LinUCB select/update, CodeLinUCB's O(1)
updates, shuffler batches, and codebook training.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import CodeLinUCB, LinUCB
from repro.clustering import KMeans, MiniBatchKMeans
from repro.core import Shuffler
from repro.encoding import KMeansEncoder


@pytest.fixture(scope="module")
def contexts():
    rng = np.random.default_rng(0)
    return rng.dirichlet(np.ones(10), size=2000)


@pytest.fixture(scope="module")
def encoder(contexts):
    return KMeansEncoder(n_codes=64, n_features=10, seed=0).fit()


def test_bench_encoder_single_lookup(benchmark, encoder, contexts):
    """On-device encode: the paper's O(kd) per-interaction cost."""
    x = contexts[0]
    code = benchmark(encoder.encode, x)
    assert 0 <= code < 64


def test_bench_encoder_batch(benchmark, encoder, contexts):
    codes = benchmark(encoder.encode_batch, contexts)
    assert codes.shape == (2000,)


def test_bench_linucb_select(benchmark, contexts):
    pol = LinUCB(n_arms=20, n_features=10, seed=0)
    for i in range(200):
        pol.update(contexts[i], i % 20, 0.5)
    action = benchmark(pol.select, contexts[0])
    assert 0 <= action < 20


def test_bench_linucb_update(benchmark, contexts):
    pol = LinUCB(n_arms=20, n_features=10, seed=0)
    benchmark(pol.update, contexts[0], 3, 1.0)
    assert pol.t > 0


def test_bench_code_linucb_update(benchmark):
    pol = CodeLinUCB(n_arms=20, n_features=64, seed=0)
    benchmark(pol.update_code, 5, 3, 1.0)
    assert pol.t > 0


def test_bench_code_linucb_server_batch(benchmark):
    rng = np.random.default_rng(0)
    n = 5000
    contexts = np.zeros((n, 64))
    contexts[np.arange(n), rng.integers(0, 64, n)] = 1.0
    actions = rng.integers(0, 20, n)
    rewards = rng.random(n)

    def run():
        pol = CodeLinUCB(n_arms=20, n_features=64, seed=0)
        pol.update_batch(contexts, actions, rewards)
        return pol.t

    assert benchmark(run) == n


def test_bench_shuffler_batch(benchmark):
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 64, size=2000)
    actions = np.zeros(2000, dtype=np.intp)
    rewards = np.ones(2000)
    shuffler = Shuffler(threshold=10, seed=0)
    *_, stats = benchmark(shuffler.process_arrays, codes, actions, rewards)
    assert stats.n_received == 2000


def test_bench_kmeans_fit(benchmark, contexts):
    def run():
        return KMeans(n_clusters=16, n_init=1, max_iter=50, seed=0).fit(contexts).inertia_

    assert benchmark(run) > 0


def test_bench_minibatch_kmeans_fit(benchmark, contexts):
    def run():
        return (
            MiniBatchKMeans(n_clusters=64, max_iter=100, seed=0).fit(contexts).inertia_
        )

    assert benchmark(run) > 0
