"""Ablation benches for the design choices DESIGN.md calls out.

1. encoder family — k-means vs LSH vs exact grid: realized minimum
   crowd (the privacy parameter l) and codebook balance;
2. participation probability p — the privacy/utility trade-off curve;
3. private context representation — one-hot (tabular) vs centroid;
4. shuffler threshold — released fraction vs delta.
"""

from __future__ import annotations

import numpy as np

from repro.core import P2BConfig, Shuffler
from repro.data import SyntheticPreferenceEnvironment
from repro.encoding import GridEncoder, KMeansEncoder, LSHEncoder
from repro.experiments import participation_sweep
from repro.experiments.runner import compare_settings
from repro.privacy import delta_bound
from repro.utils.tables import format_table


def test_ablation_encoder_family(benchmark, record_figure):
    """k-means codebooks blend crowds far better than LSH at equal k."""

    def run():
        rng = np.random.default_rng(0)
        X = rng.dirichlet(np.ones(6), size=4000)
        rows = []
        encoders = {
            "kmeans(k=16)": KMeansEncoder(16, 6, seed=0).fit(),
            "lsh(16 codes)": LSHEncoder(4, 6, seed=0).fit(),
            "grid(q=1)": GridEncoder(6, q=1),
        }
        for name, enc in encoders.items():
            codes = enc.encode_batch(X)
            counts = np.bincount(codes, minlength=enc.n_codes)
            occupied = counts[counts > 0]
            rows.append(
                {
                    "encoder": name,
                    "n_codes": enc.n_codes,
                    "codes_used": int(occupied.size),
                    "min_crowd": int(occupied.min()),
                    "balance": float(occupied.min() / occupied.mean()),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_figure(
        "ablation_encoders",
        format_table(rows, title="encoder ablation: realized crowds on 4000 contexts"),
    )
    by_name = {r["encoder"]: r for r in rows}
    # k-means crowds are larger (better l) than LSH's at the same k
    assert by_name["kmeans(k=16)"]["min_crowd"] > by_name["lsh(16 codes)"]["min_crowd"]
    # the exact grid fragments the population across a huge code space
    assert by_name["grid(q=1)"]["min_crowd"] <= by_name["kmeans(k=16)"]["min_crowd"]


def test_ablation_participation_tradeoff(benchmark, record_figure):
    """Raising p buys utility and costs epsilon — the paper's core dial."""

    config = P2BConfig(
        n_actions=5, n_features=6, n_codes=16, window=5, shuffler_threshold=1
    )

    def env_factory():
        return SyntheticPreferenceEnvironment(
            n_actions=5, n_features=6, weight_scale=8.0, seed=0
        )

    result = benchmark.pedantic(
        lambda: participation_sweep(
            (0.1, 0.5, 0.9),
            config,
            env_factory=env_factory,
            n_contributors=800,
            contributor_interactions=5,
            n_eval_agents=30,
            eval_interactions=10,
            seed=0,
        ),
        rounds=1,
        iterations=1,
    )
    record_figure("ablation_participation", result.render())
    eps = result.series["epsilon"]
    assert eps[0] < eps[1] < eps[2]  # epsilon grows with p (Eq. 3)


def test_ablation_private_context(benchmark, record_figure):
    """One-hot vs centroid private contexts on a dense-reward workload."""

    def run():
        rows = []
        for mode in ("one-hot", "centroid"):
            config = P2BConfig(
                n_actions=5,
                n_features=6,
                n_codes=16,
                window=5,
                shuffler_threshold=1,
                private_context=mode,
            )
            comp = compare_settings(
                lambda: SyntheticPreferenceEnvironment(
                    n_actions=5, n_features=6, weight_scale=8.0, seed=0
                ),
                config,
                n_contributors=1500,
                contributor_interactions=5,
                n_eval_agents=40,
                eval_interactions=10,
                seed=0,
                modes=("warm-private",),
                measure="expected",
            )
            rows.append(
                {"private_context": mode, "mean_reward": comp["warm-private"].mean_reward}
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_figure(
        "ablation_private_context",
        format_table(rows, title="private context representation ablation"),
    )
    assert all(r["mean_reward"] > 0 for r in rows)


def test_ablation_shuffler_threshold(benchmark, record_figure):
    """Threshold l: released fraction falls, delta falls exponentially."""

    def run():
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 16, size=600)
        actions = np.zeros(600, dtype=np.intp)
        rewards = np.zeros(600)
        rows = []
        for threshold in (1, 10, 30, 60):
            *_, stats = Shuffler(threshold, seed=0).process_arrays(codes, actions, rewards)
            rows.append(
                {
                    "threshold_l": threshold,
                    "released_fraction": stats.n_released / stats.n_received,
                    "delta(p=0.5)": delta_bound(threshold, 0.5),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_figure(
        "ablation_threshold",
        format_table(rows, title="shuffler threshold ablation (600 reports, 16 codes)"),
    )
    fractions = [r["released_fraction"] for r in rows]
    deltas = [r["delta(p=0.5)"] for r in rows]
    assert fractions[0] == 1.0
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
