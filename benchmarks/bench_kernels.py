"""Scoring-kernel microbenchmarks for the dense-LinUCB hot path.

The fleet engine's cold dense-LinUCB workload spends nearly all of its
time in two contractions per round — ``linear_scores`` and the
``(n, A, d, d)`` quadratic form ``ucb_explore`` — so this bench times
the kernels in isolation, on the same shapes the replay bench runs at
fleet scale (``bench_replay``'s multilabel workload: d=20, A=40).
Two records:

* ``ucb_explore_fast`` — the float32 outer-product batched-matmul
  kernel vs the float64 bit kernel.  This is the fast tier's core
  trade: same quadratic form, single-precision SIMD width.
* ``incremental_ucb`` — :func:`sm_quad_downdate` vs a full
  ``ucb_explore`` rescore, the fixed-context shard's per-round cost
  after the first round.

Floors are env-tunable (``BENCH_KERNELS_MIN_*``) and deliberately soft:
the committed record tracks the trajectory; CI guards against collapse,
not jitter.  Writes ``benchmarks/results/BENCH_kernels.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bandits.kernels import (
    sherman_morrison,
    sm_quad_downdate,
    ucb_explore,
    ucb_explore_fast,
    vec_dot,
)

# fleet-scale shape of the replay bench's dense multilabel workload;
# population is env-tunable so CI's bench-smoke job can shrink it
N_AGENTS = int(os.environ.get("BENCH_KERNELS_N_AGENTS", "2000"))
N_ARMS = 40
N_FEATURES = 20
REPEATS = int(os.environ.get("BENCH_KERNELS_REPEATS", "5"))
SEED = 0

MIN_FAST_SPEEDUP = float(os.environ.get("BENCH_KERNELS_MIN_FAST_SPEEDUP", "2.0"))
MIN_INCREMENTAL_SPEEDUP = float(
    os.environ.get("BENCH_KERNELS_MIN_INCREMENTAL_SPEEDUP", "4.0")
)

def _operands(dtype=np.float64):
    rng = np.random.default_rng(SEED)
    x = rng.normal(size=(N_AGENTS, N_FEATURES)).astype(dtype)
    M = rng.normal(size=(N_AGENTS, N_ARMS, N_FEATURES, N_FEATURES)) * 0.05
    A_inv = (np.eye(N_FEATURES) + (M + M.swapaxes(-1, -2)) / 2).astype(dtype)
    return x, A_inv


def _best_of(fn, repeats=REPEATS):
    """Best-of-N wall time: microbenchmarks want the noise floor."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fast_record():
    x64, A64 = _operands()
    x32, A32 = x64.astype(np.float32), A64.astype(np.float32)
    baseline = _best_of(lambda: ucb_explore(x64, A64))
    fast = _best_of(lambda: ucb_explore_fast(x32, A32))
    np.testing.assert_allclose(
        ucb_explore_fast(x32, A32),
        ucb_explore(x64, A64),
        rtol=1e-3,
        atol=1e-4,
    )
    return {
        "bit_f64_seconds": round(baseline, 5),
        "fast_f32_seconds": round(fast, 5),
        "speedup": round(baseline / fast, 2),
    }


def _incremental_record():
    """Fixed-context rescore: sm_quad_downdate vs full recompute."""
    rng = np.random.default_rng(SEED + 1)
    x32, A32 = _operands(np.float32)
    quads = ucb_explore(x32, A32)
    actions = rng.integers(0, N_ARMS, size=N_AGENTS)
    idx = np.arange(N_AGENTS)

    full = _best_of(lambda: ucb_explore(x32, A32))
    incremental = _best_of(
        lambda: sm_quad_downdate(quads[idx, actions])
    )
    # correctness on a subsample: downdate == recompute after the same-
    # vector Sherman–Morrison update
    sub = idx[:64]
    x_sub = x32[sub].astype(np.float64)
    A_sub = A32[sub, actions[:64]].astype(np.float64).copy()
    q_before = vec_dot(x_sub, np.einsum("nij,nj->ni", A_sub, x_sub))
    sherman_morrison(A_sub, x_sub)
    q_after = vec_dot(x_sub, np.einsum("nij,nj->ni", A_sub, x_sub))
    np.testing.assert_allclose(sm_quad_downdate(q_before), q_after, rtol=1e-10)

    return {
        "full_rescore_seconds": round(full, 5),
        "incremental_seconds": round(incremental, 6),
        "speedup": round(full / incremental, 2),
    }


def test_kernel_microbench(record_json):
    fast = _fast_record()
    incremental = _incremental_record()
    record_json(
        "kernels",
        {
            "config": {
                "n_agents": N_AGENTS,
                "n_arms": N_ARMS,
                "n_features": N_FEATURES,
                "repeats": REPEATS,
                "cpu_count": os.cpu_count(),
            },
            "ucb_explore_fast": fast,
            "incremental_ucb": incremental,
        },
    )
    assert fast["speedup"] >= MIN_FAST_SPEEDUP, (
        f"float32 fast kernel must be >= {MIN_FAST_SPEEDUP}x the f64 bit "
        f"kernel, got {fast['speedup']}x"
    )
    assert incremental["speedup"] >= MIN_INCREMENTAL_SPEEDUP, (
        f"incremental UCB must be >= {MIN_INCREMENTAL_SPEEDUP}x a full "
        f"rescore, got {incremental['speedup']}x"
    )


if __name__ == "__main__":  # pragma: no cover - manual convenience
    import sys

    import pytest as _pytest

    sys.exit(_pytest.main([__file__, "-q"]))
