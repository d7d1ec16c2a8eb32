"""Parallel shard scaling: serial vs ``n_workers`` on the thread pool.

The workload is an eight-shard homogeneous-cost population (eight
LinUCB hyperparameter variants over one synthetic environment), so the
shard graph has enough width for four workers and every shard costs
the same — worker scaling measured here is scheduling, not luck.  Each
timed run is asserted bit-identical to the serial reference, so the
bench doubles as an equivalence check at bench scale.

Records, per worker count, ``interactions_per_second`` and
``workers_speedup`` (throughput relative to the serial run), plus a
sweep-level section timing ``compare_settings`` with
``sweep_workers > 1`` against the serial sweep.  Every record carries
``cpu_count`` (stamped by ``conftest``): worker scaling is physically
capped by the core count, so a single-core machine honestly records
``workers_speedup`` near (or below) 1.0 — the multi-core CI runner is
where the floor applies.

The throughput floor ``BENCH_PARALLEL_MIN_SPEEDUP`` gates the *best*
thread-pool speedup and is enforced only when the variable is set
(CI sets it on the 4-vCPU runners); scale knobs
(``BENCH_PARALLEL_N_AGENTS``, ``BENCH_PARALLEL_N_INTERACTIONS``,
``BENCH_PARALLEL_WORKER_COUNTS``) let the bench-smoke job run reduced.

Writes ``benchmarks/results/BENCH_parallel.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bandits import LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import P2BConfig
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments import EngineConfig, compare_settings
from repro.sim import FleetRunner
from repro.utils.rng import spawn_seeds

N_AGENTS = int(os.environ.get("BENCH_PARALLEL_N_AGENTS", "4000"))
N_INTERACTIONS = int(os.environ.get("BENCH_PARALLEL_N_INTERACTIONS", "150"))
WORKER_COUNTS = [
    int(tok)
    for tok in os.environ.get("BENCH_PARALLEL_WORKER_COUNTS", "1,2,4").split(",")
    if tok.strip()
]
N_ACTIONS = 8
N_FEATURES = 10
N_SHARDS = 8
SEED = 0

#: floor on the best thread-pool workers_speedup — enforced only
#: when set (worker scaling needs cores; CI's multi-core runners set it)
_FLOOR = os.environ.get("BENCH_PARALLEL_MIN_SPEEDUP")
MIN_SPEEDUP = float(_FLOOR) if _FLOOR else 0.0

SWEEP_WORKERS = int(os.environ.get("BENCH_PARALLEL_SWEEP_WORKERS", "3"))
SWEEP_CONTRIBUTORS = int(os.environ.get("BENCH_PARALLEL_SWEEP_CONTRIBUTORS", "60"))
SWEEP_EVAL_AGENTS = int(os.environ.get("BENCH_PARALLEL_SWEEP_EVAL_AGENTS", "20"))
SWEEP_EVAL_INTERACTIONS = 20


def _population(n_agents: int):
    """Eight equal-cost shards: one LinUCB ``alpha`` variant each."""
    env = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, weight_scale=8.0, seed=3
    )
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(SEED, n_agents)):
        policy_seed, session_seed = s.spawn(2)
        agents.append(
            LocalAgent(
                f"agent-{i}",
                LinUCB(
                    n_arms=N_ACTIONS,
                    n_features=N_FEATURES,
                    alpha=1.0 + 0.1 * (i % N_SHARDS),
                    seed=policy_seed,
                ),
                mode="cold",
            )
        )
        sessions.append(env.new_user(session_seed))
    return agents, sessions


def _timed_run(n_workers: int | None):
    agents, sessions = _population(N_AGENTS)
    if n_workers is None:
        runner = FleetRunner(agents, sessions)
    else:
        runner = FleetRunner(agents, sessions, config=EngineConfig(n_workers=n_workers))
    assert runner.n_shards == N_SHARDS
    t0 = time.perf_counter()
    result = runner.run(N_INTERACTIONS)
    elapsed = time.perf_counter() - t0
    return elapsed, result.rewards


def test_worker_scaling(record_json):
    # warm code paths (imports, kernel dispatch) so the serial
    # reference is not penalized for running first
    agents, sessions = _population(min(N_AGENTS, 256))
    FleetRunner(agents, sessions).run(5)

    serial_seconds, serial_rewards = _timed_run(None)
    serial_ips = N_AGENTS * N_INTERACTIONS / serial_seconds
    per_workers = {}
    for w in WORKER_COUNTS:
        seconds, rewards = _timed_run(w)
        # worker scaling must never buy its throughput with drift
        np.testing.assert_array_equal(rewards, serial_rewards)
        ips = N_AGENTS * N_INTERACTIONS / seconds
        per_workers[f"n_workers_{w}"] = {
            "seconds": round(seconds, 4),
            "interactions_per_second": round(ips, 1),
            "workers_speedup": round(ips / serial_ips, 2),
        }
    record_json(
        "parallel",
        {
            "config": {
                "n_agents": N_AGENTS,
                "n_interactions": N_INTERACTIONS,
                "n_shards": N_SHARDS,
                "worker_counts": WORKER_COUNTS,
            },
            "serial": {
                "seconds": round(serial_seconds, 4),
                "interactions_per_second": round(serial_ips, 1),
            },
            "thread": per_workers,
        },
        merge=True,
    )
    if MIN_SPEEDUP:
        best = max(entry["workers_speedup"] for entry in per_workers.values())
        assert best >= MIN_SPEEDUP, (
            f"thread pool's best workers_speedup {best}x is below the "
            f"BENCH_PARALLEL_MIN_SPEEDUP floor {MIN_SPEEDUP}x "
            f"(cpu_count={os.cpu_count()})"
        )


def _sweep_config() -> P2BConfig:
    return P2BConfig(
        n_actions=4, n_features=5, n_codes=8, p=0.5, window=5, shuffler_threshold=1
    )


def _sweep_env() -> SyntheticPreferenceEnvironment:
    return SyntheticPreferenceEnvironment(
        n_actions=4, n_features=5, weight_scale=8.0, seed=0
    )


def test_sweep_scaling(record_json):
    kwargs = dict(
        n_contributors=SWEEP_CONTRIBUTORS,
        n_eval_agents=SWEEP_EVAL_AGENTS,
        eval_interactions=SWEEP_EVAL_INTERACTIONS,
        seed=SEED,
    )
    t0 = time.perf_counter()
    serial = compare_settings(
        _sweep_env, _sweep_config(), engine=EngineConfig(sweep_workers=1), **kwargs
    )
    serial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    fanned = compare_settings(
        _sweep_env,
        _sweep_config(),
        engine=EngineConfig(sweep_workers=SWEEP_WORKERS),
        **kwargs,
    )
    fanned_seconds = time.perf_counter() - t0

    for mode in serial.results:
        assert serial[mode].mean_reward == fanned[mode].mean_reward
    record_json(
        "parallel",
        {
            "sweep": {
                "sweep_workers": SWEEP_WORKERS,
                "n_settings": len(serial.results),
                "serial_seconds": round(serial_seconds, 4),
                "fanned_seconds": round(fanned_seconds, 4),
                "workers_speedup": round(serial_seconds / fanned_seconds, 2),
            }
        },
        merge=True,
    )


if __name__ == "__main__":  # pragma: no cover - manual convenience
    import sys

    import pytest as _pytest

    sys.exit(_pytest.main([__file__, "-q"]))
