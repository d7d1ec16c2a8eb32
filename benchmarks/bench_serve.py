"""Serving-loop throughput: requests per second on a hot fleet.

``repro-p2b serve`` keeps a population resident on one held
:class:`~repro.sim.FleetRunner` and answers batch score/update
requests while devices churn, preferences drift, and reports release
asynchronously.  This bench drives that loop end-to-end — arrivals,
departures, drifting sessions, threshold-fill collection — and records
the requests-per-second number the serve path is chasing.

The workload is the streaming regime at its most adversarial for the
engine: every request re-shards the churned population slice, every
drifting session plans a new segment (and encodes a new context) at
each epoch boundary it crosses, and the shuffler's pending buffer
carries sub-threshold tuples across requests (departed reporters
included).

Floor tunable via ``BENCH_SERVE_MIN_RPS`` for noisy CI runners; scale
via ``BENCH_SERVE_N_AGENTS``.  Writes
``benchmarks/results/BENCH_serve.json``.
"""

from __future__ import annotations

import os
import time

from repro.core.config import P2BConfig
from repro.data import DriftingSyntheticEnvironment
from repro.experiments.serve import FleetService

# population scale is env-tunable so the CI bench-smoke job can run a
# reduced workload
N_AGENTS = int(os.environ.get("BENCH_SERVE_N_AGENTS", "2000"))
N_REQUESTS = int(os.environ.get("BENCH_SERVE_N_REQUESTS", "30"))
BATCH_STEPS = 10
ARRIVALS_PER_REQUEST = max(1, N_AGENTS // 100)
DEPARTURES_PER_REQUEST = max(1, N_AGENTS // 100)
COLLECT_EVERY = 4
EPOCH_LENGTH = 15
N_ACTIONS = 10
N_FEATURES = 10
N_CODES = 2**6
SEED = 0

MIN_RPS = float(os.environ.get("BENCH_SERVE_MIN_RPS", "2.0"))


def test_serve_requests_per_second(record_json):
    env = DriftingSyntheticEnvironment(
        n_actions=N_ACTIONS,
        n_features=N_FEATURES,
        epoch_length=EPOCH_LENGTH,
        weight_scale=8.0,
        seed=3,
    )
    config = P2BConfig(
        n_actions=N_ACTIONS,
        n_features=N_FEATURES,
        n_codes=N_CODES,
        q=1,
        p=0.5,
        window=10,
        shuffler_threshold=10,
        max_reports_per_user=N_REQUESTS,
    )
    service = FleetService(config, env, seed=SEED)
    service.arrive(N_AGENTS)
    # warm the held shards outside the timed window (first
    # request pays the one-time stack) — steady-state RPS is the number
    # the serve path chases
    service.interact(1)
    warmup_interactions = service.stats.n_interactions

    t0 = time.perf_counter()
    for r in range(N_REQUESTS):
        service.arrive(ARRIVALS_PER_REQUEST)
        service.depart(list(range(DEPARTURES_PER_REQUEST)))
        service.interact(BATCH_STEPS)
        if (r + 1) % COLLECT_EVERY == 0:
            service.collect()
    service.collect()
    elapsed = time.perf_counter() - t0
    service.flush()

    stats = service.stats
    rps = N_REQUESTS / elapsed
    ips = (stats.n_interactions - warmup_interactions) / elapsed

    record_json(
        "serve",
        {
            "config": {
                "n_agents": N_AGENTS,
                "n_requests": N_REQUESTS,
                "batch_steps": BATCH_STEPS,
                "arrivals_per_request": ARRIVALS_PER_REQUEST,
                "departures_per_request": DEPARTURES_PER_REQUEST,
                "collect_every": COLLECT_EVERY,
                "epoch_length": EPOCH_LENGTH,
                "n_actions": N_ACTIONS,
                "n_features": N_FEATURES,
                "n_codes": N_CODES,
                "cpu_count": os.cpu_count(),
            },
            "streaming_deployment": {
                "elapsed_seconds": round(elapsed, 4),
                "requests_per_second": round(rps, 2),
                "interactions_per_second": round(ips, 1),
                "interactions_served": int(stats.n_interactions),
                "agents_arrived": int(stats.n_arrived),
                "agents_departed": int(stats.n_departed),
                "reports_collected": int(stats.n_reports),
                "tuples_released": int(stats.n_released),
            },
        },
    )
    # sanity: the recorded workload actually exercised churn + async
    # collection (reports drained, crowds filled, tuples released)
    assert stats.n_arrived > N_AGENTS
    assert stats.n_departed > 0
    assert stats.n_reports > 0
    assert stats.n_released > 0
    assert rps >= MIN_RPS, (
        f"serve loop must answer >= {MIN_RPS} requests/s at "
        f"{N_AGENTS} agents, got {rps:.2f}"
    )


if __name__ == "__main__":  # pragma: no cover - manual convenience
    import sys

    import pytest as _pytest

    sys.exit(_pytest.main([__file__, "-q"]))
