"""Columnar reporting pipeline: end-to-end throughput *with collection*.

The fleet engine's earlier records (``BENCH_fleet.json``,
``BENCH_replay.json``) time interaction loops only; this bench times
the paper's actual deployment cycle — interact, report, shuffle,
threshold, retrain — i.e. multi-round :class:`DeploymentLoop` runs
where every round ends in a collection round.  PR 4 made that whole
device → shuffler → server path columnar for plan-capable shards
(StackedParticipation masks, ReportLog arrays, ``process_arrays`` →
``ingest_arrays``), so the reporting pipeline no longer re-serializes
the fleet engine's wins through per-report Python objects.

The sequential baseline runs the same loop with ``engine="sequential"``
on a population subsample (users are independent; per-user cost is
population-size-invariant, modulo the shared collection round — which
only *favours* the sequential number, since its shuffler batches are
smaller).  A separate same-size run of both engines asserts the
recorded workload is bit-identical end-to-end: round stats (reports,
releases, rewards), central model state, and the deployment privacy
report.

Floor tunable via ``BENCH_REPORTING_MIN_SPEEDUP`` for noisy CI runners.
Writes ``benchmarks/out/BENCH_reporting.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.config import P2BConfig
from repro.core.rounds import DeploymentLoop
from repro.data.synthetic import SyntheticPreferenceEnvironment

# population scale is env-tunable so the CI bench-smoke job can run a
# reduced workload
N_USERS = int(os.environ.get("BENCH_REPORTING_N_USERS", "6000"))
N_SEQ_USERS = int(os.environ.get("BENCH_REPORTING_N_SEQ_USERS", "600"))
N_EQ_USERS = max(4, N_SEQ_USERS * 2 // 3)
N_ROUNDS = 3
INTERACTIONS_PER_ROUND = 20
N_ACTIONS = 10
N_FEATURES = 10
N_CODES = 2**6
SEED = 0

MIN_SPEEDUP = float(os.environ.get("BENCH_REPORTING_MIN_SPEEDUP", "8.0"))


def _config():
    return P2BConfig(
        n_actions=N_ACTIONS,
        n_features=N_FEATURES,
        n_codes=N_CODES,
        q=1,
        p=0.5,
        window=10,
        shuffler_threshold=10,
        max_reports_per_user=N_ROUNDS,
    )


def _run_loop(engine: str, n_users: int) -> tuple[DeploymentLoop, float]:
    env = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, weight_scale=8.0, seed=3
    )
    loop = DeploymentLoop(
        _config(),
        env,
        interactions_per_round=INTERACTIONS_PER_ROUND,
        seed=SEED,
        engine=engine,
    )
    loop.enroll(n_users)
    t0 = time.perf_counter()
    for _ in range(N_ROUNDS):
        loop.run_round()
    elapsed = time.perf_counter() - t0
    return loop, elapsed


def test_reporting_pipeline_speedup(record_json):
    # equivalence at equal size: the recorded workload is bit-identical
    # across engines, collection rounds included
    seq_eq, _ = _run_loop("sequential", N_EQ_USERS)
    fleet_eq, _ = _run_loop("fleet", N_EQ_USERS)
    assert seq_eq.rounds == fleet_eq.rounds
    assert seq_eq.privacy_report() == fleet_eq.privacy_report()
    state_seq = seq_eq.system.model_snapshot()
    state_fleet = fleet_eq.system.model_snapshot()
    for key in state_seq:
        np.testing.assert_array_equal(
            np.asarray(state_seq[key]), np.asarray(state_fleet[key]), err_msg=key
        )

    # throughput: sequential on the subsample, fleet at scale
    seq_loop, seq_elapsed = _run_loop("sequential", N_SEQ_USERS)
    fleet_loop, fleet_elapsed = _run_loop("fleet", N_USERS)

    seq_rate = N_SEQ_USERS * N_ROUNDS * INTERACTIONS_PER_ROUND / seq_elapsed
    fleet_rate = N_USERS * N_ROUNDS * INTERACTIONS_PER_ROUND / fleet_elapsed
    speedup = fleet_rate / seq_rate

    record_json(
        "reporting",
        {
            "config": {
                "n_users_fleet": N_USERS,
                "n_users_sequential": N_SEQ_USERS,
                "n_rounds": N_ROUNDS,
                "interactions_per_round": INTERACTIONS_PER_ROUND,
                "n_actions": N_ACTIONS,
                "n_features": N_FEATURES,
                "n_codes": N_CODES,
                "p": 0.5,
                "window": 10,
                "shuffler_threshold": 10,
                "cpu_count": os.cpu_count(),
            },
            "warm_private_with_collection": {
                "sequential_seconds": round(seq_elapsed, 4),
                "fleet_seconds": round(fleet_elapsed, 4),
                "sequential_interactions_per_second": round(seq_rate, 1),
                "fleet_interactions_per_second": round(fleet_rate, 1),
                "speedup": round(speedup, 2),
                "fleet_reports_collected": int(
                    sum(r.n_reports for r in fleet_loop.rounds)
                ),
                "fleet_tuples_released": int(
                    sum(r.n_released for r in fleet_loop.rounds)
                ),
            },
        },
    )
    # sanity: the recorded workload actually exercised the pipeline
    assert sum(r.n_reports for r in fleet_loop.rounds) > 0
    assert sum(r.n_released for r in seq_loop.rounds) > 0
    assert speedup >= MIN_SPEEDUP, (
        "columnar reporting pipeline must be >= "
        f"{MIN_SPEEDUP}x sequential end-to-end, got {speedup:.2f}x"
    )


if __name__ == "__main__":  # pragma: no cover - manual convenience
    import sys

    import pytest as _pytest

    sys.exit(_pytest.main([__file__, "-q"]))
