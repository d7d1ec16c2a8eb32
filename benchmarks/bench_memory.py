"""Traced-plan memory record: shared row tables vs per-agent traces.

Per-step trace plans (:meth:`UserSession.plan_trace`) materialize
``(T, d)`` contexts plus a ``(T, A)`` reward table *per agent*, so the
§5.2 workload (mediamill-like, d=20, A=40, T=100) costs ~20 KB of plan
per agent — ``n x T x A`` growth that caps the population well short of
the million-agent north star.  The fleet engine's traced shards instead
keep one ``(rows, d)`` context table and one ``(rows, A)`` reward table
per *dataset* (for multilabel they alias the dataset arrays outright)
plus an ``(n, T)`` row-index walk, cutting per-agent plan bytes roughly
A-fold.

This bench measures it on the §5.2 protocol — exact byte accounting
via ``_Shard.plan_nbytes`` against the arrays ``plan_trace`` builds for
an identically seeded population (deterministic: the assertion floor
is not timing-sensitive), ``tracemalloc`` peaks around plan
materialization, and process peak RSS for a large traced replay run —
and asserts the acceptance floor: the row-table walk reduces per-agent
traced-plan bytes by at least ``A/2`` (= 20 on this workload;
``BENCH_MEMORY_MIN_REDUCTION`` overrides).  Writes
``benchmarks/out/BENCH_memory.json``.

The ``fast_tier`` section measures the next ceiling after plan memory:
*policy state*.  The bit-tier stacker carries two dense ``(n, A, k)``
float64 tables (~41 KB/agent here); ``exactness="fast"`` holds float32
sparse state — touched cells only — so in-flight policy-state bytes
per agent drop ~25x on this workload.  The bench drives one shard of
each tier end to end (with the small result-column ring a streaming
``ResultSink`` run would hold), snapshots
``stacked.state_nbytes()`` right before writeback, and asserts the
fast tier's floor: at least ``BENCH_MEMORY_FAST_MIN_REDUCTION`` (4x)
per-agent reduction, with process peak RSS per agent under an
env-tunable ceiling at ``BENCH_MEMORY_N_FAST_AGENTS`` (100k) scale.
"""

from __future__ import annotations

import os
import resource
import time
import tracemalloc

import numpy as np

from repro.core.config import AgentMode, P2BConfig
from repro.core.system import P2BSystem
from repro.data.multilabel import MultilabelBanditEnvironment, make_mediamill_like
from repro.sim import FleetRunner
from repro.sim.fleet import _Shard
from repro.utils.rng import spawn_seeds

# population scale is env-tunable so the CI bench-smoke job can run a
# reduced workload; the reduction ratio only improves with scale (the
# shared tables amortize over more agents)
N_AGENTS = int(os.environ.get("BENCH_MEMORY_N_AGENTS", "6000"))
N_DENSE_AGENTS = int(os.environ.get("BENCH_MEMORY_N_DENSE_AGENTS", "250"))
N_DATASET_ROWS = 4_000
N_INTERACTIONS = 100
N_CODES = 2**6
N_ACTIONS = 40
N_FEATURES = 20
SEED = 0

#: acceptance floor on the per-agent traced-plan byte reduction —
#: the ISSUE asks for >= A/2 on the §5.2 workload (A = 40)
MIN_REDUCTION = float(os.environ.get("BENCH_MEMORY_MIN_REDUCTION", str(N_ACTIONS / 2)))

#: fast-tier scale — 100k agents by default; the CI bench-smoke job
#: runs a reduced population (the per-agent byte accounting is exact
#: at any scale; only the RSS reading needs the full population)
N_FAST_AGENTS = int(os.environ.get("BENCH_MEMORY_N_FAST_AGENTS", "100000"))

#: acceptance floor on the fast tier's per-agent policy-state byte
#: reduction vs the bit tier (the ISSUE asks for >= 4x; the sparse
#: float32 state lands ~25x on this workload)
FAST_MIN_REDUCTION = float(os.environ.get("BENCH_MEMORY_FAST_MIN_REDUCTION", "4.0"))

#: ceiling on process peak RSS per agent for the fast-tier run, KiB.
#: Coarse by nature (ru_maxrss is process-wide and cumulative), hence
#: generous; the exact gate is the state-bytes floor above.
FAST_MAX_RSS_KIB_PER_AGENT = float(
    os.environ.get("BENCH_MEMORY_FAST_MAX_RSS_KIB_PER_AGENT", "192")
)

_DATASET = None


def _dataset():
    global _DATASET
    if _DATASET is None:
        _DATASET = make_mediamill_like(N_DATASET_ROWS, seed=SEED)
    return _DATASET


def _population(n_agents):
    """The paper's §5.2 deployment: system-wired warm-private agents."""
    config = P2BConfig(
        n_actions=N_ACTIONS,
        n_features=N_FEATURES,
        n_codes=N_CODES,
        q=1,
        p=0.5,
        window=10,
        shuffler_threshold=10,
    )
    system = P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=SEED)
    env = MultilabelBanditEnvironment(_dataset(), samples_per_user=100, seed=SEED + 1)
    agents = [system.new_agent() for _ in range(n_agents)]
    sessions = [env.new_user(s) for s in spawn_seeds(SEED + 2, n_agents)]
    return agents, sessions


def _dense_baseline_record(n_agents):
    """Per-agent bytes of the per-step arrays ``plan_trace`` builds.

    The baseline the row-table walk is measured against: for an
    identically seeded population, each session's ``(T, d)`` contexts
    and ``(T, A)`` reward table, plus the expected channel when it does
    not alias the rewards.
    """
    _, sessions = _population(n_agents)
    total = 0
    for session in sessions:
        plan = session.plan_trace(N_INTERACTIONS)
        total += plan.contexts.nbytes + plan.action_rewards.nbytes
        if plan.expected is not None and plan.expected is not plan.action_rewards:
            total += plan.expected.nbytes
    return {
        "n_agents": n_agents,
        "source": "UserSession.plan_trace",
        "plan_bytes_total": total,
        "plan_bytes_per_agent": round(total / n_agents, 1),
    }


def _plan_record(n_agents):
    """Prepare one shard and account its plan bytes exactly.

    ``tracemalloc`` brackets the prepare call (numpy registers its data
    allocations with it), so the record carries both the steady-state
    accounting and the materialization peak.
    """
    agents, sessions = _population(n_agents)
    shard = _Shard(np.arange(n_agents, dtype=np.intp), agents, sessions)
    tracemalloc.start()
    shard.prepare(N_INTERACTIONS)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    sizes = shard.plan_nbytes()
    per_agent_total = (sizes["per_agent"] + sizes["shared"]) / n_agents
    return {
        "n_agents": n_agents,
        "plan_bytes_per_agent_arrays": round(sizes["per_agent"] / n_agents, 1),
        "plan_bytes_shared_tables": sizes["shared"],
        "plan_bytes_total": sizes["total"],
        "plan_bytes_per_agent_amortized": round(per_agent_total, 1),
        "prepare_tracemalloc_peak_bytes": int(peak),
    }


def _indexed_run_record():
    """Run the large traced population end to end; record peak RSS."""
    agents, sessions = _population(N_AGENTS)
    runner = FleetRunner(agents, sessions)
    t0 = time.perf_counter()
    runner.run(N_INTERACTIONS)
    elapsed = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux (bytes on macOS; CI runs Linux)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "n_agents": N_AGENTS,
        "n_interactions": N_INTERACTIONS,
        "seconds": round(elapsed, 4),
        "interactions_per_second": round(N_AGENTS * N_INTERACTIONS / elapsed, 1),
        "peak_rss_kib": int(peak_rss_kib),
    }


def test_shared_row_table_memory_reduction(record_json):
    dense = _dense_baseline_record(N_DENSE_AGENTS)
    indexed = _plan_record(N_AGENTS)
    run = _indexed_run_record()

    reduction = dense["plan_bytes_per_agent"] / indexed["plan_bytes_per_agent_amortized"]
    record_json(
        "memory",
        {
            "config": {
                "workload": "§5.2 mediamill-like warm-private P2B",
                "dataset_rows": N_DATASET_ROWS,
                "d": N_FEATURES,
                "A": N_ACTIONS,
                "n_codes": N_CODES,
                "n_interactions": N_INTERACTIONS,
            },
            "dense_baseline": dense,
            "indexed": indexed,
            "indexed_run": run,
            "reduction_per_agent_plan_bytes": round(reduction, 2),
        },
    )
    # the tentpole's acceptance floor: byte accounting is exact and
    # deterministic, so this never flakes on noisy runners
    assert reduction >= MIN_REDUCTION, (
        f"shared-row-table plans must cut per-agent traced-plan bytes "
        f">= {MIN_REDUCTION}x on the §5.2 workload, got {reduction:.1f}x"
    )
    # the indexed per-agent walk is exactly T intp entries
    assert indexed["plan_bytes_per_agent_arrays"] == N_INTERACTIONS * np.intp(0).nbytes


def _tier_run_record(n_agents, exactness):
    """Drive one shard end to end on the given tier; account its state.

    Mirrors the streaming (``ResultSink``) engine path: the result
    matrices are a one-column ring, so the record reflects what a
    curve-only caller at scale actually holds — plan walk, ring, and
    stacked policy state.  ``state_nbytes`` is
    snapshotted after the last step, *before* writeback (the in-flight
    number the tier exists to shrink).
    """
    agents, sessions = _population(n_agents)
    width = 1  # the streaming path's one-column ring
    shard = _Shard(
        np.arange(n_agents, dtype=np.intp),
        agents,
        sessions,
        exactness=exactness,
    )
    rewards = np.empty((n_agents, width), dtype=np.float64)
    actions = np.empty((n_agents, width), dtype=np.intp)
    expected_ok = np.zeros(n_agents, dtype=bool)
    t0 = time.perf_counter()
    shard.prepare(N_INTERACTIONS)
    for t in range(N_INTERACTIONS):
        shard.step(t, rewards, actions, None, expected_ok)
    state_bytes = shard.stacked.state_nbytes()
    shard.stacked.writeback()
    elapsed = time.perf_counter() - t0
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "n_agents": n_agents,
        "exactness": exactness,
        "n_interactions": N_INTERACTIONS,
        "policy_state_bytes": int(state_bytes),
        "policy_state_bytes_per_agent": round(state_bytes / n_agents, 1),
        "seconds": round(elapsed, 4),
        "interactions_per_second": round(n_agents * N_INTERACTIONS / elapsed, 1),
        "peak_rss_kib": int(peak_rss_kib),
    }


def test_fast_tier_policy_state_reduction(record_json):
    # fast first: ru_maxrss is cumulative, and the fast run is the one
    # whose RSS the record is about
    fast = _tier_run_record(N_FAST_AGENTS, "fast")
    fast_rss_per_agent = fast["peak_rss_kib"] / N_FAST_AGENTS
    bit = _tier_run_record(N_AGENTS, "bit")

    reduction = (
        bit["policy_state_bytes_per_agent"] / fast["policy_state_bytes_per_agent"]
    )
    record_json(
        "memory",
        {
            "fast_tier": {
                "bit": bit,
                "fast": fast,
                "policy_state_reduction": round(reduction, 2),
                "fast_peak_rss_kib_per_agent": round(fast_rss_per_agent, 2),
            }
        },
        merge=True,
    )
    # the tentpole's acceptance floor: in-flight policy-state bytes per
    # agent must shrink >= 4x under exactness="fast" (exact accounting,
    # never flakes); the sparse float32 state lands ~25x here
    assert reduction >= FAST_MIN_REDUCTION, (
        f"fast tier must cut per-agent policy-state bytes >= "
        f"{FAST_MIN_REDUCTION}x vs bit on the §5.2 workload, got {reduction:.1f}x"
    )
    assert fast_rss_per_agent <= FAST_MAX_RSS_KIB_PER_AGENT, (
        f"fast-tier run peaked at {fast_rss_per_agent:.1f} KiB RSS/agent "
        f"(ceiling {FAST_MAX_RSS_KIB_PER_AGENT})"
    )
    # bit-tier dense tables are exactly 2 x A x k float64 per agent
    assert bit["policy_state_bytes_per_agent"] >= 2 * N_ACTIONS * N_CODES * 8


if __name__ == "__main__":  # pragma: no cover - manual convenience
    import sys

    import pytest as _pytest

    sys.exit(_pytest.main([__file__, "-q"]))
