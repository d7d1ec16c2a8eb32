"""Fleet-engine throughput: ≥10x over the sequential reference.

Headline workload — the paper's §5 deployment population: 10,000
warm-private P2B agents (CodeLinUCB over a k=2^6 codebook, randomized
participation, the synthetic preference environment) interacting 100
times each.  This is where the fleet architecture's wins compound:
tabular stacked state (no d² einsums), encode-once context caching
(contexts are fixed per user, encoders deterministic), and
pre-realized reward plans.

The sequential baseline is timed on a 1,000-agent subsample of the
*same* population: agents are fully independent, so per-interaction
cost is population-size-invariant and the subsample throughput is the
honest sequential number without spending minutes of bench time.
Because both engines are bit-identical (the repro.sim contract), the
subsample's sequential rewards are asserted equal to the matching
fleet rows — the bench doubles as an equivalence check at 10x the
test-suite scale.

A dense cold-LinUCB population is recorded as a secondary workload
(no assertion): its per-round einsums are memory-bound at fleet scale,
so its speedup is structurally lower — tracking it over PRs is the
point.

The third workload is the sharded engine's reason to exist: a
*heterogeneous* population mixing LinUCB, Thompson-sampling and
epsilon-greedy cold agents with warm-private CodeLinUCB agents —
the paper's §5 ``compare_settings`` mixtures, previously stuck on the
sequential loop for every non-homogeneous cell.

Speedup floors are environment-tunable (``BENCH_FLEET_MIN_SPEEDUP``,
``BENCH_FLEET_MIN_SPEEDUP_HET``) so CI runners with noisy neighbours
can gate on softer floors than the development record.

Writes ``benchmarks/out/BENCH_fleet.json``; the committed copy in
``benchmarks/results/`` tracks the throughput trajectory.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bandits import CodeLinUCB, EpsilonGreedy, LinUCB, LinearThompsonSampling
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode, P2BConfig
from repro.core.participation import RandomizedParticipation
from repro.core.system import P2BSystem
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.encoding.kmeans_encoder import KMeansEncoder
from repro.experiments.runner import _simulate_agent
from repro.sim import FleetRunner
from repro.utils.rng import spawn_seeds

# population scale is env-tunable so the CI bench-smoke job can run a
# reduced workload (the speedup record is still meaningful — agents
# are independent, so per-interaction cost is size-invariant)
N_AGENTS = int(os.environ.get("BENCH_FLEET_N_AGENTS", "10000"))
N_SEQ_AGENTS = int(os.environ.get("BENCH_FLEET_N_SEQ_AGENTS", "1000"))
N_INTERACTIONS = 100
N_ACTIONS = 10
N_FEATURES = 10
N_CODES = 2**6
SEED = 0

# heterogeneous workload: four shards (one of them Thompson) at 2/5 of
# the homogeneous population
N_HET_AGENTS = max(4, N_AGENTS * 2 // 5)
N_HET_SEQ_AGENTS = max(4, N_SEQ_AGENTS * 2 // 5)

MIN_SPEEDUP = float(os.environ.get("BENCH_FLEET_MIN_SPEEDUP", "10.0"))
MIN_SPEEDUP_HET = float(os.environ.get("BENCH_FLEET_MIN_SPEEDUP_HET", "2.0"))


def _env():
    return SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, weight_scale=8.0, seed=3
    )


def _p2b_population(n_agents: int):
    """The paper's warm-private deployment: system-wired agents."""
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
    env = _env()
    agents = [system.new_agent() for _ in range(n_agents)]
    sessions = [env.new_user(s) for s in spawn_seeds(SEED + 1, n_agents)]
    return system, agents, sessions


def _cold_population(n_agents: int):
    """Secondary workload: dense cold LinUCB (memory-bound at scale)."""
    env = _env()
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(SEED, n_agents)):
        policy_seed, session_seed = s.spawn(2)
        agents.append(
            LocalAgent(
                f"agent-{i}",
                LinUCB(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed),
                mode="cold",
            )
        )
        sessions.append(env.new_user(session_seed))
    return agents, sessions


_HET_ENCODER = None


def _het_encoder():
    global _HET_ENCODER
    if _HET_ENCODER is None:
        _HET_ENCODER = KMeansEncoder(
            n_codes=N_CODES, n_features=N_FEATURES, q=1, seed=SEED
        ).fit()
    return _HET_ENCODER


def _heterogeneous_population(n_agents: int):
    """Four interleaved shards: three cold policy kinds + warm-private.

    Agent ``i``'s configuration depends only on ``i % 4`` and its own
    spawned seed, so a prefix subsample is composition- and
    seed-identical to the full population's head — the property the
    sequential-vs-fleet equivalence assertion relies on.
    """
    env = _env()
    encoder = _het_encoder()
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(SEED, n_agents)):
        policy_seed, part_seed, session_seed = s.spawn(3)
        flavor = i % 4
        if flavor == 0:
            policy = LinUCB(n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed)
        elif flavor == 1:
            policy = LinearThompsonSampling(
                n_arms=N_ACTIONS, n_features=N_FEATURES, seed=policy_seed
            )
        elif flavor == 2:
            policy = EpsilonGreedy(
                n_arms=N_ACTIONS, n_features=N_FEATURES, epsilon=0.2, seed=policy_seed
            )
        else:
            policy = CodeLinUCB(n_arms=N_ACTIONS, n_features=N_CODES, seed=policy_seed)
        if flavor == 3:
            agents.append(
                LocalAgent(
                    f"agent-{i}",
                    policy,
                    mode=AgentMode.WARM_PRIVATE,
                    encoder=encoder,
                    participation=RandomizedParticipation(
                        p=0.5, window=10, max_reports=1, seed=part_seed
                    ),
                )
            )
        else:
            agents.append(LocalAgent(f"agent-{i}", policy, mode=AgentMode.COLD))
        sessions.append(env.new_user(session_seed))
    return agents, sessions


def _throughputs(make_population, n_fleet=N_AGENTS, n_seq=N_SEQ_AGENTS):
    """(sequential, fleet) interactions/second + the equivalence check."""
    seq = make_population(n_seq)
    seq_agents, seq_sessions = seq[-2], seq[-1]
    t0 = time.perf_counter()
    seq_rewards = np.stack(
        [
            _simulate_agent(a, s, N_INTERACTIONS)[0]
            for a, s in zip(seq_agents, seq_sessions)
        ]
    )
    seq_elapsed = time.perf_counter() - t0

    fleet = make_population(n_fleet)
    fleet_agents, fleet_sessions = fleet[-2], fleet[-1]
    runner = FleetRunner(fleet_agents, fleet_sessions)
    t0 = time.perf_counter()
    result = runner.run(N_INTERACTIONS)
    fleet_elapsed = time.perf_counter() - t0

    # equivalence at scale: shared-prefix agents agree bit-for-bit
    np.testing.assert_array_equal(seq_rewards, result.rewards[:n_seq])

    return {
        "n_shards": runner.n_shards,
        "sequential_seconds": round(seq_elapsed, 4),
        "fleet_seconds": round(fleet_elapsed, 4),
        "sequential_interactions_per_second": round(
            n_seq * N_INTERACTIONS / seq_elapsed, 1
        ),
        "fleet_interactions_per_second": round(
            n_fleet * N_INTERACTIONS / fleet_elapsed, 1
        ),
        "speedup": round(
            (n_fleet * N_INTERACTIONS / fleet_elapsed)
            / (n_seq * N_INTERACTIONS / seq_elapsed),
            2,
        ),
    }


def test_fleet_engine_speedup(record_json):
    warm_private = _throughputs(_p2b_population)
    cold_dense = _throughputs(_cold_population)
    heterogeneous = _throughputs(
        _heterogeneous_population, n_fleet=N_HET_AGENTS, n_seq=N_HET_SEQ_AGENTS
    )
    record_json(
        "fleet",
        {
            "config": {
                "n_agents_fleet": N_AGENTS,
                "n_agents_sequential": N_SEQ_AGENTS,
                "n_agents_fleet_heterogeneous": N_HET_AGENTS,
                "n_agents_sequential_heterogeneous": N_HET_SEQ_AGENTS,
                "n_interactions": N_INTERACTIONS,
                "n_actions": N_ACTIONS,
                "n_features": N_FEATURES,
                "n_codes": N_CODES,
            },
            "warm_private_code_linucb": warm_private,
            "cold_dense_linucb": cold_dense,
            "heterogeneous_mixed_population": heterogeneous,
        },
    )
    assert warm_private["speedup"] >= MIN_SPEEDUP, (
        "fleet engine must be >= "
        f"{MIN_SPEEDUP}x sequential on the P2B population, got "
        f"{warm_private['speedup']}x"
    )
    # the dense workload is informational but must never regress below
    # a sanity floor
    assert cold_dense["speedup"] >= 2.0
    # the mixed population runs four shards (LinUCB / Thompson /
    # eps-greedy cold + warm-private CodeLinUCB); its softer floor dates
    # from when Thompson's posterior normals were a per-agent loop
    assert heterogeneous["n_shards"] == 4
    assert heterogeneous["speedup"] >= MIN_SPEEDUP_HET


if __name__ == "__main__":  # pragma: no cover - manual convenience
    import sys

    import pytest as _pytest

    sys.exit(_pytest.main([__file__, "-q"]))
