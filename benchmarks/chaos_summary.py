"""Chaos-smoke counters for the CI step summary.

Runs one small deterministic scenario — report-batch corruption on the
columnar collection path — and prints a markdown table of the counters
CI surfaces: how many malformed tuples the shuffler quarantined, how
many tuples it still released, and whether the crowd-blending audit
passed.  Exits non-zero when nothing was quarantined or the audit
failed.

Usage::

    PYTHONPATH=src python benchmarks/chaos_summary.py >> "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

from repro.core.config import AgentMode, P2BConfig
from repro.core.system import P2BSystem
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.sim import FaultPlan, FleetRunner
from repro.utils.rng import spawn_seeds

N_ACTIONS, N_FEATURES, N_AGENTS, HORIZON = 4, 5, 12, 10


def quarantine_counters() -> tuple[int, int, bool]:
    config = P2BConfig(
        n_actions=N_ACTIONS, n_features=N_FEATURES, n_codes=8,
        shuffler_threshold=2, window=3, max_reports_per_user=2, p=0.7,
    )
    system = P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=0)
    system.fault_plan = FaultPlan(seed=13, p_corrupt=1.0, corrupt_frac=0.25)
    env = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
    )
    agents = [system.new_agent() for _ in range(N_AGENTS)]
    sessions = [env.new_user(s) for s in spawn_seeds(2, N_AGENTS)]
    FleetRunner(agents, sessions).run(HORIZON)
    outcome = system.collect(agents)  # raises if the audit is violated
    return (
        system.shuffler.total_quarantined,
        outcome.n_released,
        outcome.shuffler_stats.audit.satisfied,
    )


def main() -> int:
    n_quarantined, n_released, audit_ok = quarantine_counters()
    print("### chaos smoke")
    print()
    print("| counter | value |")
    print("| --- | --- |")
    print(f"| malformed tuples quarantined | {n_quarantined} |")
    print(f"| tuples still released | {n_released} |")
    print(f"| crowd-blending audit | {'pass' if audit_ok else 'FAIL'} |")
    return 0 if n_quarantined > 0 and audit_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
