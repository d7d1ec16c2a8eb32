"""The benchmark's own tests: tracing is result-neutral, names match.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from perfbench.harness import END_TO_END, PER_LAYER, run_workload
from perfbench.speed import REFERENCE_KERNELS, SpeedProbe
from perfbench.tracer import Target, Tracer
from perfbench.workloads import WORKLOADS, DeployRounds, ReplayMixed, ServeChurn

from repro.core.rounds import DeploymentLoop
from repro.experiments.serve import FleetService

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# deploy_rounds and serve_churn keep their full populations (a smaller
# one never fills a crowd of 10, so nothing would be released); few
# requests keep them fast
TINY = {
    "deploy_rounds": lambda: DeployRounds(
        gate_users=12, gate_rounds=2, min_requests=2, trace_requests=3
    ),
    "replay_mixed": lambda: ReplayMixed(
        n_agents=12, n_samples=600, samples_per_user=20,
        min_requests=2, trace_requests=3,
    ),
    "serve_churn": lambda: ServeChurn(gate_agents=4, min_requests=8, trace_requests=8),
}


def _requests(workload, seed, n):
    state = workload.build(seed)
    return state, [workload.request(state, i) for i in range(n)]


def _final_states(state) -> list[dict]:
    """Policy states a run leaves behind (the central model for a loop)."""
    if isinstance(state, DeploymentLoop):
        return [state.system.model_snapshot(), {"rounds": np.array(state.rounds)}]
    agents = state.fleet.agents if isinstance(state, FleetService) else state.agents
    return [a.policy.get_state() for a in agents]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_gives_identical_results(name):
    workload = TINY[name]()
    plain_state, plain = _requests(workload, 3, 4)
    with Tracer() as tracer:
        traced_state, traced = _requests(workload, 3, 4)
    assert len(tracer.start) > 0
    for a, b in zip(plain, traced, strict=True):
        assert a.kind == b.kind and a.reward_sum == b.reward_sum
        for x, y in zip(a.fingerprint, b.fingerprint, strict=True):
            np.testing.assert_array_equal(x, y)  # rewards and actions, bitwise
    for sa, sb in zip(_final_states(plain_state), _final_states(traced_state), strict=True):
        for key in sa:
            np.testing.assert_array_equal(np.asarray(sa[key]), np.asarray(sb[key]))


def test_tracer_restores_every_patched_name():
    import repro.core.system
    import repro.sim.stacked
    from repro.encoding.kmeans_encoder import KMeansEncoder
    from repro.core.server import PrivateServer

    before = (
        KMeansEncoder.__dict__["encode"],
        repro.sim.stacked.ucb_explore,
        repro.core.system.drain_report_batches,
    )
    with Tracer():
        assert repro.sim.stacked.ucb_explore is not before[1]
        assert "model_snapshot" in PrivateServer.__dict__
    after = (
        KMeansEncoder.__dict__["encode"],
        repro.sim.stacked.ucb_explore,
        repro.core.system.drain_report_batches,
    )
    assert all(a is b for a, b in zip(before, after))
    assert "model_snapshot" not in PrivateServer.__dict__


def test_self_time_excludes_children_and_same_layer_nesting():
    class Layers:
        def outer(self):
            self.inner()
            return self.outer_again()

        def outer_again(self):
            return 1

        def inner(self):
            return 2

    targets = [
        Target("a", Layers, "outer"),
        Target("a", Layers, "outer_again"),
        Target("b", Layers, "inner", lambda args, result: {"value": result}),
    ]
    with Tracer(targets) as tracer:
        Layers().outer()
    summary = tracer.summary()
    assert summary["a"]["calls"] == 1  # outer_again nests in its own layer
    assert summary["b"]["calls"] == 1
    assert tracer.parent[1] == 0
    assert summary["a"]["self_s"] == pytest.approx(
        summary["a"]["total_s"] - summary["b"]["total_s"]
    )
    assert tracer.counters["b", "value"] == 2


def test_speed_factor_averages_the_samples_near_an_interval():
    probe = SpeedProbe("interpreter")
    unit = probe.nominal_s
    probe.times = [0.0, 0.1, 0.2, 5.0, 5.1]
    probe.samples = [unit, 1.2 * unit, 0.8 * unit, 2 * unit, 2 * unit]
    assert probe.factor(0.05, 0.15) == pytest.approx(1.0)
    assert probe.factor(5.02, 5.05) == pytest.approx(2.0)
    # nothing within reach: the two nearest samples
    assert probe.factor(3.0, 3.1) == pytest.approx(2.0)


@pytest.mark.parametrize("kernel", sorted(REFERENCE_KERNELS))
def test_reference_kernels_sample_near_nominal(kernel):
    probe = SpeedProbe(kernel)
    for _ in range(3):
        assert probe.sample() > 0
    # nominal times hold within the range a shared host wanders over
    assert 0.2 < probe.factor(0.0, float("inf")) < 5.0


def test_declared_metrics_match_benchmark_json():
    bench = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_emitted_metrics_match_benchmark_json(name, trace, tmp_path):
    bench = json.loads(BENCHMARK_JSON.read_text())
    record = run_workload(TINY[name](), seed=5, seconds=0.01, trace=trace, out_dir=tmp_path)
    declared = bench["per_layer" if trace else "end_to_end"]
    assert set(record["metrics"]) == {m["name"] for m in declared}
    assert record["correct"], [c for c in record["checks"] if not c["ok"]]
    assert record["failed"] == 0
    if trace:
        assert (tmp_path / f"{name}-seed5-spans.npz").exists()
