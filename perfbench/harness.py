"""Run one workload and report its metrics (see ``perfbench/README.md``).

``--trace 0`` measures the end-to-end metrics with tracing off: the
population is built several times (``setup_s`` is the median), then a
closed-loop client sends requests for ``--seconds`` seconds (and at
least the workload's ``min_requests``).  These timings are read from
the process CPU clock and scaled to nominal machine speed by a
reference kernel timed between builds and requests
(``perfbench/speed.py``).  ``--trace 1`` builds the population twice
and runs the same fixed number of requests on each, first untraced,
then under :class:`~perfbench.tracer.Tracer`; the two runs must agree
bitwise, and the traced one gives the per-layer metrics.  Both modes finish with the workload's correctness checks,
outside the timed window, and print one JSON result as the last line
of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .run import THREAD_VARS
from .speed import SpeedProbe, cpu_clock
from .tracer import Tracer
from .workloads import WORKLOADS, Check, Outcome, Workload

__all__ = ["main", "run_workload", "END_TO_END", "PER_LAYER"]

#: builds per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: reference-kernel samples taken before each build and after the last
PROBES_PER_BUILD = 5

OUT_DIR = Path(__file__).resolve().parent / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("interactions_per_s", "interactions/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
    ("mean_reward", "reward"),
    ("success_rate", "fraction"),
)

#: layers whose self time is reported as ``<layer>_s``
_SELF_TIMED = (
    "encoding.encode",
    "encoding.encode_batch",
    "data.plan",
    "bandits.kernels",
    "sim.stacked.select",
    "sim.stacked.update",
    "sim.stacked.stack",
    "sim.stacked.writeback",
    "sim.fleet.add_agents",
    "sim.fleet.remove_agents",
    "core.agent.record_interaction",
    "core.agent.warm_start",
    "core.participation.step",
    "core.participation.offer",
    "core.payload.log_append",
    "core.payload.drain",
    "core.shuffler.process_arrays",
    "core.shuffler.buffer_arrays",
    "core.shuffler.release_ready",
    "core.server.ingest_arrays",
    "core.server.model_snapshot",
)
#: layers whose span count is reported as ``<layer>_calls``
_CALLS = (
    "encoding.encode",
    "data.plan",
    "bandits.kernels",
    "core.agent.record_interaction",
    "core.agent.warm_start",
    "core.participation.offer",
)

PER_LAYER = (
    tuple((f"{layer}_s", "s") for layer in _SELF_TIMED)
    + tuple((f"{layer}_calls", "count") for layer in _CALLS)
    + (
        ("sim.fleet.run_s", "s"),
        ("sim.fleet.run_self_s", "s"),
        ("sim.stacked.state_bytes", "bytes"),
        ("encoding.encode_batch_rows", "count"),
        ("core.payload.reports_logged", "count"),
        ("core.shuffler.tuples_received", "count"),
        ("core.shuffler.tuples_released", "count"),
        ("core.shuffler.release_frac", "fraction"),
        ("core.shuffler.quarantined", "count"),
        ("core.server.tuples_ingested", "count"),
        ("experiments.serve.interact_ms_p50", "ms"),
        ("experiments.serve.collect_ms_p50", "ms"),
        ("experiments.serve.churn_ms_p50", "ms"),
        ("trace_overhead_frac", "fraction"),
    )
)


# ---------------------------------------------------------------------- #
def environment_stamp() -> dict:
    """Machine, interpreter and thread settings behind a result."""
    threads = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "os_threads": threads,
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Requests:
    """Closed-loop client: send request ``i + 1`` once ``i`` has returned."""

    def __init__(self, workload: Workload, state) -> None:
        self.workload = workload
        self.state = state
        #: per answered request: wall-clock (start, stop), wall-clock
        #: seconds and CPU-clock seconds
        self.spans: list[tuple[float, float]] = []
        self.latencies: list[float] = []
        self.cpu_times: list[float] = []
        self.outcomes: list[Outcome] = []
        self.raised: list[str] = []
        self.digest = hashlib.sha256()

    def send(self) -> bool:
        i = len(self.latencies) + len(self.raised)
        t0, c0 = time.perf_counter(), cpu_clock()
        try:
            outcome = self.workload.request(self.state, i)
        except Exception as exc:  # a failed request is a counted failure
            self.raised.append(f"request {i}: {type(exc).__name__}: {exc}")
            return False
        c1, t1 = cpu_clock(), time.perf_counter()
        self.spans.append((t0, t1))
        self.latencies.append(t1 - t0)
        self.cpu_times.append(c1 - c0)
        self.outcomes.append(outcome)
        for array in outcome.fingerprint:
            self.digest.update(np.ascontiguousarray(array).tobytes())
        return True

    def run_for(self, seconds: float, minimum: int, probe: SpeedProbe) -> float:
        """Send requests for ``seconds``; sample ``probe`` between them."""
        start = time.perf_counter()
        probe.sample()
        while len(self.outcomes) < minimum or time.perf_counter() - start < seconds:
            if not self.send():
                break
            probe.sample()
        return time.perf_counter() - start

    def run_n(self, n: int) -> float:
        start = time.perf_counter()
        for _ in range(n):
            if not self.send():
                break
        return time.perf_counter() - start

    @property
    def interactions(self) -> int:
        return sum(o.interactions for o in self.outcomes)

    @property
    def failures(self) -> int:
        return len(self.raised) + sum(o.failures for o in self.outcomes)


def _build(workload: Workload, seed: int) -> tuple[object, float, float, float]:
    """Build once; returns the state, its wall-clock start and stop, and
    its CPU seconds."""
    gc.collect()
    t0, c0 = time.perf_counter(), cpu_clock()
    state = workload.build(seed)
    c1, t1 = cpu_clock(), time.perf_counter()
    return state, t0, t1, c1 - c0


def _p50_p90(values: np.ndarray) -> tuple[float, float]:
    if not values.size:
        return 0.0, 0.0
    p50, p90 = np.percentile(values, [50, 90])
    return float(p50), float(p90)


def _median_ms(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.median(values)) if values.size else 0.0


def _layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict, list[tuple[str, float]]]:
    summary = tracer.summary()

    def get(layer: str, key: str) -> float:
        return summary.get(layer, {}).get(key, 0)

    def counter(layer: str, key: str) -> float:
        return tracer.counters[layer, key]

    m: dict[str, float] = {}
    for layer in _SELF_TIMED:
        m[f"{layer}_s"] = get(layer, "self_s")
    for layer in _CALLS:
        m[f"{layer}_calls"] = get(layer, "calls")
    m["sim.fleet.run_s"] = get("sim.fleet.run", "total_s")
    m["sim.fleet.run_self_s"] = get("sim.fleet.run", "self_s")
    m["sim.stacked.state_bytes"] = tracer.max_per_parent("sim.stacked.stack", "state_bytes")
    m["encoding.encode_batch_rows"] = counter("encoding.encode_batch", "rows")
    m["core.payload.reports_logged"] = counter("core.payload.log_append", "rows")
    received = counter("core.shuffler.process_arrays", "received") + counter(
        "core.shuffler.buffer_arrays", "received"
    )
    released = counter("core.shuffler.process_arrays", "released") + counter(
        "core.shuffler.release_ready", "released"
    )
    m["core.shuffler.tuples_received"] = received
    m["core.shuffler.tuples_released"] = released
    m["core.shuffler.release_frac"] = released / received if received else 0.0
    m["core.shuffler.quarantined"] = counter(
        "core.shuffler.process_arrays", "quarantined"
    ) + counter("core.shuffler.release_ready", "quarantined")
    m["core.server.tuples_ingested"] = counter("core.server.ingest_arrays", "rows")
    m["experiments.serve.interact_ms_p50"] = _median_ms(
        tracer.durations_ms("experiments.serve.interact")
    )
    m["experiments.serve.collect_ms_p50"] = _median_ms(
        tracer.durations_ms("experiments.serve.collect")
    )
    arrive = tracer.durations_ms("experiments.serve.arrive")
    depart = tracer.durations_ms("experiments.serve.depart")
    n = min(arrive.size, depart.size)
    m["experiments.serve.churn_ms_p50"] = _median_ms(arrive[:n] + depart[:n])

    rows = sorted(((layer, s["self_s"]) for layer, s in summary.items()), key=lambda r: -r[1])
    rows.append(("(outside traced layers)", wall_s - sum(s for _, s in rows)))
    return m, rows


# ---------------------------------------------------------------------- #
def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR
) -> dict:
    """Run one workload; returns the full record (metrics, checks, samples)."""
    checks: list[Check] = []
    record: dict = {"workload": workload.name, "seed": seed, "config": workload.config()}
    if not trace:
        probe = SpeedProbe(workload.reference)
        builds, state = [], None  # (start, stop, CPU seconds) of each build
        for _ in range(SETUP_REPEATS):
            state = None  # free the previous build before timing the next
            for _ in range(PROBES_PER_BUILD):
                probe.sample()
            state, *timed = _build(workload, seed)
            builds.append(timed)
        for _ in range(PROBES_PER_BUILD):
            probe.sample()
        setup_speed = [probe.factor(t0, t1) for t0, t1, _ in builds]
        setups = [cpu / f for (_, _, cpu), f in zip(builds, setup_speed)]
        client = _Requests(workload, state)
        wall = client.run_for(seconds, workload.min_requests, probe)
        peak = _peak_rss_mib()
        speed = np.array([probe.factor(t0, t1) for t0, t1 in client.spans])
        cpu_ms = np.asarray(client.cpu_times) * 1e3
        p50, p90 = _p50_p90(cpu_ms / speed)
        head = client.outcomes[: workload.min_requests]
        count = sum(o.reward_count for o in head)
        per_request = client.interactions / max(len(client.outcomes), 1)
        metrics = {
            "setup_s": statistics.median(setups),
            # the closed-loop rate at the median request: steadier than
            # the window mean, which a few slow stretches pull down
            "interactions_per_s": per_request / (p50 * 1e-3) if p50 else 0.0,
            "request_ms_p50": p50,
            "request_ms_p90": p90,
            "peak_rss_mib": peak,
            "mean_reward": sum(o.reward_sum for o in head) / count if count else 0.0,
        }
        # the measurements behind the metrics: unscaled times, speed
        # factors, and reference samples (times from the first build)
        record["raw"] = {
            "setup_cpu_s": [cpu for _, _, cpu in builds],
            "setup_wall_s": [t1 - t0 for t0, t1, _ in builds],
            "setup_speed_factors": setup_speed,
            "request_speed_factor_p50": _p50_p90(speed)[0],
            "request_speed_factors": speed.tolist(),
            "request_cpu_ms": cpu_ms.tolist(),
            "request_cpu_ms_p50_p90": _p50_p90(cpu_ms),
            "request_wall_ms_p50_p90": _p50_p90(np.asarray(client.latencies) * 1e3),
            "window_interactions_per_s": client.interactions / wall,
            "reference_kernel_s": probe.samples,
            "reference_kernel_at_s": [t - builds[0][0] for t in probe.times],
            "request_spans_s": [
                (t0 - builds[0][0], t1 - builds[0][0]) for t0, t1 in client.spans
            ],
        }
        clients = [client]
    else:
        # two identical builds, the same fixed request count on each:
        # untraced first, then traced — counts repeat exactly, and the
        # two result streams must agree bitwise
        n = workload.trace_requests
        state = _build(workload, seed)[0]
        plain = _Requests(workload, state)
        plain_wall = plain.run_n(n)
        state = plain.state = None
        state = _build(workload, seed)[0]
        client = _Requests(workload, state)
        with Tracer() as tracer:
            wall = client.run_n(n)
        checks.append(
            Check("trace_result_neutral", client.digest.digest() == plain.digest.digest())
        )
        metrics, rows = _layer_metrics(tracer, wall)
        plain_rate = plain.interactions / plain_wall
        metrics["trace_overhead_frac"] = (
            1.0 - (client.interactions / wall) / plain_rate if plain_rate else 0.0
        )
        clients = [plain, client]
        record["self_time_table"] = rows
        spans = out_dir / f"{workload.name}-seed{seed}-spans.npz"
        tracer.dump(spans)
        record["span_dump"] = os.path.relpath(spans)
        record["n_spans"] = len(tracer.start)

    checks.extend(workload.finish(client.state))
    checks.extend(workload.gate(client.state, seed))
    env = environment_stamp()
    checks.append(
        Check(
            "threads_within_nproc",
            (env["os_threads"] or 1) <= os.cpu_count(),
            str(env["os_threads"]),
        )
    )
    failed = sum(c.failures for c in clients) + sum(not c.ok for c in checks)
    attempted = sum(len(c.outcomes) + len(c.raised) for c in clients) + len(checks)
    if not trace:
        metrics["success_rate"] = 1.0 - failed / attempted
    lat_ms = np.asarray(client.latencies) * 1e3
    record.update(
        env=env,
        request_samples=int(lat_ms.size),
        request_latencies_ms=lat_ms.tolist(),
        requests_by_kind=_by_kind(client),
        window_s=wall,
        raised=[line for c in clients for line in c.raised],
        checks=[vars(c) for c in checks],
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
    )
    return record


def _by_kind(client: _Requests) -> dict:
    kinds: dict[str, list[float]] = {}
    for outcome, lat in zip(client.outcomes, client.latencies):
        kinds.setdefault(outcome.kind, []).append(lat * 1e3)
    return {k: {"n": len(v), "ms_p50": float(np.median(v))} for k, v in kinds.items()}


def _print_report(record: dict, units: dict[str, str]) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"requests {record['request_samples']}  window {record['window_s']:.2f}s")
    print("env " + json.dumps(record["env"], sort_keys=True))
    if "raw" in record:
        raw = record["raw"]
        print(f"speed factor setup {statistics.median(raw['setup_speed_factors']):.3f}  "
              f"requests {raw['request_speed_factor_p50']:.3f}  "
              f"request p50 cpu {raw['request_cpu_ms_p50_p90'][0]:.2f} ms  "
              f"wall {raw['request_wall_ms_p50_p90'][0]:.2f} ms")
    for kind, s in record["requests_by_kind"].items():
        print(f"  {kind:<10} n={s['n']:<5} p50={s['ms_p50']:.2f} ms")
    if "self_time_table" in record:
        print(f"self time by layer ({record['n_spans']} spans, dump {record['span_dump']}):")
        for layer, s in record["self_time_table"]:
            share = s / record["window_s"] if record["window_s"] else 0.0
            print(f"  {layer:<34} {s:10.4f} s  {share:7.1%}")
    for check in record["checks"]:
        if not check["ok"]:
            print(f"CHECK FAILED {check['name']}: {check['detail']}")
    for line in record["raised"]:
        print(f"REQUEST FAILED {line}")
    for name, value in record["metrics"].items():
        print(f"  {name:<40} {value:.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]()
    record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    declared = PER_LAYER if args.trace else END_TO_END
    units = dict(declared)
    assert set(record["metrics"]) == set(units), "metric set drifted from its declaration"

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float) + "\n")
    _print_report(record, units)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": float(record["metrics"][name]), "unit": unit}
            for name, unit in declared
        },
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if record["correct"] else 1
