"""Render a markdown table comparing fresh vs committed bench records.

The bench targets write fresh records to ``benchmarks/out/BENCH_*.json``
(gitignored); the committed records live in ``benchmarks/results/`` and
change only when a benchmark change promotes a fresh record by copying
it there.  The CI bench jobs pipe this script's output into
``$GITHUB_STEP_SUMMARY`` so every PR (and every nightly run) shows at a
glance how the regenerated speedup and memory numbers compare against
the committed ones.

Headline metrics are any numeric leaves whose key names a ratio the
repo tracks (``speedup``, ``reduction...``, ``interactions_per_second``,
``...bytes_per_agent``); nested records are flattened with dotted paths.

Usage::

    python benchmarks/compare_bench_records.py >> "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"
RESULTS_DIR = Path(__file__).parent / "results"

#: numeric leaf keys worth surfacing (exact match or prefix)
_METRIC_KEYS = (
    "speedup",
    "workers_speedup",
    "reduction",
    "interactions_per_second",
    "requests_per_second",
    "bytes_per_agent",
)


def _is_metric(key: str) -> bool:
    return any(key == m or key.startswith(m + "_") or key.endswith("_" + m) for m in _METRIC_KEYS)


def _flatten(payload, prefix=""):
    """Yield ``(dotted.path, value)`` for every metric leaf."""
    if isinstance(payload, dict):
        for key, value in sorted(payload.items()):
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, dict):
                yield from _flatten(value, path)
            elif isinstance(value, (int, float)) and _is_metric(key):
                yield path, float(value)


def _committed(name: str) -> dict | None:
    path = RESULTS_DIR / name
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


def render() -> str:
    lines = [
        "## Bench records vs committed baselines",
        "",
        "Regenerated `benchmarks/out/BENCH_*.json` compared against "
        "`benchmarks/results/` (committed records come from the development machine; CI runners "
        "are slower and noisier — byte-accounting metrics are exact).",
        "",
        "| record | metric | committed | regenerated | ratio |",
        "|---|---|---:|---:|---:|",
    ]
    rows = 0
    for path in sorted(OUT_DIR.glob("BENCH_*.json")):
        fresh = json.loads(path.read_text(encoding="utf-8"))
        base = _committed(path.name)
        base_metrics = dict(_flatten(base)) if base else {}
        for metric, value in _flatten(fresh):
            committed = base_metrics.get(metric)
            if committed is None:
                committed_cell, ratio_cell = "—", "new"
            else:
                committed_cell = f"{committed:g}"
                ratio_cell = f"{value / committed:.2f}x" if committed else "n/a"
            lines.append(
                f"| {path.stem} | {metric} | {committed_cell} | {value:g} | {ratio_cell} |"
            )
            rows += 1
    if rows == 0:
        lines.append("| _no records found_ | | | | |")
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.stdout.write(render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
