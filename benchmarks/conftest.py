"""Benchmark-session plumbing.

Experiment benches register their rendered figure tables here; a
``pytest_terminal_summary`` hook prints everything at the end of the
run, so ``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
captures the full reproduced-figure data alongside the timing table.
Rendered text is also written to ``benchmarks/out/*.txt``.

Machine-readable perf records go through :func:`record_json`
(``benchmarks/out/BENCH_<name>.json``) — ``bench_fleet_engine.py``
writes ``BENCH_fleet.json``.  ``benchmarks/out/`` is gitignored: a bench
run never rewrites the committed records in ``benchmarks/results/``,
which track the throughput trajectory.  A change that sets out to move
a benchmark promotes a fresh record by copying it there;
``compare_bench_records.py`` compares the two directories.

Determinism contract (CI runs ``make bench`` on shared runners): every
bench seeds all of its randomness explicitly, ``make bench`` pins
``PYTHONHASHSEED``, and these fixtures are the *only* writers — both
write exclusively under ``benchmarks/out/``, so a bench run never
dirties the working tree.  Timings (and the JSON fields
derived from them) are the one thing allowed to vary run to run;
assertion floors on them are env-tunable (see ``bench_fleet_engine``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

_RESULTS: list[tuple[str, str]] = []
_OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture
def record_figure():
    """Fixture: call with (name, rendered_text) to register output."""

    def _record(name: str, text: str) -> None:
        _RESULTS.append((name, text))
        _OUT_DIR.mkdir(parents=True, exist_ok=True)
        (_OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _record


@pytest.fixture
def record_json():
    """Fixture: persist a perf record as ``out/BENCH_<name>.json``.

    Also registers a rendered view with the terminal-summary hook, so
    the numbers show up in ``tee``-captured bench output alongside the
    figure tables.
    """

    def _record(name: str, payload: dict, *, merge: bool = False) -> Path:
        _OUT_DIR.mkdir(parents=True, exist_ok=True)
        # every record names the machine width it was measured on —
        # worker-scaling numbers are meaningless without it
        payload = dict(payload)
        payload.setdefault("cpu_count", os.cpu_count())
        path = _OUT_DIR / f"BENCH_{name}.json"
        if merge and path.exists():
            # top-level merge so independent bench tests can contribute
            # sections of one record (e.g. BENCH_memory.json's
            # ``fast_tier``) without clobbering each other
            existing = json.loads(path.read_text(encoding="utf-8"))
            existing.update(payload)
            payload = existing
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        _RESULTS.append((f"BENCH_{name}", json.dumps(payload, indent=2, sort_keys=True)))
        return path

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.write_sep("=", "reproduced paper figures")
    for name, text in _RESULTS:
        terminalreporter.write_sep("-", name)
        terminalreporter.write_line(text)
