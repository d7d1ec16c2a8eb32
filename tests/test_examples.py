"""Every script in ``examples/`` runs to completion (exit 0).

Each example runs the way a user runs it: as a script in a fresh
interpreter, with ``src`` on ``PYTHONPATH`` and a scratch working
directory.  The privacy tour takes well under a second; the others
train populations for seconds each and are marked slow, so the smoke
run (``-m "not slow"``) skips them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: examples quick enough for the smoke run
FAST = {"privacy_budget_tour.py"}


def _examples():
    for path in sorted((ROOT / "examples").glob("*.py")):
        marks = () if path.name in FAST else (pytest.mark.slow,)
        yield pytest.param(path, id=path.stem, marks=marks)


@pytest.mark.parametrize("path", _examples())
def test_example_exits_cleanly(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
