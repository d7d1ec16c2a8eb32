"""Every Python line in the repository fits the 100-column limit.

``pyproject.toml`` sets ruff's E501 at 100 columns, and CI lints with
ruff; this stdlib-only check holds the same limit where ruff is not
installed.  It counts characters, so it is never looser than ruff.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 100
CHECKED = ("src", "tests", "benchmarks", "examples")


def test_no_line_exceeds_the_limit():
    long_lines = [
        f"{path.relative_to(ROOT)}:{n}: {len(line)} columns"
        for folder in CHECKED
        for path in sorted((ROOT / folder).rglob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > LIMIT
    ]
    assert not long_lines, "\n".join(long_lines)
