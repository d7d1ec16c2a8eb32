"""No module imports a name it never uses.

``pyproject.toml`` lints with ruff's F rules, F401 (unused import)
among them, and CI runs ruff; this stdlib-only check holds the same
rule where ruff is not installed, over the folders
``tests/test_line_length.py`` checks.  As configured there it exempts
``__init__.py`` re-export hubs, skips ``from __future__`` imports and
import lines marked ``# noqa``, and counts a name as used when it
appears in code, in ``__all__`` or inside a string annotation.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src", "tests", "benchmarks", "examples")


def _annotations(tree: ast.AST):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            yield from (a.annotation for a in every if a is not None and a.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    used |= _used_names(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    for node in ast.walk(tree):  # __all__ = [...] re-exports
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)
            }
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = _used_names(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_no_module_imports_an_unused_name():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name!r} imported but unused"
        for folder in CHECKED
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "\n".join(found)


def test_the_check_flags_a_planted_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys\n"
        "import json  # noqa: F401\n"
        "from typing import Any, Mapping\n"
        "import numpy.linalg\n"
        "from pathlib import Path as P\n"
        "def f(x: 'Mapping[str, int]') -> None:\n"
        "    return sys.argv, numpy.linalg\n"
    )
    assert unused_imports(source) == [(2, "os"), (5, "Any"), (7, "P")]
