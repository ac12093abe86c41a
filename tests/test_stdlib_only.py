"""The package and its scripts run on the standard library alone, and
parse as Python 3.10, the floor ``pyproject.toml`` declares."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "dpda").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _absolute_imports(tree: ast.Module) -> list[str]:
    """The top-level module names of ``tree``'s absolute imports."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_imports_only_the_standard_library_and_dpda(path):
    # parsed in the grammar of Python 3.10, pyproject.toml's requires-python floor
    names = _absolute_imports(ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10)))
    assert [name for name in names
            if name != "dpda" and name not in sys.stdlib_module_names] == []


def test_the_sources_are_found():
    assert {path.parent.name for path in SOURCES} == {"dpda", "scripts"}
