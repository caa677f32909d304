"""The runtime stays stdlib-only: every import under src/flowsynth is a
flowsynth module or a standard-library one."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "flowsynth").rglob("*.py"))


def imported_roots(tree: ast.AST):
    """(top-level module name, line) for every absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0], node.lineno


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "cut.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_or_flowsynth(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [
        f"{path.name}:{line}: {root}"
        for root, line in imported_roots(tree)
        if root != "flowsynth" and root not in sys.stdlib_module_names
    ]
    assert not outside
