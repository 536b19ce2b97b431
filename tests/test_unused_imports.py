"""No module imports a name it never uses.

An AST scan stands in for a linter: every name a module binds with
``import`` / ``from ... import`` must be referenced somewhere in that
module.  Exempt are ``__init__.py`` files (their imports are the package's
re-exports), names listed in ``__all__``, and import lines marked
``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples")


def _imported(tree: ast.Module):
    """(bound name, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _annotation_names(node) -> set:
    """Names inside a quoted annotation such as ``"TraceRecorder"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name)}
        except SyntaxError:
            return set()
    return set()


def _referenced(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            names |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _annotation_names(node.annotation)
    return names


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in getattr(node.value, "elts", [])
                    if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source: str) -> list:
    """``"line: name"`` for each imported name the source never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _referenced(tree) | _exported(tree)
    return [
        f"{line}: {name}"
        for name, line in _imported(tree)
        if name not in used and "noqa: F401" not in lines[line - 1]
    ]


def test_scan_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys  # noqa: F401\n"
        "from typing import List, Optional\n"
        "from json import dumps as d\n"
        "__all__ = ['List']\n"
        "def f(x: \"Optional[int]\"):\n"
        "    return [os.sep]\n"
    )
    assert unused_imports(source) == ["5: d"]


@pytest.mark.parametrize("top", SCANNED)
def test_no_unused_imports(top):
    found = [
        f"{path.relative_to(ROOT)}:{hit}"
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for hit in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)
