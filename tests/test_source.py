"""Rules the library source keeps, read from its syntax tree.

* no ``assert`` statement: ``python -O`` strips them, and every invariant
  check must still fire there (they raise ``InvariantError`` instead);
* no ``print(`` call: stdout carries only the report ``cli._emit`` writes.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "parabolica").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_library_has_no_assert_or_print(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print")
    ]
    assert found == []


def test_sources_are_found():
    assert {"cli.py", "rootsys.py", "spectral.py"} <= {p.name for p in SOURCES}
