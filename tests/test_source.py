"""Rules the library source keeps, read from its syntax tree.

* no ``assert`` statement: ``python -O`` strips them, and every invariant
  check must still fire there (they raise ``InvariantError`` instead);
* no ``print(`` call: stdout carries only the report ``cli._emit`` writes;
* no ``json.dumps``/``json.dump`` call with ``indent=``: reports are
  rendered by ``cli._render_json`` alone, and json's encoder runs in pure
  Python whenever ``indent`` is set.
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


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_library_has_no_indented_json_dump(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in ("dumps", "dump")
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    assert found == []


def test_sources_are_found():
    assert {"cli.py", "rootsys.py", "spectral.py"} <= {p.name for p in SOURCES}
