"""Rules the library source keeps, read from its syntax tree.

* no ``assert`` statement: ``python -O`` strips them, and every invariant
  check must still fire there (they raise ``InvariantError`` instead);
* no ``print(`` call: stdout carries only the report ``cli._emit`` writes;
* no ``json.dumps``/``json.dump`` call with ``indent=``: reports are
  rendered by ``cli._render_json`` alone, and json's encoder runs in pure
  Python whenever ``indent`` is set;
* no ``import numpy`` (or ``from numpy ...``), at module or function level,
  outside ``spectral.py``: the package runs that module on first use, so
  exact requests never import numpy (``test_lazy_import.py`` checks the
  same in a fresh interpreter).
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


def _numpy_imports(tree: ast.AST) -> list[int]:
    """Line numbers of every import of numpy or one of its submodules."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_spectral_imports_numpy(path):
    found = _numpy_imports(ast.parse(path.read_text(), filename=str(path)))
    if path.name == "spectral.py":
        assert found
    else:
        assert found == [], f"{path.name} imports numpy at line(s) {found}"


def test_numpy_import_rule_sees_function_level_imports():
    source = "def f():\n    import numpy.linalg as la\n    from numpy import fft\n    import os\n"
    assert _numpy_imports(ast.parse(source)) == [2, 3]


def test_sources_are_found():
    assert {"cli.py", "rootsys.py", "spectral.py"} <= {p.name for p in SOURCES}
