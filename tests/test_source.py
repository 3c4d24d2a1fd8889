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
  same in a fresh interpreter);
* no import of ``dataclasses``, which imports ``inspect``: records derive
  from ``rootsys._Record``, and the import stays light;
* no ``__init__`` of a ``_Record`` subclass that only ``_set``s its own
  parameters: ``_Record`` writes that constructor from ``__slots__``;
* no method that only tests call: every method of a library class is read
  as an attribute somewhere in the library, or named ``Class.method`` in
  ``bench/*.py``, or is a dunder;
* no module-level function that only tests call: each is read as a name or
  an attribute somewhere in the library, or named in ``bench/*.py``;
* one input boundary: an ``except`` clause of ``cli.main`` that can return 1
  names only ``EXIT_ONE_ERRORS``, so a library fault such as a bare
  ``ValueError`` exits 3 and never reads as bad input;
* one spectral budget: ``cli.py`` reads from ``spectral`` only its public
  names and ``CLI_SPECTRAL_PRIVATE``, so the grid, mode-range and table
  rules are checked by the library's ``_quadrature_grid`` alone;
* a current mutant catalogue: each snippet of ``tests/mutants.py`` occurs
  exactly once in its file under ``src/``, and each test it names exists,
  so a refactor that moves a snippet or renames a test updates the entry
  (running the mutants themselves is ``python tests/mutants.py``).
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "parabolica").glob("*.py"))

# What `cli.main` may map to exit 1: a refusal of the flags or of a reader,
# a report value too large to carry, and a reader that closed stdout early.
EXIT_ONE_ERRORS = {"ParseError", "_ReportTooLarge", "BrokenPipeError"}
# What `cli.py` may read from `spectral` beyond its public names: the two
# refusals its reader reports under a flag, and the budget check it runs.
CLI_SPECTRAL_PRIVATE = {"_InvalidProfile", "_OverBudget", "_quadrature_grid"}


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


def _imports(tree: ast.AST, package: str) -> list[int]:
    """Line numbers of every import of ``package`` or one of its submodules."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == package or name.startswith(package + ".") for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_spectral_imports_numpy(path):
    found = _imports(ast.parse(path.read_text(), filename=str(path)), "numpy")
    if path.name == "spectral.py":
        assert found
    else:
        assert found == [], f"{path.name} imports numpy at line(s) {found}"


def test_numpy_import_rule_sees_function_level_imports():
    source = "def f():\n    import numpy.linalg as la\n    from numpy import fft\n    import os\n"
    assert _imports(ast.parse(source), "numpy") == [2, 3]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_library_does_not_import_dataclasses(path):
    found = _imports(ast.parse(path.read_text(), filename=str(path)), "dataclasses")
    assert found == [], f"{path.name} imports dataclasses at line(s) {found}"


def _copy_only_inits(sources: dict[str, str]) -> list[str]:
    """``file:line Class.__init__`` for each ``__init__`` of a ``_Record``
    subclass whose body, past a docstring, only sets fields of ``self`` to
    its own parameters through ``_set`` or ``object.__setattr__``."""
    classes = [
        (name, node)
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text, filename=name))
        if isinstance(node, ast.ClassDef)
    ]
    records, size = {"_Record"}, 0
    while size != len(records):  # subclasses of subclasses, across files
        size = len(records)
        records |= {cls.name for _, cls in classes if any(ast.unparse(b) in records for b in cls.bases)}
    found = []
    for name, cls in classes:
        for init in cls.body:
            if cls.name not in records or not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                continue
            params = {a.arg for a in init.args.posonlyargs + init.args.args[1:] + init.args.kwonlyargs}
            body = init.body[1:] if ast.get_docstring(init) is not None else init.body
            if all(
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and ast.unparse(stmt.value.func) in ("_set", "object.__setattr__")
                and [type(arg) for arg in stmt.value.args] == [ast.Name, ast.Constant, ast.Name]
                and stmt.value.args[0].id == "self"
                and stmt.value.args[2].id in params
                for stmt in body
            ):
                found.append(f"{name}:{init.lineno} {cls.name}.__init__")
    return found


def test_records_write_no_copy_only_init():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert _copy_only_inits(sources) == []


def test_copy_only_init_rule_sees_boilerplate():
    source = (
        "class Plain(_Record):\n"
        "    def __init__(self, a, b):\n"
        "        _set(self, 'a', a)\n"
        "        object.__setattr__(self, 'b', b)\n"
        "class Deeper(Plain):\n"
        "    def __init__(self, a):\n"
        '        """Only a."""\n'
        "        _set(self, 'a', a)\n"
        "class Checked(_Record):\n"
        "    def __init__(self, a):\n"
        "        if a < 0:\n"
        "            raise ValueError(a)\n"
        "        _set(self, 'a', a)\n"
        "class Derived(_Record):\n"
        "    def __init__(self, a):\n"
        "        _set(self, 'a', abs(a))\n"
        "class Other:\n"
        "    def __init__(self, a):\n"
        "        _set(self, 'a', a)\n"
    )
    assert _copy_only_inits({"m.py": source}) == ["m.py:2 Plain.__init__", "m.py:6 Deeper.__init__"]


def test_sources_are_found():
    assert {"cli.py", "rootsys.py", "spectral.py"} <= {p.name for p in SOURCES}


def _bench_text() -> str:
    return "\n".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))


def _unread_methods(sources: dict[str, str], bench_text: str) -> list[str]:
    """``file:line Class.method`` for each non-dunder method that no library
    source reads as an attribute and that bench_text does not name."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for name, tree in trees.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                qualname = f"{cls.name}.{method.name}"
                dunder = method.name.startswith("__") and method.name.endswith("__")
                if not (dunder or method.name in read or qualname in bench_text):
                    found.append(f"{name}:{method.lineno} {qualname}")
    return found


def test_every_library_method_has_a_library_or_bench_caller():
    assert _unread_methods({path.name: path.read_text() for path in SOURCES}, _bench_text()) == []


def test_unread_method_rule_sees_test_only_methods():
    source = (
        "class A:\n"
        "    def used(self): return self.helper()\n"
        "    def helper(self): return 1\n"
        "    def traced(self): pass\n"
        "    def orphan(self): pass\n"
        "    def __add__(self, other): pass\n"
    )
    assert _unread_methods({"m.py": source}, "LAYERS = ('A.traced',)") == ["m.py:2 A.used", "m.py:5 A.orphan"]


def _unread_functions(sources: dict[str, str], bench_text: str) -> list[str]:
    """``file:line function`` for each module-level function that no library
    source reads as a name or an attribute and that bench_text does not
    name as a word."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    named = set(re.findall(r"\w+", bench_text))
    return [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (node.name in read or node.name in named)
    ]


def test_every_library_function_has_a_library_or_bench_caller():
    assert _unread_functions({path.name: path.read_text() for path in SOURCES}, _bench_text()) == []


def test_unread_function_rule_sees_test_only_functions():
    sources = {
        "a.py": "def called(): return helper()\ndef helper(): return 1\ndef traced(): pass\ndef orphan(): pass\n",
        "b.py": "import a\nx = a.called\ndef traced_b():\n    def nested(): pass\n",
    }
    bench = "LAYERS = {'a': ('traced',), 'b': ('traced_b',)}  # orphaned"
    assert _unread_functions(sources, bench) == ["a.py:4 orphan"]


def _exit_one_handlers(source: str, function: str = "main") -> list[str]:
    """The exception names, in source order, of each ``except`` clause of
    ``function`` with a ``return`` whose value can be the integer 1; a bare
    ``except:`` reads as ``BaseException``."""
    tree = ast.parse(source)
    body = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == function)
    names = []
    for handler in (node for node in ast.walk(body) if isinstance(node, ast.ExceptHandler)):
        returns_one = any(
            isinstance(node, ast.Return)
            and node.value is not None
            and any(type(c) is ast.Constant and type(c.value) is int and c.value == 1 for c in ast.walk(node.value))
            for node in ast.walk(handler)
        )
        if not returns_one:
            continue
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        names += ["BaseException" if t is None else ast.unparse(t) for t in caught]
    return names


def test_only_reader_refusals_exit_one():
    names = _exit_one_handlers((ROOT / "src" / "parabolica" / "cli.py").read_text())
    assert "ParseError" in names
    assert set(names) <= EXIT_ONE_ERRORS, f"cli.main maps {set(names) - EXIT_ONE_ERRORS} to exit 1"


def test_exit_one_rule_sees_broad_handlers():
    source = (
        "def main():\n"
        "    try:\n"
        "        run()\n"
        "    except SystemExit as exc:\n"
        "        return 0 if exc.code == 0 else 1\n"
        "    except ParseError:\n"
        "        return 1\n"
        "    except (ValueError, errors.Overflow):\n"
        "        code = 1\n"
        "        return code if quiet else 1\n"
        "    except InvariantError:\n"
        "        return 3\n"
        "    except:\n"
        "        return 1\n"
    )
    assert _exit_one_handlers(source) == ["SystemExit", "ParseError", "ValueError", "errors.Overflow", "BaseException"]


def _private_spectral_reads(source: str) -> list[str]:
    """``line name`` for each private name outside ``CLI_SPECTRAL_PRIVATE``
    that ``source`` reads as ``spectral.<name>`` or imports from a module
    named ``spectral``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "spectral":
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "spectral":
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.startswith("_") and name not in CLI_SPECTRAL_PRIVATE]
    return [f"{line} {name}" for line, name in sorted(found)]


def test_cli_reads_spectral_through_one_budget_check():
    assert _private_spectral_reads((ROOT / "src" / "parabolica" / "cli.py").read_text()) == []


def test_spectral_boundary_rule_sees_private_reads():
    source = (
        "from . import spectral\n"
        "from .spectral import FlatTorus, _tables\n"
        "spectral._quadrature_grid(spectral.FlatTorus((1.0,)), 0)\n"
        "spectral._table_for((1.0,), spectral._OverBudget)\n"
        "spectral.SingularProfile, other._table_for\n"
    )
    assert _private_spectral_reads(source) == ["2 _tables", "4 _table_for"]


def test_mutant_catalogue_matches_the_source():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.file.startswith("src/parabolica/"), mutant.name
        assert (ROOT / mutant.file).read_text().count(mutant.snippet) == 1, mutant.name
        assert mutant.replacement != mutant.snippet, mutant.name
        for test in mutant.tests:
            path, name = test.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(), (mutant.name, test)
