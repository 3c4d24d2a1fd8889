"""Which statements of ``src/parabolica/`` Tier-1 runs, in every process it
starts; exit 1 if some ``raise`` is never run.

    python tests/coverage_map.py                # all of Tier-1: about 35 s on a 2-core Xeon VM, Python 3.11
    python tests/coverage_map.py PYTEST_ARG ... # a narrower run, e.g. one test file

The script writes a ``sitecustomize.py`` into a temporary directory and runs
Tier-1 (``python -m pytest -q --continue-on-collection-errors``) with that
directory first on ``PYTHONPATH``.  Python imports ``sitecustomize`` at
start-up, and the tests pass their caller's ``PYTHONPATH`` on to the
interpreters they start, so the pytest process and every child interpreter
load the hook.  A child started with ``-S`` (no ``site``) or ``-I`` (which
ignores ``PYTHONPATH``) does not, and is not traced.

The hook traces with ``sys.settrace`` and ``threading.settrace``, and only
code whose file lies under ``src/parabolica/``: that test is made once per
code file name and cached, as a ``realpath`` on every call would make the
run several times slower.  At exit it appends the lines it saw, as plain
text, to one file per process id.  It imports only ``atexit``, ``os``,
``sys`` and ``threading``, none of the modules ``tests/test_lazy_import.py``
requires a request to leave unimported.

A statement counts as run when a line event fired on one of its own lines:
all of a simple statement's, and a compound statement's header, from its
first decorator to the line before its body.  A function's docstring runs
no code and is not counted.  The script prints each statement that no
process ran and a summary, and exits 1 if one of them is a ``raise`` or if
the test run failed, since a failed run can leave statements unrun.  Stdlib
only, like ``tests/mutants.py``, and like it not part of Tier-1.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parabolica"

HOOK = '''\
import atexit, os, sys, threading

_prefix = os.environ["COVERAGE_MAP_PACKAGE"] + os.sep
_out = os.path.join(os.environ["COVERAGE_MAP_OUT"], f"{os.getpid()}.txt")
_hits = {}  # realpath of a traced file -> the line numbers run in it
_tracers = {}  # code file name, as the code object holds it -> its line tracer, or None


def _tracer_for(filename):
    path = os.path.realpath(filename)
    if not path.startswith(_prefix):
        return None
    add = _hits.setdefault(path, set()).add

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local

    return local


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in _tracers:
        _tracers[filename] = _tracer_for(filename)
    return _tracers[filename]


@atexit.register
def _write():
    with open(_out, "a") as out:
        for path, lines in _hits.items():
            out.writelines(f"{path}\\t{line}\\n" for line in lines)


sys.settrace(_trace)
threading.settrace(_trace)
'''


def own_lines(node: ast.stmt) -> range:
    """The lines whose line events count as running ``node``."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if body:  # a compound statement: its header
        return range(first, max(first, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def statements(path: Path) -> list[ast.stmt]:
    """Every statement of a source file that compiles to code: no function
    docstring, and no ``global`` or ``nonlocal``."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None
    }
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt)
        and not isinstance(node, (ast.Global, ast.Nonlocal))
        and id(node) not in docstrings
    ]


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """(pytest's exit status, realpath -> lines run) for one traced test run."""
    with tempfile.TemporaryDirectory(prefix="coverage-map-") as tmp:
        hook, out = Path(tmp, "hook"), Path(tmp, "lines")
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        path = [str(hook), str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(path),
            COVERAGE_MAP_PACKAGE=os.path.realpath(PACKAGE),
            COVERAGE_MAP_OUT=str(out),
        )
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        status = subprocess.run(command + pytest_args, cwd=ROOT, env=env).returncode
        hits: dict[str, set[int]] = {}
        for report in out.iterdir():
            for row in report.read_text().splitlines():
                source, line = row.rsplit("\t", 1)
                hits.setdefault(source, set()).add(int(line))
    return status, hits


def main(pytest_args: list[str]) -> int:
    status, hits = traced_run(pytest_args)
    total = raises = unrun_raises = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        run = hits.get(os.path.realpath(path), set())
        for node in sorted(statements(path), key=lambda node: node.lineno):
            is_raise = isinstance(node, ast.Raise)
            total += 1
            raises += is_raise
            if run.isdisjoint(own_lines(node)):
                unrun += 1
                unrun_raises += is_raise
                print(f"{path.relative_to(ROOT)}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    print(
        f"{total - unrun} of {total} statements of src/parabolica run, "
        f"{raises - unrun_raises} of {raises} raise statements; the test run exited {status}"
    )
    return 1 if unrun_raises or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
