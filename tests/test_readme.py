"""The README's examples run: its Python block executes and every
`parabolica ...` line of its CLI block exits 0; its count of the mutant
catalogue is current."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from parabolica.cli import main

from mutants import MUTANTS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


CLI_LINES = [line for block in _blocks("") for line in block.splitlines() if line.startswith("parabolica ")]


def test_readme_python_block_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_readme_has_cli_examples():
    assert len(CLI_LINES) >= 8


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_exits_zero(capsys, line):
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_readme_mutant_count_is_current():
    (count,) = re.findall(r"(\d+) mutants", README)
    assert int(count) == len(MUTANTS)
