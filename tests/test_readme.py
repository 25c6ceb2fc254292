"""The README's Python examples and command lines run as written against
the current API and CLI."""
import os
import re
import shlex

import pytest

from cbve.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
    _TEXT = fh.read()
_BLOCKS = re.findall(r"^```python\n(.*?)^```", _TEXT, re.M | re.S)
_COMMANDS = re.findall(r"^cbve (.*)$", _TEXT, re.M)


def test_readme_has_python_examples():
    assert _BLOCKS


@pytest.mark.parametrize("index", range(len(_BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(_BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_command_lines():
    assert len(_COMMANDS) == 7


@pytest.mark.parametrize("line", _COMMANDS, ids=[c.split()[0] for c in _COMMANDS])
def test_readme_command_line_runs(line, tmp_path, monkeypatch, capsys):
    # configs/ relative to the repository, anything written into tmp_path
    argv = [os.path.abspath(os.path.join(ROOT, a)) if a.startswith("configs/") else a
            for a in shlex.split(line)]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err
