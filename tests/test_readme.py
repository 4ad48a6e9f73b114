"""The README's quick start and command-line examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from psiapprox.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """argv of every line of the README's `psiapprox ...` command block."""
    blocks = [b for b in re.findall(r"^```\w*\n(.*?)^```", README.read_text(),
                                    re.S | re.M)
              if b.startswith("psiapprox ")]
    assert len(blocks) == 1
    return [shlex.split(line)[1:] for line in blocks[0].splitlines()]


def test_quick_start_snippet_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("True ")


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_command_runs(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out
