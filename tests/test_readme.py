"""The README's quick start and command-line examples run as written, and
every option it names exists."""

import json
import re
import shlex
from pathlib import Path

import pytest

from psiapprox.cli import _build_parser, main

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


def all_parsers(parser):
    """The parser and every parser below it, through nested subcommands."""
    if parser._subparsers is None:
        return [parser]
    children = parser._subparsers._group_actions[0].choices.values()
    return [parser, *(p for child in children for p in all_parsers(child))]


def test_named_options_exist():
    # the "Command line" section, up to the next heading
    text = README.read_text().split("## Command line\n")[1]
    named = set(re.findall(r"--[a-z][a-z-]*", text.split("\n## ")[0]))
    options = {opt for sp in all_parsers(_build_parser())
               for opt in sp._option_string_actions}
    assert named
    assert not named - options, sorted(named - options)


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_command_runs(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out


def csv_cell(value) -> str:
    """A JSON value as the CSV writer prints it."""
    if isinstance(value, bool):
        return json.dumps(value)
    return "" if value is None else str(value)


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_csv_carries_the_json_rows(capsys, argv):
    if "--format" in argv:
        i = argv.index("--format")
        argv = argv[:i] + argv[i + 2:]
    main(argv)
    payload = json.loads(capsys.readouterr().out)
    main([*argv, "--format", "csv"])
    header, *lines = capsys.readouterr().out.splitlines()
    if "lambda" in payload:
        rows = [{"k": k, "lambda": v} for k, v in enumerate(payload["lambda"])]
    else:
        rows = payload["rows" if "rows" in payload else "reports"]
    assert header.split(",") == list(rows[0])
    assert [line.split(",") for line in lines] == [
        [csv_cell(v) for v in row.values()] for row in rows]
