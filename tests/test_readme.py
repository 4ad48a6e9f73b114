"""The README's quick start and command-line examples run as written, and
every option it names exists."""

import hashlib
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


# sha256 of each README command's stdout.  A change that moves a byte
# updates the digest here and says why in CHANGES.md.
STDOUT_SHA256 = {
    "characteristics --alpha 1 --r 0.5 --t 16 100":
        "ebe45e418beb57d33a956b65c25baad6642149cf5bd51f9c88442ac2e6433f97",
    "characteristics --alpha 1 --r 0.5 --n-range 11:20":
        "57da931dc1fba9ffe9740de545140c889622c5b7456d666e087cc37fdddc84e8",
    "lambda --alpha 1 --r 0.5 --n 12":
        "2767f08c7c284969b17eb7d25149c185dbe8cd8f552eb6210bee4378312f94cd",
    "kernel-eval --alpha 1 --r 0.5 --n 9 --beta 1 --t 0.5 1.0":
        "297e6d97502e9ad6eb4e910e9d6c07b6c5f21943a70500d199f7dd05a3808143",
    "kernel-norm --alpha 1 --r 0.5 --n 12 --p 2":
        "f3fdced0d003394a335163648111f869cd6fb1c6f338abc06d98bb72bb0a12d4",
    "verify theorem1 --alpha 1 --r 0.5 --n-range 11:40 --p 1 2 inf":
        "82f8fd135b26d6c50dc54f8931a5681e790f2749e0a627cbe18e880d142f2083",
    "verify theorem2 --alpha 2 --r 0.5 --n 12 --s 2 4":
        "f1de58efed05a3dd398f60039a1f98363f9f14b38ff2ca50e6ac43cd36d16b61",
    "verify lemma1 --trials 200 --seed 3":
        "954d309c8f6b65c84c29eb14c729c9baa6a17afc216aeea9299256b1e62f16f4",
    "verify lemma2 --alpha 1 --r 0.5 --t 11 20 50":
        "cf936b94ce4f4a21cdc9a34147a4094e07a7038b349521332c3b11291aa41d57",
    "verify envelopes --alpha 1 --r 0.5 --n-range 11:40":
        "5655f02b609780c22e5737a18e3c339fb04cb179da16bcc20935eea18b09844b",
    "table --alpha 1 --r 0.5 --n-range 11:32 --p 2 --format csv":
        "8bca52a759999a4c6fd24d637d1212bc0b3e69a5ae1d6708193918e2667ad2d6",
    "asymp --alpha 1 --r 0.5 --p 2 --n-range 11:64":
        "18d4803b5be1898b160b4a8019dd998b24ddfba0494710ab3b10b282f8d2c5ef",
}


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


def test_every_command_has_a_digest():
    assert sorted(STDOUT_SHA256) == sorted(map(" ".join, readme_commands()))


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_stdout_keeps_its_bytes(capsys, argv):
    main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == STDOUT_SHA256[" ".join(argv)], f"observed sha256 {digest}"
