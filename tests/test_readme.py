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
        "cd6d8e8ec28adffdd8682b9c7ab4ecb92534a396ba3a7544a9c1df3fea93dc88",
    "characteristics --alpha 1 --r 0.5 --n-range 11:20":
        "d5ebc5fa939a9ffb7fcf2df92818e716184526733e58167350f36b818f9e97f3",
    "lambda --alpha 1 --r 0.5 --n 12":
        "2767f08c7c284969b17eb7d25149c185dbe8cd8f552eb6210bee4378312f94cd",
    "kernel-eval --alpha 1 --r 0.5 --n 9 --beta 1 --t 0.5 1.0":
        "3121b006917f467c0208dc06357280af8e3c323472905d484214112063741478",
    "kernel-norm --alpha 1 --r 0.5 --n 12 --p 2":
        "ecf55030f0c5bbb307e983504773e97393aaf7134e4bb97c4166d70f0fdfcc38",
    "verify theorem1 --alpha 1 --r 0.5 --n-range 11:40 --p 1 2 inf":
        "bcb4b1026a187eafad20979dd32c5ec56acb2bf457b75750ba5b95e79c0a77f5",
    "verify theorem2 --alpha 2 --r 0.5 --n 12 --s 2 4":
        "2b69c4f7f5167bd3d81d4ae72337e2c59c446afb10a4a4faa616236cd3b1e7c1",
    "verify lemma1 --trials 200 --seed 3":
        "954d309c8f6b65c84c29eb14c729c9baa6a17afc216aeea9299256b1e62f16f4",
    "verify lemma2 --alpha 1 --r 0.5 --t 11 20 50":
        "916538b44c382267673db9c1863f5987da0fe128a7a7acc7cc6197d317519619",
    "verify envelopes --alpha 1 --r 0.5 --n-range 11:40":
        "215422747d80a4800d313450fe6baffe5d0fca073dd585d3629aaf1acade6d42",
    "table --alpha 1 --r 0.5 --n-range 11:32 --p 2 --format csv":
        "cb4ab7cbcaff09e48582a8dcc781e48b3f6560fb8f27c5f06ed07952b277ed63",
    "asymp --alpha 1 --r 0.5 --p 2 --n-range 11:64":
        "90bd337fd6389757b1998486b2e6e0c3966c0bea6595b3069ea887df07bc92b5",
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
    # kernel-eval --beta 1 also pins the bits of the kernel's series,
    # which its evaluator builds on first use
    main(argv)
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == STDOUT_SHA256[" ".join(argv)]
