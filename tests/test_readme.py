"""The Python examples in README.md run as written, and its command lines
parse.

Each ```python block is executed in a fresh namespace.  A line
`print(...)  # text` states what it prints: the block's output must hold
each such text as a line."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from pfansatz import cli

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_example_runs(index):
    source = BLOCKS[index]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, f"README.md python block {index + 1}", "exec"), {})
    printed = out.getvalue().splitlines()
    for expected in re.findall(r"^print\(.*?\)[ \t]+# (.*)$", source, re.M):
        assert expected.strip() in printed


# the `pfansatz ...` lines of the ```text blocks: the CLI examples
COMMANDS = [line for block in re.findall(r"^```text\n(.*?)^```", README.read_text(encoding="utf-8"),
                                          re.S | re.M)
            for line in block.splitlines() if line.startswith("pfansatz ")]


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_cli_example_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    args = cli.build_parser().parse_args(argv)  # an unknown flag exits 2
    assert args.command == argv[0]
