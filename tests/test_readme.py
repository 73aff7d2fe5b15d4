"""The Python examples in README.md run as written.

Each ```python block is executed in a fresh namespace.  A line
`print(...)  # text` states what it prints: the block's output must hold
each such text as a line."""

import contextlib
import io
import re
from pathlib import Path

import pytest

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
