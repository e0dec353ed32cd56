"""The README's Python examples run, and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = (Path(__file__).parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


def test_readme_has_the_two_examples():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("block", BLOCKS, ids=["quick-start", "worked-example"])
def test_readme_example_runs(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    # a comment after a print gives the start of its output, up to any ":" remark
    for line, shown in zip(prints, printed):
        if "#" in line:
            expected = line.split("#", 1)[1].split(":", 1)[0].strip()
            assert shown.startswith(expected), (line, shown)
