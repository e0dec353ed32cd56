"""The README's Python examples run and print what their comments say, its command lines
parse, and it has a note for the package's version."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import premodular.cli

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


COMMAND_LINES = [line for line in re.search(r"## Command line\n\n```sh\n(.*?)```", README, re.S)[1].splitlines()
                 if line.startswith("premodular ")]


def test_readme_has_the_command_lines():
    assert len(COMMAND_LINES) == 9


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_readme_command_line_parses(line):
    args = premodular.cli.build_parser().parse_args(shlex.split(line)[1:])
    assert args.command == line.split()[1]


def test_readme_has_a_note_for_the_version():
    # test_settings.py pins the package version to pyproject.toml's
    assert f"\nVersion {premodular.__version__} " in README
