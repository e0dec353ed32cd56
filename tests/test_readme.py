"""The README's Python examples run and print what their comments say, its command lines
parse, it has a note for the package's version, and nothing in its list of removals
resolves."""

import contextlib
import importlib
import inspect
import io
import pkgutil
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


# the first cell of each row of the "## Removed" table: flags, ``f(params)``, ``f()`` for a
# name that is no longer a function, ``"state"`` for a result state, and dotted names
REMOVED = [entry for row in re.search(r"\n## Removed\n(.*?)\n## ", README, re.S)[1].splitlines()
           if row.startswith("| `") for entry in re.findall(r"`([^`]+)`", row.split(" | ")[0])]
MODULES = {m.name: importlib.import_module(f"premodular.{m.name}") for m in pkgutil.iter_modules(premodular.__path__)}
# the flags each subcommand reads, from the table under "Command line"
FLAGS = {sub: set(re.findall(r"--[a-z-]+", row.split(" | ")[1]))
         for row in README.split("\n## Removed\n")[0].splitlines() if row.startswith("| `")
         for sub in re.findall(r"`([a-z-]+)`", row.split(" | ")[0])}


def _resolve(name: str):
    """The package, one of its modules, or what ``name`` names in either."""
    head, *rest = name.split(".")
    if head == "premodular":
        obj = premodular
    elif head in MODULES:
        obj = MODULES[head]
    else:
        obj = next(getattr(m, head) for m in (premodular, *MODULES.values()) if hasattr(m, head))
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_readme_lists_removals_of_each_kind():
    assert len(REMOVED) >= 35
    assert {"--level", "bracket(tol)", "premodular.condense()", '"multiple"', "CenterReport.trivial"} <= set(REMOVED)
    assert set(FLAGS) == {line.split()[1] for line in COMMAND_LINES}


@pytest.mark.parametrize("entry", REMOVED)
def test_readme_removed_entry_does_not_resolve(entry):
    call = re.fullmatch(r"([\w.]+)\((.*)\)", entry)
    if entry.startswith("--"):
        # every subcommand that does not read the flag rejects it, on its README command line
        lines = {line.split()[1]: line for line in COMMAND_LINES}
        rejecting = [sub for sub in FLAGS if entry not in FLAGS[sub]]
        assert rejecting
        for sub in rejecting:
            with pytest.raises(SystemExit) as exc:
                premodular.cli.build_parser().parse_args(shlex.split(lines[sub])[1:] + [entry, "1"])
            assert exc.value.code == 2, sub
    elif call and call[2]:
        params = inspect.signature(_resolve(call[1])).parameters
        assert not {p.strip() for p in call[2].split(",")} & set(params)
    elif call:
        assert not callable(_resolve(call[1]))
    elif entry.startswith('"'):
        assert not any(entry in inspect.getsource(m) for m in MODULES.values())
    elif "." in entry:
        owner, member = entry.rsplit(".", 1)
        owner = _resolve(owner)
        # a dataclass field without a default is no class attribute
        assert not hasattr(owner, member) and member not in getattr(owner, "__dataclass_fields__", {})
    else:
        assert not any(hasattr(m, entry) for m in (premodular, *MODULES.values()))
