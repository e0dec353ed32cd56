"""The repository's settings: pytest's, as a test session under them meets
them, and the package version."""

import pathlib
import re
import shutil
import subprocess
import sys

import premodular

ROOT = pathlib.Path(__file__).resolve().parents[1]

_PROPERTY_THEN_PLAIN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property(x):
    assert x < 10


def test_plain():
    pass
'''


def test_a_failing_property_fails_cleanly(tmp_path):
    # hypothesis's failure report imports libcst, where it is installed, and libcst
    # warns DeprecationWarning on import; the settings make such warnings errors
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_property.py").write_text(_PROPERTY_THEN_PLAIN)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-rA", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "PASSED test_property.py::test_plain" in run.stdout


def test_the_package_version_is_the_project_version():
    # by a regex, not tomllib, which Python 3.10 lacks
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    version = re.search(r'^version = "([^"]+)"$', project.group(1), re.M)
    assert premodular.__version__ == version.group(1)
