"""The repository's pytest settings, as a test session under them meets them."""

import pathlib
import shutil
import subprocess
import sys

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
