"""The repository's settings: pytest's, as a test session under them meets
them, the package version, and the package's default tolerances."""

import importlib
import inspect
import pathlib
import pkgutil
import re
import shutil
import subprocess
import sys

import premodular
from premodular.fusion import DEFAULT_TOL

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


def test_a_misspelled_marker_or_ini_key_fails_the_session(tmp_path):
    # strict_markers and strict_config make both errors, not warnings
    settings = (ROOT / "pyproject.toml").read_text()
    cases = {
        "neither": (settings, "", 0),
        "marker": (settings, "@pytest.mark.filterwarning('error')\n", 1),
        "ini key": (settings.replace("\ntestpaths =", "\ntestpath ="), "", 1),
    }
    for name, (config, mark, failed) in cases.items():
        (tmp_path / "pyproject.toml").write_text(config)
        (tmp_path / "test_x.py").write_text(f"import pytest\n\n\n{mark}def test_x():\n    pass\n")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_x.py"],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert (run.returncode != 0) == failed, (name, run.stdout + run.stderr)


def test_the_package_version_is_the_project_version():
    # by a regex, not tomllib, which Python 3.10 lacks
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    version = re.search(r'^version = "([^"]+)"$', project.group(1), re.M)
    assert premodular.__version__ == version.group(1)


def test_default_tolerances_are_the_one_constant():
    # the same object, not an equal literal; the two invariant comparisons default to 1e-8
    defaults = {}
    for info in pkgutil.iter_modules(premodular.__path__):
        module = importlib.import_module(f"premodular.{info.name}")
        for obj in vars(module).values():
            members = vars(obj).values() if inspect.isclass(obj) else ()
            for f in (getattr(f, "__func__", f) for f in (obj, *members)):
                if inspect.isfunction(f) and f.__module__ == module.__name__:
                    tol = inspect.signature(f).parameters.get("tol")
                    if tol is not None and tol.default is not tol.empty:
                        defaults[f"{info.name}.{f.__qualname__}"] = tol.default
    assert len(defaults) == 20
    looser = {name: tol for name, tol in defaults.items() if tol is not DEFAULT_TOL}
    assert looser == {"double_rt.factorization_check": 1e-8, "plumbing.bracket_descent_check": 1e-8}
