"""The repository's pyproject.toml: its pytest settings let a failing property
test fail like any other test, so that it does not end the session before the
tests after it run, and its Python floor is one its dependencies install on."""

import re
import subprocess
import sys
import tomllib
from importlib.metadata import metadata
from pathlib import Path

from packaging.version import Version  # a pytest dependency

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

MODULE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x != 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_stop_the_session(tmp_path):
    # On a failure hypothesis imports libcst, which warns at import; under the
    # settings' error::DeprecationWarning that warning would be an INTERNALERROR.
    (tmp_path / "test_given_pair.py").write_text(MODULE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_given_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def _floor(spec):
    """The version that a Requires-Python specifier's `>=` clause names."""
    return Version(re.search(r">=\s*([\d.]+)", spec).group(1))


def test_python_floor_is_not_below_scipys():
    # scipy's own floor is the lowest interpreter that its release installs on
    ours = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["requires-python"]
    assert _floor(ours) >= _floor(metadata("scipy")["Requires-Python"])
