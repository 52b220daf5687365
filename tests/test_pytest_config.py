"""The repository's pytest settings let a failing property test fail like any
other test: it must not end the session before the tests after it run."""

import subprocess
import sys
from pathlib import Path

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
