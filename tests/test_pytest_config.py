"""The repository's pytest settings report every failure and keep going.

``filterwarnings = ["error"]`` in ``pyproject.toml`` turns warnings into
errors. A failing hypothesis test makes the hypothesis plugin import
``libcst`` to suggest a patch, and ``libcst`` raises a
``DeprecationWarning``; unless that one warning is ignored, the session
ends with INTERNALERROR and the tests after the failure never run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(x):
    assert False


def test_runs_after_the_failure():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    path = tmp_path / "test_child.py"
    path.write_text(CHILD)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", "pyproject.toml",
         "-p", "no:cacheprovider", "-q", str(path)],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=120,
    )
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
    assert run.returncode == 1
