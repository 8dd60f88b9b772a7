"""Guards on the suite's own pytest settings in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# One property test that fails on its first example, and one plain test.
PROBE = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    """Warnings are errors, yet a failing `@given` test is one failure, and
    the session goes on to the next test and its summary."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    # -c makes the repository the rootdir; no cache is written there.
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
