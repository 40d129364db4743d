"""The repository's pytest settings report a failing property test like any
other failure, and still fail a test on a DeprecationWarning."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# A failing @given example makes hypothesis's explain phase import libcst,
# whose import raises a third-party DeprecationWarning.
CASES = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_failing_example(x):
    assert x < 5


def test_own_deprecation_warning():
    warnings.warn("deprecated here", DeprecationWarning)


def test_after_the_failures():
    pass
'''


def test_failing_example_is_reported_and_later_tests_run(tmp_path):
    (tmp_path / "test_cases.py").write_text(CASES, encoding="utf-8")
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_cases.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1, result.stdout
    assert "FAILED test_cases.py::test_failing_example" in result.stdout
    assert "FAILED test_cases.py::test_own_deprecation_warning" in result.stdout
    assert "2 failed, 1 passed" in result.stdout
