"""Shared fixtures and the acceptance-criteria summary hook."""

import os
from pathlib import Path

import numpy as np
import pytest

# Python processes that the tests start import the package from this checkout too.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

ACCEPTANCE_RESULTS = []


def record_acceptance(criterion: str, passed: bool, detail: str = ""):
    """Collect one pass/fail line per acceptance criterion for the summary."""
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_RESULTS.append(f"[{status}] {criterion}" + (f": {detail}" if detail else ""))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
