"""Run with ``python -m pytest perfbench/tests`` from the repo root.

Outside tier-1 (``pyproject.toml`` collects ``tests/`` only): these
tests run every workload and take about two minutes.
"""

import os
import sys

import pytest

# pytest puts the repo root (the parent of the ``perfbench`` package) on
# the path itself; the program's source tree is ours to add
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from perfbench import harness  # noqa: E402

#: seconds of measurement that give every workload its smallest sizes
TINY_SECONDS = 0.05


@pytest.fixture
def two_reps(monkeypatch):
    """Two repetitions per run instead of seven: the tests check names,
    units and exactness, not steadiness."""
    monkeypatch.setattr(harness, "REPS", 2)
    monkeypatch.setattr(harness, "TRACE_RUN_REPS", 2)
