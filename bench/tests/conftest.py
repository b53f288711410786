"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest bench/tests -q``."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402

TINY = workloads.WorkloadSpec(
    name="tiny",
    inputs="tiny",
    meetings=6,
    webinars=((1, 2, 6),),
    duration_s=4.0,
    mutations_per_meeting=2.0,
)


@pytest.fixture
def tiny():
    return TINY


@pytest.fixture
def tiny_obs():
    return replace(TINY, name="tiny_obs", obs=True)
