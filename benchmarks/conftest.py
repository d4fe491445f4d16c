"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and prints
it in the paper's layout (``paper`` value next to ``measured`` value) so the
two can be compared side by side.  Absolute runtimes are not expected to
match — the molecule coupling tables are reconstructions (see the
``repro.hardware.molecules`` module docstring) — but the qualitative
shape asserted in each benchmark must hold.
"""

from __future__ import annotations

import os

import pytest


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The placement flows benchmarked here take from milliseconds to seconds;
    a single round keeps the whole harness fast while still recording a
    meaningful wall-clock number for every experiment.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def include_slow_benchmarks() -> bool:
    """Whether to include the long-running points (set REPRO_BENCH_SLOW=1)."""
    return os.environ.get("REPRO_BENCH_SLOW", "0") == "1"
