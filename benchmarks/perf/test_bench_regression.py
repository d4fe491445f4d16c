"""Optional benchmark-regression gate (``pytest -m bench``).

Runs every scenario of ``bench_harness`` and fails if any tracked
benchmark regressed more than 20% against the committed
``BENCH_placement.json`` baseline — the pytest face of
``scripts/run_bench.py --check``.  Excluded from the tier-1 suite via the
``bench`` marker (see ``pytest.ini``); run explicitly with::

    PYTHONPATH=src python -m pytest -m bench benchmarks/perf -q

Wall-clock tolerances are machine-sensitive; on very different hardware
use ``REPRO_BENCH_TOLERANCE`` (e.g. ``=0.5``) or regenerate the baseline
with ``python scripts/run_bench.py``.
"""

import json
import os
from pathlib import Path

import pytest

import bench_harness

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BASELINE = REPO_ROOT / "BENCH_placement.json"


@pytest.mark.bench
def test_benchmarks_do_not_regress():
    assert BASELINE.exists(), (
        "no committed BENCH_placement.json baseline; "
        "generate one with: python scripts/run_bench.py"
    )
    baseline = json.loads(BASELINE.read_text())
    tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.20"))
    current = bench_harness.run_all(repeats=3)
    failures = bench_harness.check_results(baseline, current, tolerance=tolerance)
    assert not failures, "benchmark regressions:\n" + "\n".join(failures)


@pytest.mark.bench
def test_all_scenarios_produce_metrics():
    """Every scenario reports a wall time and at least one counter metric."""
    results = bench_harness.run_all(repeats=1)
    assert len(results) >= 6
    for name, data in results.items():
        assert data["wall_time_s"] > 0, name
        assert data["metrics"], name
        assert data["fingerprint"], name


@pytest.mark.bench
def test_parallel_sweep_fingerprints_agree_across_worker_counts():
    """jobs=1/2/4 runs of the parallel-sweep macro must produce one output."""
    results = {
        name: bench_harness.run_scenario(name, repeats=1)
        for name in bench_harness.SCENARIOS
        if name.startswith("parallel_sweep_jobs")
    }
    assert len(results) == 3
    assert not bench_harness.parallel_consistency_failures(results)


@pytest.mark.bench
def test_replay_fingerprints_agree_across_backends():
    """The python and native replay scenarios must produce one output."""
    results = {
        name: bench_harness.run_scenario(name, repeats=1)
        for name in ("replay_python", "replay_native")
    }
    assert not bench_harness.replay_consistency_failures(results)


@pytest.mark.bench
def test_replay_gate_detects_divergence_and_tolerates_skips():
    """Gate logic on synthetic reports: divergence fails, a skip does not."""
    agree = {
        "replay_python": {"fingerprint": {"backend": "python", "checksum": 1.5}},
        "replay_native": {"fingerprint": {"backend": "native", "checksum": 1.5}},
    }
    assert not bench_harness.replay_consistency_failures(agree)
    diverged = {
        "replay_python": {"fingerprint": {"backend": "python", "checksum": 1.5}},
        "replay_native": {"fingerprint": {"backend": "native", "checksum": 2.5}},
    }
    assert bench_harness.replay_consistency_failures(diverged)
    skipped = {
        "replay_python": {"fingerprint": {"backend": "python", "checksum": 1.5}},
        "replay_native": {"fingerprint": {"backend": "native",
                                          "skipped": "no C compiler"}},
    }
    assert not bench_harness.replay_consistency_failures(skipped)
    # check_results must not flag a skipped scenario against a real baseline.
    baseline = {
        "scenarios": {
            "replay_native": {
                "wall_time_s": 0.2,
                "metrics": {"scheduler.full_evals": 5},
                "fingerprint": {"backend": "native", "checksum": 1.5},
            }
        }
    }
    failures = bench_harness.check_results(baseline, skipped)
    assert not [f for f in failures if "replay_native" in f]


@pytest.mark.bench
def test_sharded_gate_detects_divergence():
    """Gate logic on synthetic reports: any non-True identity flag fails."""
    healthy = {
        "sharded_sweep": {
            "fingerprint": {
                "rows_identical_2": True,
                "counters_identical_2": True,
                "rows_identical_4": True,
                "counters_identical_4": True,
            }
        }
    }
    assert not bench_harness.sharded_consistency_failures(healthy)
    diverged = {
        "sharded_sweep": {
            "fingerprint": {"rows_identical_2": False, "counters_identical_2": True}
        }
    }
    failures = bench_harness.sharded_consistency_failures(diverged)
    assert failures and "rows_identical_2" in failures[0]
    # Subset runs without the scenario have nothing to gate.
    assert not bench_harness.sharded_consistency_failures({})
    # ... and the failure propagates through check_results.
    assert any("rows_identical_2" in f for f in
               bench_harness.check_results({}, diverged))
