"""``scripts/run_bench.py --check`` report files.

With ``--check`` an explicitly named ``--output`` other than the baseline
receives the full report whether the gate passes or fails, and the
baseline is rewritten only with ``--update``.  The scenarios are stubbed:
these tests pin the script's file handling, not any timing.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_bench.py"


@pytest.fixture
def run_bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("run_bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    walls = {"value": 0.5}

    def run_all(repeats, names=None):
        return {
            "stub": {
                "wall_time_s": walls["value"],
                "metrics": {"monomorphism.searches": 3},
                "fingerprint": {"cells": 1},
            }
        }

    monkeypatch.setattr(module.bench_harness, "run_all", run_all)
    return module, walls


def _baseline(path, wall):
    path.write_text(json.dumps({"scenarios": {"stub": {
        "wall_time_s": wall,
        "metrics": {"monomorphism.searches": 3},
        "fingerprint": {"cells": 1},
    }}}))
    return path.read_text()


@pytest.mark.parametrize("wall, code", [(0.5, 0), (5.0, 1)])
def test_check_writes_the_explicit_output(run_bench, tmp_path, wall, code):
    module, walls = run_bench
    walls["value"] = wall
    baseline = tmp_path / "baseline.json"
    before = _baseline(baseline, 0.5)
    output = tmp_path / "now.json"
    assert module.main([
        "--check", "--baseline", str(baseline), "--output", str(output),
    ]) == code
    report = json.loads(output.read_text())
    assert report["scenarios"]["stub"]["wall_time_s"] == wall
    assert baseline.read_text() == before


def test_check_without_output_or_update_writes_nothing(run_bench, tmp_path):
    module, _ = run_bench
    baseline = tmp_path / "baseline.json"
    before = _baseline(baseline, 0.5)
    assert module.main(["--check", "--baseline", str(baseline)]) == 0
    assert module.main([
        "--check", "--baseline", str(baseline), "--output", str(baseline),
    ]) == 0
    assert baseline.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["baseline.json"]
