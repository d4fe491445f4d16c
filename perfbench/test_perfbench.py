"""Tests of the benchmark's own machinery: output checks, op generation,
tracing and the metric names promised in ``BENCHMARK.json``.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import repro
import tracer
import worker
from repro import PlacementOptions, load_circuit, load_environment, place_circuit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def placed():
    circuit = load_circuit("qft6")
    environment = load_environment("trans-crotonic-acid")
    result = place_circuit(circuit, environment, PlacementOptions(threshold=200))
    assert len(result.stages) > 2
    return result, circuit, environment


def test_correct_placement_passes(placed):
    assert checker.check_placement(*placed) == []


def test_swapped_stage_node_is_rejected(placed):
    result, circuit, environment = placed
    stage = result.stages[1]
    a, b = list(stage.placement)[:2]
    corrupted = dict(stage.placement)
    corrupted[a], corrupted[b] = stage.placement[b], stage.placement[a]
    stages = list(result.stages)
    stages[1] = dataclasses.replace(stage, placement=corrupted)
    bad = dataclasses.replace(result, stages=stages)
    problems = checker.check_placement(bad, circuit, environment)
    assert any("does not deliver" in p for p in problems), problems
    assert any("remapped" in p for p in problems), problems


def _op_list(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(HERE / "opgen.py"), workload, str(seed)],
        env=env, capture_output=True, check=True, timeout=60).stdout


def test_op_lists_are_seeded_and_hash_seed_free():
    first = _op_list("molecule_sweep", 7, 1)
    assert first == _op_list("molecule_sweep", 7, 2)
    assert first != _op_list("molecule_sweep", 8, 1)


def test_tracer_spans_layers_and_restores_names(placed):
    _, circuit, environment = placed
    import repro.analysis.runner as runner
    import repro.registry as registry

    originals = (registry.load_environment, runner.place_circuit)
    spans = tracer.Tracer().install()
    try:
        assert registry.load_environment is not originals[0]
        repro.place_circuit(circuit, repro.load_environment(
            "trans-crotonic-acid"), PlacementOptions(threshold=200))
    finally:
        spans.uninstall()
    assert (registry.load_environment, runner.place_circuit) == originals
    summary = spans.summary()
    for layer in ("placement", "timing", "fine_tuning", "routing"):
        assert summary[f"{layer}.calls"] > 0 and summary[f"{layer}.self_s"] > 0
    assert summary["routing.swap_layers"] > 0
    assert summary["workspace.workspaces"] == len(placed[0].stages)
    assert summary["top_s"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = worker.Tally()
    tally.latencies = [1.0, 2.0]
    tally.placed(3.0)
    end_to_end = set(worker.end_to_end(tally, 1.0)) | {"setup_s"}
    assert end_to_end == {m["name"] for m in spec["end_to_end"]}
    summary = tracer.Tracer().summary()
    summary.update({name: 0.0 for name in worker.PROCESS_SPANS})
    per_layer = set(worker.per_layer(summary, {}, 1.0, 1.0))
    assert per_layer == {m["name"] for m in spec["per_layer"]}
