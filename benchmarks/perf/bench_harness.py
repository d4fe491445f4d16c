"""Timed micro/macro benchmark scenarios for the placement engine.

Each scenario is a callable that performs a realistic unit of placement
work — a threshold sweep, a single placement, a raw monomorphism
enumeration — on the paper's molecule environments and library circuits.
The harness times it, snapshots the :data:`repro.core.stats.STATS` counters
around it, and records a small *fingerprint* of the outputs so that a
human comparing two ``BENCH_placement.json`` files can tell an honest
speedup from a benchmark that silently started doing different work.

Used by ``scripts/run_bench.py`` (the command-line entry point, including
the ``--check`` regression gate) and by the ``bench``-marked pytest in
this directory.  Wall times are machine-dependent; the counter metrics
(search-tree nodes explored, cache hits, incremental evaluations) are
deterministic and are tracked with the same regression tolerance.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from functools import partial
from typing import Callable, Dict, List, Tuple

import networkx as nx

from repro.analysis import sharding
from repro.analysis.runner import ExperimentRunner, molecule_factory
from repro.analysis.scalability import run_scalability_point
from repro.analysis.serialization import (
    deterministic_rows,
    dump_json,
    work_counters,
)
from repro.analysis.sweep import SweepRow, build_sweep_specs, sweep_circuit
from repro.circuits import gates as g
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import (
    aqft9,
    phaseest,
    qec5_encoder,
    qft_circuit,
    random_chain_instance,
    random_circuit_instance,
)
from repro.core.config import PlacementOptions
from repro.core.monomorphism import find_monomorphisms
from repro.core.placement import place_circuit
from repro.core.stats import STATS
from repro.hardware.architectures import heavy_hex, grid
from repro.hardware.molecules import (
    boc_glycine_fluoride,
    histidine,
    trans_crotonic_acid,
)
from repro.hardware.threshold_graph import PAPER_THRESHOLDS
from repro.timing.scheduler import RuntimeEvaluator

#: Scenarios whose wall time is recorded but not regression-gated.  The
#: sharded round-trip macro executes the same grid three times (serial,
#: 2-shard, 4-shard) with shard-file I/O through temp directories in
#: between, so its wall time is dominated by scheduling and disk noise —
#: like the multi-worker scenarios (gated via their ``jobs`` fingerprint
#: tag), its correctness is enforced by fingerprints and the
#: :func:`sharded_consistency_failures` gate instead, and its work
#: counters are still gated exactly.
WALL_GATE_EXEMPT = ("sharded_sweep",)

#: Counter names whose per-scenario deltas are recorded and regression-checked.
TRACKED_COUNTERS = (
    "monomorphism.searches",
    "monomorphism.nodes_explored",
    "monomorphism.mappings_yielded",
    "monomorphism.host_encodings",
    "monomorphism.host_encoding_hits",
    "environment.adjacency_cache_hits",
    "environment.adjacency_cache_misses",
    "environment.component_cache_hits",
    "environment.component_cache_misses",
    "scheduler.full_evals",
    "scheduler.incremental_evals",
    "scheduler.ops_skipped",
    "scheduler.ops_replayed",
    "scheduler.pair_matrix_cache_hits",
    "scheduler.pair_matrix_cache_misses",
    "placer.anneal_steps",
    "placer.moves_accepted",
    "placer.moves_rejected",
    "placer.delta_evals",
)


def _sweep_fingerprint(row: SweepRow) -> Dict:
    best = row.best_cell()
    return {
        "num_subcircuits": [cell.num_subcircuits for cell in row.cells],
        "feasible": [cell.feasible for cell in row.cells],
        "best_threshold": best.threshold if best else None,
    }


def _placement_fingerprint(result) -> Dict:
    return {
        "num_subcircuits": result.num_subcircuits,
        "num_swap_stages": len(result.swap_stages),
        "threshold": result.threshold,
    }


def scenario_sweep_qft7_crotonic() -> Dict:
    """The macro benchmark: QFT threshold sweep over trans-crotonic acid.

    The 7-qubit QFT is the largest QFT the 7-qubit molecule admits; its
    interaction graph is the complete graph, so every cell exercises
    workspace extraction, monomorphism enumeration, fine tuning and SWAP
    routing at the paper's six Table-3 thresholds.
    """
    row = sweep_circuit(lambda: qft_circuit(7), trans_crotonic_acid())
    return _sweep_fingerprint(row)


def scenario_sweep_qft8_histidine() -> Dict:
    """An 8-qubit QFT swept over the 12-qubit histidine molecule."""
    row = sweep_circuit(lambda: qft_circuit(8), histidine())
    return _sweep_fingerprint(row)


def scenario_place_phaseest_crotonic() -> Dict:
    """Phase estimation on trans-crotonic acid at threshold 100 (Table 3)."""
    result = place_circuit(
        phaseest(), trans_crotonic_acid(), PlacementOptions(threshold=100.0)
    )
    return _placement_fingerprint(result)


def scenario_place_aqft9_histidine() -> Dict:
    """The approximate 9-qubit QFT on histidine at threshold 200."""
    result = place_circuit(aqft9(), histidine(), PlacementOptions(threshold=200.0))
    return _placement_fingerprint(result)


def scenario_place_qec5_boc() -> Dict:
    """The 5-qubit error-correction encoder on BOC-glycine-fluoride."""
    result = place_circuit(qec5_encoder(), boc_glycine_fluoride())
    return _placement_fingerprint(result)


def scenario_scalability_chain32() -> Dict:
    """One Table-4 scalability point: a 32-qubit hidden-stage chain instance."""
    record = run_scalability_point(32, seed=0)
    return {
        "num_subcircuits": record.num_subcircuits,
        "hidden_stages": record.hidden_stages,
        "num_gates": record.num_gates,
    }


def _parallel_sweep(jobs: int) -> Dict:
    """The parallel-sweep macro benchmark at a given worker count.

    The QFT-7 sweep over trans-crotonic acid with cell deduplication
    disabled, so all six thresholds are placed from scratch — six
    independent cells for the runner to distribute.  The circuit factory is
    a ``partial`` (not a lambda) so the same scenario body runs serially
    and across worker processes; the fingerprint must be identical at
    every ``jobs`` value, which the ``--check`` gate enforces by comparing
    each scenario against its committed baseline.
    """
    row = sweep_circuit(
        partial(qft_circuit, 7),
        trans_crotonic_acid(),
        reuse_equivalent_cells=False,
        jobs=jobs,
    )
    return {**_sweep_fingerprint(row), "jobs": jobs}


def scenario_parallel_sweep_jobs1() -> Dict:
    """Serial reference point of the parallel-sweep macro benchmark."""
    return _parallel_sweep(1)


def scenario_parallel_sweep_jobs2() -> Dict:
    """Two-worker run of the parallel-sweep macro benchmark."""
    return _parallel_sweep(2)


def scenario_parallel_sweep_jobs4() -> Dict:
    """Four-worker run of the parallel-sweep macro benchmark.

    Compare ``wall_time_s`` against ``parallel_sweep_jobs1`` for the
    speedup; on a multi-core host the four-worker run should finish in
    well under half the serial wall time (on a single-core container it
    only measures the process-pool overhead).
    """
    return _parallel_sweep(4)


def _replay_workload_circuit() -> QuantumCircuit:
    """A deterministic 12-qubit, ~1500-op circuit for the replay scenarios.

    Sized so the explicit-backend scenarios measure the regime fine tuning
    stresses: long compiled op lists, thousands of replays.
    """
    rng = random.Random(20260729)
    qubits = list(range(12))
    gate_list = []
    for _ in range(1500):
        kind = rng.random()
        if kind < 0.55:
            a, b = rng.sample(qubits, 2)
            gate_list.append(g.zz(a, b, rng.choice([45.0, 90.0, 180.0])))
        elif kind < 0.9:
            gate_list.append(g.rx(rng.choice(qubits), rng.choice([90.0, 180.0])))
        else:
            gate_list.append(g.rz(rng.choice(qubits), 90.0))  # free gate
    return QuantumCircuit(qubits, gate_list, name="replay-stress")


def _replay_stress(backend: str) -> Dict:
    """The scheduler-replay macro benchmark at an explicit backend.

    Mimics a hill-climbing fine-tuning campaign on one large placed
    circuit: a full ``set_base`` evaluation, sweeps of single-qubit moves
    and occupant swaps through ``runtime_with`` (exact and with the
    branch-and-bound ``limit`` cutoff), and periodic re-basing.  The
    fingerprint digests every computed runtime, so
    :func:`replay_consistency_failures` can verify bit-identical outputs
    across the backend scenarios.
    """
    from repro.timing import _native

    if backend == "native" and not _native.available():
        return {
            "backend": backend,
            "skipped": f"native kernel unavailable: "
            f"{_native.unavailable_reason()}",
        }
    environment = histidine()
    circuit = _replay_workload_circuit()
    evaluator = RuntimeEvaluator(
        circuit, environment, apply_interaction_cap=True, backend=backend
    )
    nodes = list(environment.nodes)
    placement = dict(zip(circuit.qubits, nodes))
    base = evaluator.set_base(placement)
    rng = random.Random(7)
    checksum = 0.0
    cutoffs = 0
    moves = 0
    for round_index in range(6):
        for qubit in circuit.qubits:
            current = placement[qubit]
            node_to_qubit = {node: q for q, node in placement.items()}
            for node in nodes:
                if node == current:
                    continue
                occupant = node_to_qubit.get(node)
                if occupant is None:
                    overrides = {qubit: node}
                else:
                    overrides = {qubit: node, occupant: current}
                if rng.random() < 0.5:
                    value = evaluator.runtime_with(overrides, limit=base)
                    if value == float("inf"):
                        cutoffs += 1
                        moves += 1
                        continue
                else:
                    value = evaluator.runtime_with(overrides)
                checksum += value
                moves += 1
        # Re-base on a rotated placement: the accepted-move/full-run path.
        rotated = nodes[round_index + 1:] + nodes[:round_index + 1]
        placement = dict(zip(circuit.qubits, rotated))
        base = evaluator.set_base(placement)
        checksum += base
    evaluator.flush_stats()
    return {
        "backend": backend,
        "moves": moves,
        "cutoffs": cutoffs,
        "checksum": round(checksum, 6),
    }


def scenario_replay_python() -> Dict:
    """Replay-engine stress on the pure Python reference backend."""
    return _replay_stress("python")


def scenario_replay_native() -> Dict:
    """Replay-engine stress on the compiled C replay kernel.

    Compare ``wall_time_s`` against ``replay_python`` for the native
    speedup; the fingerprints (minus the ``backend`` tag) must be equal
    across both replay scenarios — the backends are bit-identical by
    contract.  Skipped (with the one-line build-failure reason in the
    fingerprint) on hosts without a C compiler.
    """
    return _replay_stress("native")


def scenario_sharded_sweep() -> Dict:
    """The sharded-grid macro benchmark: serial vs plan → run → merge.

    Runs the QFT-7 / trans-crotonic-acid sweep grid once serially, then
    round-trips the same grid through the full sharded pipeline at 2 and
    4 shards — shard inputs written to and read back from disk, each
    shard executed independently, JSON outcome shards written, re-read
    and merged.  The fingerprint records whether the merged grid's
    deterministic rows and work counters are byte-identical to the
    serial run; :func:`sharded_consistency_failures` gates on it — a
    ``False`` means the shard pipeline changed results, a correctness
    bug regardless of timings.  Wall time is recorded but exempt from
    the regression gate (see :data:`WALL_GATE_EXEMPT`); work counters
    are gated as usual.
    """
    specs, _ = build_sweep_specs(
        partial(qft_circuit, 7),
        trans_crotonic_acid(),
        molecule_factory("trans-crotonic-acid"),
        PAPER_THRESHOLDS,
    )
    before = STATS.snapshot()
    serial = ExperimentRunner().run(specs)
    serial_counters = STATS.delta_since(before)
    serial_rows = dump_json(deterministic_rows(serial))
    fingerprint: Dict = {
        "num_cells": len(specs),
        "num_subcircuits": [outcome.num_subcircuits for outcome in serial],
        "feasible": [outcome.feasible for outcome in serial],
    }
    for num_shards in (2, 4):
        plan = sharding.ShardPlan.build(specs, num_shards)
        shards = []
        with tempfile.TemporaryDirectory() as tmp:
            for index in range(plan.num_shards):
                shard_path = os.path.join(tmp, f"shard-{index}.pkl")
                sharding.write_shard(plan.shard_input(index), shard_path)
                outcome_shard = sharding.execute_shard(
                    sharding.read_shard(shard_path)
                )
                out_path = os.path.join(tmp, f"outcomes-{index}.json")
                sharding.write_outcome_shard(outcome_shard, out_path)
                shards.append(sharding.read_outcome_shard(out_path))
        merged = sharding.merge_shards(shards, plan=plan)
        fingerprint[f"rows_identical_{num_shards}"] = (
            dump_json(deterministic_rows(merged.outcomes)) == serial_rows
        )
        fingerprint[f"counters_identical_{num_shards}"] = work_counters(
            merged.counters
        ) == work_counters(serial_counters)
    return fingerprint


def _placer_run_fingerprint(result) -> Tuple:
    """An exact fingerprint of one placement run (for determinism gates)."""
    return (
        result.total_runtime,
        result.num_subcircuits,
        len(result.swap_stages),
        tuple(
            tuple(sorted((repr(q), repr(n)) for q, n in stage.placement.items()))
            for stage in result.stages
        ),
    )


def scenario_large_host_anneal(side: int = 32) -> Dict:
    """The 1000+-node macro benchmark: annealing where exact search cannot go.

    Places a 24-qubit random nearest-neighbour circuit onto a
    ``side x side`` grid with ``anneal:11x600``: 1,024 nodes by default,
    4,096 in the ``large_host_grid64`` twin.  The exact engine is hopeless
    at this host size — enumerating even one workspace's candidate set
    means fine tuning ~100 monomorphisms over 1024 allowed nodes each
    (millions of delta evaluations), on top of a worst-case-exponential
    enumeration; see ``docs/placers.md`` for measured blowup.  The
    scenario runs the placement twice and fingerprints both: the
    ``deterministic`` key (gated by
    :func:`placer_consistency_failures`) asserts the same-seed runs are
    identical.
    """
    environment = grid(side, side)
    circuit = random_chain_instance(24, 72, 11)
    options = PlacementOptions(threshold=10.0, placer="anneal:11x600")
    first = place_circuit(circuit, environment, options)
    second = place_circuit(circuit, environment, options)
    return {
        "host_nodes": environment.num_qubits,
        "total_runtime": round(first.total_runtime, 6),
        "num_subcircuits": first.num_subcircuits,
        "num_swap_stages": len(first.swap_stages),
        "deterministic": _placer_run_fingerprint(first)
        == _placer_run_fingerprint(second),
    }


def scenario_exact_vs_anneal() -> Dict:
    """Quality/time ablation: exact vs annealed placement on a small grid.

    An 8-qubit arbitrary-pair random circuit on ``grid:4x5`` — small
    enough for the exact engine, structured enough (multiple workspaces,
    swap stages) that the annealer has real work to do.  The fingerprint
    records both engines' total runtimes and their quality ratio; wall
    times of the two phases can be compared across baselines.  The
    ``deterministic`` key gates same-seed anneal reproducibility; the
    quality ratio is *recorded*, not gated against the exact optimum —
    the annealer's contract is determinism, not optimality.
    """
    environment = grid(4, 5)
    circuit = random_circuit_instance(8, 20, 5)
    exact = place_circuit(
        circuit, environment, PlacementOptions(threshold=10.0)
    )
    anneal_options = PlacementOptions(threshold=10.0, placer="anneal:5x400")
    annealed = place_circuit(circuit, environment, anneal_options)
    repeat = place_circuit(circuit, environment, anneal_options)
    return {
        "exact_runtime": round(exact.total_runtime, 6),
        "anneal_runtime": round(annealed.total_runtime, 6),
        "quality_ratio": round(annealed.total_runtime / exact.total_runtime, 4),
        "deterministic": _placer_run_fingerprint(annealed)
        == _placer_run_fingerprint(repeat),
    }


def scenario_monomorphism_micro() -> Dict:
    """Raw enumerator stress: paths and grids embedded into sparse hosts."""
    host_hex = heavy_hex(3)
    graph_hex = host_hex.adjacency_graph(10.0)
    host_grid = grid(5, 5)
    graph_grid = host_grid.adjacency_graph(10.0)
    counts = [
        len(find_monomorphisms(nx.path_graph(12), graph_hex, max_count=100)),
        len(find_monomorphisms(nx.cycle_graph(8), graph_grid, max_count=100)),
        len(find_monomorphisms(nx.star_graph(4), graph_grid, max_count=100)),
        # No triangle embeds into a bipartite grid: a full refutation search.
        len(find_monomorphisms(nx.complete_graph(3), graph_grid, max_count=1)),
    ]
    return {"mapping_counts": counts}


#: Registry of named scenarios (insertion order is the report order).
SCENARIOS: Dict[str, Callable[[], Dict]] = {
    "sweep_qft7_crotonic": scenario_sweep_qft7_crotonic,
    "sweep_qft8_histidine": scenario_sweep_qft8_histidine,
    "place_phaseest_crotonic": scenario_place_phaseest_crotonic,
    "place_aqft9_histidine": scenario_place_aqft9_histidine,
    "place_qec5_boc": scenario_place_qec5_boc,
    "scalability_chain32": scenario_scalability_chain32,
    "monomorphism_micro": scenario_monomorphism_micro,
    "large_host_anneal": scenario_large_host_anneal,
    "large_host_grid64": partial(scenario_large_host_anneal, 64),
    "exact_vs_anneal": scenario_exact_vs_anneal,
    "parallel_sweep_jobs1": scenario_parallel_sweep_jobs1,
    "parallel_sweep_jobs2": scenario_parallel_sweep_jobs2,
    "parallel_sweep_jobs4": scenario_parallel_sweep_jobs4,
    "replay_python": scenario_replay_python,
    "replay_native": scenario_replay_native,
    "sharded_sweep": scenario_sharded_sweep,
}


def run_scenario(name: str, repeats: int = 3) -> Dict:
    """Run one scenario ``repeats`` times; report best wall time.

    Counter deltas and the fingerprint are taken from the first repeat
    (fresh caches); later repeats only tighten the wall-time measurement.
    """
    function = SCENARIOS[name]
    wall_times: List[float] = []
    fingerprint: Dict = {}
    metrics: Dict[str, int] = {}
    for repeat in range(max(1, repeats)):
        before = STATS.snapshot()
        start = time.perf_counter()
        result = function()
        wall_times.append(time.perf_counter() - start)
        if repeat == 0:
            delta = STATS.delta_since(before)
            metrics = {
                key: delta.get(key, 0)
                for key in TRACKED_COUNTERS
                if key in delta
            }
            fingerprint = result
    hits = metrics.get("environment.adjacency_cache_hits", 0)
    misses = metrics.get("environment.adjacency_cache_misses", 0)
    cache_rates = {}
    if hits + misses:
        cache_rates["adjacency_cache_hit_rate"] = round(hits / (hits + misses), 4)
    encoding_hits = metrics.get("monomorphism.host_encoding_hits", 0)
    encodings = metrics.get("monomorphism.host_encodings", 0)
    if encoding_hits + encodings:
        cache_rates["host_encoding_hit_rate"] = round(
            encoding_hits / (encoding_hits + encodings), 4
        )
    return {
        "wall_time_s": round(min(wall_times), 6),
        "metrics": {**metrics, **cache_rates},
        "fingerprint": fingerprint,
    }


def run_all(repeats: int = 3, names=None) -> Dict[str, Dict]:
    """Run registered scenarios (all, or a ``names`` subset) by name.

    Unknown names raise ``KeyError`` up front rather than silently
    shrinking the run; the subset keeps registry order.
    """
    if names is None:
        selected = list(SCENARIOS)
    else:
        unknown = [name for name in names if name not in SCENARIOS]
        if unknown:
            raise KeyError(
                f"unknown scenario(s) {unknown}; known: {list(SCENARIOS)}"
            )
        selected = [name for name in SCENARIOS if name in set(names)]
    return {name: run_scenario(name, repeats=repeats) for name in selected}


def parallel_consistency_failures(current: Dict[str, Dict]) -> List[str]:
    """Cross-scenario gate: every ``parallel_sweep_jobs*`` run must agree.

    The worker count is an execution detail; if the four-worker sweep
    fingerprint (ignoring the ``jobs`` tag itself) differs from the serial
    one, parallel execution changed the results — a determinism bug, not a
    performance regression.
    """
    failures: List[str] = []
    reference_name = "parallel_sweep_jobs1"
    reference = current.get(reference_name)
    if reference is None:
        return failures
    expected = {k: v for k, v in reference["fingerprint"].items() if k != "jobs"}
    for name, data in current.items():
        if not name.startswith("parallel_sweep_jobs") or name == reference_name:
            continue
        found = {k: v for k, v in data["fingerprint"].items() if k != "jobs"}
        if found != expected:
            failures.append(
                f"{name}: fingerprint diverged from {reference_name} "
                f"({found!r} != {expected!r}); parallel execution changed results"
            )
    return failures


def replay_consistency_failures(current: Dict[str, Dict]) -> List[str]:
    """Cross-backend gate: the ``replay_*`` scenarios must agree exactly.

    The evaluation backend is an execution detail with a bit-identical
    contract; if the native replay fingerprint (ignoring the ``backend``
    tag) differs from the python one, the backends computed different
    runtimes — a correctness bug, not a performance regression.  A
    ``skipped`` fingerprint (no C compiler) is exempt: no work ran, so
    there is nothing to compare.
    """
    failures: List[str] = []
    reference = current.get("replay_python")
    if reference is None:
        return failures
    expected = {
        k: v for k, v in reference["fingerprint"].items() if k != "backend"
    }
    other = current.get("replay_native")
    if other is None:
        return failures
    found = {k: v for k, v in other["fingerprint"].items() if k != "backend"}
    if "skipped" not in found and found != expected:
        failures.append(
            f"replay_native: fingerprint diverged from replay_python "
            f"({found!r} != {expected!r}); the backends are no longer "
            "bit-identical"
        )
    return failures


def sharded_consistency_failures(current: Dict[str, Dict]) -> List[str]:
    """Round-trip gate: the sharded pipeline must reproduce the serial grid.

    The ``sharded_sweep`` scenario records, in its fingerprint, whether
    the 2- and 4-shard plan → run → merge round trips produced
    byte-identical deterministic rows and identical merged work counters
    compared to the serial run of the same grid.  Any ``False`` is a
    correctness bug in the sharding layer — gate immediately, like the
    worker-count and backend consistency gates.
    """
    failures: List[str] = []
    data = current.get("sharded_sweep")
    if data is None:
        return failures
    for key, value in sorted(data.get("fingerprint", {}).items()):
        if key.startswith(("rows_identical", "counters_identical")) and value is not True:
            failures.append(
                f"sharded_sweep: {key} is {value!r}; the sharded "
                "plan->run->merge round trip no longer reproduces the "
                "serial grid"
            )
    return failures


def placer_consistency_failures(current: Dict[str, Dict]) -> List[str]:
    """Determinism gate: same-seed heuristic placements must be identical.

    The heuristic-placer scenarios run each anneal twice in-process and
    record fingerprint equality under ``deterministic``.  ``PYTHONHASHSEED``
    and worker-count independence are covered by ``tests/test_placers.py``
    subprocess tests; this gate catches any in-process nondeterminism (e.g.
    an engine reading the ``random`` module's global state) on every bench
    run.  The annealer's contract is same-seed reproducibility, *not*
    matching the exact optimum, so quality ratios are recorded but never
    gated here.
    """
    failures: List[str] = []
    for name in ("large_host_anneal", "large_host_grid64", "exact_vs_anneal"):
        data = current.get(name)
        if data is None:
            continue
        if data.get("fingerprint", {}).get("deterministic") is not True:
            failures.append(
                f"{name}: same-seed anneal runs diverged ('deterministic' "
                "is not True); the heuristic placer broke its determinism "
                "contract"
            )
    return failures


def check_results(
    baseline: Dict[str, Dict],
    current: Dict[str, Dict],
    tolerance: float = 0.20,
    min_wall_time_s: float = 0.15,
) -> List[str]:
    """Compare a fresh run against a committed baseline.

    Returns a list of human-readable failure strings, one per regression:
    a tracked scenario whose wall time or deterministic counters grew by
    more than ``tolerance`` (wall times below ``min_wall_time_s`` in the
    baseline are too noisy to gate on and are covered by their counters and
    fingerprints instead), a scenario whose output fingerprint changed (it
    no longer does the same work), or a scenario that disappeared.  Improvements never fail — refresh the baseline with
    ``run_bench.py --update`` to lock them in.

    Multi-worker scenarios (fingerprint ``jobs > 1``) get two exemptions:

    * the **wall-time gate** — process-pool start-up and scheduling make
      their wall times contention-sensitive, especially on hosts with
      fewer cores than workers;
    * **per-process cache counters** (names containing ``cache`` or
      ``host_encoding``) — how many encodings/graphs each worker builds
      depends on which cells the pool hands it, so those totals vary with
      scheduling even though every cell's *work* is deterministic.

    Work counters (searches, nodes explored, scheduler evaluations) are
    per-cell deterministic wherever the cell runs, so their sums are still
    gated exactly; fingerprints and cross-``jobs`` / cross-backend
    consistency (see :func:`parallel_consistency_failures` and
    :func:`replay_consistency_failures`) are gated for every scenario,
    and the serial ``jobs=1`` twin gates the underlying work's wall time
    and full counter set.
    """
    failures: List[str] = list(parallel_consistency_failures(current))
    failures.extend(replay_consistency_failures(current))
    failures.extend(sharded_consistency_failures(current))
    failures.extend(placer_consistency_failures(current))
    baseline_scenarios = baseline.get("scenarios", baseline)
    for name, base in baseline_scenarios.items():
        now = current.get(name)
        if now is None:
            failures.append(f"{name}: scenario missing from current run")
            continue
        if "skipped" in now.get("fingerprint", {}) or "skipped" in base.get(
            "fingerprint", {}
        ):
            # A scenario may be skipped where a prerequisite is missing
            # (e.g. replay_native without a C compiler); without the work
            # there is nothing meaningful to gate against the baseline.
            continue
        base_wall = base.get("wall_time_s", 0.0)
        now_wall = now.get("wall_time_s", 0.0)
        multi_worker = base.get("fingerprint", {}).get("jobs", 1) > 1
        if (
            not multi_worker
            and name not in WALL_GATE_EXEMPT
            and base_wall >= min_wall_time_s
            and now_wall > base_wall * (1 + tolerance)
        ):
            failures.append(
                f"{name}: wall time regressed {base_wall:.4f}s -> "
                f"{now_wall:.4f}s (> {tolerance:.0%})"
            )
        base_metrics = base.get("metrics", {})
        now_metrics = now.get("metrics", {})
        for key, base_value in base_metrics.items():
            if key.endswith("_rate") or not isinstance(base_value, (int, float)):
                continue
            if multi_worker and ("cache" in key or "host_encoding" in key):
                continue
            now_value = now_metrics.get(key, 0)
            if base_value > 0 and now_value > base_value * (1 + tolerance):
                failures.append(
                    f"{name}: {key} regressed {base_value} -> {now_value} "
                    f"(> {tolerance:.0%})"
                )
        base_fingerprint = base.get("fingerprint")
        now_fingerprint = now.get("fingerprint")
        if base_fingerprint is not None and now_fingerprint != base_fingerprint:
            failures.append(
                f"{name}: output fingerprint changed "
                f"{base_fingerprint!r} -> {now_fingerprint!r} "
                "(the scenario no longer does the same work; if intentional, "
                "refresh the baseline with run_bench.py --update)"
            )
    return failures
