"""End-to-end hash-seed and worker-count determinism.

The placement pipeline (including the SWAP router, historically the one
hash-seed-dependent stage) must produce byte-identical experiment outputs

* across different ``PYTHONHASHSEED`` values — each subprocess gets a
  different string-hash order, so any surviving ``set``-iteration
  dependence shows up as a diff; and
* across ``--jobs 1`` vs ``--jobs 4`` — worker processes have their own
  interpreter state and caches, so the parallel grid must reduce to the
  serial one exactly.

The fingerprint below covers a threshold sweep (Table 3 machinery), a full
placement with every SWAP layer spelled out (the router), a multi-restart
simulated-annealing placement (the annealer, which the native backend
runs in one kernel call per restart), the Table 2 reconstruction and a
Table 4 scalability point, excluding only wall-clock fields.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

FINGERPRINT_SCRIPT = r"""
import json
import sys

from repro.analysis.experiments import run_table2
from repro.analysis.scalability import run_scalability_sweep
from repro.analysis.sweep import sweep_circuit
from repro.circuits.library import phaseest, qft6
from repro.core.config import PlacementOptions
from repro.core.placement import place_circuit
from repro.hardware.molecules import trans_crotonic_acid
from repro.registry import load_circuit, load_environment

jobs = int(sys.argv[1])

fingerprint = {}

row = sweep_circuit(
    phaseest,
    trans_crotonic_acid(),
    thresholds=(50.0, 100.0, 200.0, 1000.0),
    jobs=jobs,
)
fingerprint["sweep"] = [
    (cell.threshold, cell.runtime_seconds, cell.num_subcircuits)
    for cell in row.cells
]

result = place_circuit(
    qft6(), trans_crotonic_acid(), PlacementOptions(threshold=100.0)
)
fingerprint["placement"] = {
    "total_runtime": result.total_runtime,
    "stages": [
        sorted((repr(q), repr(n)) for q, n in stage.placement.items())
        for stage in result.stages
    ],
    "swap_layers": [
        [[sorted((repr(a), repr(b))) for a, b in layer]
         for layer in swap.routing.layers]
        for swap in result.swap_stages
    ],
    "swap_runtimes": [swap.runtime for swap in result.swap_stages],
}

annealed = place_circuit(
    load_circuit("random-chain:12x36x1"),
    load_environment("grid:8x8"),
    PlacementOptions(threshold=10.0, placer="anneal:3,5x300"),
)
fingerprint["anneal"] = {
    "total_runtime": annealed.total_runtime,
    "stages": [
        [(repr(q), repr(n)) for q, n in stage.placement.items()]
        for stage in annealed.stages
    ],
}

fingerprint["table2"] = [
    (r.circuit_name, r.measured_runtime_seconds, r.num_subcircuits, r.search_space)
    for r in run_table2(jobs=jobs)
]

fingerprint["scalability"] = [
    (r.num_qubits, r.num_gates, r.hidden_stages, r.num_subcircuits,
     r.circuit_runtime_seconds)
    for r in run_scalability_sweep((8, 16), seed=3, jobs=jobs)
]

json.dump(fingerprint, sys.stdout, sort_keys=True)
"""


def _fingerprint(hash_seed: str, jobs: int, backend: str = None) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env.pop("REPRO_SCHEDULER_BACKEND", None)
    if backend is not None:
        env["REPRO_SCHEDULER_BACKEND"] = backend
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", FINGERPRINT_SCRIPT, str(jobs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestHashSeedDeterminism:
    def test_outputs_identical_across_hash_seeds_and_worker_counts(self):
        reference = _fingerprint("0", jobs=1)
        # Sanity: the fingerprint covers real work, including SWAP stages.
        decoded = json.loads(reference)
        assert any(decoded["placement"]["swap_layers"])
        assert decoded["sweep"][1][1] is not None
        assert decoded["anneal"]["stages"]

        for hash_seed in ("1", "12345"):
            assert _fingerprint(hash_seed, jobs=1) == reference, (
                f"serial outputs diverged at PYTHONHASHSEED={hash_seed}"
            )
        assert _fingerprint("0", jobs=4) == reference, (
            "jobs=4 outputs diverged from jobs=1"
        )
        assert _fingerprint("98765", jobs=4) == reference, (
            "jobs=4 outputs diverged under a different hash seed"
        )

    def test_native_backend_outputs_identical_to_python(self):
        """The evaluation backend is an execution detail: the compiled
        replay kernel must reproduce the python reference's bytes, each
        under its own hash seed, and once through the parallel grid."""
        from repro.timing import _native

        if not _native.available():
            pytest.skip(f"native kernel unavailable: "
                        f"{_native.unavailable_reason()}")
        reference = _fingerprint("0", jobs=1, backend="python")
        assert _fingerprint("31337", jobs=1, backend="native") == reference, (
            "native-backend outputs diverged from the python backend"
        )
        assert _fingerprint("424242", jobs=2, backend="native") == reference, (
            "parallel native-backend outputs diverged from the serial "
            "python backend"
        )


class TestRandomizedHashSeedRouting:
    @pytest.mark.parametrize("hash_seed", ["7", "31337"])
    def test_cli_sweep_identical_across_hash_seeds(self, hash_seed):
        """The CLI path (closure-free factories, --jobs plumbing) is stable too."""
        def run(seed):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(REPO_SRC) + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            completed = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "sweep",
                    "qft6", "trans-crotonic-acid",
                    "--thresholds", "100", "200",
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert completed.returncode == 0, completed.stderr
            return completed.stdout

        assert run(hash_seed) == run("0")


# Exercises the two call sites fixed in the lint sweep (docs/static-analysis.md):
# the odd-even router's chain-endpoint pick and the trace renderer's default
# qubit order, both now routed through core._bitset.canonical_order.  Mixed
# node types (ints and strings) make any revert to value-`sorted` raise and
# any revert to set iteration hash-seed-dependent.
ROUTING_TRACE_SCRIPT = r"""
import json
import sys

import networkx as nx

from repro.hardware.molecules import acetyl_chloride
from repro.circuits.library import qec3_encoder
from repro.routing.odd_even import route_permutation_odd_even
from repro.timing.scheduler import schedule
from repro.timing.trace import format_trace

chain = nx.Graph()
nodes = ["M", 2, "C1", 17, "zz", 3]
for a, b in zip(nodes, nodes[1:]):
    chain.add_edge(a, b)
routing = route_permutation_odd_even(
    chain, {"M": 3, 3: "M", "C1": 17, 17: "C1"}
)
fingerprint = {
    "layers": [[(repr(a), repr(b)) for a, b in layer] for layer in routing.layers],
}

result = schedule(
    qec3_encoder(), {"a": "M", "b": "C2", "c": "C1"}, acetyl_chloride()
)
fingerprint["trace"] = format_trace(result)

json.dump(fingerprint, sys.stdout, sort_keys=True)
"""


class TestRoutingAndTraceHashSeedStability:
    def test_odd_even_and_trace_identical_across_hash_seeds(self):
        def run(hash_seed):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(REPO_SRC) + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            completed = subprocess.run(
                [sys.executable, "-c", ROUTING_TRACE_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert completed.returncode == 0, completed.stderr
            return completed.stdout

        reference = run("0")
        decoded = json.loads(reference)
        assert decoded["layers"], "router produced no swap layers"
        assert decoded["trace"].splitlines()[0].startswith("time[ ]")
        for hash_seed in ("1", "31337"):
            assert run(hash_seed) == reference, (
                f"routing/trace output diverged at PYTHONHASHSEED={hash_seed}"
            )
