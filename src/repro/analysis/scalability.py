"""Scalability experiment over chain architectures (the paper's Table 4).

The workload: ``N``-qubit circuits built from ``log2(N)`` *hidden stages*;
each stage randomly permutes the qubits into a virtual chain and emits
``N * log2(N)`` random nearest-neighbour gates of maximal length
(``T(G) = 3``).  The environment is the linear nearest-neighbour chain with a
0.001-second interaction ("a 1 kHz quantum processor").

The paper reports, per ``N``: the number of gates, the number of hidden
stages, the number of subcircuits the placer discovered (expected to equal
the number of hidden stages), the placed circuit's runtime, and the
software's own running time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence

from repro.analysis.runner import ExperimentRunner, ExperimentSpec
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.random_circuits import hidden_stage_circuit
from repro.core.config import PlacementOptions
from repro.hardware.architectures import linear_chain


@dataclass(frozen=True)
class ScalabilityRecord:
    """One row of the Table 4 style report."""

    num_qubits: int
    num_gates: int
    hidden_stages: int
    num_subcircuits: int
    circuit_runtime_seconds: float
    software_runtime_seconds: float


#: Options tuned for large chain instances: fine tuning and wide lookahead
#: are disabled because their cost grows quadratically with the qubit count
#: while the chain instances only admit two monomorphisms per stage anyway.
SCALABILITY_OPTIONS = PlacementOptions(
    threshold=10.0,
    max_monomorphisms=4,
    fine_tuning=False,
    lookahead=False,
    lookahead_width=2,
)


def _chain_instance_circuit(num_qubits: int, seed: int) -> QuantumCircuit:
    """Module-level (hence picklable) circuit factory for one chain instance."""
    return hidden_stage_circuit(num_qubits, seed=seed).circuit


def run_scalability_point(
    num_qubits: int,
    seed: int = 0,
    options: Optional[PlacementOptions] = None,
) -> ScalabilityRecord:
    """Generate and place one hidden-stage instance of ``num_qubits`` qubits."""
    return run_scalability_sweep((num_qubits,), seed=seed, options=options)[0]


def _record_from_outcome(num_qubits: int, outcome) -> ScalabilityRecord:
    """Build one Table 4 record from its executed cell.

    Chain instances are feasible by construction; a failure means the
    caller passed broken options — raise, as the pre-runner code did.
    """
    outcome.raise_if_infeasible()
    return ScalabilityRecord(
        num_qubits=num_qubits,
        num_gates=outcome.num_gates,
        hidden_stages=expected_hidden_stages(num_qubits),
        num_subcircuits=outcome.num_subcircuits,
        circuit_runtime_seconds=outcome.runtime_seconds,
        software_runtime_seconds=outcome.software_runtime_seconds,
    )


def run_scalability_sweep(
    qubit_counts: Sequence[int] = (8, 16, 32, 64),
    seed: int = 0,
    options: Optional[PlacementOptions] = None,
    jobs: int = 1,
    runner: Optional[ExperimentRunner] = None,
    on_record: Optional[Callable[[ScalabilityRecord], None]] = None,
) -> List[ScalabilityRecord]:
    """Run the Table 4 sweep over a list of qubit counts.

    The default sizes stop at 64 qubits so the sweep completes in seconds;
    the paper's 512- and 1024-qubit points took hours even in C++ and can be
    requested explicitly.  ``jobs > 1`` distributes the points over worker
    processes; each worker regenerates its instance from ``(num_qubits,
    seed)``, so records match the serial run field for field (wall times
    aside).  ``on_record`` streams each point's record as its cell
    completes — with parallel jobs the small chains usually finish (and
    render) long before the largest one does.
    """
    opts = options or SCALABILITY_OPTIONS
    qubit_counts = list(qubit_counts)
    specs = [
        ExperimentSpec(
            circuit_factory=partial(_chain_instance_circuit, num_qubits, seed),
            environment_factory=partial(linear_chain, num_qubits),
            options=opts,
            label=f"chain {num_qubits}q seed {seed}",
        )
        for num_qubits in qubit_counts
    ]
    runner = runner or ExperimentRunner(jobs=jobs)
    return runner.run(
        specs,
        build=lambda outcome: _record_from_outcome(
            qubit_counts[outcome.index], outcome
        ),
        on_item=on_record,
    )


def expected_hidden_stages(num_qubits: int) -> int:
    """The number of hidden stages the generator uses for ``num_qubits``."""
    return max(1, int(round(math.log2(num_qubits))))
