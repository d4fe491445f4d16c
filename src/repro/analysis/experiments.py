"""Reconstruction of the paper's Table 2: experimentally realised circuits.

Table 2 takes three circuits that were actually executed on NMR hardware,
erases the experimentalists' hand-made qubit-to-nucleus assignment and lets
the tool reconstruct it.  For each (circuit, molecule) pair the table
reports the circuit size, the environment size, the estimated circuit
runtime of the placement found, and the size of the whole-circuit search
space ``m!/(m-n)!``.

The three pairs, with the paper's reported numbers, are captured in
:data:`TABLE2_ROWS`; :func:`run_table2` re-runs the placement for each and
returns measured values next to the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.analysis.runner import ExperimentRunner, ExperimentSpec
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import pseudo_cat_state_10q, qec3_encoder, qec5_encoder
from repro.core.config import PlacementOptions
from repro.core.result import PlacementResult
from repro.hardware.environment import PhysicalEnvironment, injective_placements
from repro.hardware.molecules import acetyl_chloride, histidine, trans_crotonic_acid


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2 (inputs plus the paper's reported values)."""

    circuit_factory: Callable[[], QuantumCircuit]
    environment_factory: Callable[[], PhysicalEnvironment]
    paper_runtime_seconds: float
    paper_search_space: int
    paper_num_gates: int
    paper_num_qubits: int


@dataclass(frozen=True)
class Table2Result:
    """Measured values for one Table 2 row."""

    circuit_name: str
    environment_name: str
    num_gates: int
    num_qubits: int
    environment_qubits: int
    measured_runtime_seconds: float
    num_subcircuits: int
    search_space: int
    paper_runtime_seconds: float
    paper_search_space: int
    result: PlacementResult


#: The three experiments of Table 2 with the values printed in the paper.
TABLE2_ROWS: Tuple[Table2Row, ...] = (
    Table2Row(qec3_encoder, acetyl_chloride, 0.0136, 6, 9, 3),
    Table2Row(qec5_encoder, trans_crotonic_acid, 0.0779, 2520, 25, 5),
    Table2Row(pseudo_cat_state_10q, histidine, 0.5170, 239_500_800, 54, 10),
)


def _result_from_outcome(row: Table2Row, outcome) -> Table2Result:
    """Build one :class:`Table2Result` from its executed cell.

    A Table 2 row that fails to place is a configuration error, not an
    expected "N/A" — ``raise_if_infeasible`` keeps the pre-runner
    throw-on-failure contract.
    """
    outcome.raise_if_infeasible()
    return Table2Result(
        circuit_name=outcome.circuit_name,
        environment_name=outcome.environment_name,
        num_gates=outcome.num_gates,
        num_qubits=outcome.num_qubits,
        environment_qubits=outcome.environment_qubits,
        measured_runtime_seconds=outcome.runtime_seconds,
        num_subcircuits=outcome.num_subcircuits,
        search_space=injective_placements(
            outcome.environment_qubits, outcome.num_qubits
        ),
        paper_runtime_seconds=row.paper_runtime_seconds,
        paper_search_space=row.paper_search_space,
        result=outcome.result,
    )


def run_table2(
    options: Optional[PlacementOptions] = None,
    jobs: int = 1,
    runner: Optional[ExperimentRunner] = None,
    on_result: Optional[Callable[[Table2Result], None]] = None,
) -> List[Table2Result]:
    """Place every Table 2 circuit into its molecule and collect the results.

    The three rows are independent cells; ``jobs > 1`` places them on
    worker processes (the row factories are module-level functions, so the
    specs pickle by reference).  ``on_result`` streams each row's result
    as soon as its cell completes (completion order for parallel runs);
    the returned list is always in table order.
    """
    specs = [
        ExperimentSpec(
            circuit_factory=row.circuit_factory,
            environment_factory=row.environment_factory,
            options=options,
            label=f"table2 row {index}",
            keep_result=True,
        )
        for index, row in enumerate(TABLE2_ROWS)
    ]
    runner = runner or ExperimentRunner(jobs=jobs)
    return runner.run(
        specs,
        build=lambda outcome: _result_from_outcome(
            TABLE2_ROWS[outcome.index], outcome
        ),
        on_item=on_result,
    )
