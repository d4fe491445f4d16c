"""The base class of the placement engines.

An engine only chooses where one workspace's qubits go:
:func:`repro.core.placement.place_circuit` builds the engine that
``options.placer`` (a :data:`repro.registry.PLACERS` spec) names and hands
it to :func:`repro.core.placement.run_pipeline`, which does every other
step — threshold graph, workspace extraction, lookahead selection, swap
routing and assembly — so every engine emits the same
:class:`~repro.core.result.PlacementResult` the exact engine does.  See
``docs/placers.md`` for the portfolio.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Qubit
from repro.core.config import PlacementOptions
from repro.core.placement import _complete_placement, _stage_runtime
from repro.hardware.environment import Node, PhysicalEnvironment

Placement = Dict[Qubit, Node]


class WorkspacePlacer(ABC):
    """A placement engine: scored placements for each workspace.

    Subclasses implement :meth:`workspace_candidates` — scored placements
    for one workspace with at least one two-qubit interaction.  Edgeless
    workspaces need no engine: every qubit just stays where the previous
    stage left it (completed deterministically), identically for every
    engine, so :meth:`candidates` handles them here.

    Attributes
    ----------
    provides_multiple_candidates:
        Whether :meth:`candidates` can return more than one scored
        placement per workspace.  The pipeline only runs the depth-2
        lookahead for such engines — with a single candidate per
        workspace there is nothing to rank.
    """

    provides_multiple_candidates: bool = True

    def candidates(
        self,
        workspace,
        subcircuit: QuantumCircuit,
        circuit: QuantumCircuit,
        context,
        environment: PhysicalEnvironment,
        options: PlacementOptions,
        previous: Optional[Placement],
        evaluator,
    ) -> List[Tuple[Placement, float]]:
        """Scored candidate placements for one workspace, cheapest first."""
        if workspace.interaction_graph.number_of_edges() == 0:
            placement = _complete_placement(
                circuit, dict(previous) if previous else {}, context, previous
            )
            runtime = _stage_runtime(
                subcircuit, placement, environment, options, evaluator
            )
            return [(placement, runtime)]
        return self.workspace_candidates(
            workspace, subcircuit, circuit, context, environment, options,
            previous, evaluator,
        )

    @abstractmethod
    def workspace_candidates(
        self,
        workspace,
        subcircuit: QuantumCircuit,
        circuit: QuantumCircuit,
        context,
        environment: PhysicalEnvironment,
        options: PlacementOptions,
        previous: Optional[Placement],
        evaluator,
    ) -> List[Tuple[Placement, float]]:
        """Scored placements for a workspace with two-qubit interactions."""
