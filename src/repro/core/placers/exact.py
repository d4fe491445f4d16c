"""The exact placement engine (the paper's exhaustive search; default).

Enumerates up to ``options.max_monomorphisms`` monomorphisms of the
workspace's interaction graph into the adjacency graph with the bitset
engine (:mod:`repro.core.monomorphism`), completes each to a full
placement and hill-climb fine tunes the set (:mod:`repro.core.fine_tuning`).
This is the engine behind the paper's results and the default
``placer="exact"``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.fine_tuning import fine_tune_workspace_placement
from repro.core.monomorphism import find_monomorphisms
from repro.core.placement import _complete_placement, _stage_runtime
from repro.core.placers.base import Placement, WorkspacePlacer
from repro.exceptions import PlacementError


class ExactPlacer(WorkspacePlacer):
    """Exhaustive monomorphism enumeration + fine tuning (Section 5)."""

    def workspace_candidates(
        self,
        workspace,
        subcircuit,
        circuit,
        context,
        environment,
        options,
        previous: Optional[Placement],
        evaluator,
    ) -> List[Tuple[Placement, float]]:
        """Distinct fine-tuned placements of the workspace, cheapest first.

        The monomorphisms are enumerated at most once per workspace: the
        lookahead's enumeration, kept on ``context``, serves the
        workspace's own placement one iteration later.  When they place
        every circuit qubit, completion ignores ``previous``, so the
        lookahead's candidates, kept on ``context`` too, serve it whole.
        """
        cached = context.candidates.get(workspace.index)
        if cached is not None:
            return list(cached)
        graph = context.graph
        monomorphisms = context.monomorphisms.get(workspace.index)
        if monomorphisms is None:
            monomorphisms = find_monomorphisms(
                workspace.interaction_graph,
                graph,
                max_count=options.max_monomorphisms,
                host_encoding=context.host_encoding,
            )
            context.monomorphisms[workspace.index] = monomorphisms
        if not monomorphisms:
            raise PlacementError(
                f"workspace {workspace.index} has no monomorphism into the "
                "adjacency graph although extraction admitted it"
            )

        # Completion never depends on a climb, so every start is completed
        # first and the whole set is fine tuned in one call.  Distinct
        # monomorphisms complete to distinct placements, and fine tuning
        # returns each distinct climbed placement once.
        placements = [
            _complete_placement(circuit, mapping, context, previous)
            for mapping in monomorphisms
        ]
        if options.fine_tuning:
            candidates = fine_tune_workspace_placement(
                subcircuit,
                placements,
                environment,
                allowed_nodes=list(graph.nodes()),
                apply_interaction_cap=options.apply_interaction_cap,
                max_rounds=options.fine_tuning_max_rounds,
                evaluator=evaluator,
                full_recompute=options.debug_full_recompute,
            )
        else:
            candidates = [
                (
                    placement,
                    _stage_runtime(
                        subcircuit, placement, environment, options, evaluator
                    ),
                )
                for placement in placements
            ]
        candidates.sort(key=lambda item: item[1])
        if len(monomorphisms[0]) == circuit.num_qubits:
            context.candidates[workspace.index] = candidates
        return candidates
