"""The greedy placement engine: one-shot interaction-weight seeding.

Orders the workspace's interacting qubits highest-degree-first with a
connected frontier (the same ordering heuristic the exact engine's
monomorphism search uses) and assigns each to a physical node greedily:

* preferably a free node adjacent to *every* already-placed interaction
  partner, minimising the interaction-weighted edge delay to them — on
  hosts whose non-adjacent interactions are infinitely slow (the
  synthetic grid/chain architectures) this keeps the seed executable;
* otherwise the free node minimising the interaction-weighted hop
  distance to the placed partners;
* the first qubit (and any later disconnected one) takes the free node
  of highest host degree, keeping the frontier in the well-connected
  middle of the host.

Cost: one pass over the pattern with bitmask adjacency intersections —
no search tree.  If the greedy seed still schedules to an infinite
runtime (adjacency could not be satisfied everywhere), it falls back to
the first monomorphism, which workspace extraction guarantees to exist.

The result is used standalone (``placer="greedy"``: the cheap baseline)
and as the simulated annealer's initial mapping
(:mod:`repro.core.placers.anneal`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Qubit
from repro.core._bitset import iter_bits
from repro.core.monomorphism import _pattern_order, find_monomorphisms
from repro.core.placement import _complete_placement, _stage_runtime
from repro.core.placers.base import Placement, WorkspacePlacer
from repro.exceptions import PlacementError


def _interaction_weights(subcircuit: QuantumCircuit) -> Dict[Tuple[Qubit, Qubit], float]:
    """Total two-qubit gate duration per qubit pair (canonical key order)."""
    weights: Dict[Tuple[Qubit, Qubit], float] = {}
    for gate in subcircuit:
        if not gate.is_two_qubit:
            continue
        a, b = gate.qubits
        key = (a, b) if repr(a) <= repr(b) else (b, a)
        weights[key] = weights.get(key, 0.0) + gate.duration
    return weights


def _pair_weight(
    weights: Dict[Tuple[Qubit, Qubit], float], a: Qubit, b: Qubit
) -> float:
    key = (a, b) if repr(a) <= repr(b) else (b, a)
    return weights.get(key, 1.0)


def _iter_mask_nodes(mask: int, encoding):
    """The host nodes whose bits are set in ``mask``, in index order."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield encoding.nodes[low.bit_length() - 1]


def greedy_seed_mapping(workspace, subcircuit: QuantumCircuit, context) -> Placement:
    """Greedy mapping of the workspace's interacting qubits to host nodes."""
    pattern = workspace.interaction_graph
    graph = context.graph
    encoding = context.host_encoding
    node_order = context.node_order
    weights = _interaction_weights(subcircuit)

    mapping: Placement = {}
    used_mask = 0
    for qubit in _pattern_order(pattern):
        placed = [nb for nb in pattern.neighbors(qubit) if nb in mapping]
        chosen = None
        if placed:
            adjacent_mask = encoding.full_mask & ~used_mask
            for nb in placed:
                adjacent_mask &= encoding.adjacency[encoding.index[mapping[nb]]]
            if adjacent_mask:
                best_key = None
                for node in _iter_mask_nodes(adjacent_mask, encoding):
                    cost = sum(
                        _pair_weight(weights, qubit, nb)
                        * graph[node][mapping[nb]].get("delay", 1.0)
                        for nb in placed
                    )
                    key = (cost, node_order[node])
                    if best_key is None or key < best_key:
                        best_key = key
                        chosen = node
            else:
                # No free node is adjacent to every placed partner; take
                # the free node closest (interaction-weighted hops) to them.
                free_mask = encoding.full_mask & ~used_mask
                distance_maps = [
                    (
                        _pair_weight(weights, qubit, nb),
                        {
                            bit: hops
                            for hops, ring in enumerate(
                                context.rings(encoding.index[mapping[nb]])
                            )
                            for bit in iter_bits(ring & free_mask)
                        },
                    )
                    for nb in placed
                ]
                best_key = None
                for bit in iter_bits(free_mask):
                    cost = sum(
                        weight * distances.get(bit, math.inf)
                        for weight, distances in distance_maps
                    )
                    key = (cost, bit)
                    if best_key is None or key < best_key:
                        best_key = key
                        chosen = encoding.nodes[bit]
        else:
            best_key = None
            free_mask = encoding.full_mask & ~used_mask
            for node in _iter_mask_nodes(free_mask, encoding):
                key = (-encoding.degree[encoding.index[node]], node_order[node])
                if best_key is None or key < best_key:
                    best_key = key
                    chosen = node
        if chosen is None:
            raise PlacementError(
                f"workspace {workspace.index}: ran out of free physical "
                "qubits while greedy-seeding"
            )
        mapping[qubit] = chosen
        used_mask |= 1 << encoding.index[chosen]
    return mapping


def greedy_candidate(
    workspace,
    subcircuit: QuantumCircuit,
    circuit: QuantumCircuit,
    context,
    environment,
    options,
    previous: Optional[Placement],
    evaluator,
) -> Tuple[Placement, float]:
    """The greedy seed completed to a full placement, with its runtime.

    Falls back to the first monomorphism when the greedy seed's schedule
    is infinitely slow (possible on hosts whose non-adjacent pairs have
    infinite delay when the seed could not keep every interaction
    adjacent) — extraction admitted the workspace, so one exists.
    """
    mapping = greedy_seed_mapping(workspace, subcircuit, context)
    placement = _complete_placement(circuit, mapping, context, previous)
    runtime = _stage_runtime(subcircuit, placement, environment, options, evaluator)
    if math.isinf(runtime):
        monomorphisms = find_monomorphisms(
            workspace.interaction_graph,
            context.graph,
            max_count=1,
            host_encoding=context.host_encoding,
        )
        if not monomorphisms:
            raise PlacementError(
                f"workspace {workspace.index} has no monomorphism into the "
                "adjacency graph although extraction admitted it"
            )
        placement = _complete_placement(circuit, monomorphisms[0], context, previous)
        runtime = _stage_runtime(
            subcircuit, placement, environment, options, evaluator
        )
    return placement, runtime


class GreedyPlacer(WorkspacePlacer):
    """One-shot greedy seeding (cheap baseline; the annealer's seed)."""

    provides_multiple_candidates = False

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
        return [
            greedy_candidate(
                workspace, subcircuit, circuit, context, environment, options,
                previous, evaluator,
            )
        ]
