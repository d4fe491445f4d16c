"""The quantum circuit placer (Section 5 of the paper).

:func:`place_circuit` runs the full heuristic:

1. extract the adjacency graph of fast interactions at the chosen threshold;
2. greedily split the circuit into maximal workspaces embeddable in that
   graph (:mod:`repro.core.workspace`);
3. for each workspace, ask the configured placement engine
   (``options.placer``, a :data:`repro.registry.PLACERS` spec) for scored
   candidate placements — the default ``exact`` engine enumerates up to
   ``k`` monomorphisms of the workspace's interaction graph into the
   adjacency graph, completes each to a full placement and fine tunes it by
   hill climbing — and pick the best according to the scheduled runtime
   plus (estimated) swap cost, optionally with the depth-2 lookahead of
   Section 5.3;
4. connect consecutive workspaces with SWAP stages built by the recursive
   bubble router (:mod:`repro.routing.bubble`);
5. assemble the whole computation ``C1 E12 C2 E23 ... Ct`` over physical
   nodes and report its scheduled runtime.

Steps 1, 2, 4 and 5 are engine-independent and the only steps this module
implements: :func:`run_pipeline` runs them and asks a
:class:`~repro.core.placers.base.WorkspacePlacer` for step 3's candidates,
so the heuristic engines (:mod:`repro.core.placers.greedy`,
:mod:`repro.core.placers.anneal`) emit exactly the result types and swap
stages the exact engine (:mod:`repro.core.placers.exact`) does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Qubit
from repro.core._bitset import HostEncoding, NeighbourTable, bfs_rings, encode_host
from repro.core.config import DEFAULT_OPTIONS, PlacementOptions
from repro.core.graph import Graph
from repro.core.result import PlacementResult, StagePlacement, SwapStage
from repro.core.workspace import extract_workspaces
from repro.exceptions import PlacementError, ThresholdError
from repro.hardware.environment import Node, PhysicalEnvironment
from repro.registry import PLACERS
from repro.routing.bubble import RoutingResult, route_permutation
from repro.routing.permutation import required_permutation
from repro.routing.swap_circuit import swap_stage_circuit, swap_stage_runtime
from repro.timing.scheduler import (
    RuntimeEvaluator,
    circuit_runtime,
    sequential_level_runtime,
)

Placement = Dict[Qubit, Node]


class _GraphContext:
    """Shared integer-indexed lookups for one working graph.

    Built once per :func:`place_circuit` run and threaded through the
    helpers so that the hot loops never sort nodes by ``repr`` or launch a
    breadth-first search over the graph: the host encoding's node index
    replaces every ``sorted(..., key=repr)`` tie-break, hop distances come
    from per-source BFS rings over its neighbour masks, computed at most
    once per source, each workspace's monomorphisms are enumerated at
    most once (the lookahead's enumeration serves the workspace's own
    placement one iteration later), so are the candidates of a workspace
    whose monomorphisms place every circuit qubit, and the annealer's
    neighbour table is built at most once.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.host_encoding: HostEncoding = encode_host(graph)
        self.node_order: Dict[Node, int] = self.host_encoding.index
        self.monomorphisms: Dict[int, List[Dict[Qubit, Node]]] = {}
        self.candidates: Dict[int, List[Tuple[Placement, float]]] = {}
        self._rings: Dict[int, List[int]] = {}
        self._neighbour_table: Optional[NeighbourTable] = None

    @property
    def neighbour_table(self) -> NeighbourTable:
        """The graph's :class:`~repro.core._bitset.NeighbourTable`, built on first use."""
        if self._neighbour_table is None:
            self._neighbour_table = NeighbourTable(
                self.host_encoding, self.graph.nodes()
            )
        return self._neighbour_table

    def rings(self, source: int) -> List[int]:
        """:func:`~repro.core._bitset.bfs_rings` around bit ``source``, cached per source."""
        rings = self._rings.get(source)
        if rings is None:
            rings = self._rings[source] = list(
                bfs_rings(self.host_encoding.adjacency, source)
            )
        return rings


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------


def _working_graph(
    circuit: QuantumCircuit,
    environment: PhysicalEnvironment,
    options: PlacementOptions,
    threshold: float,
) -> Graph:
    """Adjacency graph (or its largest component) the placer works inside."""
    adjacency = environment.threshold_graph(threshold)
    if adjacency.number_of_edges() == 0 and circuit.num_two_qubit_gates > 0:
        raise ThresholdError(
            f"threshold {threshold:g} disallows every interaction of "
            f"{environment.name!r}; the circuit cannot be executed (N/A)"
        )
    if circuit.num_qubits > environment.num_qubits:
        raise PlacementError(
            f"circuit {circuit.name!r} needs {circuit.num_qubits} qubits but "
            f"{environment.name!r} only provides {environment.num_qubits}"
        )
    if environment.is_connected_at(threshold):
        return adjacency
    if not options.restrict_to_largest_component:
        return adjacency
    largest = environment.threshold_component(threshold)
    if largest.number_of_nodes() < circuit.num_qubits:
        raise ThresholdError(
            f"threshold {threshold:g} leaves only {largest.number_of_nodes()} connected "
            f"physical qubits on {environment.name!r}, fewer than the "
            f"{circuit.num_qubits} the circuit needs (N/A)"
        )
    return largest


def _median_edge_delay(graph: Graph) -> float:
    delays = sorted(data.get("delay", 1.0) for _, _, data in graph.edges(data=True))
    if not delays:
        return 1.0
    middle = len(delays) // 2
    if len(delays) % 2:
        return delays[middle]
    return (delays[middle - 1] + delays[middle]) / 2.0


def _complete_placement(
    circuit: QuantumCircuit,
    partial: Placement,
    context: _GraphContext,
    previous: Optional[Placement],
) -> Placement:
    """Extend a monomorphism over the active qubits to all circuit qubits.

    Inactive qubits prefer to stay where the previous stage left them (when
    that node is still free), then take the free node closest to their old
    position (the lowest free bit of the first BFS ring that has one), and
    finally the lowest free bit, i.e. any free node in node order.
    """
    placement: Placement = dict(partial)
    unplaced = [q for q in circuit.qubits if q not in placement]
    if not unplaced:
        return placement
    encoding = context.host_encoding
    index = encoding.index
    free = encoding.full_mask
    for node in placement.values():
        free &= ~(1 << index[node])

    remaining: List[Qubit] = []
    if previous is not None:
        for qubit in unplaced:
            old_bit = index.get(previous.get(qubit))
            if old_bit is not None and free >> old_bit & 1:
                placement[qubit] = previous[qubit]
                free ^= 1 << old_bit
            else:
                remaining.append(qubit)
    else:
        remaining = unplaced

    for qubit in remaining:
        if not free:
            raise PlacementError(
                "ran out of physical qubits while completing a placement"
            )
        nearest = free
        old_bit = index.get(previous.get(qubit)) if previous is not None else None
        if old_bit is not None:
            for ring in context.rings(old_bit):
                if ring & free:
                    nearest = ring & free
                    break
        target = nearest & -nearest
        placement[qubit] = encoding.nodes[target.bit_length() - 1]
        free ^= target
    return placement


def _stage_runtime(
    subcircuit: QuantumCircuit,
    placement: Placement,
    environment: PhysicalEnvironment,
    options: PlacementOptions,
    evaluator: Optional[RuntimeEvaluator] = None,
) -> float:
    if options.sequential_levels:
        return sequential_level_runtime(subcircuit, placement, environment, validate=False)
    if evaluator is not None:
        return evaluator.runtime(placement)
    return circuit_runtime(
        subcircuit,
        placement,
        environment,
        apply_interaction_cap=options.apply_interaction_cap,
        validate=False,
    )


def _estimate_swap_cost(
    previous: Placement,
    candidate: Placement,
    context: _GraphContext,
    median_delay: float,
) -> float:
    """Cheap estimate of the swap-stage runtime between two placements.

    Uses hop distances in the adjacency graph: the stage's depth is at least
    the largest displacement and its work at least the total displacement;
    each layer costs about one SWAP, i.e. three times a typical edge delay.
    """
    index = context.node_order
    rings = context.rings
    max_hops = 0
    total_hops = 0
    for qubit, new_node in candidate.items():
        old_node = previous.get(qubit)
        if old_node is None or old_node == new_node:
            continue
        # The hop distance is the index of the first ring holding the bit.
        target = 1 << index[new_node]
        for hops, ring in enumerate(rings(index[old_node])):
            if ring & target:
                break
        else:  # another component of a disconnected working graph
            return float("inf")
        if hops > max_hops:
            max_hops = hops
        total_hops += hops
    if total_hops == 0:
        return 0.0
    estimated_depth = max_hops + 0.5 * (total_hops - max_hops) / max(
        1, len(index)
    )
    return 3.0 * median_delay * estimated_depth


def _build_swap_stage(
    index: int,
    previous: Placement,
    target: Placement,
    context: _GraphContext,
    environment: PhysicalEnvironment,
    options: PlacementOptions,
) -> SwapStage:
    partial = required_permutation(previous, target)
    routing = route_permutation(
        context.graph,
        partial,
        leaf_override=options.leaf_override,
        host_encoding=context.host_encoding,
    )
    runtime = swap_stage_runtime(
        routing.layers, environment, sequential_levels=options.sequential_levels
    )
    return SwapStage(index=index, routing=routing, runtime=runtime)


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


def place_circuit(
    circuit: QuantumCircuit,
    environment: PhysicalEnvironment,
    options: Optional[PlacementOptions] = None,
) -> PlacementResult:
    """Place ``circuit`` into ``environment`` with the configured engine.

    The one entry point of the placer: builds the engine that
    ``options.placer`` names in the :data:`repro.registry.PLACERS`
    registry (the default ``"exact"`` is the paper's exhaustive
    heuristic) and runs :func:`run_pipeline` with it.
    """
    options = options or DEFAULT_OPTIONS
    return run_pipeline(circuit, environment, options, PLACERS.build(options.placer))


def run_pipeline(
    circuit: QuantumCircuit,
    environment: PhysicalEnvironment,
    options: PlacementOptions,
    placer,
) -> PlacementResult:
    """The engine-independent placement pipeline.

    Runs threshold/graph resolution, workspace extraction, candidate
    selection (``placer``, a
    :class:`~repro.core.placers.base.WorkspacePlacer`, supplies each
    workspace's candidates), swap-stage routing and final assembly.
    :func:`place_circuit` is the spec-string front end.
    """
    if options.reorder_commuting_gates:
        from repro.circuits.commutation import commutation_aware_reorder

        circuit = commutation_aware_reorder(circuit)
    threshold = (
        options.threshold
        if options.threshold is not None
        else environment.minimal_connecting_threshold()
    )
    graph = _working_graph(circuit, environment, options, threshold)
    if circuit.num_qubits > graph.number_of_nodes():
        raise ThresholdError(
            f"threshold {threshold:g} leaves only {graph.number_of_nodes()} usable "
            f"physical qubits on {environment.name!r}, fewer than the "
            f"{circuit.num_qubits} the circuit needs (N/A)"
        )
    median_delay = _median_edge_delay(graph)
    context = _GraphContext(graph)

    workspaces = extract_workspaces(
        circuit, graph, max_two_qubit_gates=options.max_workspace_two_qubit_gates
    )
    subcircuits = [ws.subcircuit(circuit) for ws in workspaces]

    # One compiled runtime evaluator per workspace, shared by every candidate
    # monomorphism of that workspace (and by the lookahead, which scores the
    # next workspace's candidates one iteration early).
    evaluators: List[Optional[RuntimeEvaluator]] = [None] * len(workspaces)

    def evaluator_for(index: int) -> Optional[RuntimeEvaluator]:
        if options.sequential_levels:
            return None
        if evaluators[index] is None:
            evaluators[index] = RuntimeEvaluator(
                subcircuits[index],
                environment,
                apply_interaction_cap=options.apply_interaction_cap,
                full_recompute=options.debug_full_recompute,
            )
        return evaluators[index]

    stages: List[StagePlacement] = []
    swap_stages: List[SwapStage] = []
    previous_placement: Optional[Placement] = None

    for index, workspace in enumerate(workspaces):
        subcircuit = subcircuits[index]
        candidates = placer.candidates(
            workspace, subcircuit, circuit, context, environment, options,
            previous_placement, evaluator_for(index),
        )

        # The depth-2 lookahead scores each candidate together with the best
        # follow-up for the next workspace.  The next workspace's candidate
        # monomorphisms do not depend on the choice made here (the paper's
        # "only 2k monomorphism calls" observation), so one shared list is
        # enough for scoring; the accepted next-stage placement is recomputed
        # with the proper previous placement on the next loop iteration,
        # which completes and fine tunes the monomorphisms the context kept.
        # Single-candidate engines (greedy, anneal) skip the lookahead: with
        # one candidate per workspace there is nothing to rank, and the
        # extra engine run would double their cost for an identical choice.
        lookahead_candidates: Optional[List[Tuple[Placement, float]]] = None
        if (
            options.lookahead
            and placer.provides_multiple_candidates
            and index + 1 < len(workspaces)
        ):
            lookahead_candidates = placer.candidates(
                workspaces[index + 1],
                subcircuits[index + 1],
                circuit,
                context,
                environment,
                options,
                None,
                evaluator_for(index + 1),
            )

        chosen = _select_candidate(
            candidates,
            lookahead_candidates,
            previous_placement,
            context,
            median_delay,
            options,
        )
        if chosen is None:
            raise PlacementError(
                f"workspace {index} has no placement reachable by SWAPs at "
                f"threshold {threshold:g} on {environment.name!r}: every candidate "
                "moves a qubit between disconnected components of the adjacency "
                "graph (the default restrict_to_largest_component=True avoids this)"
            )
        best_placement, best_runtime = chosen

        if previous_placement is not None:
            swap_stage = _build_swap_stage(
                index - 1, previous_placement, best_placement, context,
                environment, options,
            )
            swap_stages.append(swap_stage)

        stages.append(
            StagePlacement(
                index=index,
                start=workspace.start,
                stop=workspace.stop,
                placement=dict(best_placement),
                runtime=_stage_runtime(
                    subcircuit, best_placement, environment, options,
                    evaluator_for(index),
                ),
            )
        )
        previous_placement = best_placement

    physical_circuit = _assemble_physical_circuit(
        circuit, environment, stages, swap_stages, subcircuits
    )
    identity = {node: node for node in environment.nodes}
    if options.sequential_levels:
        total_runtime = sequential_level_runtime(
            physical_circuit, identity, environment, validate=False
        )
    else:
        total_runtime = circuit_runtime(
            physical_circuit,
            identity,
            environment,
            apply_interaction_cap=options.apply_interaction_cap,
            validate=False,
        )

    return PlacementResult(
        circuit_name=circuit.name,
        environment_name=environment.name,
        threshold=threshold,
        stages=stages,
        swap_stages=swap_stages,
        physical_circuit=physical_circuit,
        total_runtime=total_runtime,
        time_unit_seconds=environment.time_unit_seconds,
        placement_nodes=tuple(graph.nodes()),
    )


def _select_candidate(
    candidates: List[Tuple[Placement, float]],
    lookahead_candidates: Optional[List[Tuple[Placement, float]]],
    previous: Optional[Placement],
    context: _GraphContext,
    median_delay: float,
    options: PlacementOptions,
) -> Optional[Tuple[Placement, float]]:
    """Pick the cheapest candidate, optionally looking one stage ahead.

    Returns ``None`` when every candidate scores infinite, which happens
    when each one would move a qubit to another component of a
    disconnected working graph.
    """
    width = options.lookahead_width
    shortlist = candidates[:width] if lookahead_candidates is not None else candidates
    best: Optional[Tuple[Placement, float]] = None
    best_score = float("inf")
    for placement, runtime in shortlist:
        score = runtime
        if previous is not None:
            score += _estimate_swap_cost(previous, placement, context, median_delay)
        if lookahead_candidates is not None:
            next_best = float("inf")
            for next_placement, next_runtime in lookahead_candidates[:width]:
                next_score = next_runtime + _estimate_swap_cost(
                    placement, next_placement, context, median_delay
                )
                next_best = min(next_best, next_score)
            if next_best < float("inf"):
                score += next_best
        if score < best_score:
            best_score = score
            best = (placement, runtime)
    return best


def _assemble_physical_circuit(
    circuit: QuantumCircuit,
    environment: PhysicalEnvironment,
    stages: Sequence[StagePlacement],
    swap_stages: Sequence[SwapStage],
    subcircuits: Sequence[QuantumCircuit],
) -> QuantumCircuit:
    """Build the full computation ``C1 E12 C2 ... Ct`` over physical nodes."""
    physical = QuantumCircuit(
        environment.nodes, name=f"{circuit.name}@{environment.name}"
    )
    for index, stage in enumerate(stages):
        mapping = stage.placement
        for gate in subcircuits[index]:
            physical.append(gate.remap(mapping))
        if index < len(swap_stages):
            swap_circuit = swap_stage_circuit(
                swap_stages[index].routing.layers, environment.nodes
            )
            physical.extend(swap_circuit.gates)
    return physical
