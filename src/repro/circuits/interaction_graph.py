"""Interaction graphs of quantum circuits.

The *interaction graph* of a (sub)circuit has one node per logical qubit and
one edge per unordered qubit pair that some two-qubit gate acts on.  The
placement algorithm asks whether this graph embeds (as a subgraph
monomorphism) into the *adjacency graph* of fast physical interactions: if it
does, every two-qubit gate of the subcircuit can be executed along a fast
interaction without inserting SWAPs.

Graphs are represented as :class:`networkx.Graph` (networkx is imported on
the first call) with edge attributes:

``count``
    How many two-qubit gates use the interaction.
``duration``
    Total relative duration of the gates using the interaction (taking the
    "an interaction need not be used more than three times per two-qubit
    unitary" cap into account is the scheduler's job, not the graph's).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, Qubit

if TYPE_CHECKING:
    import networkx as nx


def interaction_graph(
    circuit_or_gates: "QuantumCircuit | Iterable[Gate]",
    include_isolated_qubits: bool = False,
) -> nx.Graph:
    """Build the interaction graph of a circuit or gate sequence.

    Parameters
    ----------
    circuit_or_gates:
        Either a :class:`QuantumCircuit` or any iterable of gates.
    include_isolated_qubits:
        When a full circuit is given and this flag is set, qubits that never
        take part in a two-qubit gate are still added as isolated nodes.
    """
    import networkx as nx

    graph = nx.Graph()
    if isinstance(circuit_or_gates, QuantumCircuit):
        gates: Iterable[Gate] = circuit_or_gates.gates
        if include_isolated_qubits:
            graph.add_nodes_from(circuit_or_gates.qubits)
    else:
        gates = circuit_or_gates

    for gate in gates:
        pair = gate.interaction()
        if pair is None:
            continue
        a, b = pair
        if graph.has_edge(a, b):
            graph[a][b]["count"] += 1
            graph[a][b]["duration"] += gate.duration
        else:
            graph.add_edge(a, b, count=1, duration=gate.duration)
    return graph


def gates_embed(
    gates: Iterable[Gate],
    adjacency_graph: nx.Graph,
) -> bool:
    """Cheap necessary check that a gate set *could* embed into ``adjacency_graph``.

    The exact test is a subgraph monomorphism search
    (:mod:`repro.core.monomorphism`).  This function only performs the fast
    necessary conditions used to prune hopeless workspaces early:

    * no more interaction-graph nodes than adjacency-graph nodes,
    * no more interaction-graph edges than adjacency-graph edges,
    * the sorted degree sequence of the interaction graph is dominated by
      that of the adjacency graph.
    """
    pattern = interaction_graph(gates)
    if pattern.number_of_nodes() > adjacency_graph.number_of_nodes():
        return False
    if pattern.number_of_edges() > adjacency_graph.number_of_edges():
        return False
    pattern_degrees = sorted((d for _, d in pattern.degree()), reverse=True)
    host_degrees = sorted((d for _, d in adjacency_graph.degree()), reverse=True)
    for p_deg, h_deg in zip(pattern_degrees, host_degrees):
        if p_deg > h_deg:
            return False
    return True


def interaction_pairs(gates: Iterable[Gate]) -> List[Tuple[Qubit, Qubit]]:
    """Distinct unordered interaction pairs of a gate sequence, in first-use order."""
    seen = set()
    pairs: List[Tuple[Qubit, Qubit]] = []
    for gate in gates:
        pair = gate.interaction()
        if pair is not None and pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs


def is_line_graph_circuit(circuit: QuantumCircuit) -> bool:
    """``True`` when the circuit's interaction graph is a simple path.

    Such circuits fit the linear-nearest-neighbour architecture directly;
    the paper notes that realistic NMR circuits usually do *not* have this
    property (e.g. the QFT interaction graph is complete).
    """
    import networkx as nx

    graph = interaction_graph(circuit)
    if graph.number_of_nodes() == 0:
        return True
    if not nx.is_connected(graph):
        return False
    degrees = [d for _, d in graph.degree()]
    return max(degrees) <= 2 and degrees.count(1) == (2 if len(degrees) > 1 else 0)


def densest_interaction(circuit: QuantumCircuit) -> Optional[Tuple[Qubit, Qubit]]:
    """The interaction pair used by the most two-qubit gates (ties broken arbitrarily)."""
    counts = circuit.interaction_counts()
    if not counts:
        return None
    return max(counts, key=counts.get)
