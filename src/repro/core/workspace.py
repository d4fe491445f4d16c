"""Greedy workspace (subcircuit) extraction.

The basic placement stage of the paper's heuristic reads two-qubit gates
from the circuit into a workspace "as long as these gates can be arranged
along the fastest interactions provided by the physical environment"; the
first gate whose addition breaks embeddability closes the workspace and
starts the next one.  Single-qubit gates never break a workspace — they are
always executable wherever their qubit happens to sit.

Workspaces partition the circuit's gate sequence into contiguous slices; the
slices are later placed independently and glued with SWAP stages.

Every new interaction is an embeddability probe.  Extraction carries a
*witness*, a monomorphism of the growing interaction graph given as
qubit -> host bit of the :class:`~repro.core._bitset.HostEncoding` plus the
mask of the bits it uses, and answers a probe without a search when the
new edge extends it.  Only the other probes search, after the size checks
and the bipartite parity refutation, and a found mapping becomes the new
witness.  The witness only ever proves "yes" and every "no" comes from an
exact search, so the workspace boundaries are those of a search per probe.
The interaction graph grows in place; a refused edge is removed again with
any node it added, which keeps the graph's insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, Qubit
from repro.core._bitset import HostEncoding, canonical_order, encode_host, iter_bits
from repro.core.monomorphism import find_monomorphisms
from repro.exceptions import PlacementError

Node = Hashable


@dataclass(frozen=True)
class Workspace:
    """A contiguous slice of the circuit placeable along fast interactions.

    Attributes
    ----------
    index:
        Position of the workspace in the decomposition (0-based).
    start, stop:
        Gate-index range ``[start, stop)`` in the original circuit.
    gates:
        The gates of the slice, in order (single- and two-qubit).
    interaction_graph:
        Interaction graph of the slice's two-qubit gates.
    """

    index: int
    start: int
    stop: int
    gates: Tuple[Gate, ...]
    interaction_graph: nx.Graph

    @property
    def num_gates(self) -> int:
        """Number of gates in the workspace."""
        return len(self.gates)

    @property
    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit gates in the workspace."""
        return sum(1 for gate in self.gates if gate.is_two_qubit)

    @property
    def active_qubits(self) -> Tuple[Qubit, ...]:
        """Qubits participating in at least one two-qubit gate of the slice."""
        return tuple(canonical_order(self.interaction_graph.nodes()))

    def subcircuit(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """The workspace as a standalone circuit over the parent's qubits."""
        return circuit.subcircuit(self.start, self.stop, name=f"{circuit.name}#W{self.index}")


def _extend_witness(
    witness: Dict[Qubit, int],
    used: int,
    a: Qubit,
    b: Qubit,
    host_encoding: HostEncoding,
) -> Optional[int]:
    """Extend ``witness`` by the new edge ``(a, b)`` without moving a qubit.

    ``witness`` maps the interaction graph's qubits to host bits, and
    ``used`` is the mask of those bits.  The edge extends it when both
    endpoints already sit on adjacent bits, when one sits on a bit with a
    free neighbour (the lowest is taken), or when both are new and a free
    host edge exists (the lowest free node with a free neighbour, then
    that neighbour's lowest).  Returns the new ``used`` mask, or ``None``
    (leaving ``witness`` untouched) when the edge does not extend it.
    """
    adjacency = host_encoding.adjacency
    image_a = witness.get(a)
    image_b = witness.get(b)
    if image_a is not None and image_b is not None:
        return used if adjacency[image_a] >> image_b & 1 else None
    if image_a is None and image_b is None:
        free = host_encoding.full_mask & ~used
        for bit in iter_bits(free):
            partners = adjacency[bit] & free
            if partners:
                partner = partners & -partners
                witness[a] = bit
                witness[b] = partner.bit_length() - 1
                return used | 1 << bit | partner
        return None
    if image_a is None:
        a, b, image_a = b, a, image_b
    partners = adjacency[image_a] & ~used
    if not partners:
        return None
    partner = partners & -partners
    witness[b] = partner.bit_length() - 1
    return used | partner


def _first_embedding(
    graph: nx.Graph,
    host: nx.Graph,
    host_encoding: HostEncoding,
    host_bipartite: bool,
) -> Optional[Dict[Qubit, Node]]:
    """The first monomorphism of ``graph`` into ``host``, cheap refutations first.

    The size checks read the encoding: networkx counts a graph's edges by
    summing every node's degree, O(n) per probe on a large host.
    """
    if graph.number_of_nodes() > host_encoding.num_nodes:
        return None
    if graph.number_of_edges() > host_encoding.num_edges:
        return None
    if host_bipartite and not nx.is_bipartite(graph):
        # Subgraphs of a bipartite host are bipartite, so a pattern with an
        # odd cycle can be refuted in O(V+E).  Proving non-embeddability by
        # search instead is the worst case of the enumerator — on a
        # 1024-node grid a refutation can visit an astronomical number of
        # search nodes, and synthetic hosts (grid/chain/ring with even
        # length) are all bipartite.
        return None
    mappings = find_monomorphisms(
        graph, host, max_count=1, host_encoding=host_encoding
    )
    return mappings[0] if mappings else None


def extract_workspaces(
    circuit: QuantumCircuit,
    adjacency_graph: nx.Graph,
    max_two_qubit_gates: Optional[int] = None,
) -> List[Workspace]:
    """Split ``circuit`` into maximal workspaces embeddable in ``adjacency_graph``.

    Parameters
    ----------
    max_two_qubit_gates:
        Optional cap on the number of two-qubit gates per workspace.  The
        paper's strategy is greedy-maximal ("the computational stage is
        formed to be as large as possible"); bounding the workspace size is
        the alternative its conclusions suggest exploring — it trades more
        SWAP stages for smaller, better-optimised computational stages.

    Raises :class:`~repro.exceptions.PlacementError` when even a single
    two-qubit gate cannot be aligned with a fast interaction (i.e. the
    adjacency graph has no edge at all), because then no decomposition
    exists.
    """
    if adjacency_graph.number_of_edges() == 0 and circuit.num_two_qubit_gates > 0:
        raise PlacementError(
            "the adjacency graph allows no interaction at all; "
            "raise the threshold"
        )
    if max_two_qubit_gates is not None and max_two_qubit_gates < 1:
        raise PlacementError("max_two_qubit_gates must be at least 1")

    # One bitset encoding of the host serves every embeddability probe of
    # the greedy scan (one probe per distinct two-qubit interaction).
    host_encoding = encode_host(adjacency_graph)
    host_bipartite = (
        adjacency_graph.number_of_edges() > 0 and nx.is_bipartite(adjacency_graph)
    )

    workspaces: List[Workspace] = []
    current_graph = nx.Graph()
    current_start = 0
    current_two_qubit_count = 0
    index = 0
    # A monomorphism of current_graph (qubit -> host bit) and the mask of
    # the bits it uses.
    witness: Dict[Qubit, int] = {}
    used = 0

    def close(stop: int) -> None:
        nonlocal current_graph, current_start, current_two_qubit_count, index
        nonlocal witness, used
        if stop <= current_start:
            return
        workspaces.append(
            Workspace(
                index=index,
                start=current_start,
                stop=stop,
                gates=tuple(circuit.gates[current_start:stop]),
                interaction_graph=current_graph.copy(),
            )
        )
        index += 1
        current_start = stop
        current_graph = nx.Graph()
        current_two_qubit_count = 0
        witness = {}
        used = 0

    def probe(a: Qubit, b: Qubit) -> bool:
        """Add the edge ``(a, b)`` to ``current_graph`` if the graph still embeds.

        The witness answers "yes" without a search when the edge extends
        it; otherwise an exact search decides, and its mapping becomes the
        new witness.  A refused edge is removed again, with any node it
        added, which restores the graph's insertion order.
        """
        nonlocal witness, used
        added = [qubit for qubit in (a, b) if qubit not in current_graph]
        current_graph.add_edge(a, b)
        grown = _extend_witness(witness, used, a, b, host_encoding)
        if grown is not None:
            used = grown
            return True
        mapping = _first_embedding(
            current_graph, adjacency_graph, host_encoding, host_bipartite
        )
        if mapping is not None:
            witness = {
                qubit: host_encoding.index[node] for qubit, node in mapping.items()
            }
            used = sum(1 << bit for bit in witness.values())
            return True
        current_graph.remove_edge(a, b)
        current_graph.remove_nodes_from(added)
        return False

    gates = circuit.gates
    for position, gate in enumerate(gates):
        if not gate.is_two_qubit:
            continue
        a, b = gate.interaction()
        if (
            max_two_qubit_gates is not None
            and current_two_qubit_count >= max_two_qubit_gates
        ):
            close(position)
        if current_graph.has_edge(a, b) or probe(a, b):
            current_two_qubit_count += 1
            continue
        # The gate breaks embeddability: close the workspace before it.
        close(position)
        if not probe(a, b):
            raise PlacementError(
                f"two-qubit gate {gate!r} cannot be aligned with any fast "
                "interaction of the environment"
            )
        current_two_qubit_count = 1
    close(len(gates))

    if not workspaces:
        # A circuit with no gates (or only gates before the first close) still
        # forms one (possibly empty) workspace so that placement has
        # something to work with.
        workspaces.append(
            Workspace(
                index=0,
                start=0,
                stop=len(gates),
                gates=tuple(gates),
                interaction_graph=nx.Graph(),
            )
        )
    return workspaces


def workspace_boundaries(workspaces: Sequence[Workspace]) -> List[int]:
    """The gate indices at which new workspaces start (excluding index 0)."""
    return [workspace.start for workspace in workspaces[1:]]
