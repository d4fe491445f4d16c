"""Permutations of qubit values over physical nodes.

Between two consecutive subcircuits the placer must move every logical
qubit's value from its old physical node (placement ``P_i``) to its new one
(placement ``P_{i+1}``).  That movement is a *partial permutation* of the
physical nodes: nodes holding a logical qubit have a definite destination,
nodes holding no logical qubit ("don't-care" tokens) may end up anywhere.

:class:`Permutation` stores the full (completed) permutation; helpers build
the partial requirement from two placements and complete it over a given
adjacency graph while keeping don't-care tokens as close to home as possible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core._bitset import adjacency_masks, bfs_rings, node_index_table
from repro.exceptions import RoutingError

if TYPE_CHECKING:
    from repro.core.graph import AnyGraph

Node = Hashable


class Permutation:
    """A bijection of a finite node set onto itself.

    ``mapping[v]`` is the node where the token currently sitting on ``v``
    must end up.
    """

    def __init__(self, mapping: Mapping[Node, Node]) -> None:
        sources = set(mapping.keys())
        targets = set(mapping.values())
        if sources != targets:
            raise RoutingError(
                "permutation must be a bijection of its node set onto itself; "
                f"sources {sorted(map(repr, sources - targets))} and targets "
                f"{sorted(map(repr, targets - sources))} do not match"
            )
        self._mapping: Dict[Node, Node] = dict(mapping)

    # -- construction ----------------------------------------------------------

    @classmethod
    def identity(cls, nodes: Iterable[Node]) -> "Permutation":
        """The identity permutation on ``nodes``."""
        return cls({node: node for node in nodes})

    @classmethod
    def from_cycle(cls, cycle: Sequence[Node], nodes: Iterable[Node]) -> "Permutation":
        """A single cycle ``cycle[0] -> cycle[1] -> ... -> cycle[0]`` over ``nodes``."""
        mapping = {node: node for node in nodes}
        for index, node in enumerate(cycle):
            mapping[node] = cycle[(index + 1) % len(cycle)]
        return cls(mapping)

    # -- queries ----------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[Node, ...]:
        """The node set, in insertion order."""
        return tuple(self._mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    def __getitem__(self, node: Node) -> Node:
        return self._mapping[node]

    def __contains__(self, node: Node) -> bool:
        return node in self._mapping

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._mapping == other._mapping

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        moved = {s: t for s, t in self._mapping.items() if s != t}
        return f"Permutation({moved!r})"

    def as_dict(self) -> Dict[Node, Node]:
        """A copy of the underlying mapping."""
        return dict(self._mapping)

    def is_identity(self) -> bool:
        """Whether every token already sits at its destination."""
        return all(source == target for source, target in self._mapping.items())

    def displaced_nodes(self) -> List[Node]:
        """Nodes whose token must move."""
        return [source for source, target in self._mapping.items() if source != target]

    def cycles(self, include_fixed_points: bool = False) -> List[List[Node]]:
        """Cycle decomposition of the permutation."""
        seen = set()
        cycles: List[List[Node]] = []
        for start in self._mapping:
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            current = self._mapping[start]
            while current != start:
                cycle.append(current)
                seen.add(current)
                current = self._mapping[current]
            if len(cycle) > 1 or include_fixed_points:
                cycles.append(cycle)
        return cycles

    def num_non_fixed(self) -> int:
        """Number of displaced tokens."""
        return len(self.displaced_nodes())

    # -- algebra -----------------------------------------------------------------

    def inverse(self) -> "Permutation":
        """The inverse permutation."""
        return Permutation({target: source for source, target in self._mapping.items()})

    def compose(self, other: "Permutation") -> "Permutation":
        """The permutation "apply ``self`` first, then ``other``"."""
        if set(self._mapping) != set(other._mapping):
            raise RoutingError("cannot compose permutations over different node sets")
        return Permutation(
            {node: other[self[node]] for node in self._mapping}
        )

    def apply_to_assignment(self, assignment: Mapping[Hashable, Node]) -> Dict[Hashable, Node]:
        """Push an assignment ``key -> node`` through the permutation.

        If a logical qubit sits on node ``v`` before routing, it sits on
        ``self[v]`` after routing.
        """
        return {key: self._mapping.get(node, node) for key, node in assignment.items()}


def required_permutation(
    placement_from: Mapping[Hashable, Node],
    placement_to: Mapping[Hashable, Node],
) -> Dict[Node, Node]:
    """The partial node permutation turning one placement into another.

    For every logical qubit ``q`` placed at ``placement_from[q]`` and wanted
    at ``placement_to[q]``, the token at the former node must be delivered to
    the latter node.  Qubits present in only one of the two placements are
    ignored (their value is not live across the boundary).
    """
    partial: Dict[Node, Node] = {}
    for qubit, source in placement_from.items():
        if qubit not in placement_to:
            continue
        target = placement_to[qubit]
        if source in partial and partial[source] != target:
            raise RoutingError(
                f"conflicting destinations for the token at {source!r}"
            )
        partial[source] = target
    targets = list(partial.values())
    if len(set(targets)) != len(targets):
        raise RoutingError("two tokens require the same destination node")
    return partial


def complete_partial_permutation(
    graph: AnyGraph,
    partial: Mapping[Node, Node],
) -> Permutation:
    """Extend a partial node permutation to a full one over ``graph``'s nodes.

    Don't-care tokens (tokens on nodes without an entry in ``partial``) are
    assigned to the remaining free destination nodes.  The completion keeps a
    don't-care token in place whenever its own node is free, and otherwise
    sends it to the nearest free node (by unweighted graph distance, ties to
    the first in node order; a token with no free node in reach takes the
    first free node), which keeps the extra routing work small.
    """
    nodes = list(graph.nodes())
    node_set = set(nodes)
    for source, target in partial.items():
        if source not in node_set or target not in node_set:
            raise RoutingError(
                f"partial permutation references node(s) outside the graph: "
                f"{source!r} -> {target!r}"
            )

    mapping: Dict[Node, Node] = dict(partial)
    used_targets = set(mapping.values())
    free_targets = [node for node in nodes if node not in used_targets]
    unassigned_sources = [node for node in nodes if node not in mapping]

    # First pass: keep don't-care tokens in place when possible.
    remaining_sources = []
    free_target_set = set(free_targets)
    for source in unassigned_sources:
        if source in free_target_set:
            mapping[source] = source
            free_target_set.remove(source)
        else:
            remaining_sources.append(source)

    # Second pass: the lowest free bit of the first BFS ring around the
    # source (over one neighbour mask per node, in node order) that has one.
    if remaining_sources:
        index = node_index_table(nodes)
        order = list(index)
        adjacency = adjacency_masks(graph, index)
        free = sum(1 << index[node] for node in free_target_set)
        for source in remaining_sources:
            nearest = next(
                (ring & free for ring in bfs_rings(adjacency, index[source]) if ring & free),
                free,
            )
            target = nearest & -nearest
            mapping[source] = order[target.bit_length() - 1]
            free ^= target

    return Permutation(mapping)


def permutation_between_placements(
    graph: AnyGraph,
    placement_from: Mapping[Hashable, Node],
    placement_to: Mapping[Hashable, Node],
) -> Permutation:
    """Full permutation over ``graph`` realising ``placement_from -> placement_to``."""
    return complete_partial_permutation(
        graph, required_permutation(placement_from, placement_to)
    )
