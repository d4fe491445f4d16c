"""Recursive "water and air" SWAP routing (Section 5.2 of the paper).

Given an adjacency graph of fast interactions and a permutation of the
values stored on its nodes, build a circuit of SWAP *layers* (sets of
non-intersecting SWAPs, executable in parallel) that realises the
permutation.

The algorithm follows the paper:

1. Cut the graph into two connected, size-balanced subgraphs ``G1``/``G2``
   (:func:`repro.routing.separators.bisect_mask`, the mask form of
   :func:`~repro.routing.separators.balanced_connected_bisection`).
2. Colour every token by the side its destination lies on, then move every
   token to its side: inside each side, tokens of the wrong colour "bubble"
   towards the root of a spanning tree rooted at the communication channel;
   the channel edge exchanges a wrong token of ``G1`` with a wrong token of
   ``G2`` whenever both roots hold one.  Each round of swaps forms one
   parallel layer.
3. Recurse independently on the two sides; their layers are merged
   position-wise because they act on disjoint nodes.

The implementation keeps the paper's practical relaxation ("in our
implementation we do not block the communication channel"), and adds the
*leaf–target value override* heuristic as an optional pre-pass: whenever a
leaf's desired final value sits on its only neighbour, swap it in and freeze
the leaf, shrinking the instance (the paper reports a 0–5% depth reduction).

The routine is fully deterministic and always terminates: every emitted swap
strictly decreases the potential "sum over wrong-side tokens of (tree depth
+ 1)", and the recursion only receives instances whose tokens already live
on the correct side.

Determinism contract
--------------------

``route_permutation`` numbers the graph's nodes with a
:class:`repro.core._bitset.HostEncoding`, its caller's or one it builds (the
:func:`repro.core._bitset.node_index_table` order, one neighbour bitmask
per node).  Below that entry point every step — the reachability check, the
leaf pre-pass, the component split, the recursive bisection and the per-side
BFS trees — works on int masks and index arrays, and every choice (traversal
order, channel edge, leaf order) is an index comparison, so the emitted
layers are byte-identical across interpreter processes and
``PYTHONHASHSEED`` values.  No set, subgraph copy or subgraph view is ever
iterated below the entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Mapping, Optional, Sequence, Set, Tuple, Union

import networkx as nx

from repro.core._bitset import HostEncoding, iter_bits
from repro.exceptions import RoutingError
from repro.routing.permutation import (
    Permutation,
    complete_partial_permutation,
    required_permutation,
)
from repro.routing.separators import (
    bfs_parents,
    bisect_mask,
    component_masks,
    crossing_edges,
)

Node = Hashable
Swap = Tuple[Node, Node]
Layer = List[Swap]


@dataclass
class RoutingResult:
    """Outcome of routing one permutation.

    Attributes
    ----------
    layers:
        Parallel SWAP layers, in execution order.  Every swap is an edge of
        the adjacency graph; swaps within one layer touch disjoint nodes.
    permutation:
        The full permutation that was realised (after completion of
        don't-care tokens).
    """

    layers: List[Layer]
    permutation: Permutation

    @property
    def depth(self) -> int:
        """Number of SWAP layers."""
        return len(self.layers)

    @property
    def num_swaps(self) -> int:
        """Total number of SWAP gates."""
        return sum(len(layer) for layer in self.layers)


def _as_full_permutation(
    graph: nx.Graph,
    permutation: Union[Permutation, Mapping[Node, Node]],
) -> Permutation:
    """Normalise the input to a full permutation over the graph's nodes."""
    if isinstance(permutation, Permutation):
        if set(permutation.nodes) == set(graph.nodes()):
            return permutation
        return complete_partial_permutation(graph, permutation.as_dict())
    return complete_partial_permutation(graph, dict(permutation))


def _verify_layers(graph: nx.Graph, layers: Sequence[Layer]) -> None:
    """Internal consistency check: swaps are graph edges and layer-disjoint."""
    for layer in layers:
        used: Set[Node] = set()
        for a, b in layer:
            if not graph.has_edge(a, b):
                raise RoutingError(f"swap ({a!r}, {b!r}) is not an edge of the graph")
            if a in used or b in used:
                raise RoutingError(f"layer reuses node in swap ({a!r}, {b!r})")
            used.update((a, b))


def route_permutation(
    graph: nx.Graph,
    permutation: Union[Permutation, Mapping[Node, Node]],
    leaf_override: bool = True,
    validate: bool = True,
    host_encoding: Optional[HostEncoding] = None,
) -> RoutingResult:
    """Realise a (possibly partial) node permutation as parallel SWAP layers.

    Parameters
    ----------
    graph:
        The adjacency graph of fast interactions.  Swaps are only placed on
        its edges.  The graph may be disconnected as long as every token's
        destination lies in its own component.
    permutation:
        Either a full :class:`~repro.routing.permutation.Permutation` over
        the graph's nodes, or a partial mapping ``source node -> destination
        node``; the partial form is completed with don't-care tokens staying
        as close to home as possible.
    leaf_override:
        Enable the leaf–target value override pre-pass.
    validate:
        Run internal consistency checks on the produced layers (cheap; keep
        on unless routing is in a tight inner loop).
    host_encoding:
        Optional precomputed :class:`~repro.core._bitset.HostEncoding` of
        ``graph``; the placer passes its working graph's encoding so that
        no swap stage re-encodes the graph.
    """
    if graph.number_of_nodes() == 0:
        return RoutingResult([], Permutation({}))

    full = _as_full_permutation(graph, permutation)
    encoding = host_encoding if host_encoding is not None else HostEncoding(graph)
    index = encoding.index
    # target[i]: index of the node the token now on node i must reach.
    target = [index[full[node]] for node in encoding.nodes]

    components = component_masks(encoding.adjacency, encoding.full_mask)
    if len(components) > 1:
        label = {
            node: number
            for number, component in enumerate(components)
            for node in iter_bits(component)
        }
        for source, destination in full.as_dict().items():
            if label[index[source]] != label[index[destination]]:
                raise RoutingError(
                    f"token at {source!r} cannot reach {destination!r}: "
                    "no path in the adjacency graph"
                )

    layers: List[Layer] = []
    active = encoding.full_mask
    if leaf_override:
        loops = sum(
            1 << index[node] for node, neighbours in graph.adj.items() if node in neighbours
        )
        active = _leaf_override_pass(encoding, loops, target, layers)

    component_layers: List[Layer] = []
    for component in component_masks(encoding.adjacency, active):
        routed = _route_component(encoding, component, target)
        # Distinct components act on disjoint nodes, so their layer
        # sequences can run in parallel.
        component_layers = _merge_layer_sequences(component_layers, routed)
    layers.extend(component_layers)

    if validate:
        _verify_layers(graph, layers)
        remaining = [
            encoding.nodes[node] for node, goal in enumerate(target) if goal != node
        ]
        if remaining:
            raise RoutingError(
                f"routing failed to deliver tokens on nodes {sorted(map(repr, remaining))}"
            )
    return RoutingResult(layers, full)


def _merge_layer_sequences(first: List[Layer], second: List[Layer]) -> List[Layer]:
    """Merge two layer sequences position-wise (they act on disjoint nodes)."""
    merged: List[Layer] = []
    for index in range(max(len(first), len(second))):
        layer: Layer = []
        if index < len(first):
            layer.extend(first[index])
        if index < len(second):
            layer.extend(second[index])
        merged.append(layer)
    return merged


def _leaf_override_pass(
    encoding: HostEncoding, loops: int, target: List[int], layers: List[Layer]
) -> int:
    """The leaf–target value override heuristic; returns the unfrozen mask.

    Repeatedly: freeze every leaf that already holds its destination value;
    and whenever a leaf's destination value sits on the leaf's unique active
    neighbour, swap it in (one layer can serve many leaves in parallel) and
    freeze the leaf.  Frozen leaves are excluded from the rest of the
    routing, shrinking the instance.  A node with a self-loop is never a
    leaf: like networkx's ``degree``, the loop counts twice.
    """
    adjacency, nodes = encoding.adjacency, encoding.nodes
    active = encoding.full_mask
    while True:
        leaves = [
            node
            for node in iter_bits(active & ~loops)
            if (adjacency[node] & active).bit_count() == 1
        ]
        settled = 0
        for leaf in leaves:
            if target[leaf] == leaf:
                settled |= 1 << leaf
        if settled:
            active &= ~settled
            continue

        layer: Layer = []
        used = swapped = 0
        for leaf in leaves:
            neighbour_bit = adjacency[leaf] & active
            if used & (1 << leaf | neighbour_bit):
                continue
            neighbour = neighbour_bit.bit_length() - 1
            if target[neighbour] == leaf:
                layer.append((nodes[leaf], nodes[neighbour]))
                target[leaf], target[neighbour] = leaf, target[leaf]
                used |= 1 << leaf | neighbour_bit
                swapped |= 1 << leaf
        if not layer:
            return active
        layers.append(layer)
        active &= ~swapped


def _route_component(
    encoding: HostEncoding, members: int, target: List[int]
) -> List[Layer]:
    """Recursive routing of a connected component (tokens stay inside it)."""
    n = members.bit_count()
    if n <= 1:
        return []
    if all(target[node] == node for node in iter_bits(members)):
        return []
    if n == 2:
        a = (members & -members).bit_length() - 1
        b = members.bit_length() - 1
        if target[a] == b:
            target[a], target[b] = target[b], target[a]
            return [[(encoding.nodes[a], encoding.nodes[b])]]
        return []

    one, two = bisect_mask(encoding.adjacency, members)
    separation_layers = _separate_sides(encoding, one, two, target)
    layers_one = _route_component(encoding, one, target)
    layers_two = _route_component(encoding, two, target)
    return separation_layers + _merge_layer_sequences(layers_one, layers_two)


def _climbs(adjacency: Sequence[int], root: int, side: int) -> List[Tuple[int, int, int]]:
    """``(child, parent, pair mask)`` of a side's BFS tree, deepest first.

    Ties are broken by node index.
    """
    parents = bfs_parents(adjacency, root, side)
    depth = {root: 0}
    for child, parent in parents.items():
        depth[child] = depth[parent] + 1
    return [
        (child, parents[child], 1 << child | 1 << parents[child])
        for child in sorted(parents, key=lambda node: (-depth[node], node))
    ]


def _separate_sides(
    encoding: HostEncoding, one: int, two: int, target: List[int]
) -> List[Layer]:
    """Move every token to the side that contains its destination.

    Implements the bubble phase: wrong-side tokens rise towards the
    communication channel along a spanning tree of their side and cross over
    whenever both channel endpoints hold wrong-side tokens.
    """
    adjacency, nodes = encoding.adjacency, encoding.nodes
    channels = crossing_edges(adjacency, one, two)
    if not channels:
        raise RoutingError("bisection produced no communication channel")
    # A single channel edge, as in the paper's analysis: the first one in
    # node-index order.
    low, high = channels[0]
    root_one, root_two = (low, high) if one >> low & 1 else (high, low)
    roots = 1 << root_one | 1 << root_two
    climbs = _climbs(adjacency, root_one, one) + _climbs(adjacency, root_two, two)

    # Each node with the mask of the side it does not belong to.
    across = [(node, two if one >> node & 1 else one) for node in iter_bits(one | two)]
    layers: List[Layer] = []
    for _ in range(4 * len(across) + 8):
        wrong = 0
        for node, other in across:
            if other >> target[node] & 1:
                wrong |= 1 << node
        if not wrong:
            return layers

        layer: Layer = []
        used = 0
        # Rule 1: exchange across the communication channel when both
        # endpoints hold tokens destined for the other side.
        if wrong & roots == roots:
            layer.append((nodes[root_one], nodes[root_two]))
            target[root_one], target[root_two] = target[root_two], target[root_one]
            used = roots

        # Rule 2: within each side, wrong tokens bubble one step towards the
        # root, passing right-side tokens downwards.  Deepest first.
        for child, parent, pair in climbs:
            if used & pair or wrong & pair != 1 << child:
                continue
            layer.append((nodes[child], nodes[parent]))
            target[child], target[parent] = target[parent], target[child]
            used |= pair

        if not layer:
            raise RoutingError(
                "bubble separation stalled; this indicates an inconsistent "
                "bisection or token assignment"
            )
        layers.append(layer)
    raise RoutingError("bubble separation exceeded its iteration budget")


def route_between_placements(
    graph: nx.Graph,
    placement_from: Mapping[Hashable, Node],
    placement_to: Mapping[Hashable, Node],
    leaf_override: bool = True,
) -> RoutingResult:
    """Route the permutation that converts one placement into another."""
    partial = required_permutation(placement_from, placement_to)
    return route_permutation(graph, partial, leaf_override=leaf_override)
