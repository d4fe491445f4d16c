"""Recursive "water and air" SWAP routing (Section 5.2 of the paper).

Given an adjacency graph of fast interactions and a permutation of the
values stored on its nodes, build a circuit of SWAP *layers* (sets of
non-intersecting SWAPs, executable in parallel) that realises the
permutation.

The algorithm follows the paper:

1. Cut the graph into two connected, size-balanced subgraphs ``G1``/``G2``
   (:func:`repro.routing.separators.balanced_connected_bisection`).
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

Every choice the router makes — spanning-tree traversal order, channel-edge
selection, leaf processing order, subgraph construction — is resolved
through one :func:`repro.core._bitset.node_index_table` built at entry, so
the emitted layers are byte-identical across interpreter processes and
``PYTHONHASHSEED`` values.  In particular the router never iterates a plain
``set`` (or a networkx subgraph *view* over one, whose iteration order
follows the set's hash order) where the order can reach the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple, Union

import networkx as nx

from repro.core._bitset import node_index_table
from repro.exceptions import RoutingError
from repro.routing.permutation import (
    Permutation,
    complete_partial_permutation,
    required_permutation,
)
from repro.routing.separators import balanced_connected_bisection, bfs_tree_parents

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


def _apply_layer(token_target: Dict[Node, Node], layer: Layer) -> None:
    """Swap token destinations along every edge of the layer."""
    for a, b in layer:
        token_target[a], token_target[b] = token_target[b], token_target[a]


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
    """
    if graph.number_of_nodes() == 0:
        return RoutingResult([], Permutation({}))

    order = node_index_table(graph.nodes())
    full = _as_full_permutation(graph, permutation)
    token_target: Dict[Node, Node] = full.as_dict()

    for source, target in token_target.items():
        if source == target:
            continue
        if not nx.has_path(graph, source, target):
            raise RoutingError(
                f"token at {source!r} cannot reach {target!r}: "
                "no path in the adjacency graph"
            )

    layers: List[Layer] = []
    frozen: Set[Node] = set()
    if leaf_override:
        layers.extend(_leaf_override_pass(graph, token_target, frozen, order))

    active_nodes = set(graph.nodes()) - frozen
    active = _canonical_subgraph(graph, active_nodes, order)
    component_layers: List[Layer] = []
    components = sorted(
        nx.connected_components(active),
        key=lambda component: min(order[node] for node in component),
    )
    for component in components:
        routed = _route_component(
            _canonical_subgraph(active, component, order), token_target, order
        )
        # Distinct components act on disjoint nodes, so their layer
        # sequences can run in parallel.
        component_layers = _merge_layer_sequences(component_layers, routed)
    layers.extend(component_layers)

    if validate:
        _verify_layers(graph, layers)
        remaining = [n for n, t in token_target.items() if t != n]
        if remaining:
            raise RoutingError(
                f"routing failed to deliver tokens on nodes {sorted(map(repr, remaining))}"
            )
    return RoutingResult(layers, full)


def _canonical_subgraph(
    graph: nx.Graph, nodes: Set[Node], order: Dict[Node, int]
) -> nx.Graph:
    """A deterministic induced-subgraph copy.

    ``graph.subgraph(node_set)`` yields a view whose iteration order can
    follow the *set*'s hash order, and ``.copy()`` freezes that order into
    the new graph's adjacency — making every later traversal depend on
    ``PYTHONHASHSEED``.  Rebuilding with nodes and edges inserted in
    node-index order makes the copy's iteration order canonical.
    """
    members = sorted(nodes, key=order.__getitem__)
    member_set = set(members)
    sub = nx.Graph()
    sub.add_nodes_from(members)
    for a in members:
        for b in sorted(graph.adj[a], key=order.__getitem__):
            if b in member_set and order[a] < order[b]:
                sub.add_edge(a, b)
    return sub


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
    graph: nx.Graph,
    token_target: Dict[Node, Node],
    frozen: Set[Node],
    order: Dict[Node, int],
) -> List[Layer]:
    """The leaf–target value override heuristic.

    Repeatedly: freeze every leaf that already holds its destination value;
    and whenever a leaf's destination value sits on the leaf's unique active
    neighbour, swap it in (one layer can serve many leaves in parallel) and
    freeze the leaf.  Frozen leaves are excluded from the rest of the
    routing, shrinking the instance.
    """
    layers: List[Layer] = []
    while True:
        active = graph.subgraph(set(graph.nodes()) - frozen)
        progress = False

        # Freeze satisfied leaves first (no swaps needed).
        for node in list(active.nodes()):
            if active.degree(node) == 1 and token_target[node] == node:
                frozen.add(node)
                progress = True
        if progress:
            continue

        layer: Layer = []
        used: Set[Node] = set()
        for leaf in sorted(
            (n for n in active.nodes() if active.degree(n) == 1),
            key=order.__getitem__,
        ):
            if leaf in used:
                continue
            neighbours = list(active.neighbors(leaf))
            if len(neighbours) != 1:
                continue
            neighbour = neighbours[0]
            if neighbour in used:
                continue
            if token_target[neighbour] == leaf:
                layer.append((leaf, neighbour))
                used.update((leaf, neighbour))
        if not layer:
            break
        _apply_layer(token_target, layer)
        layers.append(layer)
        for leaf, _ in layer:
            frozen.add(leaf)
    return layers


def _route_component(
    graph: nx.Graph, token_target: Dict[Node, Node], order: Dict[Node, int]
) -> List[Layer]:
    """Recursive routing of a connected component (tokens stay inside it)."""
    n = graph.number_of_nodes()
    if n <= 1:
        return []
    if all(token_target[node] == node for node in graph.nodes()):
        return []
    if n == 2:
        a, b = sorted(graph.nodes(), key=order.__getitem__)
        if token_target[a] == b:
            layer = [(a, b)]
            _apply_layer(token_target, layer)
            return [layer]
        return []

    bisection = balanced_connected_bisection(graph, order)
    side_one: Set[Node] = set(bisection.part_one)
    side_two: Set[Node] = set(bisection.part_two)

    separation_layers = _separate_sides(
        graph, side_one, side_two, bisection.channel_edges, token_target, order
    )

    sub_one = _canonical_subgraph(graph, side_one, order)
    sub_two = _canonical_subgraph(graph, side_two, order)
    layers_one = _route_component(sub_one, token_target, order)
    layers_two = _route_component(sub_two, token_target, order)
    return separation_layers + _merge_layer_sequences(layers_one, layers_two)


def _spanning_tree_parents(
    graph: nx.Graph, nodes: Set[Node], root: Node, order: Dict[Node, int]
) -> Dict[Node, Node]:
    """Parent pointers of a BFS spanning tree of ``nodes`` rooted at ``root``.

    The BFS visits each node's neighbours in node-index order (shared
    traversal: :func:`repro.routing.separators.bfs_tree_parents`), so the
    tree — and hence every bubble trajectory — is independent of the
    adjacency dict's insertion order.
    """
    return bfs_tree_parents(graph, root, order, nodes=nodes)


def _depths_from_parents(parents: Dict[Node, Node], root: Node, nodes: Set[Node]) -> Dict[Node, int]:
    depths = {root: 0}
    for node in nodes:
        if node in depths:
            continue
        chain = []
        current = node
        while current not in depths:
            chain.append(current)
            current = parents[current]
        base = depths[current]
        for offset, member in enumerate(reversed(chain), start=1):
            depths[member] = base + offset
    return depths


def _separate_sides(
    graph: nx.Graph,
    side_one: Set[Node],
    side_two: Set[Node],
    channel_edges: Sequence[Swap],
    token_target: Dict[Node, Node],
    order: Dict[Node, int],
) -> List[Layer]:
    """Move every token to the side that contains its destination.

    Implements the bubble phase: wrong-side tokens rise towards the
    communication channel along a spanning tree of their side and cross over
    whenever both channel endpoints hold wrong-side tokens.
    """
    if not channel_edges:
        raise RoutingError("bisection produced no communication channel")
    # A single channel edge, as in the paper's analysis.
    # ``Bisection.channel_edges`` arrives canonically oriented
    # (lower-index endpoint first) and sorted by node index — see
    # ``repro.routing.separators._channel_edges`` — so the first edge is
    # the canonical minimum.
    channel = channel_edges[0]
    root_one = channel[0] if channel[0] in side_one else channel[1]
    root_two = channel[1] if channel[0] in side_one else channel[0]

    parents_one = _spanning_tree_parents(graph, side_one, root_one, order)
    parents_two = _spanning_tree_parents(graph, side_two, root_two, order)
    depths_one = _depths_from_parents(parents_one, root_one, side_one)
    depths_two = _depths_from_parents(parents_two, root_two, side_two)

    def wrong(node: Node) -> bool:
        target = token_target[node]
        if node in side_one:
            return target in side_two
        return target in side_one

    layers: List[Layer] = []
    max_iterations = 4 * graph.number_of_nodes() + 8
    for _ in range(max_iterations):
        wrong_nodes = [node for node in graph.nodes() if wrong(node)]
        if not wrong_nodes:
            break

        layer: Layer = []
        used: Set[Node] = set()

        # Rule 1: exchange across the communication channel when both
        # endpoints hold tokens destined for the other side.
        if wrong(root_one) and wrong(root_two):
            layer.append((root_one, root_two))
            used.update((root_one, root_two))

        # Rule 2: within each side, wrong tokens bubble one step towards the
        # root, passing right-side tokens downwards.  Deepest first.
        for side_nodes, parents, depths in (
            (side_one, parents_one, depths_one),
            (side_two, parents_two, depths_two),
        ):
            candidates = sorted(
                (node for node in side_nodes if node in parents),
                key=lambda node: (-depths[node], order[node]),
            )
            for child in candidates:
                parent = parents[child]
                if child in used or parent in used:
                    continue
                if wrong(child) and not wrong(parent):
                    layer.append((child, parent))
                    used.update((child, parent))

        if not layer:
            raise RoutingError(
                "bubble separation stalled; this indicates an inconsistent "
                "bisection or token assignment"
            )
        _apply_layer(token_target, layer)
        layers.append(layer)
    else:
        raise RoutingError("bubble separation exceeded its iteration budget")
    return layers


def route_between_placements(
    graph: nx.Graph,
    placement_from: Mapping[Hashable, Node],
    placement_to: Mapping[Hashable, Node],
    leaf_override: bool = True,
) -> RoutingResult:
    """Route the permutation that converts one placement into another."""
    partial = required_permutation(placement_from, placement_to)
    return route_permutation(graph, partial, leaf_override=leaf_override)
