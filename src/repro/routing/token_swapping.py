"""Greedy token-swapping baseline router.

Serves as a comparison point for the paper's recursive bubble router.  The
algorithm is a deterministic two-phase greedy:

1. *Happy swaps* — while some edge swap moves **both** of its tokens strictly
   closer to their destinations, perform it (bounded: every happy swap
   reduces the total displacement by two).
2. *Leaf fixing* — when no happy swap exists, satisfy one spanning-tree leaf:
   walk the token destined for the deepest unfixed leaf to it along the tree
   path and retire that leaf from further consideration.  Because only
   leaves are retired, the unfixed nodes always induce a connected subtree,
   so the walk never needs a retired node and the phase terminates after at
   most ``n`` retirements of at most ``diameter`` swaps each.

The combination is guaranteed to terminate with ``O(n^2)`` swaps on any
connected graph (per connected component).  The sequential swap list is then
packed into parallel layers with the usual ASAP rule.  The greedy router
often uses fewer total swaps than the bubble router on small instances but
has no linear-depth guarantee; the ablation benchmark
``benchmarks/test_ablation_router_comparison.py`` quantifies the trade-off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Set, Tuple, Union

from repro.core._bitset import node_index_table
from repro.exceptions import RoutingError
from repro.routing.bubble import Layer, RoutingResult, Swap, _as_full_permutation
from repro.routing.permutation import Permutation

if TYPE_CHECKING:
    import networkx as nx

Node = Hashable


def _happy_swaps(
    graph: nx.Graph,
    token_target: Dict[Node, Node],
    distances: Dict[Node, Dict[Node, int]],
    swaps: List[Swap],
) -> None:
    """Perform happy swaps (both tokens strictly closer) until none remain."""
    improved = True
    while improved:
        improved = False
        for a, b in graph.edges():
            target_a = token_target[a]
            target_b = token_target[b]
            if target_a == a and target_b == b:
                continue
            gain_a = distances[a][target_a] - distances[b][target_a]
            gain_b = distances[b][target_b] - distances[a][target_b]
            if gain_a > 0 and gain_b > 0:
                token_target[a], token_target[b] = target_b, target_a
                swaps.append((a, b))
                improved = True


def _fix_component(
    graph: nx.Graph,
    component: Set[Node],
    token_target: Dict[Node, Node],
    distances: Dict[Node, Dict[Node, int]],
    swaps: List[Swap],
) -> None:
    """Deliver every token of one connected component."""
    import networkx as nx

    for node in component:
        target = token_target[node]
        if target not in component:
            raise RoutingError(
                f"token at {node!r} cannot reach {target!r} in the graph"
            )

    sub = graph.subgraph(component)
    node_order = node_index_table(component)
    root = min(component, key=node_order.__getitem__)
    tree = nx.Graph(nx.bfs_tree(sub, root).edges())
    tree.add_nodes_from(component)
    depth = nx.single_source_shortest_path_length(tree, root)
    remaining: Set[Node] = set(component)

    while len(remaining) > 1:
        _happy_swaps(sub.subgraph(remaining), token_target, distances, swaps)

        active_tree = tree.subgraph(remaining)
        leaves = [
            node for node in remaining if active_tree.degree(node) <= 1
        ]
        # Deepest leaf first gives a deterministic, roughly balanced order.
        leaf = max(leaves, key=lambda node: (depth[node], node_order[node]))
        if token_target[leaf] != leaf:
            holder = next(
                node for node in remaining if token_target[node] == leaf
            )
            path = nx.shortest_path(active_tree, holder, leaf)
            for current, nxt in zip(path, path[1:]):
                token_target[current], token_target[nxt] = (
                    token_target[nxt],
                    token_target[current],
                )
                swaps.append((current, nxt))
        remaining.remove(leaf)


def greedy_token_swapping(
    graph: nx.Graph,
    permutation: Union[Permutation, Mapping[Node, Node]],
) -> List[Swap]:
    """Sequential swap list realising ``permutation`` on ``graph``.

    Every swap is a graph edge; the list is guaranteed to deliver every
    token (see the module docstring for the termination argument).
    """
    import networkx as nx

    full = _as_full_permutation(graph, permutation)
    token_target: Dict[Node, Node] = full.as_dict()
    distances = {
        source: dict(lengths)
        for source, lengths in nx.all_pairs_shortest_path_length(graph)
    }
    swaps: List[Swap] = []
    for component in nx.connected_components(graph):
        _fix_component(graph, set(component), token_target, distances, swaps)

    undelivered = [node for node, target in token_target.items() if node != target]
    if undelivered:  # pragma: no cover - the algorithm always delivers
        raise RoutingError(f"tokens not delivered on nodes {undelivered!r}")
    return swaps


def pack_layers(swaps: List[Swap]) -> List[Layer]:
    """Greedily pack a sequential swap list into parallel layers.

    A swap is placed in the earliest layer after every earlier swap that
    shares a node with it — the standard ASAP list-scheduling rule, which
    preserves the sequential semantics.
    """
    node_layer: Dict[Node, int] = {}
    layers: List[Layer] = []
    for a, b in swaps:
        earliest = max(node_layer.get(a, -1), node_layer.get(b, -1)) + 1
        while len(layers) <= earliest:
            layers.append([])
        layers[earliest].append((a, b))
        node_layer[a] = earliest
        node_layer[b] = earliest
    return layers


def route_permutation_greedy(
    graph: nx.Graph,
    permutation: Union[Permutation, Mapping[Node, Node]],
) -> RoutingResult:
    """Greedy token-swapping router with the same interface as the bubble router."""
    full = _as_full_permutation(graph, permutation)
    swaps = greedy_token_swapping(graph, full)
    return RoutingResult(pack_layers(swaps), full)
