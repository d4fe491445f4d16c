"""Odd–even transposition routing on linear nearest-neighbour chains.

The paper motivates its general routing algorithm by noting that the chain
nearest-neighbour architecture is the most studied special case.  On a chain
there is a classical exact technique: *odd–even transposition sort*.  In
round ``r`` one compares (and, when the destination order demands it, swaps)
every adjacent pair starting at an even or odd position alternately; after
at most ``n`` rounds every token sits at its destination.  This gives a
permutation routing with depth at most ``n`` — within a small constant of
optimal, and better in practice than the general bubble router on chains.

The router is used as an additional baseline in the router-comparison
benchmark and is exposed for users who target genuinely linear devices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Sequence, Union

from repro.core._bitset import canonical_min
from repro.exceptions import RoutingError
from repro.routing.bubble import Layer, RoutingResult, Swap, _as_full_permutation
from repro.routing.permutation import Permutation

if TYPE_CHECKING:
    import networkx as nx

Node = Hashable


def chain_order_from_graph(graph: nx.Graph) -> List[Node]:
    """Recover the left-to-right node order of a path graph.

    Raises :class:`~repro.exceptions.RoutingError` when the graph is not a
    simple path (that is the only topology this router supports).
    """
    import networkx as nx

    if graph.number_of_nodes() == 0:
        return []
    if graph.number_of_nodes() == 1:
        return list(graph.nodes())
    if not nx.is_connected(graph):
        raise RoutingError("odd-even routing needs a connected chain")
    degrees = dict(graph.degree())
    endpoints = [node for node, degree in degrees.items() if degree == 1]
    if len(endpoints) != 2 or any(degree > 2 for degree in degrees.values()):
        raise RoutingError("odd-even routing only supports path (chain) graphs")
    start = canonical_min(endpoints)
    order = [start]
    previous = None
    current = start
    while len(order) < graph.number_of_nodes():
        neighbours = [n for n in graph.neighbors(current) if n != previous]
        if not neighbours:  # pragma: no cover - impossible on a path
            raise RoutingError("failed to traverse the chain")
        previous, current = current, neighbours[0]
        order.append(current)
    return order


def route_permutation_odd_even(
    graph: nx.Graph,
    permutation: Union[Permutation, Mapping[Node, Node]],
) -> RoutingResult:
    """Route a permutation on a chain with odd–even transposition rounds.

    The permutation may be partial; don't-care tokens are completed exactly
    as in the other routers.  Depth is at most the number of chain nodes.
    """
    full = _as_full_permutation(graph, permutation)
    order = chain_order_from_graph(graph)
    position_of = {node: index for index, node in enumerate(order)}

    # destination_rank[i] = chain position the token currently at order[i]
    # must reach.
    destination_rank: List[int] = [
        position_of[full[node]] for node in order
    ]

    layers: List[Layer] = []
    num_nodes = len(order)
    for round_index in range(num_nodes):
        start = round_index % 2
        layer: Layer = []
        for left in range(start, num_nodes - 1, 2):
            right = left + 1
            if destination_rank[left] > destination_rank[right]:
                destination_rank[left], destination_rank[right] = (
                    destination_rank[right],
                    destination_rank[left],
                )
                layer.append((order[left], order[right]))
        if layer:
            layers.append(layer)
        if all(destination_rank[i] == i for i in range(num_nodes)):
            break
    if any(destination_rank[i] != i for i in range(num_nodes)):  # pragma: no cover
        raise RoutingError("odd-even transposition failed to sort the tokens")
    return RoutingResult(layers, full)
