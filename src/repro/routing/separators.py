"""Balanced connected graph bisection and well-separability.

The routing algorithm of the paper recursively cuts the adjacency graph into
two *connected* subgraphs of as equal size as possible ("cut the graph into
two connected subgraphs with the number of vertices equal to or as close to
n/2 as possible").  The quality of the cut is captured by the separability
parameter ``s``: the ratio of the smaller part to the larger part, taken over
the whole recursion.  The appendix of the paper shows every graph of maximal
degree ``k`` admits ``s >= 1/k``; chains and 2D lattices achieve ``s >= 1/2``.

Determinism contract
--------------------

The cut is computed on an integer index of the graph — the layout of
:class:`repro.core._bitset.HostEncoding`: nodes numbered in
:func:`repro.core._bitset.node_index_table` order, one neighbour bitmask per
node, node subsets as int masks.  Every tie-break — spanning-tree traversal
order, channel-edge orientation, boundary-refinement order — is an index
comparison, so the bisection found for a given node/edge set is independent
of the input graph's insertion order (and hence of ``PYTHONHASHSEED``).  The
bubble router (:mod:`repro.routing.bubble`) calls :func:`bisect_mask` on its
own encoding, so its recursion builds no subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core._bitset import adjacency_masks, iter_bits, node_index_table
from repro.exceptions import RoutingError

Node = Hashable


@dataclass(frozen=True)
class Bisection:
    """A connected bisection of a graph into two parts.

    Attributes
    ----------
    part_one, part_two:
        The node sets; ``part_one`` is never smaller than ``part_two``.
    channel_edges:
        The graph edges with one endpoint in each part (the "communication
        channels" of the paper), each oriented lower-index endpoint first
        and listed in node-index order.
    """

    part_one: FrozenSet[Node]
    part_two: FrozenSet[Node]
    channel_edges: Tuple[Tuple[Node, Node], ...]

    @property
    def ratio(self) -> float:
        """Smaller-to-larger size ratio (the local separability)."""
        return len(self.part_two) / len(self.part_one)

    @property
    def balance(self) -> int:
        """Absolute size difference (0 means a perfect split)."""
        return len(self.part_one) - len(self.part_two)


def reach(adjacency: Sequence[int], seed: int, members: int) -> int:
    """The nodes of ``members`` connected to the ``seed`` mask inside ``members``."""
    seen = frontier = seed & members
    while frontier:
        grown = 0
        for node in iter_bits(frontier):
            grown |= adjacency[node]
        frontier = grown & members & ~seen
        seen |= frontier
    return seen


def component_masks(adjacency: Sequence[int], members: int) -> List[int]:
    """Connected components of ``members``, ordered by their lowest index."""
    components = []
    while members:
        component = reach(adjacency, members & -members, members)
        components.append(component)
        members &= ~component
    return components


def crossing_edges(
    adjacency: Sequence[int], one: int, two: int
) -> List[Tuple[int, int]]:
    """Edges between the two masks, lower index first, in index order."""
    edges = []
    for low in iter_bits(one | two):
        # Only neighbours above ``low``, so each edge is listed once.
        across = adjacency[low] & (two if one >> low & 1 else one) & ~((2 << low) - 1)
        edges.extend((low, high) for high in iter_bits(across))
    return edges


def bfs_parents(adjacency: Sequence[int], root: int, members: int) -> Dict[int, int]:
    """Index-ordered BFS spanning-tree parent pointers over ``members``.

    Each node's unvisited neighbours join in index order, so the dict's
    insertion order is BFS discovery order — the traversal shared by this
    module's spanning-tree cuts and the bubble router's per-side trees.
    """
    parents: Dict[int, int] = {}
    seen = 1 << root
    queue = [root]
    for parent in queue:
        fresh = adjacency[parent] & members & ~seen
        seen |= fresh
        for child in iter_bits(fresh):
            parents[child] = parent
            queue.append(child)
    return parents


def _dfs_parents(adjacency: Sequence[int], root: int, members: int) -> Dict[int, int]:
    """DFS spanning-tree parent pointers (lowest unvisited neighbour first)."""
    parents: Dict[int, int] = {}
    seen = 1 << root
    stack = [root]
    while stack:
        fresh = adjacency[stack[-1]] & members & ~seen
        if fresh:
            child = (fresh & -fresh).bit_length() - 1
            seen |= 1 << child
            parents[child] = stack[-1]
            stack.append(child)
        else:
            stack.pop()
    return parents


def _tree_cut(adjacency: Sequence[int], members: int) -> int:
    """Subtree mask of the most balanced single spanning-tree edge cut.

    The trees are BFS then DFS trees rooted at the first, middle and last
    member.  Each tree's edges are scanned as nodes in discovery order,
    then each node's children in discovery order, and the first edge of
    least imbalance wins; each tree is scored in one pass from its
    subtree masks.
    """
    nodes = list(iter_bits(members))
    total = len(nodes)
    best_balance = total
    best = 0
    for root in dict.fromkeys((nodes[0], nodes[total // 2], nodes[-1])):
        for parents in (
            bfs_parents(adjacency, root, members),
            _dfs_parents(adjacency, root, members),
        ):
            subtree = {child: 1 << child for child in parents}
            children: Dict[int, List[int]] = {}
            for child in reversed(parents):
                parent = parents[child]
                if parent != root:
                    subtree[parent] |= subtree[child]
            for child, parent in parents.items():
                children.setdefault(parent, []).append(child)
            for parent in (root, *parents):
                for child in children.get(parent, ()):
                    balance = abs(total - 2 * subtree[child].bit_count())
                    if balance < best_balance:
                        best_balance, best = balance, subtree[child]
                        if balance <= total % 2:
                            return best
    return best


def _connected(adjacency: Sequence[int], members: int) -> bool:
    return reach(adjacency, members & -members, members) == members


def bisect_mask(adjacency: Sequence[int], members: int) -> Tuple[int, int]:
    """``(part_one, part_two)`` masks of a connected set of at least two nodes.

    The most balanced spanning-tree edge cut (:func:`_tree_cut`; the root's
    side is ``part_one`` on a size tie), then a greedy local improvement:
    while ``part_one`` is at least two larger, move its first boundary node
    (in channel-edge order) whose move keeps both parts connected.
    """
    subtree = _tree_cut(adjacency, members)
    rest = members & ~subtree
    if rest.bit_count() < subtree.bit_count():
        one, two = subtree, rest
    else:
        one, two = rest, subtree
    while one.bit_count() - two.bit_count() >= 2:
        for low, high in crossing_edges(adjacency, one, two):
            moved = 1 << (low if one >> low & 1 else high)
            if _connected(adjacency, one & ~moved) and _connected(adjacency, two | moved):
                one, two = one & ~moved, two | moved
                break
        else:
            break
    return one, two


def _index(
    graph: nx.Graph, order: Optional[Dict[Node, int]] = None
) -> Tuple[List[Node], List[int]]:
    """``graph``'s nodes in ``order`` (canonical by default) and their masks."""
    if order is None:
        order = node_index_table(graph.nodes())
    index = {
        node: position
        for position, node in enumerate(sorted(graph.nodes(), key=order.__getitem__))
    }
    return list(index), adjacency_masks(graph, index)


def _checked_bisect(adjacency: Sequence[int], members: int) -> Tuple[int, int]:
    if members.bit_count() < 2:
        raise RoutingError("cannot bisect a graph with fewer than two nodes")
    if not _connected(adjacency, members):
        raise RoutingError("cannot bisect a disconnected graph")
    return bisect_mask(adjacency, members)


def _bisection(
    nodes: Sequence[Node], adjacency: Sequence[int], one: int, two: int
) -> Bisection:
    return Bisection(
        frozenset(nodes[node] for node in iter_bits(one)),
        frozenset(nodes[node] for node in iter_bits(two)),
        tuple((nodes[a], nodes[b]) for a, b in crossing_edges(adjacency, one, two)),
    )


def balanced_connected_bisection(
    graph: nx.Graph, order: Optional[Dict[Node, int]] = None
) -> Bisection:
    """Cut a connected graph into two connected parts of near-equal size.

    The cut is found by deleting single edges of several spanning trees (BFS
    trees rooted at a few different nodes plus a DFS tree) and keeping the
    most balanced result, followed by a connectivity-preserving local
    improvement.  For trees this is exactly the optimal single-edge cut; for
    general bounded-degree graphs it comfortably achieves the ``s >= 1/k``
    guarantee of the appendix on all the architectures used in this project.

    ``order`` may supply a node-index table covering (a superset of) the
    graph's nodes; only the relative order of the graph's own nodes is
    used, so any table consistent with ``repr`` order yields the same cut
    as the freshly built default.
    """
    nodes, adjacency = _index(graph, order)
    one, two = _checked_bisect(adjacency, (1 << len(nodes)) - 1)
    return _bisection(nodes, adjacency, one, two)


def recursive_bisections(graph: nx.Graph) -> List[Bisection]:
    """All bisections performed by the full recursion (in discovery order)."""
    nodes, adjacency = _index(graph)
    result: List[Bisection] = []
    stack = [(1 << len(nodes)) - 1]
    while stack:
        members = stack.pop()
        if members.bit_count() < 2:
            continue
        one, two = _checked_bisect(adjacency, members)
        result.append(_bisection(nodes, adjacency, one, two))
        stack += (one, two)
    return result


def separability(graph: nx.Graph) -> float:
    """The separability parameter ``s`` achieved by the recursive bisection.

    Defined as the minimum, over every cut of the recursion, of the ratio of
    the smaller to the larger part.  Graphs with a single node have
    separability 1 by convention.
    """
    if graph.number_of_nodes() <= 1:
        return 1.0
    ratios = [bisection.ratio for bisection in recursive_bisections(graph)]
    return min(ratios) if ratios else 1.0


def degree_separability_bound(graph: nx.Graph) -> float:
    """The appendix's guaranteed lower bound ``s >= 1 / max_degree``."""
    degrees = [d for _, d in graph.degree()]
    max_degree = max(degrees) if degrees else 1
    return 1.0 / max(1, max_degree)
