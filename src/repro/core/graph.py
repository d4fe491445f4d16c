"""A small insertion-ordered graph type for the placement pipeline.

The placer builds its threshold graphs, their largest components and the
workspaces' interaction graphs itself, so it holds them in :class:`Graph`
instead of :class:`networkx.Graph`: a cold ``import repro`` then never
loads networkx, which used to be most of its import time.

:class:`Graph` keeps networkx's data layout — a node -> attribute-dict
mapping and a node -> neighbour -> edge-attribute-dict adjacency, both in
insertion order, with one attribute dict shared by an edge's two
directions — and its mutation rules, so the same add/remove/copy sequence
gives the same node, edge and adjacency order on both types
(``tests/test_graph_equivalence.py`` checks this against networkx).

The engine functions that take a graph —
:func:`~repro.core.monomorphism.find_monomorphisms`,
:func:`~repro.core.workspace.extract_workspaces`,
:func:`~repro.routing.bubble.route_permutation` and
:class:`~repro.core._bitset.HostEncoding` — read it only through what
both types have: ``nodes()``, ``edges()``, ``adj``, ``neighbors``,
``degree(node)``, ``has_edge``, ``number_of_nodes()``,
``number_of_edges()``, ``graph[node]``, iteration and ``in``.  So
callers may pass either, and :meth:`Graph.to_networkx` hands a graph to
the networkx algorithms.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    ItemsView,
    Iterable,
    Iterator,
    KeysView,
    List,
    Union,
)

if TYPE_CHECKING:
    import networkx as nx

Node = Hashable
Attributes = Dict[Any, Any]

#: Either graph type, for the functions that accept both.
AnyGraph = Union["Graph", "nx.Graph"]


class Graph:
    """An undirected graph (self-loops allowed) that keeps insertion order."""

    def __init__(self, **attr: Any) -> None:
        self.graph: Attributes = dict(attr)
        self._node: Dict[Node, Attributes] = {}
        self._adj: Dict[Node, Dict[Node, Attributes]] = {}
        # The edge count, kept by every mutation: networkx sums the degrees
        # instead, O(n) per call on a large host.
        self._edges = 0

    # -- queries ---------------------------------------------------------------

    def __contains__(self, node: object) -> bool:
        try:
            return node in self._node
        except TypeError:  # an unhashable value is no node
            return False

    def __iter__(self) -> Iterator[Node]:
        return iter(self._node)

    def __len__(self) -> int:
        return len(self._node)

    def __getitem__(self, node: Node) -> Dict[Node, Attributes]:
        """``node``'s neighbour -> edge-attribute mapping (read-only)."""
        return self._adj[node]

    @property
    def adj(self) -> Dict[Node, Dict[Node, Attributes]]:
        """The adjacency mapping, node -> neighbour -> edge attributes (read-only)."""
        return self._adj

    def nodes(self, data: bool = False) -> Union[KeysView[Node], ItemsView[Node, Attributes]]:
        """The nodes in insertion order, or ``(node, attributes)`` pairs."""
        return self._node.items() if data else self._node.keys()

    def edges(self, data: bool = False) -> Iterator[Any]:
        """Each edge once, as ``(u, v)`` or ``(u, v, attributes)``.

        ``u`` is the endpoint inserted first, and edges come in the order
        of ``u``, then of ``v`` in ``u``'s adjacency — networkx's order.
        """
        seen = set()
        for node, neighbours in self._adj.items():
            for neighbour, attributes in neighbours.items():
                if neighbour not in seen:
                    yield (node, neighbour, attributes) if data else (node, neighbour)
            seen.add(node)

    def neighbors(self, node: Node) -> Iterator[Node]:
        return iter(self._adj[node])

    def degree(self, node: Node) -> int:
        """Number of incident edges; a self-loop counts twice, as in networkx."""
        neighbours = self._adj[node]
        return len(neighbours) + (node in neighbours)

    def has_edge(self, u: Node, v: Node) -> bool:
        try:
            return v in self._adj[u]
        except KeyError:
            return False

    def number_of_nodes(self) -> int:
        return len(self._node)

    def number_of_edges(self) -> int:
        return self._edges

    # -- mutation --------------------------------------------------------------

    def _add_node(self, node: Node) -> Attributes:
        attributes = self._node.get(node)
        if attributes is None:
            self._adj[node] = {}
            attributes = self._node[node] = {}
        return attributes

    def _edge_attributes(self, u: Node, v: Node) -> Attributes:
        """The attribute dict of edge ``(u, v)``, adding the edge if it is new."""
        adj = self._adj
        if u not in adj:
            self._add_node(u)
        if v not in adj:
            self._add_node(v)
        attributes = adj[u].get(v)
        if attributes is None:
            attributes = adj[u][v] = adj[v][u] = {}
            self._edges += 1
        return attributes

    def add_node(self, node: Node, **attr: Any) -> None:
        self._add_node(node).update(attr)

    def add_edge(self, u: Node, v: Node, **attr: Any) -> None:
        self._edge_attributes(u, v).update(attr)

    def remove_edge(self, u: Node, v: Node) -> None:
        del self._adj[u][v]
        if u != v:
            del self._adj[v][u]
        self._edges -= 1

    def remove_nodes_from(self, nodes: Iterable[Node]) -> None:
        """Remove each present node with its edges; absent nodes are skipped."""
        adj = self._adj
        for node in nodes:
            if node in self._node:
                del self._node[node]
                neighbours = adj.pop(node)
                for neighbour in neighbours:
                    if neighbour != node:
                        del adj[neighbour][node]
                self._edges -= len(neighbours)

    # -- copies ----------------------------------------------------------------

    def copy(self) -> Graph:
        """An independent copy, built as ``networkx.Graph.copy`` builds one.

        Nodes first, then every adjacency entry as an edge, so the copy's
        adjacency order is networkx's copy's, which may differ from this
        graph's after removals.
        """
        graph = Graph()
        graph.graph.update(self.graph)
        for node, attributes in self._node.items():
            graph._add_node(node).update(attributes)
        for u, neighbours in self._adj.items():
            for v, attributes in neighbours.items():
                graph._edge_attributes(u, v).update(attributes)
        return graph

    def induced(self, members: Iterable[Node]) -> Graph:
        """A copy restricted to ``members``, with nodes and edges in this graph's order."""
        keep = set(members)
        graph = Graph()
        graph.graph.update(self.graph)
        for node, attributes in self._node.items():
            if node in keep:
                graph._add_node(node).update(attributes)
        for u, v, attributes in self.edges(data=True):
            if u in keep and v in keep:
                graph._edge_attributes(u, v).update(attributes)
        return graph

    def to_networkx(self) -> nx.Graph:
        """The same graph as a :class:`networkx.Graph` (imports networkx).

        Built the way ``networkx.Graph.copy`` builds a copy, so it has this
        graph's nodes, edges and attributes in :meth:`copy`'s order — this
        graph's own order for every graph the placer builds (threshold
        graphs, components, and workspace interaction graphs, which are
        copies).
        """
        import networkx as nx

        graph = nx.Graph()
        graph.graph.update(self.graph)
        graph.add_nodes_from(
            (node, attributes.copy()) for node, attributes in self._node.items()
        )
        graph.add_edges_from(
            (u, v, attributes.copy())
            for u, neighbours in self._adj.items()
            for v, attributes in neighbours.items()
        )
        return graph


def connected_components(graph: AnyGraph) -> Iterator[List[Node]]:
    """The components' node lists in ``networkx.connected_components`` order.

    Each component is found by a breadth-first search from its first node
    in the graph's node order, so components come in the order of their
    first nodes.
    """
    adj = graph.adj
    seen = set()
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for node in component:
            for neighbour in adj[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    component.append(neighbour)
        yield component


def is_bipartite(graph: AnyGraph) -> bool:
    """Whether ``graph`` has no odd cycle (a self-loop is one), like ``nx.is_bipartite``."""
    adj = graph.adj
    side: Dict[Node, int] = {}
    for start in adj:
        if start in side:
            continue
        side[start] = 0
        queue = [start]
        for node in queue:
            other = side[node] ^ 1
            for neighbour in adj[node]:
                colour = side.get(neighbour)
                if colour is None:
                    side[neighbour] = other
                    queue.append(neighbour)
                elif colour != other:
                    return False
    return True
