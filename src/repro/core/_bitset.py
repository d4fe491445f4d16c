"""Integer-bitset host encodings for the monomorphism engine.

The backtracking enumerator in :mod:`repro.core.monomorphism` spends its
time asking two questions: "which host nodes are still available?" and
"which host nodes are adjacent to every already-placed neighbour?".  Both
become single big-int operations once the host graph is relabelled to
contiguous integers and its adjacency is stored as one Python-int bitmask
per node: bit ``j`` of ``adjacency[i]`` is set iff host nodes ``i`` and
``j`` share an edge.

The bit order is the engine's canonical *node order*: host nodes sorted by
``repr`` — the same deterministic order the original enumerator used — with
the ``repr`` computed exactly once per node instead of inside every
comparison of every search.  Iterating the set bits of a mask from least to
most significant therefore visits host nodes in exactly the order the
original ``for host_node in sorted(host.nodes(), key=repr)`` scan did,
which keeps the enumeration-order contract intact.

Encodings are cached per host graph in a :class:`weakref.WeakKeyDictionary`
(with a cheap size check to catch in-place mutation) because the placer
asks for monomorphisms into the same adjacency graph hundreds of times per
run — once per workspace-extraction step and once per workspace placement.
"""

from __future__ import annotations

import weakref
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.stats import STATS

if TYPE_CHECKING:
    from repro.core.graph import AnyGraph

Node = Hashable


def node_index_table(nodes) -> Dict[Node, int]:
    """Deterministic node -> index table (``repr``-sorted, computed once).

    This is the shared replacement for the ad-hoc ``sorted(..., key=repr)``
    calls that used to appear in every tie-break of the placer: the ``repr``
    of each node is computed exactly once here, and every later comparison
    is an integer comparison.  Works for mixed node types (integers, strings,
    tuples, ...) because only the ``repr`` strings are ever compared.

    This module is the *only* sanctioned home of a ``key=repr`` sort
    (lint rule DET002, ``docs/static-analysis.md``): every other module
    obtains the canonical order through this table or the helpers below,
    so there is exactly one definition of node order to audit.
    """
    return {node: index for index, node in enumerate(sorted(nodes, key=repr))}


def canonical_order(nodes) -> List[Node]:
    """The nodes in canonical order (the order of :func:`node_index_table`).

    Exploits dict insertion order: the table is built by enumerating the
    canonically sorted nodes, so listing its keys *is* the sorted scan —
    no second sort, no per-comparison ``repr``.
    """
    return list(node_index_table(nodes))


def canonical_min(nodes) -> Node:
    """The canonically first node (deterministic ``min`` for mixed types)."""
    order = canonical_order(nodes)
    if not order:
        raise ValueError("canonical_min() of an empty node collection")
    return order[0]


class HostEncoding:
    """A host graph relabelled to contiguous ints with bitmask adjacency."""

    __slots__ = (
        "nodes",
        "index",
        "adjacency",
        "degree",
        "profiles",
        "full_mask",
        "_size_signature",
    )

    def __init__(self, host: AnyGraph) -> None:
        self.nodes: List[Node] = canonical_order(host.nodes())
        self.index: Dict[Node, int] = {
            node: position for position, node in enumerate(self.nodes)
        }
        count = len(self.nodes)
        adjacency = adjacency_masks(host, self.index)
        degree = [mask.bit_count() for mask in adjacency]
        self.adjacency: List[int] = adjacency
        self.degree: List[int] = degree
        # Nodes grouped by the descending degree multiset of their
        # neighbourhood (its length is the node's degree), so the
        # enumerator's candidate-domain pruning tests each distinct profile
        # once: a grid has 6 profiles whatever its size.
        self.profiles: Dict[Tuple[int, ...], int] = {}
        for i in range(count):
            profile = tuple(
                sorted((degree[j] for j in iter_bits(adjacency[i])), reverse=True)
            )
            self.profiles[profile] = self.profiles.get(profile, 0) | 1 << i
        self.full_mask: int = (1 << count) - 1
        self._size_signature = (host.number_of_nodes(), host.number_of_edges())

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """The host's ``number_of_edges()`` when encoded."""
        return self._size_signature[1]

    def matches(self, host: AnyGraph) -> bool:
        """Cheap staleness check against in-place host mutation."""
        return self._size_signature == (
            host.number_of_nodes(),
            host.number_of_edges(),
        )


class NeighbourTable:
    """The annealer's move targets on one host graph.

    Built once per working graph and shared by every workspace and
    restart.  :meth:`neighbours` lists a node's host neighbours in node
    order -- ``sorted(graph.neighbors(node), key=index.__getitem__)`` --
    and :attr:`graph_nodes` the graph's nodes in insertion order, the
    annealer's local- and global-move targets.  :attr:`rows` packs every
    neighbour list for the native annealer: one little-endian bit row of
    :attr:`row_words` 64-bit words per node, in node order, built on first
    use from the encoding's masks (``int.to_bytes`` per node, far cheaper
    than iterating their bits in Python).
    """

    __slots__ = ("nodes", "index", "graph_nodes", "_adjacency", "_lists", "_rows")

    def __init__(self, encoding: HostEncoding, graph_nodes: Iterable[Node]) -> None:
        self.nodes: List[Node] = encoding.nodes
        self.index: Dict[Node, int] = encoding.index
        self.graph_nodes: List[Node] = list(graph_nodes)
        self._adjacency = encoding.adjacency
        self._lists: Dict[Node, List[Node]] = {}
        self._rows: Optional[bytes] = None

    @property
    def row_words(self) -> int:
        return (len(self.nodes) + 63) // 64

    @property
    def rows(self) -> bytes:
        if self._rows is None:
            width = 8 * self.row_words
            self._rows = b"".join(
                mask.to_bytes(width, "little") for mask in self._adjacency
            )
        return self._rows

    def neighbours(self, node: Node) -> List[Node]:
        """``node``'s host neighbours in node order (cached per node)."""
        listed = self._lists.get(node)
        if listed is None:
            nodes = self.nodes
            listed = self._lists[node] = [
                nodes[bit] for bit in iter_bits(self._adjacency[self.index[node]])
            ]
        return listed


def adjacency_masks(graph: AnyGraph, index: Dict[Node, int]) -> List[int]:
    """One neighbour bitmask per node of ``graph``, numbered by ``index``.

    Self-loops carry no placement or routing meaning and are dropped.
    """
    adjacency = [0] * len(index)
    for a, b in graph.edges():
        i = index[a]
        j = index[b]
        if i != j:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    return adjacency


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bfs_rings(adjacency: Sequence[int], source: int) -> Iterator[int]:
    """Yield the BFS rings around bit ``source``: ring ``d`` masks the bits ``d`` hops away.

    A bit in no ring lies in another component.
    """
    ring = seen = 1 << source
    while ring:
        yield ring
        reach = 0
        for bit in iter_bits(ring):
            reach |= adjacency[bit]
        ring = reach & ~seen
        seen |= ring


_ENCODING_CACHE: "weakref.WeakKeyDictionary[AnyGraph, HostEncoding]" = (
    weakref.WeakKeyDictionary()
)


def encode_host(host: AnyGraph) -> HostEncoding:
    """Return a (cached) :class:`HostEncoding` for ``host``.

    The cache is keyed by graph identity and validated against the graph's
    node/edge counts, so the common case — the placer reusing one adjacency
    graph across hundreds of searches — hits, while a graph that was
    mutated in place (same object, different size) is re-encoded.  Mutations
    that preserve both counts are not detected; the placement engine never
    mutates adjacency graphs, and external callers can simply pass a fresh
    graph object.
    """
    encoding = _ENCODING_CACHE.get(host)
    if encoding is not None and encoding.matches(host):
        STATS.increment("monomorphism.host_encoding_hits")
        return encoding
    encoding = HostEncoding(host)
    STATS.increment("monomorphism.host_encodings")
    try:
        _ENCODING_CACHE[host] = encoding
    except TypeError:  # pragma: no cover - non-weakrefable graph subclass
        pass
    return encoding
