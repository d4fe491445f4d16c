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
from typing import Dict, Hashable, Iterator, List, Tuple

import networkx as nx

from repro.core.stats import STATS

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

    def __init__(self, host: nx.Graph) -> None:
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

    def matches(self, host: nx.Graph) -> bool:
        """Cheap staleness check against in-place host mutation."""
        return self._size_signature == (
            host.number_of_nodes(),
            host.number_of_edges(),
        )


def adjacency_masks(graph: nx.Graph, index: Dict[Node, int]) -> List[int]:
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


_ENCODING_CACHE: "weakref.WeakKeyDictionary[nx.Graph, HostEncoding]" = (
    weakref.WeakKeyDictionary()
)


def encode_host(host: nx.Graph) -> HostEncoding:
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
