"""Subgraph monomorphism enumeration (the VFLib role of the original code).

The original implementation used the VFLib graph matching library to align a
subcircuit's interaction graph with the adjacency graph of fast physical
interactions.  This module provides a self-contained backtracking enumerator
with the same contract:

* a *monomorphism* is an injective map from pattern nodes to host nodes that
  sends every pattern edge to a host edge (the host may have extra edges —
  this is subgraph monomorphism, not induced-subgraph isomorphism);
* enumeration is capped (the paper uses ``k = 100`` candidate mappings per
  workspace) and deterministic, so experiments are reproducible;
* the pattern must be a simple graph: a pattern node with a self-loop
  raises :class:`~repro.exceptions.MonomorphismError` naming the node (a
  qubit cannot interact with itself, and the host encoding drops
  self-loops, so such a pattern has no meaningful image).

The search itself runs over integer bitmasks (:mod:`repro.core._bitset`):
the host is relabelled to contiguous ints once (and cached per graph), its
adjacency is stored as one Python-int mask per node, and every backtracking
step computes the candidate set for the next pattern node with a handful of
``&`` operations instead of a ``for host_node in host_nodes`` scan with
``has_edge`` calls.  Per-pattern-node candidate *domains* are precomputed
from two sound necessary conditions — host degree at least the pattern
degree, and the host neighbourhood's degree multiset dominating the pattern
neighbourhood's — so impossible candidates never enter the search at all.

Both prunings only remove host nodes that cannot appear in *any* complete
monomorphism, and candidate bits are visited lowest-index-first, i.e. in
the canonical ``repr``-sorted host order; the sequence of yielded mappings
is therefore exactly the one the original scan-based enumerator produced
(property-tested in ``tests/test_monomorphism_equivalence.py``).
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.core._bitset import HostEncoding, encode_host, iter_bits, node_index_table
from repro.core.stats import STATS
from repro.exceptions import MonomorphismError

if TYPE_CHECKING:
    from repro.core.graph import AnyGraph

Node = Hashable
Mapping_ = Dict[Node, Node]


def _pattern_order(pattern: AnyGraph) -> List[Node]:
    """Order pattern nodes: highest degree first, then keep the frontier connected.

    Each step takes the unplaced node with the most placed neighbours, then
    the highest degree, then the highest canonical index.  The key is
    unique, and once a node is placed every frontier node outranks every
    node without a placed neighbour, so this is the frontier-first rule
    with one counter update per edge instead of a rescan of the order.
    """
    degree = pattern.degree
    # [placed neighbours, degree, canonical index, node]: the index is
    # unique, so max() decides before it would compare two nodes.
    keys = {
        node: [0, degree(node), position, node]
        for node, position in node_index_table(pattern.nodes()).items()
    }
    remaining = list(keys.values())
    order: List[Node] = []
    while remaining:
        key = max(remaining)
        remaining.remove(key)
        node = key[3]
        order.append(node)
        for neighbour in pattern.neighbors(node):
            keys[neighbour][0] += 1
    return order


def _candidate_domains(
    pattern: AnyGraph,
    order: List[Node],
    host: HostEncoding,
) -> List[int]:
    """Per-position candidate masks from sound degree-based pruning.

    A host node can only be the image of pattern node ``p`` if its degree is
    at least ``deg(p)`` and if, matching neighbourhoods greedily by degree,
    its ``t``-th best neighbour is at least as connected as ``p``'s ``t``-th
    best neighbour (every pattern neighbour must map to a *distinct* host
    neighbour of no smaller degree).  Both conditions are necessary for
    membership in a complete monomorphism, so filtering by them cannot drop
    or reorder any yielded mapping.  Both depend on a host node only
    through its neighbour-degree profile, so each distinct profile is
    tested once per distinct pattern profile and its member mask admitted
    whole.
    """
    degree = {node: pattern.degree(node) for node in order}
    profiles = host.profiles.items()
    masks: Dict[Tuple[int, ...], int] = {}
    domains: List[int] = []
    for pattern_node in order:
        pattern_profile = tuple(
            sorted([degree[nb] for nb in pattern.neighbors(pattern_node)], reverse=True)
        )
        mask = masks.get(pattern_profile)
        if mask is None:
            mask = 0
            width = len(pattern_profile)  # the degree: patterns are simple
            for host_profile, members in profiles:
                if len(host_profile) >= width and all(
                    map(operator.ge, host_profile, pattern_profile)
                ):
                    mask |= members
            masks[pattern_profile] = mask
        domains.append(mask)
    return domains


def iter_monomorphisms(
    pattern: AnyGraph,
    host: AnyGraph,
    max_count: Optional[int] = None,
    host_encoding: Optional[HostEncoding] = None,
) -> Iterator[Mapping_]:
    """Yield injective pattern-to-host maps preserving pattern edges.

    Parameters
    ----------
    pattern:
        The (small) graph to embed — a subcircuit's interaction graph.
    host:
        The (larger) graph to embed into — the adjacency graph.
    max_count:
        Stop after yielding this many mappings (``None`` = unbounded).
    host_encoding:
        Optional precomputed :class:`~repro.core._bitset.HostEncoding` of
        ``host``; callers embedding many patterns into one host (workspace
        extraction, candidate placement) pass it to skip the per-call cache
        lookup entirely.
    """
    for node, neighbours in pattern.adj.items():
        if node in neighbours:
            raise MonomorphismError(
                f"pattern node {node!r} has a self-loop; a pattern must be a "
                "simple graph"
            )
    if max_count is not None and max_count <= 0:
        return
    if pattern.number_of_nodes() > host.number_of_nodes():
        return
    order = _pattern_order(pattern)
    positions = len(order)
    if positions == 0:
        STATS.increment("monomorphism.searches")
        STATS.increment("monomorphism.mappings_yielded")
        yield {}
        return

    encoding = host_encoding if host_encoding is not None else encode_host(host)
    domains = _candidate_domains(pattern, order, encoding)
    # For each position, the earlier positions holding its pattern neighbours
    # (the adjacency constraints active when this position is assigned).
    position_of = {node: position for position, node in enumerate(order)}
    anchors: List[List[int]] = [
        sorted(
            position_of[nb]
            for nb in pattern.neighbors(order[position])
            if position_of[nb] < position
        )
        for position in range(positions)
    ]

    host_nodes = encoding.nodes
    adjacency = encoding.adjacency
    last = positions - 1

    images = [0] * positions  # host bit index chosen at each position
    available = [0] * positions  # still-untried candidate masks per position
    available[0] = domains[0]
    used = 0
    position = 0
    yielded = 0
    explored = 0

    try:
        while True:
            mask = available[position]
            if mask:
                low_bit = mask & -mask
                available[position] = mask ^ low_bit
                bit_index = low_bit.bit_length() - 1
                explored += 1
                images[position] = bit_index
                if position == last:
                    yielded += 1
                    yield dict(zip(order, map(host_nodes.__getitem__, images)))
                    if max_count is not None and yielded >= max_count:
                        return
                    continue  # next candidate at the same position
                used |= low_bit
                position += 1
                candidate_mask = domains[position] & ~used
                for anchor in anchors[position]:
                    candidate_mask &= adjacency[images[anchor]]
                available[position] = candidate_mask
            else:
                position -= 1
                if position < 0:
                    return
                used &= ~(1 << images[position])
    finally:
        STATS.increment("monomorphism.searches")
        STATS.increment("monomorphism.nodes_explored", explored)
        STATS.increment("monomorphism.mappings_yielded", yielded)


def find_monomorphisms(
    pattern: AnyGraph,
    host: AnyGraph,
    max_count: int = 100,
    host_encoding: Optional[HostEncoding] = None,
) -> List[Mapping_]:
    """Collect up to ``max_count`` monomorphisms (the paper's ``k``)."""
    return list(
        iter_monomorphisms(
            pattern, host, max_count=max_count, host_encoding=host_encoding
        )
    )


def has_monomorphism(
    pattern: AnyGraph,
    host: AnyGraph,
    host_encoding: Optional[HostEncoding] = None,
) -> bool:
    """Whether at least one monomorphism exists."""
    for _ in iter_monomorphisms(
        pattern, host, max_count=1, host_encoding=host_encoding
    ):
        return True
    return pattern.number_of_nodes() == 0


def first_monomorphism(pattern: AnyGraph, host: AnyGraph) -> Mapping_:
    """The first monomorphism in enumeration order; raises if none exists."""
    for mapping in iter_monomorphisms(pattern, host, max_count=1):
        return mapping
    if pattern.number_of_nodes() == 0:
        return {}
    raise MonomorphismError(
        f"no monomorphism of a {pattern.number_of_nodes()}-node pattern into a "
        f"{host.number_of_nodes()}-node host exists"
    )


def count_monomorphisms(
    pattern: AnyGraph,
    host: AnyGraph,
    limit: Optional[int] = None,
) -> int:
    """Number of monomorphisms, optionally stopping at ``limit``."""
    count = 0
    for _ in iter_monomorphisms(pattern, host, max_count=limit):
        count += 1
    return count


def verify_monomorphism(pattern: AnyGraph, host: AnyGraph, mapping: Mapping_) -> bool:
    """Check that ``mapping`` really is an injective edge-preserving map."""
    if set(mapping.keys()) != set(pattern.nodes()):
        return False
    images = list(mapping.values())
    if len(set(images)) != len(images):
        return False
    if any(image not in host for image in images):
        return False
    return all(host.has_edge(mapping[a], mapping[b]) for a, b in pattern.edges())
