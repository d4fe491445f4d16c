"""Equivalence tests for the bitset monomorphism enumerator.

Three independent referees keep the rewritten engine honest:

* ``networkx``'s :class:`GraphMatcher` in subgraph-monomorphism mode, for
  *counts* on random pattern/host pairs (the engines need not agree on
  order, only on the set of solutions);
* a verbatim copy of the original scan-based enumerator from the seed
  implementation, for *order*: the first ``k`` mappings must match the
  seed's deterministic enumeration exactly, because experiment
  reproducibility depends on the capped candidate list being stable;
* :func:`verify_monomorphism`, for soundness of every produced mapping.
"""

import functools
import itertools
import operator

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import load_environment
from repro.core._bitset import encode_host, iter_bits
from repro.core.monomorphism import (
    _candidate_domains,
    _pattern_order,
    find_monomorphisms,
    has_monomorphism,
    iter_monomorphisms,
    verify_monomorphism,
)
from repro.core.stats import STATS

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# The seed implementation, kept verbatim as the order reference
# ---------------------------------------------------------------------------


def _seed_pattern_order(pattern):
    if pattern.number_of_nodes() == 0:
        return []
    remaining = set(pattern.nodes())
    order = []
    start = max(remaining, key=lambda n: (pattern.degree(n), repr(n)))
    order.append(start)
    remaining.remove(start)
    while remaining:
        frontier = [
            node
            for node in remaining
            if any(neighbour in order for neighbour in pattern.neighbors(node))
        ]
        pool = frontier if frontier else list(remaining)
        nxt = max(
            pool,
            key=lambda n: (
                sum(1 for nb in pattern.neighbors(n) if nb in order),
                pattern.degree(n),
                repr(n),
            ),
        )
        order.append(nxt)
        remaining.remove(nxt)
    return order


def seed_iter_monomorphisms(pattern, host, max_count=None):
    """The original (pre-bitset) enumerator, word for word."""
    if pattern.number_of_nodes() > host.number_of_nodes():
        return
    order = _seed_pattern_order(pattern)
    host_nodes = sorted(host.nodes(), key=repr)
    host_degree = dict(host.degree())
    pattern_degree = dict(pattern.degree())

    yielded = 0
    assignment = {}
    used_hosts = set()

    def backtrack(position):
        nonlocal yielded
        if max_count is not None and yielded >= max_count:
            return
        if position == len(order):
            yielded += 1
            yield dict(assignment)
            return
        pattern_node = order[position]
        mapped_neighbours = [
            assignment[nb]
            for nb in pattern.neighbors(pattern_node)
            if nb in assignment
        ]
        for host_node in host_nodes:
            if host_node in used_hosts:
                continue
            if host_degree.get(host_node, 0) < pattern_degree.get(pattern_node, 0):
                continue
            if any(not host.has_edge(host_node, image) for image in mapped_neighbours):
                continue
            assignment[pattern_node] = host_node
            used_hosts.add(host_node)
            yield from backtrack(position + 1)
            del assignment[pattern_node]
            used_hosts.remove(host_node)
            if max_count is not None and yielded >= max_count:
                return
    yield from backtrack(0)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def pattern_host_pairs(draw):
    host_seed = draw(st.integers(0, 10_000))
    pattern_seed = draw(st.integers(0, 10_000))
    host_nodes = draw(st.integers(4, 9))
    pattern_nodes = draw(st.integers(2, 5))
    host = nx.gnp_random_graph(host_nodes, draw(st.floats(0.2, 0.7)), seed=host_seed)
    pattern = nx.gnp_random_graph(
        pattern_nodes, draw(st.floats(0.3, 0.9)), seed=pattern_seed
    )
    return pattern, host


# ---------------------------------------------------------------------------
# Count equivalence against networkx
# ---------------------------------------------------------------------------


class TestCountsAgainstNetworkx:
    @RELAXED
    @given(pattern_host_pairs())
    def test_counts_match_graphmatcher(self, pair):
        pattern, host = pair
        ours = find_monomorphisms(pattern, host, max_count=100_000)
        matcher = nx.algorithms.isomorphism.GraphMatcher(host, pattern)
        expected = sum(1 for _ in matcher.subgraph_monomorphisms_iter())
        assert len(ours) == expected
        for mapping in ours:
            assert verify_monomorphism(pattern, host, mapping)
        # Injectivity of the enumeration itself: no duplicate mappings.
        keys = {tuple(sorted(m.items())) for m in ours}
        assert len(keys) == len(ours)

    @RELAXED
    @given(pattern_host_pairs())
    def test_existence_matches_graphmatcher(self, pair):
        pattern, host = pair
        matcher = nx.algorithms.isomorphism.GraphMatcher(host, pattern)
        assert has_monomorphism(pattern, host) == matcher.subgraph_is_monomorphic()


# ---------------------------------------------------------------------------
# Order parity against the seed enumerator
# ---------------------------------------------------------------------------


class TestOrderParityWithSeed:
    @RELAXED
    @given(pattern_host_pairs(), st.integers(1, 30))
    def test_first_k_mappings_match_seed_order(self, pair, k):
        pattern, host = pair
        ours = list(iter_monomorphisms(pattern, host, max_count=k))
        reference = list(seed_iter_monomorphisms(pattern, host, max_count=k))
        assert ours == reference

    def test_full_enumeration_order_on_molecule_host(self, crotonic):
        host = crotonic.adjacency_graph(200.0)
        for pattern in (nx.path_graph(4), nx.star_graph(3), nx.cycle_graph(4)):
            ours = list(iter_monomorphisms(pattern, host))
            reference = list(seed_iter_monomorphisms(pattern, host))
            assert ours == reference

    def test_unbounded_equals_seed_on_complete_host(self):
        pattern = nx.path_graph(3)
        host = nx.complete_graph(5)
        assert list(iter_monomorphisms(pattern, host)) == list(
            seed_iter_monomorphisms(pattern, host)
        )


# ---------------------------------------------------------------------------
# Candidate domains against the per-node scan
# ---------------------------------------------------------------------------


def per_node_candidate_domains(pattern, order, host):
    """The domain pass before profiles: both tests run once per host node."""
    degree = host.degree
    neighbor_degrees = [
        tuple(sorted((degree[j] for j in iter_bits(host.adjacency[i])), reverse=True))
        for i in range(host.num_nodes)
    ]
    domains = []
    for pattern_node in order:
        pattern_degree = pattern.degree(pattern_node)
        pattern_profile = sorted(
            (pattern.degree(nb) for nb in pattern.neighbors(pattern_node)),
            reverse=True,
        )
        mask = 0
        for i in range(host.num_nodes):
            if degree[i] < pattern_degree:
                continue
            if any(
                neighbor_degrees[i][t] < pattern_profile[t]
                for t in range(pattern_degree)
            ):
                continue
            mask |= 1 << i
        domains.append(mask)
    return domains


DOMAIN_HOSTS = (
    ("grid:6x6", 10.0),
    ("heavy-hex:3", 10.0),
    ("ring:8", 10.0),
    ("star:6", 10.0),
    ("histidine", 100.0),
    ("histidine", 500.0),
    ("histidine", 1000.0),
)


@functools.lru_cache(maxsize=None)
def _domain_host(spec, threshold):
    return encode_host(load_environment(spec).adjacency_graph(threshold))


class TestCandidateDomainsPerProfile:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(DOMAIN_HOSTS),
        st.integers(1, 8),
        st.floats(0.2, 0.9),
        st.integers(0, 10_000),
    )
    def test_domains_match_per_node_scan(self, host_key, size, density, seed):
        host = _domain_host(*host_key)
        pattern = nx.gnp_random_graph(size, density, seed=seed)
        order = _pattern_order(pattern)
        assert _candidate_domains(pattern, order, host) == (
            per_node_candidate_domains(pattern, order, host)
        )

    def test_profiles_partition_the_host(self):
        for host_key in DOMAIN_HOSTS:
            host = _domain_host(*host_key)
            masks = list(host.profiles.values())
            assert functools.reduce(operator.or_, masks) == host.full_mask
            assert sum(masks) == host.full_mask  # no node in two profiles


# ---------------------------------------------------------------------------
# Mixed node types (the repr-keyed index table must not choke or reorder)
# ---------------------------------------------------------------------------


class TestMixedNodeTypes:
    def _mixed_host(self):
        # Integers, strings and tuples as node labels in one host graph:
        # sorting such nodes directly would raise TypeError; the engine's
        # repr-keyed node-index table must handle them.
        host = nx.Graph()
        host.add_edges_from(
            [
                (0, "a"),
                ("a", (1, 2)),
                ((1, 2), 7),
                (7, "b"),
                ("b", 0),
                ((1, 2), "a-b"),
            ]
        )
        return host

    def test_mixed_node_host_enumerates(self):
        host = self._mixed_host()
        pattern = nx.path_graph(3)
        mappings = find_monomorphisms(pattern, host, max_count=50)
        assert mappings
        for mapping in mappings:
            assert verify_monomorphism(pattern, host, mapping)

    def test_mixed_node_order_matches_seed(self):
        host = self._mixed_host()
        for pattern in (nx.path_graph(3), nx.star_graph(2), nx.cycle_graph(3)):
            assert list(iter_monomorphisms(pattern, host)) == list(
                seed_iter_monomorphisms(pattern, host)
            )

    def test_mixed_node_pattern(self):
        pattern = nx.Graph([(("x",), "y"), ("y", 3)])
        host = self._mixed_host()
        mappings = find_monomorphisms(pattern, host, max_count=10)
        for mapping in mappings:
            assert verify_monomorphism(pattern, host, mapping)
        assert mappings == list(seed_iter_monomorphisms(pattern, host, max_count=10))


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


class TestSearchCounters:
    def test_nodes_explored_counter_advances(self):
        before = STATS.snapshot()
        find_monomorphisms(nx.path_graph(3), nx.complete_graph(5), max_count=10)
        delta = STATS.delta_since(before)
        assert delta.get("monomorphism.searches", 0) == 1
        assert delta.get("monomorphism.nodes_explored", 0) > 0
        assert delta.get("monomorphism.mappings_yielded", 0) == 10

    def test_counters_flushed_on_early_break(self):
        before = STATS.snapshot()
        iterator = iter_monomorphisms(nx.path_graph(2), nx.complete_graph(6))
        next(iterator)
        iterator.close()  # abandoning the generator must still flush counts
        delta = STATS.delta_since(before)
        assert delta.get("monomorphism.mappings_yielded", 0) == 1
