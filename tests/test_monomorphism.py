"""Unit tests for the subgraph monomorphism enumerator."""

import itertools

import networkx as nx
import pytest

from repro.core.monomorphism import (
    count_monomorphisms,
    find_monomorphisms,
    first_monomorphism,
    has_monomorphism,
    iter_monomorphisms,
    verify_monomorphism,
)
from repro.exceptions import MonomorphismError


class TestBasics:
    def test_empty_pattern_has_trivial_monomorphism(self):
        assert has_monomorphism(nx.Graph(), nx.path_graph(3))
        assert first_monomorphism(nx.Graph(), nx.path_graph(3)) == {}

    def test_single_edge_into_path(self):
        pattern = nx.Graph([(0, 1)])
        host = nx.path_graph(3)
        mappings = find_monomorphisms(pattern, host, max_count=100)
        assert len(mappings) == 4  # 2 host edges x 2 orientations
        for mapping in mappings:
            assert verify_monomorphism(pattern, host, mapping)

    def test_pattern_larger_than_host_has_none(self):
        assert not has_monomorphism(nx.path_graph(4), nx.path_graph(3))

    def test_triangle_into_tree_has_none(self):
        triangle = nx.cycle_graph(3)
        tree = nx.balanced_tree(2, 3)
        assert not has_monomorphism(triangle, tree)

    def test_first_monomorphism_raises_when_none(self):
        with pytest.raises(MonomorphismError):
            first_monomorphism(nx.cycle_graph(3), nx.path_graph(5))

    def test_self_loop_pattern_fails_closed(self):
        # A self-loop counts twice in the node's degree but once in its
        # neighbour profile; the search refuses it with one line.
        pattern = nx.Graph([(0, 0), (0, 1)])
        with pytest.raises(MonomorphismError, match=r"^pattern node 0 has a self-loop"):
            find_monomorphisms(pattern, nx.complete_graph(5))
        with pytest.raises(MonomorphismError, match="'a' has a self-loop"):
            has_monomorphism(nx.Graph([("a", "a")]), nx.complete_graph(3))
        # Also when the pattern could not fit the host anyway.
        with pytest.raises(MonomorphismError, match="node 2 has a self-loop"):
            find_monomorphisms(nx.Graph([(0, 1), (1, 2), (2, 2)]), nx.path_graph(2))

    def test_path_into_cycle(self):
        pattern = nx.path_graph(4)
        host = nx.cycle_graph(6)
        mapping = first_monomorphism(pattern, host)
        assert verify_monomorphism(pattern, host, mapping)

    def test_max_count_caps_enumeration(self):
        pattern = nx.Graph([(0, 1)])
        host = nx.complete_graph(6)
        assert len(find_monomorphisms(pattern, host, max_count=7)) == 7

    def test_count_monomorphisms_complete_host(self):
        pattern = nx.path_graph(3)
        host = nx.complete_graph(4)
        # Injective maps of a labelled 3-path into K4: 4*3*2 = 24.
        assert count_monomorphisms(pattern, host) == 24

    def test_iterator_is_lazy(self):
        pattern = nx.Graph([(0, 1)])
        host = nx.complete_graph(30)
        iterator = iter_monomorphisms(pattern, host)
        assert next(iterator) is not None


class TestAgainstNetworkx:
    """Cross-check against networkx's GraphMatcher (monomorphism mode)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_existence_matches_networkx(self, seed):
        rng_host = nx.gnp_random_graph(7, 0.4, seed=seed)
        rng_pattern = nx.gnp_random_graph(4, 0.5, seed=seed + 100)
        # Only compare when both graphs have no isolated pattern complication.
        matcher = nx.algorithms.isomorphism.GraphMatcher(rng_host, rng_pattern)
        expected = matcher.subgraph_is_monomorphic()
        assert has_monomorphism(rng_pattern, rng_host) == expected

    def test_mapping_validity_on_molecule_host(self, crotonic):
        host = crotonic.adjacency_graph(100.0)
        pattern = nx.path_graph(5)
        for mapping in find_monomorphisms(pattern, host, max_count=50):
            assert verify_monomorphism(pattern, host, mapping)


class TestVerifyMonomorphism:
    def test_rejects_incomplete_mapping(self):
        pattern = nx.path_graph(3)
        host = nx.path_graph(5)
        assert not verify_monomorphism(pattern, host, {0: 0, 1: 1})

    def test_rejects_non_injective(self):
        pattern = nx.path_graph(3)
        host = nx.path_graph(5)
        assert not verify_monomorphism(pattern, host, {0: 0, 1: 1, 2: 0})

    def test_rejects_non_edge_image(self):
        pattern = nx.path_graph(3)
        host = nx.path_graph(5)
        assert not verify_monomorphism(pattern, host, {0: 0, 1: 1, 2: 4})
