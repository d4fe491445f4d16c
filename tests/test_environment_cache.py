"""Tests for the environment's derived-graph caching and invalidation."""

import math
from functools import partial

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import sweep_circuit
from repro.circuits.library import qft_circuit
from repro.core.config import PlacementOptions
from repro.core.placement import place_circuit
from repro.core.stats import STATS
from repro.exceptions import ConfigError, EnvironmentError_, ThresholdError
from repro.hardware.architectures import grid
from repro.hardware.environment import PhysicalEnvironment
from repro.hardware.molecules import trans_crotonic_acid
from repro.hardware.threshold_graph import largest_connected_nodes


class TestAdjacencyCache:
    def test_same_object_reused_across_calls(self, crotonic):
        first = crotonic.adjacency_graph(100.0)
        second = crotonic.adjacency_graph(100.0)
        assert first is second

    def test_equivalent_thresholds_share_one_graph(self, crotonic):
        # No trans-crotonic delay falls in (100, 500], so thresholds 100,
        # 200 and 500 admit exactly the same edges — one cached graph.
        graphs = {id(crotonic.adjacency_graph(t)) for t in (100.0, 200.0, 500.0)}
        assert len(graphs) == 1
        # 1000 admits the two-bond couplings (900/960/...): a different graph.
        assert crotonic.adjacency_graph(1000.0) is not crotonic.adjacency_graph(100.0)

    def test_cache_hit_counters(self, crotonic):
        before = STATS.snapshot()
        crotonic.adjacency_graph(100.0)
        crotonic.adjacency_graph(100.0)
        crotonic.adjacency_graph(200.0)  # same signature as 100
        delta = STATS.delta_since(before)
        assert delta.get("environment.adjacency_cache_misses", 0) == 1
        assert delta.get("environment.adjacency_cache_hits", 0) == 2

    def test_same_object_reuse_across_sweep_cells(self, crotonic):
        """A sweep placing at the same threshold twice reuses one graph."""
        before = STATS.snapshot()
        for _ in range(3):
            place_circuit(
                qft_circuit(5), crotonic, PlacementOptions(threshold=100.0)
            )
        delta = STATS.delta_since(before)
        assert delta.get("environment.adjacency_cache_misses", 0) <= 1

    def test_networkx_copy_is_built_once_from_the_cached_graph(self, crotonic):
        graph = crotonic.threshold_graph(100.0)
        assert not isinstance(graph, nx.Graph)
        assert crotonic.threshold_graph(200.0) is graph
        assert crotonic.threshold_component(100.0) is graph  # connected at 100
        copy = crotonic.adjacency_graph(100.0)
        assert isinstance(copy, nx.Graph)
        assert crotonic.adjacency_graph(500.0) is copy
        assert crotonic.largest_component_graph(200.0) is copy
        crotonic.invalidate_caches()
        assert crotonic.adjacency_graph(100.0) is not copy

    def test_cached_graph_content_matches_uncached_build(self, crotonic):
        cached = crotonic.adjacency_graph(100.0)
        fresh = trans_crotonic_acid().adjacency_graph(100.0)
        assert nx.utils.graphs_equal(cached, fresh)


class TestInvalidation:
    def test_set_pair_delay_invalidates(self, crotonic):
        graph = crotonic.adjacency_graph(100.0)
        assert not graph.has_edge("M", "C2")  # 900 units: too slow for 100
        crotonic.set_pair_delay("M", "C2", 50.0)
        updated = crotonic.adjacency_graph(100.0)
        assert updated is not graph
        assert updated.has_edge("M", "C2")
        assert crotonic.pair_delay("M", "C2") == 50.0

    def test_set_single_qubit_delay_invalidates(self, crotonic):
        graph = crotonic.adjacency_graph(100.0)
        crotonic.set_single_qubit_delay("M", 3.0)
        updated = crotonic.adjacency_graph(100.0)
        assert updated is not graph
        assert updated.nodes["M"]["delay"] == 3.0

    def test_explicit_invalidate_caches(self, crotonic):
        graph = crotonic.adjacency_graph(100.0)
        crotonic.invalidate_caches()
        assert crotonic.adjacency_graph(100.0) is not graph

    def test_mutation_changes_minimal_connecting_threshold(self, crotonic):
        original = crotonic.minimal_connecting_threshold()
        assert original == 60.0  # the C3-C4 bond is the bottleneck
        crotonic.set_pair_delay("C3", "C4", 25.0)
        assert crotonic.minimal_connecting_threshold() == 36.0

    def test_set_pair_delay_rejects_unknown_nodes(self, crotonic):
        from repro.exceptions import EnvironmentError_

        with pytest.raises(EnvironmentError_):
            crotonic.set_pair_delay("M", "nope", 10.0)
        with pytest.raises(EnvironmentError_):
            crotonic.set_pair_delay("M", "M", 10.0)


class TestLargestComponentCache:
    def test_component_graph_cached(self, crotonic):
        # Threshold 20 keeps only the M-C1 (20) and C3-H2 (15) + C2-H1 (16)
        # bonds: the graph is disconnected and the largest component is
        # computed once, then reused.
        first = crotonic.largest_component_graph(20.0)
        second = crotonic.largest_component_graph(20.0)
        assert first is second
        assert first.number_of_nodes() < crotonic.num_qubits

    def test_connected_threshold_returns_adjacency_object(self, crotonic):
        threshold = crotonic.minimal_connecting_threshold()
        assert (
            crotonic.largest_component_graph(threshold)
            is crotonic.adjacency_graph(threshold)
        )

    def test_threshold_error_through_cached_component_branch(self, crotonic):
        """Placement through the cached largest-component path still N/As."""
        # Warm the caches for threshold 50 (disconnected on crotonic) ...
        crotonic.adjacency_graph(50.0)
        crotonic.largest_component_graph(50.0)
        # ... then a 7-qubit circuit cannot fit the largest component, and
        # the error must surface both on cold and warm cache paths.
        with pytest.raises(ThresholdError):
            place_circuit(
                qft_circuit(7), crotonic, PlacementOptions(threshold=50.0)
            )
        with pytest.raises(ThresholdError):
            place_circuit(
                qft_circuit(7), crotonic, PlacementOptions(threshold=50.0)
            )

    def test_largest_connected_nodes_uses_cache(self, crotonic):
        nodes_first = largest_connected_nodes(crotonic, 50.0)
        nodes_second = largest_connected_nodes(crotonic, 50.0)
        assert nodes_first == nodes_second
        assert set(nodes_first) < set(crotonic.nodes)


class TestThresholdSignature:
    def test_signature_buckets_thresholds(self, crotonic):
        assert (
            crotonic.threshold_signature(100.0)
            == crotonic.threshold_signature(200.0)
            == crotonic.threshold_signature(500.0)
        )
        assert crotonic.threshold_signature(100.0) != crotonic.threshold_signature(
            1000.0
        )

    def test_signature_below_all_delays(self, crotonic):
        explicit, default_included = crotonic.threshold_signature(1.0)
        assert explicit is None
        assert default_included is False

    def test_signature_tracks_mutation(self, crotonic):
        before = crotonic.threshold_signature(100.0)
        crotonic.set_pair_delay("M", "C2", 99.0)
        assert crotonic.threshold_signature(100.0) != before

    def test_infinite_explicit_delay_does_not_collide(self):
        env = PhysicalEnvironment(
            {"a": 1.0, "b": 1.0, "c": 1.0},
            {("a", "b"): 2.0, ("b", "c"): math.inf},
            default_pair_delay=5.0,
        )
        assert env.threshold_signature(10.0) != env.threshold_signature(math.inf)
        finite = env.adjacency_graph(10.0)
        assert not finite.has_edge("b", "c")
        unbounded = env.adjacency_graph(math.inf)
        assert unbounded is not finite
        assert unbounded.has_edge("b", "c")
        assert unbounded.number_of_edges() == 3


class TestNanThreshold:
    """NaN compares false against every delay, so it has no edge set."""

    def test_adjacency_graph_raises_and_caches_nothing(self, crotonic):
        before = STATS.snapshot()
        with pytest.raises(EnvironmentError_, match="nan") as info:
            crotonic.adjacency_graph(math.nan)
        # Not a ThresholdError: sweeps render those as N/A cells.
        assert not isinstance(info.value, ThresholdError)
        # 9200 is crotonic's largest explicit delay, the signature NaN used
        # to collide with; its graph must still be built fresh and whole.
        graph = crotonic.adjacency_graph(9200.0)
        delta = STATS.delta_since(before)
        assert delta.get("environment.adjacency_cache_misses", 0) == 1
        assert delta.get("environment.adjacency_cache_hits", 0) == 0
        assert graph.number_of_edges() == len(crotonic.finite_pairs())

    @pytest.mark.parametrize("thresholds", [(math.nan, 9200.0), (9200.0, math.nan)])
    def test_sweep_never_shares_a_cell_with_nan(self, crotonic, thresholds):
        # The sweep refuses the list up front, as RunConfig does, before
        # any cell could be keyed by a threshold signature.
        with pytest.raises(
            ConfigError, match=r"^thresholds must be positive finite numbers"
        ) as info:
            sweep_circuit(lambda: qft_circuit(5), crotonic, thresholds=thresholds)
        assert "nan" in str(info.value)
        assert not isinstance(info.value, ThresholdError)


# ---------------------------------------------------------------------------
# Order-exact parity of the derived graphs with the dense all-pairs walk
# ---------------------------------------------------------------------------


def _canonical(a, b):
    return (a, b) if repr(a) <= repr(b) else (b, a)


def _reference_pairs(env, keep):
    """Every node pair in declaration order, as the derived graphs once did."""
    nodes = env.nodes
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            delay = env.pair_delay(a, b)
            if keep(delay):
                yield a, b, delay


def _reference_graph(env, name, keep):
    graph = nx.Graph(name=name)
    for node in env.nodes:
        graph.add_node(node, delay=env.single_qubit_delay(node))
    for a, b, delay in _reference_pairs(env, keep):
        graph.add_edge(a, b, delay=delay)
    return graph


def _reference_minimal_threshold(env):
    graph = _reference_graph(env, env.name, math.isfinite)
    if graph.number_of_edges() == 0 or not nx.is_connected(graph):
        return None
    tree = nx.minimum_spanning_tree(graph, weight="delay")
    return max(data["delay"] for _, _, data in tree.edges(data=True))


def _snapshot(graph):
    """Everything order-sensitive a consumer of the graph can observe."""
    return (
        list(graph.nodes(data=True)),
        list(graph.edges(data=True)),
        [list(graph.adj[node]) for node in graph],
        graph.graph,
    )


_LABELS = st.one_of(
    st.integers(-3, 40),
    st.text("abc", min_size=1, max_size=3),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
_DELAYS = (1.0, 2.0, 7.0, 10.0, 60.0, math.inf)


@st.composite
def _environment_args(draw):
    """Constructor arguments: shuffled mixed labels, sparse or dense pairs."""
    labels = draw(st.lists(_LABELS, min_size=2, max_size=30, unique=True))
    single = {label: draw(st.sampled_from((1.0, 3.0))) for label in labels}
    index_pairs = [
        (i, j) for i in range(len(labels)) for j in range(i + 1, len(labels))
    ]
    chosen = draw(
        st.lists(st.sampled_from(index_pairs), unique=True, max_size=60)
    )
    pairs = {}
    for i, j in chosen:
        a, b = (labels[i], labels[j]) if draw(st.booleans()) else (labels[j], labels[i])
        pairs[(a, b)] = draw(st.sampled_from(_DELAYS))
    default = draw(st.sampled_from((7.0, 60.0, math.inf)))
    return single, pairs, default


def _thresholds(pairs, default):
    finite = sorted({d for d in (*pairs.values(), default) if math.isfinite(d)})
    midpoints = [(low + high) / 2 for low, high in zip(finite, finite[1:])]
    return [0.5, *finite, *midpoints, math.inf]


class TestSparsePairWalkParity:
    @settings(max_examples=60, deadline=None)
    @given(_environment_args())
    def test_derived_graphs_match_the_all_pairs_walk(self, args):
        single, pairs, default = args
        build = partial(PhysicalEnvironment, single, pairs, default, name="h")
        for threshold in _thresholds(pairs, default):
            # A fresh environment per threshold: a cached graph keeps the
            # name of the first threshold that built its signature.
            graph = build().adjacency_graph(threshold)
            expected = _reference_graph(
                build(), f"h@{threshold:g}", lambda d, t=threshold: d <= t
            )
            assert _snapshot(graph) == _snapshot(expected)
        env = build()
        expected_finite = {
            _canonical(a, b): delay
            for a, b, delay in _reference_pairs(env, math.isfinite)
        }
        assert list(env.finite_pairs().items()) == list(expected_finite.items())
        assert env.delay_values() == sorted(set(expected_finite.values()))
        assert _snapshot(env.to_networkx()) == _snapshot(
            _reference_graph(env, "h", math.isfinite)
        )
        assert _snapshot(env.to_networkx(include_infinite=True)) == _snapshot(
            _reference_graph(env, "h", lambda d: True)
        )
        expected_minimal = _reference_minimal_threshold(env)
        if expected_minimal is None:
            with pytest.raises(EnvironmentError_):
                env.minimal_connecting_threshold()
        else:
            assert env.minimal_connecting_threshold() == expected_minimal

    def test_sparse_host_never_walks_all_pairs(self, monkeypatch):
        """On a host whose default delay is infinite, no O(n^2) pair walk runs."""
        env = grid(8, 8)

        def dense_walk(self, a, b):
            raise AssertionError("pair_delay called: an all-pairs walk ran")

        monkeypatch.setattr(PhysicalEnvironment, "pair_delay", dense_walk)
        couplings = 2 * 8 * 7
        assert env.adjacency_graph(10.0).number_of_edges() == couplings
        assert len(env.finite_pairs()) == couplings
        assert env.to_networkx().number_of_edges() == couplings
        assert env.minimal_connecting_threshold() == 10.0
