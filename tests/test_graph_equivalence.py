"""Equivalence tests for the in-house graph type and the code moved onto it.

The placement pipeline holds its graphs in :class:`repro.core.graph.Graph`
instead of :class:`networkx.Graph`, and the environment derives its
threshold graphs, connectivity, largest component and minimal connecting
threshold, workspace extraction its bipartite test, and permutation
completion its hop distances without networkx.  The networkx code they
replaced is kept below, verbatim, as the reference:

* after any sequence of node and edge additions, removals and copies, a
  :class:`Graph` and a :class:`networkx.Graph` list the same nodes,
  edges (with attributes), adjacency and degrees in the same order;
* for any environment and threshold, connectivity, the largest component
  (node order, edge order, and which of two equal components wins) and
  the public :class:`networkx.Graph` accessors agree with the reference,
  and ``minimal_connecting_threshold`` returns the same value (even the
  sign of a zero) or raises the same error;
* bipartiteness and don't-care completion agree on either graph type.

The inputs cover int, str, tuple and mixed labels with shuffled insertion
order (string and tuple hashes vary per ``PYTHONHASHSEED``), self-loops,
defaulted, infinite and zero delays, and disconnected, one-node and
edgeless hosts.
"""

import math
import random
import sys
from typing import Dict, Mapping

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.graph import Graph, is_bipartite
from repro.exceptions import EnvironmentError_, RoutingError
from repro.hardware.environment import PhysicalEnvironment
from repro.hardware.molecules import MOLECULE_FACTORIES
from repro.hardware.threshold_graph import PAPER_THRESHOLDS
from repro.routing.permutation import Permutation, complete_partial_permutation

RELAXED = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# The networkx environment graphs and completion, kept verbatim as the
# reference
# ---------------------------------------------------------------------------


class ReferenceEnvironment:
    """The networkx derived graphs of a :class:`PhysicalEnvironment`, cached as before."""

    def __init__(self, environment: PhysicalEnvironment) -> None:
        self.environment = environment
        self.name = environment.name
        self._adjacency_cache: Dict = {}
        self._component_cache: Dict = {}
        self._connectivity_cache: Dict = {}

    def threshold_signature(self, threshold: float):
        return self.environment.threshold_signature(threshold)

    def _delay_graph(self, name: str, limit: float) -> nx.Graph:
        """All nodes, plus an edge for every pair with ``delay <= limit``."""
        graph = nx.Graph(name=name)
        for node in self.environment.nodes:
            graph.add_node(node, delay=self.environment.single_qubit_delay(node))
        for a, b, delay in self.environment._pairs_within(limit):
            graph.add_edge(a, b, delay=delay)
        return graph

    def to_networkx(self, include_infinite: bool = False) -> nx.Graph:
        """Full environment graph with ``delay`` edge and node attributes."""
        limit = math.inf if include_infinite else sys.float_info.max
        return self._delay_graph(self.name, limit)

    def adjacency_graph(self, threshold: float) -> nx.Graph:
        key = self.threshold_signature(threshold)
        cached = self._adjacency_cache.get(key)
        if cached is not None:
            return cached
        graph = self._delay_graph(f"{self.name}@{threshold:g}", threshold)
        self._adjacency_cache[key] = graph
        return graph

    def is_connected_at(self, threshold: float) -> bool:
        """Whether the adjacency graph at ``threshold`` is connected."""
        key = self.threshold_signature(threshold)
        cached = self._connectivity_cache.get(key)
        if cached is not None:
            return cached
        graph = self.adjacency_graph(threshold)
        connected = graph.number_of_nodes() > 0 and nx.is_connected(graph)
        self._connectivity_cache[key] = connected
        return connected

    def largest_component_graph(self, threshold: float) -> nx.Graph:
        key = self.threshold_signature(threshold)
        cached = self._component_cache.get(key)
        if cached is not None:
            return cached
        graph = self.adjacency_graph(threshold)
        if self.is_connected_at(threshold):
            component = graph
        else:
            components = sorted(
                nx.connected_components(graph), key=len, reverse=True
            )
            members = set(components[0])
            component = nx.Graph(**graph.graph)
            component.add_nodes_from(
                (node, graph.nodes[node]) for node in graph.nodes() if node in members
            )
            component.add_edges_from(
                (a, b, data)
                for a, b, data in graph.edges(data=True)
                if a in members and b in members
            )
        self._component_cache[key] = component
        return component

    def minimal_connecting_threshold(self) -> float:
        graph = self.to_networkx(include_infinite=False)
        if graph.number_of_edges() == 0 or not nx.is_connected(graph):
            raise EnvironmentError_(
                f"environment {self.name!r} has no connected finite-delay graph"
            )
        tree = nx.minimum_spanning_tree(graph, weight="delay")
        return max(
            data["delay"] for _, _, data in tree.edges(data=True)
        )


def reference_completion(
    graph: nx.Graph,
    partial: Mapping,
) -> Permutation:
    """Extend a partial node permutation to a full one over ``graph``'s nodes."""
    from repro.core._bitset import node_index_table

    nodes = list(graph.nodes())
    node_set = set(nodes)
    for source, target in partial.items():
        if source not in node_set or target not in node_set:
            raise RoutingError(
                f"partial permutation references node(s) outside the graph: "
                f"{source!r} -> {target!r}"
            )

    mapping: Dict = dict(partial)
    used_targets = set(mapping.values())
    free_targets = [node for node in nodes if node not in used_targets]
    unassigned_sources = [node for node in nodes if node not in mapping]

    # First pass: keep don't-care tokens in place when possible.
    remaining_sources = []
    free_target_set = set(free_targets)
    for source in unassigned_sources:
        if source in free_target_set:
            mapping[source] = source
            free_target_set.remove(source)
        else:
            remaining_sources.append(source)

    # Second pass: nearest free node by BFS distance.
    node_order = node_index_table(nodes)
    for source in remaining_sources:
        if not free_target_set:
            raise RoutingError("ran out of free destination nodes")  # pragma: no cover
        distances = nx.single_source_shortest_path_length(graph, source)
        best = min(
            free_target_set,
            key=lambda target: (distances.get(target, float("inf")), node_order[target]),
        )
        mapping[source] = best
        free_target_set.remove(best)

    return Permutation(mapping)


# ---------------------------------------------------------------------------
# Inputs and comparisons
# ---------------------------------------------------------------------------


LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"q{i}",
    "tuple": lambda i: (i % 3, f"n{i}"),
    "mixed": lambda i: (i, f"q{i}", (i, "t"))[i % 3],
}

#: Delays with ties, zeros of both signs and an infinite coupling.
DELAYS = (0.0, -0.0, 1.0, 2.0, 2.0, 5.0, 7.5, math.inf)


def _layout(graph):
    """Everything whose order a traversal can observe."""
    return (
        repr(graph.graph),
        repr(list(graph.nodes(data=True))),
        repr(list(graph.edges(data=True))),
        repr([(node, list(graph.adj[node].items())) for node in graph.nodes()]),
        repr([graph.degree(node) for node in graph.nodes()]),
        graph.number_of_nodes(),
        graph.number_of_edges(),
    )


def _apply(graph, operation):
    kind, args = operation
    if kind == "copy":
        return graph.copy()
    getattr(graph, kind)(*args[:-1], **args[-1])
    return graph


@st.composite
def operation_sequences(draw, max_nodes=9):
    """Random add/remove/copy sequences, each valid on either graph type."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    size = draw(st.integers(1, max_nodes))
    nodes = [label(i) for i in range(size)]
    edges = []  # each present edge once
    operations = []
    for _ in range(draw(st.integers(0, 40))):
        roll = rng.random()
        if roll < 0.15:
            node = rng.choice(nodes)
            operations.append(("add_node", (node, {"delay": rng.choice(DELAYS)})))
        elif roll < 0.6:
            a, b = rng.choice(nodes), rng.choice(nodes)
            if a == b and rng.random() < 0.7:
                continue
            attributes = {"delay": rng.choice(DELAYS)} if rng.random() < 0.5 else {}
            operations.append(("add_edge", (a, b, attributes)))
            if not any({a, b} == {u, v} for u, v in edges):
                edges.append((a, b))
        elif roll < 0.75 and edges:
            a, b = edges.pop(rng.randrange(len(edges)))
            operations.append(("remove_edge", (b, a, {}) if rng.random() < 0.5 else (a, b, {})))
        elif roll < 0.87:
            gone = rng.sample(nodes, rng.randint(1, min(3, size)))
            operations.append(("remove_nodes_from", (gone, {})))
            edges = [(u, v) for u, v in edges if u not in gone and v not in gone]
        else:
            operations.append(("copy", ()))
    return operations


@st.composite
def environments(draw, max_nodes=8):
    """Random environments: explicit pairs, a finite or infinite default."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    size = draw(st.integers(1, max_nodes))
    order = list(range(size))
    rng.shuffle(order)
    density = draw(st.sampled_from((0.0, 0.15, 0.35, 0.7)))
    pairs = {}
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < density:
                a, b = label(order[i]), label(order[j])
                pairs[(a, b) if rng.random() < 0.5 else (b, a)] = rng.choice(DELAYS)
    default = draw(st.sampled_from((math.inf, math.inf, 6.0, 0.0)))
    single = {label(node): rng.choice((1.0, 2.0)) for node in order}
    return PhysicalEnvironment(single, pairs, default_pair_delay=default, name="env")


def _thresholds(environment):
    values = sorted(set(environment.explicit_pairs().values()) | {environment.default_pair_delay})
    return values + [-1.0, 3.0, math.inf]


def _outcome(function, *args):
    """A value's ``repr`` (a permutation's mapping in order), or the error."""
    try:
        value = function(*args)
    except (EnvironmentError_, RoutingError) as error:
        return ("error", type(error).__name__, str(error))
    if isinstance(value, Permutation):
        value = list(value.as_dict().items())
    return ("value", repr(value))


# ---------------------------------------------------------------------------
# The graph type
# ---------------------------------------------------------------------------


class TestGraphMatchesNetworkx:
    @RELAXED
    @given(operation_sequences())
    def test_operation_sequences(self, operations):
        ours, theirs = Graph(), nx.Graph()
        for operation in operations:
            ours = _apply(ours, operation)
            theirs = _apply(theirs, operation)
            assert _layout(ours) == _layout(theirs), operation
        converted = ours.to_networkx()
        assert isinstance(converted, nx.Graph)
        assert _layout(converted) == _layout(theirs.copy())
        assert _layout(ours.copy()) == _layout(theirs.copy())
        for node in list(theirs.nodes())[:3]:
            assert (node in ours) == (node in theirs)
            assert list(ours.neighbors(node)) == list(theirs.neighbors(node))
            assert list(ours[node]) == list(theirs[node])
            for other in list(theirs.nodes())[:3]:
                assert ours.has_edge(node, other) == theirs.has_edge(node, other)

    def test_copies_are_independent(self):
        graph = Graph(name="g")
        graph.add_edge("a", "b", delay=1.0)
        copy = graph.copy()
        copy["a"]["b"]["delay"] = 2.0
        copy.graph["name"] = "h"
        assert graph["a"]["b"]["delay"] == 1.0
        assert graph.graph == {"name": "g"}
        assert copy["b"]["a"] is copy["a"]["b"]

    def test_unhashable_values_are_not_nodes(self):
        graph = Graph()
        graph.add_node("a")
        assert [] not in graph


class TestBipartite:
    @RELAXED
    @given(operation_sequences())
    def test_matches_networkx_on_either_type(self, operations):
        ours, theirs = Graph(), nx.Graph()
        for operation in operations:
            ours = _apply(ours, operation)
            theirs = _apply(theirs, operation)
        expected = nx.is_bipartite(theirs)
        assert is_bipartite(ours) == expected
        assert is_bipartite(theirs) == expected

    @pytest.mark.parametrize("length", range(1, 8))
    def test_cycles_and_self_loops(self, length):
        graph = Graph()
        for node in range(length):
            graph.add_edge(node, (node + 1) % length)
        assert is_bipartite(graph) == nx.is_bipartite(nx.cycle_graph(length))
        graph.add_edge(length + 1, length + 2)
        graph.add_edge(length + 2, length + 2)
        assert not is_bipartite(graph)


# ---------------------------------------------------------------------------
# The environment's graphs
# ---------------------------------------------------------------------------


def _assert_environment_matches(environment, thresholds=()):
    reference = ReferenceEnvironment(environment)
    for threshold in [*thresholds, *_thresholds(environment)]:
        expected = reference.adjacency_graph(threshold)
        actual = environment.adjacency_graph(threshold)
        assert isinstance(actual, nx.Graph)
        assert _layout(actual) == _layout(expected), threshold
        assert _layout(environment.threshold_graph(threshold)) == _layout(expected)
        assert environment.is_connected_at(threshold) == reference.is_connected_at(
            threshold
        )
        component = reference.largest_component_graph(threshold)
        largest = environment.largest_component_graph(threshold)
        assert isinstance(largest, nx.Graph)
        assert _layout(largest) == _layout(component)
        assert (largest is actual) == (component is expected)
        assert _layout(environment.threshold_component(threshold)) == _layout(component)
    for include_infinite in (False, True):
        assert _layout(environment.to_networkx(include_infinite)) == _layout(
            reference.to_networkx(include_infinite)
        )
    assert _outcome(environment.minimal_connecting_threshold) == _outcome(
        reference.minimal_connecting_threshold
    )


class TestEnvironmentMatchesReference:
    @RELAXED
    @given(environments())
    def test_random_environments(self, environment):
        _assert_environment_matches(environment)

    @pytest.mark.parametrize("molecule", sorted(MOLECULE_FACTORIES))
    def test_molecules(self, molecule):
        _assert_environment_matches(MOLECULE_FACTORIES[molecule](), PAPER_THRESHOLDS)

    def test_equal_components_go_to_the_first_found(self):
        # Two 2-node components; the one holding the first declared node wins.
        environment = PhysicalEnvironment(
            {"d": 1.0, "c": 1.0, "b": 1.0, "a": 1.0},
            {("a", "b"): 1.0, ("c", "d"): 1.0},
        )
        component = environment.threshold_component(1.0)
        assert list(component.nodes()) == ["d", "c"]
        assert _layout(environment.largest_component_graph(1.0)) == _layout(
            ReferenceEnvironment(environment).largest_component_graph(1.0)
        )

    @pytest.mark.parametrize(
        "single, pairs, default",
        [
            ({"a": 1.0}, {}, math.inf),  # one node
            ({"a": 1.0, "b": 1.0}, {}, math.inf),  # edgeless
            ({"a": 1.0, "b": 1.0, "c": 1.0}, {("a", "b"): 2.0}, math.inf),
            ({"a": 1.0, "b": 1.0, "c": 1.0}, {("a", "b"): math.inf}, 4.0),
            ({"a": 1.0, "b": 1.0, "c": 1.0}, {("a", "b"): 2.0}, 0.0),
            ({"a": 1.0, "b": 1.0, "c": 1.0}, {("b", "c"): -0.0}, 0.0),
            ({"a": 1.0, "b": 1.0, "c": 1.0}, {("a", "c"): -0.0, ("b", "c"): 0.0}, math.inf),
        ],
        ids=["one-node", "edgeless", "disconnected", "infinite-pair",
             "zero-default", "negative-zero", "zeros"],
    )
    def test_minimal_connecting_threshold_edge_cases(self, single, pairs, default):
        environment = PhysicalEnvironment(single, pairs, default_pair_delay=default)
        assert _outcome(environment.minimal_connecting_threshold) == _outcome(
            ReferenceEnvironment(environment).minimal_connecting_threshold
        )


# ---------------------------------------------------------------------------
# Don't-care completion
# ---------------------------------------------------------------------------


class TestCompletionMatchesReference:
    @RELAXED
    @given(operation_sequences(), st.integers(0, 2**32 - 1))
    def test_random_graphs(self, operations, seed):
        ours, theirs = Graph(), nx.Graph()
        for operation in operations:
            ours = _apply(ours, operation)
            theirs = _apply(theirs, operation)
        nodes = list(theirs.nodes())
        rng = random.Random(seed)
        count = rng.randint(0, len(nodes))
        partial = dict(zip(rng.sample(nodes, count), rng.sample(nodes, count)))
        expected = _outcome(reference_completion, theirs, partial)
        assert _outcome(complete_partial_permutation, theirs, partial) == expected
        assert _outcome(complete_partial_permutation, ours, partial) == expected

    def test_unreachable_free_nodes_go_in_node_order(self):
        graph = Graph()
        for node in ("s", "q", "p", "r"):
            graph.add_node(node)
        partial = {"r": "p", "s": "q"}
        expected = _outcome(reference_completion, graph.to_networkx(), partial)
        assert _outcome(complete_partial_permutation, graph, partial) == expected
        assert complete_partial_permutation(graph, partial).as_dict() == {
            "r": "p", "s": "q", "q": "r", "p": "s",
        }


# ---------------------------------------------------------------------------
# The public accessors
# ---------------------------------------------------------------------------


class TestPublicAccessors:
    def test_interaction_graphs(self):
        from repro.circuits.interaction_graph import interaction_graph
        from repro.core.workspace import extract_workspaces
        from repro.registry import load_circuit, load_environment

        circuit = load_circuit("qft:6")
        graph = interaction_graph(circuit)
        assert isinstance(graph, nx.Graph)
        assert graph[0][1] == {"count": 1, "duration": 0.5}
        host = load_environment("trans-crotonic-acid").threshold_graph(100.0)
        for workspace in extract_workspaces(circuit, host):
            assert isinstance(workspace.interaction_graph, Graph)
            converted = workspace.interaction_graph.to_networkx()
            assert isinstance(converted, nx.Graph)
            assert _layout(converted) == _layout(workspace.interaction_graph)
            expected = interaction_graph(workspace.gates)
            assert set(converted.nodes()) == set(expected.nodes())
            assert {frozenset(edge) for edge in converted.edges()} == {
                frozenset(edge) for edge in expected.edges()
            }
