"""Unit tests for PhysicalEnvironment."""

import math

import pytest

from repro.exceptions import EnvironmentError_
from repro.hardware.environment import PhysicalEnvironment


@pytest.fixture
def triangle():
    return PhysicalEnvironment(
        {"x": 1.0, "y": 2.0, "z": 3.0},
        {("x", "y"): 10.0, ("y", "z"): 20.0},
        default_pair_delay=100.0,
        name="triangle",
    )


class TestConstruction:
    def test_empty_environment_rejected(self):
        with pytest.raises(EnvironmentError_):
            PhysicalEnvironment({}, {})

    def test_pair_referencing_unknown_node_rejected(self):
        with pytest.raises(EnvironmentError_):
            PhysicalEnvironment({"a": 1.0}, {("a", "b"): 5.0})

    def test_self_pair_rejected(self):
        with pytest.raises(EnvironmentError_):
            PhysicalEnvironment({"a": 1.0, "b": 1.0}, {("a", "a"): 5.0})

    def test_duplicate_pair_rejected(self):
        with pytest.raises(EnvironmentError_):
            PhysicalEnvironment(
                {"a": 1.0, "b": 1.0}, {("a", "b"): 5.0, ("b", "a"): 6.0}
            )

    def test_negative_delay_rejected(self):
        with pytest.raises(EnvironmentError_):
            PhysicalEnvironment({"a": -1.0}, {})
        with pytest.raises(EnvironmentError_):
            PhysicalEnvironment({"a": 1.0, "b": 1.0}, {("a", "b"): -5.0})

    def test_negative_default_rejected(self):
        with pytest.raises(EnvironmentError_):
            PhysicalEnvironment({"a": 1.0}, {}, default_pair_delay=-1.0)

    @pytest.mark.parametrize(
        "nodes, pairs, default",
        [
            ({"a": math.nan}, {}, math.inf),
            ({"a": 1.0, "b": 1.0}, {("a", "b"): math.nan}, math.inf),
            ({"a": 1.0}, {}, math.nan),
        ],
        ids=["node", "pair", "default"],
    )
    def test_nan_delay_rejected(self, nodes, pairs, default):
        with pytest.raises(EnvironmentError_, match="non-negative number"):
            PhysicalEnvironment(nodes, pairs, default_pair_delay=default)

    @pytest.mark.parametrize(
        "nodes, pairs, default",
        [
            ({"a": True}, {}, math.inf),
            ({"a": 1.0, "b": 1.0}, {("a", "b"): True}, math.inf),
            ({"a": 1.0}, {}, False),
        ],
        ids=["node", "pair", "default"],
    )
    def test_boolean_delay_rejected(self, nodes, pairs, default):
        # A bool is an int to float(): True used to load as a delay of 1.0.
        with pytest.raises(EnvironmentError_, match="non-negative number, got (True|False)$"):
            PhysicalEnvironment(nodes, pairs, default_pair_delay=default)

    def test_boolean_time_unit_rejected(self):
        with pytest.raises(
            EnvironmentError_, match="^time_unit_seconds must be a number, not True$"
        ):
            PhysicalEnvironment({"a": 1.0}, {}, time_unit_seconds=True)

    @pytest.mark.parametrize(
        "unit", [-1.0, 0.0, math.nan, math.inf], ids=["negative", "zero", "nan", "inf"]
    )
    def test_non_positive_or_non_finite_time_unit_rejected(self, unit):
        with pytest.raises(
            EnvironmentError_, match="time_unit_seconds must be a positive finite"
        ):
            PhysicalEnvironment({"a": 1.0}, {}, time_unit_seconds=unit)


class TestQueries:
    def test_nodes_and_membership(self, triangle):
        assert triangle.nodes == ("x", "y", "z")
        assert triangle.num_qubits == 3
        assert "x" in triangle
        assert "w" not in triangle

    def test_single_qubit_delay(self, triangle):
        assert triangle.single_qubit_delay("y") == 2.0

    def test_single_qubit_delay_unknown_node(self, triangle):
        with pytest.raises(EnvironmentError_):
            triangle.single_qubit_delay("nope")

    def test_pair_delay_symmetric(self, triangle):
        assert triangle.pair_delay("x", "y") == triangle.pair_delay("y", "x") == 10.0

    def test_pair_delay_default(self, triangle):
        assert triangle.pair_delay("x", "z") == 100.0

    def test_pair_delay_same_node_is_single_qubit_delay(self, triangle):
        assert triangle.pair_delay("z", "z") == 3.0

    def test_weight_alias(self, triangle):
        assert triangle.weight("x", "y") == triangle.pair_delay("x", "y")

    def test_finite_pairs_includes_defaults(self, triangle):
        pairs = triangle.finite_pairs()
        assert len(pairs) == 3

    def test_infinite_default_excluded_from_finite_pairs(self):
        env = PhysicalEnvironment({"a": 1.0, "b": 1.0, "c": 1.0}, {("a", "b"): 2.0})
        assert len(env.finite_pairs()) == 1

    def test_delay_values_sorted_unique(self, triangle):
        assert triangle.delay_values() == [10.0, 20.0, 100.0]

    def test_search_space_size(self, triangle):
        assert triangle.search_space_size(3) == 6
        assert triangle.search_space_size(2) == 6
        assert triangle.search_space_size(4) == 0

    def test_seconds_conversion(self, triangle):
        assert triangle.seconds(136) == pytest.approx(0.0136)


class TestGraphs:
    def test_adjacency_graph_filters_by_threshold(self, triangle):
        graph = triangle.adjacency_graph(15.0)
        assert graph.has_edge("x", "y")
        assert not graph.has_edge("y", "z")
        assert graph.number_of_nodes() == 3

    def test_adjacency_graph_keeps_delay_attribute(self, triangle):
        graph = triangle.adjacency_graph(1000.0)
        assert graph["x"]["y"]["delay"] == 10.0

    def test_is_connected_at(self, triangle):
        assert not triangle.is_connected_at(15.0)
        assert triangle.is_connected_at(25.0)

    def test_minimal_connecting_threshold(self, triangle):
        assert triangle.minimal_connecting_threshold() == 20.0

    def test_minimal_connecting_threshold_disconnected_raises(self):
        env = PhysicalEnvironment(
            {"a": 1.0, "b": 1.0, "c": 1.0},
            {("a", "b"): 2.0},
            default_pair_delay=math.inf,
        )
        with pytest.raises(EnvironmentError_):
            env.minimal_connecting_threshold()

    def test_to_networkx_excludes_infinite_by_default(self):
        env = PhysicalEnvironment(
            {"a": 1.0, "b": 1.0, "c": 1.0},
            {("a", "b"): 2.0},
            default_pair_delay=math.inf,
        )
        assert env.to_networkx().number_of_edges() == 1
        assert env.to_networkx(include_infinite=True).number_of_edges() == 3


class TestTransformations:
    def test_restricted_to(self, triangle):
        sub = triangle.restricted_to(["x", "y"])
        assert sub.num_qubits == 2
        assert sub.pair_delay("x", "y") == 10.0

    def test_restricted_to_empty_rejected(self, triangle):
        with pytest.raises(EnvironmentError_):
            triangle.restricted_to([])

    def test_restricted_to_is_subset_in_parent_order(self, triangle):
        # The restriction keeps the parent's node order, ignores unknown
        # nodes, and accepts a one-shot iterable (the membership set is
        # built once, not per node).
        sub = triangle.restricted_to(iter(["y", "ghost", "x"]))
        assert list(sub.nodes) == ["x", "y"]
        assert set(sub.nodes) <= set(triangle.nodes)
        assert sub.pair_delay("x", "y") == triangle.pair_delay("x", "y")
        assert sub.default_pair_delay == triangle.default_pair_delay

    def test_restricted_to_full_set_preserves_everything(self, triangle):
        sub = triangle.restricted_to(list(triangle.nodes))
        assert list(sub.nodes) == list(triangle.nodes)
        assert sub.pair_delay("y", "z") == triangle.pair_delay("y", "z")

    def test_scaled(self, triangle):
        scaled = triangle.scaled(2.0)
        assert scaled.pair_delay("x", "y") == 20.0
        assert scaled.single_qubit_delay("x") == 2.0
        assert scaled.default_pair_delay == 200.0

    def test_scaled_rejects_nonpositive_factor(self, triangle):
        with pytest.raises(EnvironmentError_):
            triangle.scaled(0.0)

    def test_scaled_keeps_infinite_default(self):
        env = PhysicalEnvironment({"a": 1.0, "b": 1.0}, {}, default_pair_delay=math.inf)
        assert math.isinf(env.scaled(3.0).default_pair_delay)
