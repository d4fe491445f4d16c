"""Unit tests for environment JSON serialization."""

import math

import pytest

from repro.exceptions import EnvironmentError_, SerializationError
from repro.hardware import io as hio
from repro.hardware.architectures import linear_chain
from repro.hardware.molecules import acetyl_chloride, all_molecules


class TestRoundTrip:
    def test_acetyl_chloride_round_trip(self):
        env = acetyl_chloride()
        restored = hio.loads(hio.dumps(env))
        assert restored.name == env.name
        assert set(restored.nodes) == set(env.nodes)
        assert restored.pair_delay("M", "C2") == 672.0
        assert restored.single_qubit_delay("C2") == 1.0

    def test_all_molecules_round_trip(self):
        for env in all_molecules():
            restored = hio.loads(hio.dumps(env))
            for (a, b), delay in env.explicit_pairs().items():
                assert restored.pair_delay(a, b) == delay

    def test_integer_labels_round_trip(self):
        env = linear_chain(4)
        restored = hio.loads(hio.dumps(env))
        assert set(restored.nodes) == {0, 1, 2, 3}
        assert restored.pair_delay(1, 2) == 10.0

    def test_infinite_default_round_trip(self):
        env = linear_chain(3)
        restored = hio.loads(hio.dumps(env))
        assert math.isinf(restored.default_pair_delay)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "env.json"
        hio.save(acetyl_chloride(), str(path))
        restored = hio.load(str(path))
        assert restored.pair_delay("M", "C1") == 38.0


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(SerializationError):
            hio.loads("{not json")

    def test_missing_nodes_key(self):
        with pytest.raises(SerializationError):
            hio.from_dict({"pairs": []})

    def test_malformed_pair_entry(self):
        with pytest.raises(SerializationError):
            hio.from_dict({"nodes": {"a": 1.0, "b": 1.0}, "pairs": [["a", "b"]]})

    def test_unsupported_default(self):
        with pytest.raises(SerializationError):
            hio.from_dict({"nodes": {"a": 1.0}, "pairs": [], "default_pair_delay": "huge"})

    @pytest.mark.parametrize(
        "data",
        [
            {"nodes": ["a", "b"]},
            {"nodes": {"a": "abc"}},
            {"nodes": {"a": 1.0, "b": 1.0}, "pairs": [5]},
            {"nodes": {"a": 1.0, "b": 1.0}, "pairs": [["a", "b", "abc"]]},
            {"nodes": {"a": 1.0}, "time_unit_seconds": "abc"},
            {"nodes": {"a": 1.0}, "default_pair_delay": [1]},
            ["nodes"],
        ],
    )
    def test_malformed_fields_fail_closed(self, data):
        with pytest.raises(SerializationError, match="malformed environment"):
            hio.from_dict(data)

    def test_nan_default_is_an_environment_error(self):
        with pytest.raises(EnvironmentError_, match="default_pair_delay"):
            hio.loads('{"nodes": {"a": 1.0}, "default_pair_delay": NaN}')

    @pytest.mark.parametrize("unit", ["-1", "0", "NaN", "Infinity"])
    def test_bad_time_unit_is_an_environment_error(self, unit):
        with pytest.raises(EnvironmentError_, match="time_unit_seconds"):
            hio.loads(f'{{"nodes": {{"a": 1.0}}, "time_unit_seconds": {unit}}}')

    @pytest.mark.parametrize(
        "nodes, first, second, node",
        [
            ({"1": 1.0, "01": 2.0, "b": 1.0}, "1", "01", 1),
            ({"0": 1.0, "-0": 2.0}, "0", "-0", 0),
            ({"-2": 1.0, "a": 1.0, "-02": 1.0}, "-2", "-02", -2),
        ],
    )
    def test_node_keys_naming_one_node_are_refused(self, nodes, first, second, node):
        message = f"node keys '{first}' and '{second}' both name node {node}$"
        with pytest.raises(SerializationError, match=message):
            hio.from_dict({"nodes": nodes})

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"nodes": {"a": 1.0, "a": 2.0, "b": 1.0}}', "a"),
            ('{"nodes": {"a": 1.0}, "name": "x", "name": "y"}', "name"),
            ('{"nodes": {"1": 1.0, "1": 1.0}}', "1"),
        ],
    )
    def test_repeated_keys_are_refused(self, text, key):
        message = f"^repeated key '{key}' in one object of the environment JSON$"
        with pytest.raises(SerializationError, match=message):
            hio.loads(text)


class TestRepeatedPairs:
    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([["a", "b", 5], ["a", "b", 9]], r"^pair \('a', 'b'\) is listed twice$"),
            ([["1", "2", 5], [1, 2, 9]], r"^pair \(1, 2\) is listed twice$"),
        ],
        ids=["same-spelling", "int-and-string"],
    )
    def test_a_pair_listed_twice_is_refused(self, pairs, message):
        nodes = {"a": 1.0, "b": 1.0, "1": 1.0, "2": 1.0}
        with pytest.raises(SerializationError, match=message):
            hio.from_dict({"nodes": nodes, "pairs": pairs})


class TestPairLabels:
    def test_integer_looking_pair_labels_name_integer_nodes(self):
        env = hio.loads(
            '{"nodes": {"1": 1.0, "2": 1.0, "-3": 1.0}, '
            '"pairs": [["1", "2", 5.0], [2, "-3", 7.0]]}'
        )
        assert env.pair_delay(1, 2) == 5.0
        assert env.pair_delay(2, -3) == 7.0
        assert hio.loads(hio.dumps(env)).explicit_pairs() == env.explicit_pairs()

    def test_string_pair_labels_stay_strings(self):
        env = hio.from_dict(
            {"nodes": {"a1": 1.0, "b": 1.0}, "pairs": [["a1", "b", 3.0]]}
        )
        assert env.pair_delay("a1", "b") == 3.0


class TestLabelRule:
    """``label_from_text``: the one label rule of environment files and of
    the circuit text format."""

    @pytest.mark.parametrize("text, label", [
        ("7", 7), ("-3", -3), ("007", 7), ("-0", 0), ("a", "a"), ("a1", "a1"),
        ("-", "-"), ("1.5", "1.5"), ("+1", "+1"), ("--1", "--1"),
        ("²", "²"),  # a superscript digit is no decimal number
    ])
    def test_integer_looking_text_becomes_an_int(self, text, label):
        result = hio.label_from_text(text)
        assert result == label
        assert type(result) is type(label)

    def test_circuit_text_format_shares_the_rule(self):
        from repro.circuits import qasm

        assert qasm.label_from_text is hio.label_from_text


class TestJsonBooleans:
    """A JSON ``true``/``false`` is neither a node label nor a number."""

    def test_boolean_pair_label_is_refused(self):
        # true used to name int node 1, and dumps then refused the pair.
        with pytest.raises(
            SerializationError, match="^unsupported node label True in environment file$"
        ):
            hio.loads('{"nodes": {"1": 1.0, "b": 1.0}, "pairs": [[true, "b", 5]]}')

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                '{"nodes": {"a": true, "b": 1.0}}',
                "the delay of node 'a' must be a number, not the boolean true",
            ),
            (
                '{"nodes": {"a": 1.0, "b": 1.0}, "pairs": [["a", "b", false]]}',
                r"the delay of pair \('a', 'b'\) must be a number, not the boolean false",
            ),
            (
                '{"nodes": {"a": 1.0}, "default_pair_delay": true}',
                "default_pair_delay must be a number, not the boolean true",
            ),
            (
                '{"nodes": {"a": 1.0}, "time_unit_seconds": true}',
                "time_unit_seconds must be a number, not the boolean true",
            ),
        ],
        ids=["node-delay", "pair-delay", "default-pair-delay", "time-unit"],
    )
    def test_boolean_number_is_refused(self, text, message):
        with pytest.raises(SerializationError, match=f"^{message}$"):
            hio.loads(text)
