"""JSON serialization of physical environments.

The on-disk format is a single JSON object::

    {
      "name": "acetyl chloride",
      "time_unit_seconds": 1e-4,
      "default_pair_delay": 5000.0,          // or "inf"
      "nodes": {"M": 8.0, "C1": 8.0, "C2": 1.0},
      "pairs": [["M", "C1", 38.0], ["C1", "C2", 89.0], ["M", "C2", 672.0]]
    }

Node labels are stored as strings; integer-looking labels are converted back
to integers on load so that synthetic architectures round-trip.  Pair
labels follow the same rule, so ``["1", "2", 5.0]`` and ``[1, 2, 5.0]``
both name nodes 1 and 2 (no string label ``"1"`` survives loading).  A key
repeated in any object of the file, and a pair listed twice in either
spelling, are refused rather than letting the last one win.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Tuple, Union

from repro.core._bitset import node_index_table
from repro.exceptions import SerializationError
from repro.hardware.environment import Node, PhysicalEnvironment


def _label_to_json(node: Node) -> Union[str, int]:
    """Represent a node label in JSON (ints stay ints, everything else str)."""
    if isinstance(node, bool):
        raise SerializationError("boolean node labels are not supported")
    if isinstance(node, int):
        return node
    return str(node)


def _label_from_json(value: Any) -> Node:
    """Parse a node label back, converting integer-looking strings to ints."""
    if isinstance(value, str):
        if value.isdigit() or (value.startswith("-") and value[1:].isdigit()):
            return int(value)
        return value
    if isinstance(value, int):
        return value
    raise SerializationError(f"unsupported node label {value!r} in environment file")


def to_dict(environment: PhysicalEnvironment) -> Dict[str, Any]:
    """Convert an environment to a JSON-serialisable dictionary."""
    default = environment.default_pair_delay
    pairs = environment.explicit_pairs()
    pair_order = node_index_table(pairs)
    return {
        "name": environment.name,
        "time_unit_seconds": environment.time_unit_seconds,
        "default_pair_delay": "inf" if math.isinf(default) else default,
        "nodes": {
            str(_label_to_json(node)): environment.single_qubit_delay(node)
            for node in environment.nodes
        },
        "pairs": [
            [_label_to_json(a), _label_to_json(b), delay]
            for (a, b), delay in sorted(
                pairs.items(), key=lambda item: pair_order[item[0]]
            )
        ],
    }


def from_dict(data: Dict[str, Any]) -> PhysicalEnvironment:
    """Build an environment from a dictionary produced by :func:`to_dict`."""
    try:
        raw_nodes = data["nodes"]
        raw_pairs = data.get("pairs", [])
    except (TypeError, KeyError) as exc:
        raise SerializationError(f"malformed environment data: {exc}") from exc

    # Conversion errors (a list where a mapping belongs, a non-numeric
    # delay, a scalar pair entry) all mean a malformed file; the
    # constructor's own EnvironmentError_ checks stay outside the try.
    try:
        single: Dict[Node, float] = {}
        keys: Dict[Node, str] = {}
        for key, delay in raw_nodes.items():
            node = _label_from_json(key)
            if node in keys:
                raise SerializationError(
                    f"node keys {keys[node]!r} and {key!r} both name node {node!r}"
                )
            keys[node] = key
            single[node] = float(delay)

        pairs = {}
        for entry in raw_pairs:
            if len(entry) != 3:
                raise SerializationError(f"malformed pair entry {entry!r}")
            a, b, delay = entry
            pair = (_label_from_json(a), _label_from_json(b))
            if pair in pairs:
                raise SerializationError(f"pair {pair!r} is listed twice")
            pairs[pair] = float(delay)

        default = data.get("default_pair_delay", "inf")
        if isinstance(default, str):
            if default.lower() not in {"inf", "infinity"}:
                raise SerializationError(f"unsupported default_pair_delay {default!r}")
            default_value = math.inf
        else:
            default_value = float(default)
        name = str(data.get("name", "environment"))
        time_unit_seconds = float(data.get("time_unit_seconds", 1e-4))
    except (AttributeError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed environment data: {exc}") from exc

    return PhysicalEnvironment(
        single,
        pairs,
        default_pair_delay=default_value,
        name=name,
        time_unit_seconds=time_unit_seconds,
    )


def dumps(environment: PhysicalEnvironment, indent: int = 2) -> str:
    """Serialize an environment to a JSON string."""
    return json.dumps(to_dict(environment), indent=indent, sort_keys=True)


def _unique_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    """``object_pairs_hook`` refusing a key repeated within one object."""
    data: Dict[str, Any] = {}
    for key, value in pairs:
        if key in data:
            raise SerializationError(
                f"repeated key {key!r} in one object of the environment JSON"
            )
        data[key] = value
    return data


def loads(text: str) -> PhysicalEnvironment:
    """Parse an environment from a JSON string."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid environment JSON: {exc}") from exc
    return from_dict(data)


def save(environment: PhysicalEnvironment, path: str) -> None:
    """Write an environment to a JSON file (crash-safe: temp file + rename)."""
    # Imported here: analysis.serialization transitively imports repro.hardware.
    from repro.analysis.serialization import atomic_write_text

    atomic_write_text(path, dumps(environment))


def load(path: str) -> PhysicalEnvironment:
    """Read an environment from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
