"""A small human-readable text format for circuits ("pulse files").

The format is line-oriented, comment-friendly and intentionally close to how
the paper's figures list pulse sequences::

    # 3-qubit error-correction encoder
    qubits a b c
    Ry(90) a
    ZZ(90) a b
    Rz(-90) a
    Rz(90) b
    Ry(90) c
    ZZ(90) b c
    Ry(90) b

Grammar per non-comment line:

* ``qubits <label> <label> ...`` — declares the qubit labels (required,
  first non-comment line);
* ``<Name>(<angle>) <q> [<q2>]`` — a gate with an explicit angle (any
  finite float literal: ``90``, ``-0.5``, ``8.58e-05``), whose duration is
  derived from the gate name and angle via the constructors in
  :mod:`repro.circuits.gates`; the names are RX/RY/RZ/ZZ/CPHASE;
* ``<Name> <q> [<q2>] [duration=<t>]`` — a named gate without an angle;
  CNOT/CZ/SWAP/H/X/Y/Z map to their constructors, any other name becomes a
  generic gate with the given (default 1.0) duration.

:func:`dumps` writes every angle and duration so that it parses back to
the same float (``90`` stays ``90``), so ``loads(dumps(c))`` rebuilds the
gates of ``c`` exactly.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List

from repro.circuits import gates as g
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.exceptions import SerializationError

_GATE_WITH_ANGLE = re.compile(r"^(?P<name>[A-Za-z_][\w]*)\((?P<angle>.*)\)$")

_ANGLE_CONSTRUCTORS: Dict[str, Callable[..., Gate]] = {
    "RX": lambda qubits, angle: g.rx(qubits[0], angle),
    "RY": lambda qubits, angle: g.ry(qubits[0], angle),
    "RZ": lambda qubits, angle: g.rz(qubits[0], angle),
    "ZZ": lambda qubits, angle: g.zz(qubits[0], qubits[1], angle),
    "CPHASE": lambda qubits, angle: g.controlled_phase(qubits[0], qubits[1], angle),
}

_PLAIN_CONSTRUCTORS: Dict[str, Callable[..., Gate]] = {
    "CNOT": lambda qubits: g.cnot(qubits[0], qubits[1]),
    "CX": lambda qubits: g.cnot(qubits[0], qubits[1]),
    "CZ": lambda qubits: g.cz(qubits[0], qubits[1]),
    "SWAP": lambda qubits: g.swap(qubits[0], qubits[1]),
    "H": lambda qubits: g.hadamard(qubits[0]),
    "X": lambda qubits: g.pauli_x(qubits[0]),
    "Y": lambda qubits: g.pauli_y(qubits[0]),
    "Z": lambda qubits: g.pauli_z(qubits[0]),
}


def loads(text: str, name: str = "circuit") -> QuantumCircuit:
    """Parse a circuit from its text representation."""
    qubits: List[str] = []
    gate_list: List[Gate] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head.lower() == "qubits":
            if qubits:
                raise SerializationError(
                    f"line {line_number}: duplicate 'qubits' declaration"
                )
            qubits = tokens[1:]
            if not qubits:
                raise SerializationError(
                    f"line {line_number}: 'qubits' declaration needs labels"
                )
            continue
        if not qubits:
            raise SerializationError(
                f"line {line_number}: gate before the 'qubits' declaration"
            )
        gate_list.append(_parse_gate_line(tokens, line_number))
    if not qubits:
        raise SerializationError("no 'qubits' declaration found")
    try:
        return QuantumCircuit(qubits, gate_list, name=name)
    except Exception as exc:
        raise SerializationError(f"invalid circuit: {exc}") from exc


def _finite(text: str, what: str, line_number: int) -> float:
    """Parse a float literal, refusing text that is not a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SerializationError(
            f"line {line_number}: {what} must be a finite number, got {text!r}"
        )
    return value


def _parse_gate_line(tokens: List[str], line_number: int) -> Gate:
    """Parse one gate line that has already been split into tokens."""
    head = tokens[0]
    duration = None
    operands = []
    for token in tokens[1:]:
        if token.startswith("duration="):
            duration = _finite(token.split("=", 1)[1], "duration", line_number)
        else:
            operands.append(token)

    match = _GATE_WITH_ANGLE.match(head)
    if match:
        gate_name = match.group("name").upper()
        constructor = _ANGLE_CONSTRUCTORS.get(gate_name)
        if constructor is None:
            raise SerializationError(
                f"line {line_number}: unknown parametrised gate {gate_name!r}"
            )
        angle = _finite(match.group("angle"), f"{gate_name} angle", line_number)
        expected = 2 if gate_name in {"ZZ", "CPHASE"} else 1
        if len(operands) != expected:
            raise SerializationError(
                f"line {line_number}: {gate_name} expects {expected} qubit(s), "
                f"got {len(operands)}"
            )
        return constructor(operands, angle)

    gate_name = head.upper()
    constructor = _PLAIN_CONSTRUCTORS.get(gate_name)
    if constructor is not None:
        expected = 1 if gate_name in {"H", "X", "Y", "Z"} else 2
        if len(operands) != expected:
            raise SerializationError(
                f"line {line_number}: {gate_name} expects {expected} qubit(s), "
                f"got {len(operands)}"
            )
        return constructor(operands)

    # Generic named gate with an explicit duration.
    if len(operands) == 1:
        return g.generic_1q(operands[0], duration if duration is not None else 1.0, head)
    if len(operands) == 2:
        return g.generic_2q(
            operands[0], operands[1], duration if duration is not None else 1.0, head
        )
    raise SerializationError(
        f"line {line_number}: gate {head!r} must have one or two qubit operands"
    )


def _number(value: float) -> str:
    """``value`` as the short ``:g`` text when that parses back exactly."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def dumps(circuit: QuantumCircuit) -> str:
    """Serialize a circuit to the text format accepted by :func:`loads`."""
    lines = [f"# {circuit.name}", "qubits " + " ".join(str(q) for q in circuit.qubits)]
    for gate in circuit:
        operands = " ".join(str(q) for q in gate.qubits)
        if gate.angle is not None and gate.name.upper() in _ANGLE_CONSTRUCTORS:
            lines.append(f"{gate.name}({_number(gate.angle)}) {operands}")
        elif gate.name.upper() in _PLAIN_CONSTRUCTORS:
            lines.append(f"{gate.name} {operands}")
        else:
            lines.append(
                f"{gate.name} {operands} duration={_number(gate.duration)}"
            )
    return "\n".join(lines) + "\n"


def load(path: str) -> QuantumCircuit:
    """Read a circuit from a file path."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read(), name=path)


def dump(circuit: QuantumCircuit, path: str) -> None:
    """Write a circuit to a file path (crash-safe: temp file + rename)."""
    # Imported here: analysis.serialization transitively imports repro.circuits.
    from repro.analysis.serialization import atomic_write_text

    atomic_write_text(path, dumps(circuit))
