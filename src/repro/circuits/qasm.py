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
  first non-comment line).  Integer-looking labels (``0``, ``-3``) are
  read as ints, by the label rule of :mod:`repro.hardware.io`, so two
  labels naming one int (``1`` and ``01``) are refused;
* ``<Name>(<angle>) <q> [<q2>] [duration=<t>]`` — a gate with an explicit
  angle (any finite float literal: ``90``, ``-0.5``, ``8.58e-05``), built
  by the constructor in :mod:`repro.circuits.gates` the name selects
  (RX/RY/RZ/ZZ/CPHASE), which derives its duration from the angle;
* ``<Name> <q> [<q2>] [duration=<t>]`` — a named gate without an angle;
  CNOT/CZ/SWAP/H/X/Y/Z map to their constructors, any other name becomes a
  generic gate with the given (default 1.0) duration.

A ``duration=`` on a constructor-built gate replaces the duration the
constructor gives it.  :func:`dumps` writes one for every generic gate
and, for a constructor-built gate, only where the two durations differ.
It writes every angle and duration so that it parses back to the same
float (``90`` stays ``90``), and it refuses, with one
:class:`~repro.exceptions.SerializationError` line, a qubit label or gate
that :func:`loads` would not rebuild exactly (the label ``'1'``, which
reads back as the int ``1``; a label holding whitespace, ``#`` or a
leading ``duration=``; a gate named ``cnot``, which reads back as
``CNOT``; a circuit name holding a line break), so ``loads(dumps(c))``
rebuilds the qubits and gates of ``c`` exactly whenever :func:`dumps`
returns.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List, Tuple

from repro.circuits import gates as g
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, Qubit
from repro.exceptions import SerializationError
from repro.hardware.io import label_from_text

_GATE_WITH_ANGLE = re.compile(r"^(?P<name>[A-Za-z_][\w]*)\((?P<angle>.*)\)$")

#: Gate heads built by a constructor: upper-cased name -> (qubit count,
#: constructor), called with the qubits, then the angle for angle heads.
_ANGLE_GATES: Dict[str, Tuple[int, Callable[..., Gate]]] = {
    "RX": (1, g.rx),
    "RY": (1, g.ry),
    "RZ": (1, g.rz),
    "ZZ": (2, g.zz),
    "CPHASE": (2, g.controlled_phase),
}
_PLAIN_GATES: Dict[str, Tuple[int, Callable[..., Gate]]] = {
    "CNOT": (2, g.cnot),
    "CX": (2, g.cnot),
    "CZ": (2, g.cz),
    "SWAP": (2, g.swap),
    "H": (1, g.hadamard),
    "X": (1, g.pauli_x),
    "Y": (1, g.pauli_y),
    "Z": (1, g.pauli_z),
}


def loads(text: str, name: str = "circuit") -> QuantumCircuit:
    """Parse a circuit from its text representation."""
    qubits: List[Qubit] = []
    gate_list: List[Gate] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        tokens = _tokens(raw_line)
        if not tokens:
            continue
        head = tokens[0]
        if head.lower() == "qubits":
            if qubits:
                raise SerializationError(
                    f"line {line_number}: duplicate 'qubits' declaration"
                )
            qubits = _declared_qubits(tokens[1:], line_number)
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


def _tokens(line: str) -> List[str]:
    """The whitespace-separated tokens of a line, its ``#`` comment cut off."""
    return line.split("#", 1)[0].split()


def _declared_qubits(labels: List[str], line_number: int) -> List[Qubit]:
    """The qubits of a ``qubits`` line, refusing two labels for one qubit."""
    if not labels:
        raise SerializationError(
            f"line {line_number}: 'qubits' declaration needs labels"
        )
    seen: Dict[Qubit, str] = {}
    for text in labels:
        qubit = label_from_text(text)
        if qubit in seen:
            raise SerializationError(
                f"line {line_number}: qubit labels {seen[qubit]!r} and "
                f"{text!r} both name qubit {qubit!r}"
            )
        seen[qubit] = text
    return list(seen)


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
    operands: List[Qubit] = []
    for token in tokens[1:]:
        if token.startswith("duration="):
            duration = _finite(token.split("=", 1)[1], "duration", line_number)
        else:
            operands.append(label_from_text(token))

    match = _GATE_WITH_ANGLE.match(head)
    if match:
        gate_name = match.group("name").upper()
        if gate_name not in _ANGLE_GATES:
            raise SerializationError(
                f"line {line_number}: unknown parametrised gate {gate_name!r}"
            )
        angle = _finite(match.group("angle"), f"{gate_name} angle", line_number)
        arity, constructor = _ANGLE_GATES[gate_name]
        arguments: Tuple[float, ...] = (angle,)
    elif head.upper() in _PLAIN_GATES:
        gate_name = head.upper()
        arity, constructor = _PLAIN_GATES[gate_name]
        arguments = ()
    else:
        # Generic named gate with an explicit duration.
        if len(operands) not in (1, 2):
            raise SerializationError(
                f"line {line_number}: gate {head!r} must have one or two "
                "qubit operands"
            )
        return Gate(head, operands, 1.0 if duration is None else duration)
    if len(operands) != arity:
        raise SerializationError(
            f"line {line_number}: {gate_name} expects {arity} qubit(s), "
            f"got {len(operands)}"
        )
    gate = constructor(*operands, *arguments)
    return gate if duration is None else gate.with_duration(duration)


def _number(value: float) -> str:
    """``value`` as the short ``:g`` text when that parses back exactly."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _label_text(qubit: Qubit) -> str:
    """The text of a qubit label that :func:`loads` reads back as itself."""
    text = str(qubit)
    restored = label_from_text(text)
    if (
        _tokens(text) != [text]
        or text.startswith("duration=")
        or restored != qubit
        or type(restored) is not type(qubit)
    ):
        raise SerializationError(
            f"qubit label {qubit!r} would not read back as itself"
        )
    return text


def _read_back(line: str, line_number: int) -> Gate:
    """The gate :func:`loads` reads from a written gate line."""
    tokens = _tokens(line)
    if not tokens or tokens[0].lower() == "qubits":
        raise SerializationError(
            f"line {line_number}: {line!r} would not read back as a gate"
        )
    return _parse_gate_line(tokens, line_number)


def dumps(circuit: QuantumCircuit) -> str:
    """Serialize a circuit to the text format accepted by :func:`loads`.

    A qubit label or gate that :func:`loads` would not rebuild exactly
    (name, qubits and their types, angle and duration) raises
    :class:`SerializationError` naming the label or the gate's line, and
    so does a circuit name holding a line break (any character
    ``str.splitlines`` splits on), which would spill out of the
    ``# name`` comment.
    """
    if circuit.name.splitlines() not in ([], [circuit.name]):
        raise SerializationError(
            f"circuit name {circuit.name!r} would not stay on its '# name' line"
        )
    labels = [_label_text(qubit) for qubit in circuit.qubits]
    lines = [f"# {circuit.name}", "qubits " + " ".join(labels)]
    for gate in circuit:
        head = gate.name
        if gate.angle is not None and head.upper() in _ANGLE_GATES:
            head += f"({_number(gate.angle)})"
        line = f"{head} " + " ".join(str(q) for q in gate.qubits)
        line_number = len(lines) + 1
        generic = head == gate.name and head.upper() not in _PLAIN_GATES
        if generic or _read_back(line, line_number).duration != gate.duration:
            line += f" duration={_number(gate.duration)}"
        restored = _read_back(line, line_number)
        if restored != gate or [type(q) for q in restored.qubits] != [
            type(q) for q in gate.qubits
        ]:
            raise SerializationError(
                f"line {line_number}: {line!r} would read back as {restored!r}, "
                f"not {gate!r}"
            )
        lines.append(line)
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
