"""Unit tests for the circuit text format."""

import pytest

from repro.circuits import gates as g
from repro.circuits import qasm
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import qec3_encoder
from repro.exceptions import SerializationError
from repro.registry import load_circuit


ENCODER_TEXT = """
# 3-qubit error-correction encoder
qubits a b c
Ry(90) a
ZZ(90) a b
Rz(-90) a
Rz(90) b
Ry(90) c
ZZ(90) b c
Rz(90) b
Rz(-90) c
Ry(90) b
"""


class TestLoads:
    def test_parse_encoder(self):
        circuit = qasm.loads(ENCODER_TEXT)
        assert circuit.num_qubits == 3
        assert circuit.num_gates == 9
        assert circuit == QuantumCircuit(
            ["a", "b", "c"], qec3_encoder().gates, name="x"
        ) or circuit.gates == qec3_encoder().gates

    def test_comments_and_blank_lines_ignored(self):
        circuit = qasm.loads("qubits q\n\n# comment only\nRx(90) q  # trailing\n")
        assert circuit.num_gates == 1

    def test_plain_gates(self):
        circuit = qasm.loads("qubits a b\nCNOT a b\nH a\nSWAP a b\n")
        assert [gate.name for gate in circuit] == ["CNOT", "H", "SWAP"]

    def test_generic_gate_with_duration(self):
        circuit = qasm.loads("qubits a b\nMYGATE a b duration=2.5\n")
        assert circuit[0].duration == 2.5
        assert circuit[0].name == "MYGATE"

    def test_missing_qubits_declaration(self):
        with pytest.raises(SerializationError):
            qasm.loads("Rx(90) a\n")

    def test_duplicate_qubits_declaration(self):
        with pytest.raises(SerializationError):
            qasm.loads("qubits a\nqubits b\n")

    def test_empty_input(self):
        with pytest.raises(SerializationError):
            qasm.loads("   \n# nothing\n")

    def test_unknown_parametrised_gate(self):
        with pytest.raises(SerializationError):
            qasm.loads("qubits a\nFOO(90) a\n")

    def test_wrong_operand_count(self):
        with pytest.raises(SerializationError):
            qasm.loads("qubits a b\nZZ(90) a\n")
        with pytest.raises(SerializationError):
            qasm.loads("qubits a b\nCNOT a\n")

    def test_gate_on_undeclared_qubit(self):
        with pytest.raises(SerializationError):
            qasm.loads("qubits a\nRx(90) z\n")

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-inf", ""])
    def test_non_finite_duration_names_the_line(self, value):
        with pytest.raises(SerializationError, match="line 2: duration"):
            qasm.loads(f"qubits a b\nFOO a b duration={value}\n")

    @pytest.mark.parametrize("head, angle", [
        ("Ry(1e-05)", 1e-05), ("Ry(+90)", 90.0), ("Ry(.5)", 0.5),
    ])
    def test_any_float_literal_is_an_angle(self, head, angle):
        [gate] = qasm.loads(f"qubits a\n{head} a\n").gates
        assert gate == g.ry("a", angle)

    @pytest.mark.parametrize("head", [
        "Ry(abc)", "Rx()", "Rz(nan)", "Ry(inf)", "ZZ(1e999)", "Ry(1)(2)",
    ])
    def test_non_finite_angle_names_the_line(self, head):
        operands = "a b" if head.startswith("ZZ") else "a"
        name = head.split("(", 1)[0].upper()
        with pytest.raises(
            SerializationError, match=f"^line 2: {name} angle must be a finite"
        ):
            qasm.loads(f"qubits a b\n{head} {operands}\n")


class TestRoundTrip:
    def test_encoder_round_trip(self):
        circuit = qec3_encoder()
        restored = qasm.loads(qasm.dumps(circuit))
        assert restored.gates == circuit.gates
        assert restored.qubits == circuit.qubits

    def test_mixed_circuit_round_trip(self):
        circuit = QuantumCircuit(
            ["a", "b", "c"],
            [
                g.hadamard("a"),
                g.cnot("a", "b"),
                g.controlled_phase("b", "c", 45.0),
                g.generic_2q("a", "c", 3.0, name="U2"),
            ],
        )
        restored = qasm.loads(qasm.dumps(circuit))
        assert restored.num_gates == 4
        assert restored[2].duration == pytest.approx(circuit[2].duration)
        assert restored[3].duration == 3.0

    @pytest.mark.parametrize("name", ["qft:10", "qft:22"])
    def test_angles_round_trip_exactly(self, name):
        # The text format writes labels as text; every gate, angle and
        # duration comes back as the same float.
        circuit = load_circuit(name)
        as_text = circuit.remap({qubit: str(qubit) for qubit in circuit.qubits})
        assert qasm.loads(qasm.dumps(circuit)).gates == as_text.gates

    def test_short_numbers_keep_their_text(self):
        text = "# circuit\nqubits a b\nRy(90) a\nCPHASE(22.5) a b\n" \
            "FOO a b duration=2.5\n"
        assert qasm.dumps(qasm.loads(text)) == text

    def test_long_duration_round_trips(self):
        circuit = QuantumCircuit(["a"], [g.generic_1q("a", 1 / 3, name="U")])
        restored = qasm.loads(qasm.dumps(circuit))
        assert restored.gates == circuit.gates

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "circuit.qc"
        qasm.dump(qec3_encoder(), str(path))
        restored = qasm.load(str(path))
        assert restored.num_gates == 9
