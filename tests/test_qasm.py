"""Unit tests for the circuit text format."""

import pytest

from repro.circuits import gates as g
from repro.circuits import qasm
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import qec3_encoder
from repro.exceptions import SerializationError


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

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "circuit.qc"
        qasm.dump(qec3_encoder(), str(path))
        restored = qasm.load(str(path))
        assert restored.num_gates == 9
