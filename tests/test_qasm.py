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

    @pytest.mark.parametrize("labels, first, second, qubit", [
        ("1 01", "1", "01", "1"), ("a 7 -0 0", "-0", "0", "0"),
        ("b b", "b", "b", "'b'"),
    ])
    def test_two_labels_for_one_qubit_name_the_line(
        self, labels, first, second, qubit
    ):
        with pytest.raises(SerializationError) as info:
            qasm.loads(f"# two names\nqubits {labels}\nH {first}\n")
        assert str(info.value) == (
            f"line 2: qubit labels {first!r} and {second!r} both name qubit "
            f"{qubit}"
        )

    def test_operands_follow_the_label_rule(self):
        circuit = qasm.loads("qubits 0 1 q2\nCNOT 0 01\nH q2\n")
        assert circuit.qubits == (0, 1, "q2")
        assert circuit[0] == g.cnot(0, 1)

    def test_duration_applies_to_constructor_gates(self):
        circuit = qasm.loads(
            "qubits a b\nZZ(90) a b duration=2.5\nX a duration=1\n"
        )
        assert circuit[0] == g.zz("a", "b", 90).with_duration(2.5)
        assert circuit[1] == g.pauli_x("a").with_duration(1.0)

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

    @pytest.mark.parametrize("name", ["qft:4", "qft:10", "qft:22"])
    def test_angles_round_trip_exactly(self, name):
        # Every label comes back as the same int, and every gate, angle
        # and duration as the same float.
        circuit = load_circuit(name)
        restored = qasm.loads(qasm.dumps(circuit))
        assert restored.qubits == circuit.qubits
        assert restored.gates == circuit.gates

    def test_changed_durations_round_trip(self):
        circuit = QuantumCircuit(["a", "b"], [
            g.cnot("a", "b").with_duration(2.0),
            g.hadamard("a").with_duration(0.5),
            g.ry("a", 90).with_duration(3.0),
            g.controlled_phase("a", "b", 45.0).with_duration(1 / 3),
            g.swap("a", "b"),
        ])
        text = qasm.dumps(circuit)
        assert text.splitlines()[2:] == [
            "CNOT a b duration=2",
            "H a duration=0.5",
            "Ry(90) a duration=3",
            f"CPHASE(45) a b duration={1 / 3!r}",
            "SWAP a b",
        ]
        restored = qasm.loads(text)
        assert [gate.duration for gate in restored] == [2.0, 0.5, 3.0, 1 / 3, 3.0]
        assert restored.gates == circuit.gates
        assert restored.qubits == circuit.qubits

    def test_dumps_refuses_a_gate_it_could_not_read_back(self):
        circuit = QuantumCircuit(["a", "b"], [g.Gate("H", ("a", "b"), 1.0)])
        with pytest.raises(SerializationError,
                           match="^line 3: H expects 1 qubit"):
            qasm.dumps(circuit)
        # Gate names that read back as CNOT.
        for name in ("cnot", "CX"):
            circuit = QuantumCircuit(["a", "b"], [g.Gate(name, ("a", "b"), 1.0)])
            with pytest.raises(SerializationError,
                               match=f"^line 3: '{name} a b' would read back "
                                     "as CNOT"):
                qasm.dumps(circuit)
        # A text label that reads back as an int, one that splits into two
        # labels, and one that reads as a duration.
        for label in ("1", "a b", "duration=3"):
            circuit = QuantumCircuit([label, "c"], [g.cnot(label, "c")])
            with pytest.raises(SerializationError,
                               match=f"^qubit label '{label}' would not read "
                                     "back as itself$"):
                qasm.dumps(circuit)

    def test_dumps_refuses_a_name_that_would_leave_its_line(self):
        # 'enc\nH a' used to write a gate line above the 'qubits' line,
        # which loads refuses.
        for name in ("enc\nH a", "enc\r", "enc\x0bH a", "enc\u2028H a"):
            circuit = QuantumCircuit(["a", "b"], [g.cnot("a", "b")], name=name)
            with pytest.raises(SerializationError,
                               match=r"^circuit name .* would not stay on its "
                                     r"'# name' line$"):
                qasm.dumps(circuit)
        for name in ("", "enc # x\ty"):
            circuit = QuantumCircuit(["a", "b"], [g.cnot("a", "b")], name=name)
            assert qasm.loads(qasm.dumps(circuit)).gates == circuit.gates

    def test_library_circuits_write_no_durations(self):
        # Constructor-built gates keep the duration their head rebuilds,
        # so only generic gates carry one.
        for name in ("qft:7", "phaseest", "error-correction-encoding"):
            assert "duration=" not in qasm.dumps(load_circuit(name))

    def test_integer_labels_round_trip(self):
        circuit = QuantumCircuit([0, "a", -3], [
            g.cnot(0, "a"), g.zz("a", -3, 45.0), g.generic_1q(-3, 2.0, "U"),
        ])
        restored = qasm.loads(qasm.dumps(circuit))
        assert restored.qubits == (0, "a", -3)
        assert restored.gates == circuit.gates

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
