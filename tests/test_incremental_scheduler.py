"""Parity tests: the incremental RuntimeEvaluator vs full rescheduling."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import gates as g
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import qft_circuit
from repro.core.config import PlacementOptions
from repro.core.fine_tuning import (
    default_cost_function,
    hill_climb,
    hill_climb_starts,
)
from repro.core.placement import place_circuit
from repro.hardware.molecules import histidine, trans_crotonic_acid
from repro.timing.scheduler import RuntimeEvaluator, circuit_runtime

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_circuit(num_qubits, num_gates, seed):
    rng = random.Random(seed)
    qubits = list(range(num_qubits))
    gate_list = []
    for _ in range(num_gates):
        kind = rng.random()
        if kind < 0.45:
            a, b = rng.sample(qubits, 2)
            gate_list.append(g.zz(a, b, rng.choice([90.0, 180.0, 45.0])))
        elif kind < 0.8:
            gate_list.append(g.rx(rng.choice(qubits), rng.choice([90.0, 180.0])))
        else:
            gate_list.append(g.rz(rng.choice(qubits), 90.0))  # free gate
    return QuantumCircuit(qubits, gate_list, name=f"rand{seed}")


def _random_placement(circuit, environment, seed):
    rng = random.Random(seed)
    nodes = rng.sample(list(environment.nodes), circuit.num_qubits)
    return dict(zip(circuit.qubits, nodes))


class TestFullEvaluationParity:
    @RELAXED
    @given(st.integers(0, 500), st.booleans())
    def test_runtime_matches_circuit_runtime(self, seed, cap):
        environment = trans_crotonic_acid()
        circuit = _random_circuit(5, 24, seed)
        placement = _random_placement(circuit, environment, seed + 1)
        evaluator = RuntimeEvaluator(
            circuit, environment, apply_interaction_cap=cap
        )
        expected = circuit_runtime(
            circuit, placement, environment,
            apply_interaction_cap=cap, validate=False,
        )
        assert evaluator.runtime(placement) == expected
        assert evaluator.set_base(placement) == expected

    def test_empty_circuit(self, crotonic):
        circuit = QuantumCircuit(["a", "b"], [], name="empty")
        evaluator = RuntimeEvaluator(circuit, crotonic)
        assert evaluator.runtime({"a": "M", "b": "C1"}) == 0.0


class TestIncrementalParity:
    @RELAXED
    @given(st.integers(0, 500))
    def test_single_move_matches_full(self, seed):
        environment = trans_crotonic_acid()
        circuit = _random_circuit(5, 30, seed)
        placement = _random_placement(circuit, environment, seed + 1)
        evaluator = RuntimeEvaluator(
            circuit, environment, apply_interaction_cap=True
        )
        evaluator.set_base(placement)
        rng = random.Random(seed + 2)
        used = set(placement.values())
        free = [n for n in environment.nodes if n not in used]
        for _ in range(6):
            qubit = rng.choice(circuit.qubits)
            if free and rng.random() < 0.5:
                overrides = {qubit: rng.choice(free)}
            else:
                other = rng.choice(circuit.qubits)
                if other == qubit:
                    continue
                overrides = {
                    qubit: placement[other],
                    other: placement[qubit],
                }
            candidate = dict(placement)
            candidate.update(overrides)
            expected = circuit_runtime(
                circuit, candidate, environment,
                apply_interaction_cap=True, validate=False,
            )
            assert evaluator.runtime_with(overrides) == expected

    def test_noop_override_returns_base(self, crotonic):
        circuit = _random_circuit(4, 12, 7)
        placement = _random_placement(circuit, crotonic, 8)
        evaluator = RuntimeEvaluator(circuit, crotonic)
        base = evaluator.set_base(placement)
        assert evaluator.runtime_with({circuit.qubits[0]: placement[circuit.qubits[0]]}) == base

    def test_full_recompute_flag_asserts_parity(self, crotonic):
        circuit = _random_circuit(5, 25, 3)
        placement = _random_placement(circuit, crotonic, 4)
        evaluator = RuntimeEvaluator(
            circuit, crotonic, apply_interaction_cap=True, full_recompute=True
        )
        evaluator.set_base(placement)
        used = set(placement.values())
        free = [n for n in crotonic.nodes if n not in used]
        # Every incremental evaluation self-checks against a full one.
        for qubit in circuit.qubits:
            for node in free:
                evaluator.runtime_with({qubit: node})

    def test_limit_cutoff_only_affects_rejected_moves(self, crotonic):
        circuit = _random_circuit(5, 25, 11)
        placement = _random_placement(circuit, crotonic, 12)
        evaluator = RuntimeEvaluator(circuit, crotonic)
        base = evaluator.set_base(placement)
        qubit = circuit.qubits[0]
        free = [n for n in crotonic.nodes if n not in set(placement.values())]
        for node in free:
            exact = evaluator.runtime_with({qubit: node})
            limited = evaluator.runtime_with({qubit: node}, limit=base)
            if exact < base:
                assert limited == exact
            else:
                assert limited >= base  # inf or the exact (>= base) value

    def test_requires_set_base(self, crotonic):
        circuit = _random_circuit(3, 6, 0)
        evaluator = RuntimeEvaluator(circuit, crotonic)
        with pytest.raises(RuntimeError):
            evaluator.runtime_with({0: "M"})

    def test_stale_after_environment_recalibration(self, crotonic):
        circuit = _random_circuit(4, 10, 5)
        placement = _random_placement(circuit, crotonic, 6)
        evaluator = RuntimeEvaluator(circuit, crotonic)
        evaluator.set_base(placement)
        crotonic.set_pair_delay("M", "C1", 11.0)
        with pytest.raises(RuntimeError, match="recalibrated"):
            evaluator.runtime(placement)
        with pytest.raises(RuntimeError, match="recalibrated"):
            evaluator.runtime_with({circuit.qubits[0]: "C4"})
        # A fresh evaluator sees the new delays and agrees with the referee.
        fresh = RuntimeEvaluator(circuit, crotonic)
        assert fresh.runtime(placement) == circuit_runtime(
            circuit, placement, crotonic, validate=False
        )


class TestHillClimbParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_incremental_equals_generic_hill_climb(self, seed):
        environment = trans_crotonic_acid()
        circuit = _random_circuit(5, 20, seed)
        placement = _random_placement(circuit, environment, seed + 50)
        movable = sorted(
            {q for gate in circuit if gate.is_two_qubit for q in gate.qubits},
            key=repr,
        )
        allowed = list(environment.nodes)
        cost = default_cost_function(circuit, environment, apply_interaction_cap=True)
        expected_placement, expected_cost = hill_climb(
            placement, cost, movable, allowed
        )
        evaluator = RuntimeEvaluator(
            circuit, environment, apply_interaction_cap=True
        )
        [(actual_placement, actual_cost)] = hill_climb_starts(
            [placement], evaluator, movable, allowed
        )
        assert actual_placement == expected_placement
        assert actual_cost == expected_cost


class TestPlacerLevelParity:
    def test_debug_full_recompute_option_matches_default(self, crotonic):
        circuit = qft_circuit(6)
        checked = place_circuit(
            circuit, crotonic,
            PlacementOptions(threshold=200.0, debug_full_recompute=True),
        )
        plain = place_circuit(
            qft_circuit(6), crotonic, PlacementOptions(threshold=200.0)
        )
        assert checked.total_runtime == plain.total_runtime
        assert [s.placement for s in checked.stages] == [
            s.placement for s in plain.stages
        ]

    def test_histidine_placement_with_parity_assertions(self):
        environment = histidine()
        result = place_circuit(
            qft_circuit(6), environment,
            PlacementOptions(threshold=100.0, debug_full_recompute=True),
        )
        assert result.total_runtime > 0
