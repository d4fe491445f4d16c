"""Unit tests for hill-climbing fine tuning."""

import pytest

from repro.circuits import gates as g
from repro.circuits.circuit import QuantumCircuit
from repro.core.fine_tuning import (
    default_cost_function,
    fine_tune_workspace_placement,
    hill_climb,
)
from repro.timing.scheduler import circuit_runtime


class TestHillClimb:
    def test_finds_optimum_on_encoder(self, acetyl, encoder_circuit):
        cost = default_cost_function(encoder_circuit, acetyl)
        start = {"a": "M", "b": "C2", "c": "C1"}  # the 770-unit placement
        best, best_cost = hill_climb(
            start, cost, movable_qubits=["a", "b", "c"], allowed_nodes=list(acetyl.nodes)
        )
        assert best_cost == 136.0
        assert best == {"a": "C2", "b": "C1", "c": "M"}

    def test_never_worse_than_start(self, acetyl, encoder_circuit):
        cost = default_cost_function(encoder_circuit, acetyl)
        start = {"a": "C2", "b": "C1", "c": "M"}
        best, best_cost = hill_climb(
            start, cost, movable_qubits=["a", "b", "c"], allowed_nodes=list(acetyl.nodes)
        )
        assert best_cost <= cost(start)

    def test_zero_rounds_returns_start(self, acetyl, encoder_circuit):
        cost = default_cost_function(encoder_circuit, acetyl)
        start = {"a": "M", "b": "C2", "c": "C1"}
        best, best_cost = hill_climb(
            start, cost, movable_qubits=["a", "b", "c"],
            allowed_nodes=list(acetyl.nodes), max_rounds=0,
        )
        assert best == start
        assert best_cost == 770.0

    def test_moves_to_free_nodes(self, crotonic):
        circuit = QuantumCircuit(["q0", "q1"], [g.zz("q0", "q1", 90.0)])
        cost = default_cost_function(circuit, crotonic)
        # Start on the slowest bond; the climb should find a faster pair,
        # possibly using nodes that are currently free.
        start = {"q0": "C3", "q1": "C4"}
        best, best_cost = hill_climb(
            start, cost, movable_qubits=["q0", "q1"],
            allowed_nodes=list(crotonic.nodes),
        )
        assert best_cost <= crotonic.pair_delay("C3", "C4")

    def test_swap_move_keeps_placement_injective(self, acetyl, encoder_circuit):
        cost = default_cost_function(encoder_circuit, acetyl)
        start = {"a": "M", "b": "C2", "c": "C1"}
        best, _ = hill_climb(
            start, cost, movable_qubits=["a", "b", "c"], allowed_nodes=list(acetyl.nodes)
        )
        assert len(set(best.values())) == 3


class TestFineTuneWorkspacePlacement:
    def test_improves_encoder_placement(self, acetyl, encoder_circuit):
        [(placement, runtime)] = fine_tune_workspace_placement(
            encoder_circuit,
            [{"a": "M", "b": "C2", "c": "C1"}],
            acetyl,
            allowed_nodes=list(acetyl.nodes),
        )
        assert runtime == 136.0
        assert circuit_runtime(encoder_circuit, placement, acetyl) == 136.0

    def test_circuit_without_two_qubit_gates(self, acetyl):
        circuit = QuantumCircuit(["a"], [g.ry("a", 90.0)])
        [(placement, runtime)] = fine_tune_workspace_placement(
            circuit, [{"a": "M"}], acetyl, allowed_nodes=list(acetyl.nodes)
        )
        assert runtime == 1.0  # moved to C2, the fastest nucleus
