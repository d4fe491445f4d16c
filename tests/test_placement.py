"""Unit and integration tests for the full placement engine."""

import dataclasses

import pytest

from repro.circuits import gates as g
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import phaseest, qec3_encoder, qft_circuit
from repro.core.config import PlacementOptions
from repro.core.placement import place_circuit
from repro.exceptions import PlacementError, ThresholdError
from repro.hardware.architectures import linear_chain
from repro.hardware.molecules import pentafluorobutadienyl_iron
from repro.timing.scheduler import circuit_runtime

#: One wrong-typed value per PlacementOptions field.  Before the type
#: checks, 2.5 and 1.5 crashed deep in the placer, "no" ran as true and a
#: bool ran as the integer 1.
WRONG_TYPED_OPTIONS = {
    "threshold": True,
    "max_monomorphisms": True,
    "fine_tuning": "no",
    "fine_tuning_max_rounds": 1.5,
    "lookahead": 1,
    "lookahead_width": 2.5,
    "leaf_override": None,
    "apply_interaction_cap": "false",
    "sequential_levels": 0,
    "restrict_to_largest_component": "yes",
    "reorder_commuting_gates": 1.0,
    "max_workspace_two_qubit_gates": 2.0,
    "debug_full_recompute": "true",
    "placer": 7,
}


class TestOptions:
    def test_invalid_options_rejected(self):
        with pytest.raises(PlacementError):
            PlacementOptions(max_monomorphisms=0)
        with pytest.raises(PlacementError):
            PlacementOptions(lookahead_width=0)
        with pytest.raises(PlacementError):
            PlacementOptions(threshold=-5)
        with pytest.raises(PlacementError, match="nan"):
            PlacementOptions(threshold=float("nan"))
        with pytest.raises(PlacementError):
            PlacementOptions(fine_tuning_max_rounds=-1)

    @pytest.mark.parametrize("name", sorted(WRONG_TYPED_OPTIONS))
    def test_wrong_typed_values_rejected(self, name):
        assert set(WRONG_TYPED_OPTIONS) == {
            field.name for field in dataclasses.fields(PlacementOptions)
        }
        with pytest.raises(PlacementError, match=name):
            PlacementOptions(**{name: WRONG_TYPED_OPTIONS[name]})

    def test_replace(self):
        options = PlacementOptions(threshold=100.0)
        changed = options.replace(threshold=200.0, lookahead=False)
        assert changed.threshold == 200.0
        assert not changed.lookahead
        assert options.threshold == 100.0


class TestEncoderPlacement:
    """Experiment E1/E2 row 1: the encoder on acetyl chloride."""

    def test_finds_the_optimal_mapping(self, acetyl, encoder_circuit):
        result = place_circuit(encoder_circuit, acetyl)
        assert result.num_subcircuits == 1
        assert result.total_runtime == 136.0
        assert result.runtime_seconds == pytest.approx(0.0136)
        assert result.initial_placement == {"a": "C2", "b": "C1", "c": "M"}

    def test_default_threshold_is_minimal_connecting(self, acetyl, encoder_circuit):
        result = place_circuit(encoder_circuit, acetyl)
        assert result.threshold == acetyl.minimal_connecting_threshold() == 89.0

    def test_no_swaps_needed(self, acetyl, encoder_circuit):
        result = place_circuit(encoder_circuit, acetyl)
        assert result.total_swap_count == 0
        assert result.swap_stages == []


class TestMultiStagePlacement:
    def test_qft_on_crotonic_uses_multiple_subcircuits(self, crotonic):
        result = place_circuit(
            qft_circuit(6), crotonic, PlacementOptions(threshold=100.0)
        )
        assert result.num_subcircuits > 1
        assert result.total_swap_count > 0
        assert len(result.swap_stages) == result.num_subcircuits - 1

    def test_physical_circuit_runtime_matches_reported_total(self, crotonic):
        options = PlacementOptions(threshold=100.0)
        result = place_circuit(phaseest(), crotonic, options)
        identity = {node: node for node in crotonic.nodes}
        recomputed = circuit_runtime(
            result.physical_circuit, identity, crotonic, apply_interaction_cap=True
        )
        assert recomputed == pytest.approx(result.total_runtime)

    def test_stage_placements_are_injective(self, crotonic):
        result = place_circuit(
            qft_circuit(6), crotonic, PlacementOptions(threshold=100.0)
        )
        for stage in result.stages:
            nodes = list(stage.placement.values())
            assert len(set(nodes)) == len(nodes)
            assert set(stage.placement.keys()) == set(qft_circuit(6).qubits)

    def test_swap_stages_only_use_fast_interactions(self, crotonic):
        threshold = 100.0
        result = place_circuit(
            qft_circuit(6), crotonic, PlacementOptions(threshold=threshold)
        )
        for swap_stage in result.swap_stages:
            for layer in swap_stage.routing.layers:
                for a, b in layer:
                    assert crotonic.pair_delay(a, b) <= threshold

    def test_lower_threshold_never_reduces_subcircuit_count(self, crotonic):
        """Fewer allowed interactions -> at least as many subcircuits."""
        low = place_circuit(phaseest(), crotonic, PlacementOptions(threshold=100.0))
        high = place_circuit(phaseest(), crotonic, PlacementOptions(threshold=10000.0))
        assert low.num_subcircuits >= high.num_subcircuits

    def test_sequential_levels_model_not_faster(self, crotonic):
        asynchronous = place_circuit(
            phaseest(), crotonic, PlacementOptions(threshold=200.0)
        )
        sequential = place_circuit(
            phaseest(), crotonic, PlacementOptions(threshold=200.0, sequential_levels=True)
        )
        assert sequential.total_runtime >= asynchronous.total_runtime - 1e-9


class TestInfeasibleCases:
    def test_threshold_disallowing_everything_raises(self):
        env = pentafluorobutadienyl_iron()
        with pytest.raises(ThresholdError):
            place_circuit(phaseest(), env, PlacementOptions(threshold=50.0))

    def test_circuit_larger_than_environment_raises(self, acetyl):
        circuit = QuantumCircuit(range(4), [g.cnot(0, 1)])
        with pytest.raises(PlacementError):
            place_circuit(circuit, acetyl)

    def test_component_too_small_raises(self, crotonic):
        # At threshold 50 the crotonic bond graph loses C4, leaving 6 nodes;
        # a 7-qubit circuit cannot be placed there.
        circuit = QuantumCircuit(
            range(7), [g.cnot(i, i + 1) for i in range(6)]
        )
        with pytest.raises(ThresholdError):
            place_circuit(circuit, crotonic, PlacementOptions(threshold=50.0))


class TestChainPlacement:
    def test_matching_chain_circuit_single_workspace(self):
        env = linear_chain(6)
        circuit = QuantumCircuit(
            range(6), [g.generic_2q(i, i + 1, 3.0) for i in range(5)]
        )
        result = place_circuit(circuit, env, PlacementOptions(threshold=10.0))
        assert result.num_subcircuits == 1

    def test_options_disabling_heuristics_still_work(self, crotonic):
        options = PlacementOptions(
            threshold=100.0,
            fine_tuning=False,
            lookahead=False,
            leaf_override=False,
            max_monomorphisms=5,
        )
        result = place_circuit(phaseest(), crotonic, options)
        assert result.total_runtime > 0

    def test_heuristics_help_or_do_not_hurt_much(self, crotonic):
        full = place_circuit(phaseest(), crotonic, PlacementOptions(threshold=100.0))
        bare = place_circuit(
            phaseest(),
            crotonic,
            PlacementOptions(
                threshold=100.0, fine_tuning=False, lookahead=False, max_monomorphisms=1
            ),
        )
        assert full.total_runtime <= bare.total_runtime * 1.5


class TestMedianEdgeDelay:
    """Unit tests for the (true) median used by the swap-cost estimate."""

    def _graph(self, delays):
        import networkx as nx

        graph = nx.Graph()
        for index, delay in enumerate(delays):
            graph.add_edge(("n", index), ("m", index), delay=delay)
        return graph

    def test_odd_length_takes_middle(self):
        from repro.core.placement import _median_edge_delay

        assert _median_edge_delay(self._graph([30.0, 10.0, 20.0])) == 20.0

    def test_even_length_averages_middle_pair(self):
        from repro.core.placement import _median_edge_delay

        # The seed implementation returned the upper-middle element (35.0);
        # the true median of [15, 16, 20, 35, 36, 60] is (20 + 35) / 2.
        delays = [15.0, 16.0, 20.0, 35.0, 36.0, 60.0]
        assert _median_edge_delay(self._graph(delays)) == 27.5

    def test_two_edges(self):
        from repro.core.placement import _median_edge_delay

        assert _median_edge_delay(self._graph([10.0, 30.0])) == 20.0

    def test_no_edges_defaults_to_one(self):
        import networkx as nx
        from repro.core.placement import _median_edge_delay

        assert _median_edge_delay(nx.Graph()) == 1.0

    def test_missing_delay_attribute_defaults(self):
        import networkx as nx
        from repro.core.placement import _median_edge_delay

        graph = nx.Graph([(0, 1)])
        assert _median_edge_delay(graph) == 1.0


class TestLookaheadCandidateReuse:
    def test_workspace_placing_every_qubit_is_fine_tuned_once(
        self, crotonic, monkeypatch
    ):
        import repro.core.placement as placement_module
        import repro.core.placers.exact as exact_module

        tuned = []
        original = exact_module.fine_tune_workspace_placement

        def counted(subcircuit, *args, **kwargs):
            tuned.append(subcircuit.name)
            return original(subcircuit, *args, **kwargs)

        monkeypatch.setattr(exact_module, "fine_tune_workspace_placement", counted)
        options = PlacementOptions(threshold=100.0)
        reused = place_circuit(qft_circuit(5), crotonic, options)
        name = qft_circuit(5).name
        # W1's monomorphisms place all five qubits, so the lookahead's
        # candidates serve its own placement; W2's leave one to completion,
        # which depends on the previous placement.
        assert tuned.count(f"{name}#W1") == 1
        assert tuned.count(f"{name}#W2") == 2

        class Forgetful(dict):
            def __setitem__(self, key, value):
                pass

        def forgetful(context, graph):
            initialise(context, graph)
            context.candidates = Forgetful()

        initialise = placement_module._GraphContext.__init__
        monkeypatch.setattr(placement_module._GraphContext, "__init__", forgetful)
        tuned.clear()
        recomputed = place_circuit(qft_circuit(5), crotonic, options)
        assert tuned.count(f"{name}#W1") == 2
        assert [list(stage.placement.items()) for stage in reused.stages] == [
            list(stage.placement.items()) for stage in recomputed.stages
        ]
        assert reused.total_runtime == recomputed.total_runtime
