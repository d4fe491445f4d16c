"""Tests of the pluggable placer portfolio (:mod:`repro.core.placers`).

Covers the engine contract for all three engines, the registry/CLI/config
round trip of placer specs, the annealer's never-worse-than-its-seed
property, exact-vs-anneal parity on tiny hosts, the per-placer STATS
counters, end-to-end Session + sharded execution, and (in subprocesses,
mirroring ``test_determinism.py``) hash-seed and worker-count
independence of the heuristic engines.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.analysis import sharding
from repro.analysis.serialization import deterministic_rows
from repro.api import Session
from repro.circuits.library import qft6
from repro.cli import main
from repro.config import RunConfig
from repro.core.config import PlacementOptions
from repro.core.placement import place_circuit
from repro.core.placers import (
    AnnealPlacer,
    ExactPlacer,
    GreedyPlacer,
    WorkspacePlacer,
)
from repro.core.result import PlacementResult
from repro.core.stats import STATS
from repro.exceptions import ConfigError, PlacementError, UnknownSpecError
from repro.hardware.architectures import grid
from repro.hardware.molecules import trans_crotonic_acid
from repro.registry import PLACERS, load_circuit

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

#: One spec per engine, annealer with a small fixed budget to keep tests fast.
ENGINE_SPECS = ("exact", "greedy", "anneal:0x150")


def _stage_fingerprint(result: PlacementResult):
    return (
        result.total_runtime,
        [
            sorted((repr(q), repr(n)) for q, n in stage.placement.items())
            for stage in result.stages
        ],
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestPlacerRegistry:
    def test_builds_every_engine(self):
        assert isinstance(PLACERS.build("exact"), ExactPlacer)
        assert isinstance(PLACERS.build("greedy"), GreedyPlacer)
        assert isinstance(PLACERS.build("anneal"), AnnealPlacer)

    def test_every_engine_is_a_placer(self):
        for spec in ENGINE_SPECS:
            assert isinstance(PLACERS.build(spec), WorkspacePlacer)

    def test_anneal_spec_parameters(self):
        default = PLACERS.build("anneal")
        assert default.seeds == (0,)
        seeded = PLACERS.build("anneal:7")
        assert (seeded.seeds, seeded.iterations) == ((7,), default.iterations)
        full = PLACERS.build("anneal:7x500")
        assert (full.seeds, full.iterations) == ((7,), 500)

    def test_unknown_spec_lists_valid_names(self):
        with pytest.raises(UnknownSpecError, match="exact.*greedy.*anneal"):
            PLACERS.build("bogus")

    def test_parameter_arity_errors(self):
        with pytest.raises(UnknownSpecError, match="takes no parameters"):
            PLACERS.build("greedy:3")
        with pytest.raises(UnknownSpecError, match="parameter"):
            PLACERS.build("anneal:1x2x3")

    def test_validate_does_not_build(self):
        entry = PLACERS.validate("anneal:3x100")
        assert entry.name == "anneal"
        with pytest.raises(UnknownSpecError):
            PLACERS.validate("anneal:1x2x3")

    def test_options_validate_placer_at_construction(self):
        with pytest.raises(UnknownSpecError, match="valid specs"):
            PlacementOptions(placer="bogus")
        with pytest.raises(PlacementError, match="non-empty"):
            PlacementOptions(placer="")

    def test_anneal_rejects_negative_parameters(self):
        with pytest.raises(PlacementError, match="non-negative"):
            AnnealPlacer(seeds=(-1,))
        with pytest.raises(PlacementError, match="non-negative"):
            AnnealPlacer(iterations=-5)

    def test_anneal_budget_beyond_int64_is_refused_by_the_options(self):
        # The native kernel counts proposals in an int64, and the python
        # loop would run 2**63 of them: both backends refuse the spec.
        largest = PlacementOptions(placer="anneal:0x9223372036854775807")
        assert largest.placer == "anneal:0x9223372036854775807"
        with pytest.raises(PlacementError, match="int64 limit.*9223372036854775808$"):
            PlacementOptions(placer="anneal:0x9223372036854775808")
        with pytest.raises(PlacementError, match="int64 limit"):
            PlacementOptions().replace(placer="anneal:1,2x9223372036854775808")


# ---------------------------------------------------------------------------
# Engine contract: every engine emits valid PlacementResults
# ---------------------------------------------------------------------------


def _assert_valid_result(result: PlacementResult, circuit, environment):
    assert isinstance(result, PlacementResult)
    assert math.isfinite(result.total_runtime)
    assert result.total_runtime > 0
    # Stages partition the gate list.
    starts = [stage.start for stage in result.stages]
    stops = [stage.stop for stage in result.stages]
    assert starts[0] == 0
    assert stops[-1] == circuit.num_gates
    assert all(stop == nxt for stop, nxt in zip(stops, starts[1:]))
    nodes = set(result.placement_nodes)
    for stage in result.stages:
        placed = {q: stage.placement[q] for q in circuit.qubits}
        assert len(placed) == circuit.num_qubits
        assert len(set(placed.values())) == circuit.num_qubits, "not injective"
        assert set(placed.values()) <= nodes
    assert len(result.swap_stages) == len(result.stages) - 1


class TestPlacerContract:
    @pytest.mark.parametrize("spec", ENGINE_SPECS)
    def test_molecule_host(self, spec):
        circuit = qft6()
        environment = trans_crotonic_acid()
        result = place_circuit(
            circuit, environment, PlacementOptions(threshold=200.0, placer=spec)
        )
        _assert_valid_result(result, circuit, environment)

    @pytest.mark.parametrize("spec", ENGINE_SPECS)
    def test_grid_host(self, spec):
        # Synthetic grids make non-adjacent interactions infinitely slow, so
        # a finite total runtime proves the engine kept (or routed) every
        # interaction onto adjacent nodes.
        circuit = load_circuit("random:8x20x5")
        environment = grid(4, 5)
        result = place_circuit(
            circuit, environment, PlacementOptions(threshold=10.0, placer=spec)
        )
        _assert_valid_result(result, circuit, environment)

    @pytest.mark.parametrize("spec", ENGINE_SPECS)
    def test_disconnected_working_graph_names_the_cause(self, spec):
        # At threshold 50 crotonic acid's C4 is isolated.  Without the
        # largest-component restriction some qubit must move to or from it,
        # so every candidate of a later workspace is unreachable by SWAPs.
        options = PlacementOptions(
            threshold=50.0, placer=spec, restrict_to_largest_component=False
        )
        with pytest.raises(PlacementError) as raised:
            place_circuit(qft6(), trans_crotonic_acid(), options)
        message = str(raised.value)
        assert "\n" not in message
        assert message.startswith("workspace 1 has no placement reachable by SWAPs")
        assert "threshold 50 " in message
        assert "disconnected components" in message
        assert "restrict_to_largest_component=True" in message
        default = place_circuit(
            qft6(), trans_crotonic_acid(), PlacementOptions(threshold=50.0, placer=spec)
        )
        assert len(default.stages) == 5


# ---------------------------------------------------------------------------
# Quality properties
# ---------------------------------------------------------------------------


class TestAnnealQuality:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_anneal_never_worse_than_its_greedy_seed(self, seed):
        # Single-workspace instances: the total runtime IS the workspace
        # runtime, so the annealer's best-ever tracking (seeded with the
        # greedy placement) makes anneal <= greedy a hard guarantee.
        circuit = load_circuit(f"random-chain:8x24x{seed}")
        environment = grid(4, 4)
        greedy = place_circuit(
            circuit, environment, PlacementOptions(threshold=10.0, placer="greedy")
        )
        annealed = place_circuit(
            circuit,
            environment,
            PlacementOptions(threshold=10.0, placer=f"anneal:{seed}x400"),
        )
        assert greedy.num_subcircuits == 1
        assert annealed.num_subcircuits == 1
        assert annealed.total_runtime <= greedy.total_runtime

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_parity_on_tiny_hosts(self, seed):
        # On a tiny host the annealer's budget dwarfs the search space, so
        # it must land on the exact engine's optimum.
        circuit = load_circuit(f"random-chain:4x8x{seed}")
        environment = grid(2, 2)
        exact = place_circuit(
            circuit, environment, PlacementOptions(threshold=10.0)
        )
        annealed = place_circuit(
            circuit,
            environment,
            PlacementOptions(threshold=10.0, placer=f"anneal:{seed}"),
        )
        assert annealed.total_runtime == exact.total_runtime

    def test_greedy_is_finite_on_infinite_delay_hosts(self):
        # grid/chain hosts default non-adjacent pairs to infinite delay;
        # the greedy seed (or its monomorphism fallback) must stay finite.
        circuit = load_circuit("random-chain:12x36x7")
        result = place_circuit(
            circuit, grid(4, 4), PlacementOptions(threshold=10.0, placer="greedy")
        )
        assert math.isfinite(result.total_runtime)


# ---------------------------------------------------------------------------
# Determinism (in-process and across PYTHONHASHSEED / --jobs subprocesses)
# ---------------------------------------------------------------------------


class TestInProcessDeterminism:
    @pytest.mark.parametrize("spec", ("greedy", "anneal:3x200"))
    def test_same_spec_same_placement(self, spec):
        circuit = load_circuit("random:8x20x5")
        options = PlacementOptions(threshold=10.0, placer=spec)
        first = place_circuit(circuit, grid(4, 5), options)
        second = place_circuit(circuit, grid(4, 5), options)
        assert _stage_fingerprint(first) == _stage_fingerprint(second)

    def test_anneal_ignores_global_random_state(self):
        import random as random_module

        circuit = load_circuit("random:8x20x5")
        options = PlacementOptions(threshold=10.0, placer="anneal:3x200")
        random_module.seed(1)
        first = place_circuit(circuit, grid(4, 5), options)
        random_module.seed(99999)
        second = place_circuit(circuit, grid(4, 5), options)
        assert _stage_fingerprint(first) == _stage_fingerprint(second)


HEURISTIC_SWEEP_ARGS = [
    "sweep", "random:8x20x5", "grid:4x4", "--thresholds", "10", "20",
    "--placer", "anneal:7x150",
]


def _heuristic_sweep_output(hash_seed: str, jobs: int) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli"]
        + HEURISTIC_SWEEP_ARGS
        + ["--jobs", str(jobs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestHashSeedAndJobsDeterminism:
    def test_anneal_sweep_identical_across_hash_seeds_and_jobs(self):
        reference = _heuristic_sweep_output("0", jobs=1)
        assert "inf" not in reference
        for hash_seed in ("1", "12345"):
            assert _heuristic_sweep_output(hash_seed, jobs=1) == reference, (
                f"anneal outputs diverged at PYTHONHASHSEED={hash_seed}"
            )
        assert _heuristic_sweep_output("98765", jobs=2) == reference, (
            "jobs=2 anneal outputs diverged from the serial run"
        )


# ---------------------------------------------------------------------------
# Multi-restart portfolio (anneal:SEED1,SEED2,...)
# ---------------------------------------------------------------------------


class _TwoQubitGate:
    is_two_qubit = True

    def __init__(self, a, b):
        self.qubits = (a, b)


class TestMultiRestartAnneal:
    def test_spec_builds_multi_restart(self):
        multi = PLACERS.build("anneal:3,5,9")
        assert isinstance(multi, AnnealPlacer)
        assert multi.seeds == (3, 5, 9)
        assert multi.iterations == AnnealPlacer().iterations
        budget = PLACERS.build("anneal:3,5x400")
        assert budget.seeds == (3, 5)
        assert budget.iterations == 400
        # A plain integer seed is the one-restart portfolio.
        assert PLACERS.build("anneal:3").seeds == (3,)

    def test_iteration_budget_rejects_comma_list(self):
        with pytest.raises(UnknownSpecError, match="comma-separated list"):
            PLACERS.build("anneal:1x2,3")
        with pytest.raises(UnknownSpecError, match="comma-separated list"):
            PlacementOptions(placer="anneal:1x2,3")

    def test_constructor_validation(self):
        with pytest.raises(PlacementError, match="at least one"):
            AnnealPlacer(seeds=())
        with pytest.raises(PlacementError, match="non-negative"):
            AnnealPlacer(seeds=(1, -2))
        with pytest.raises(PlacementError, match="non-negative"):
            AnnealPlacer(seeds=(1, 2), iterations=-5)

    def _fake_candidates(self, rows):
        """Run workspace_candidates with greedy + _anneal stubbed per seed.

        ``rows`` maps seed -> (placement, cost); the greedy seed row is a
        fixed finite placeholder so the annealing loop actually runs.
        """
        placer = AnnealPlacer(seeds=tuple(rows), iterations=10)
        subcircuit = [_TwoQubitGate("q0", "q1")]
        context = SimpleNamespace(node_order={"n0": 0, "n1": 1, "n2": 2})

        def fake_anneal(self, seed, workspace, sub, ctx, environment, options,
                        seed_placement, seed_runtime, movable, evaluator):
            return rows[seed]

        with mock.patch(
            "repro.core.placers.anneal.greedy_candidate",
            return_value=({"q0": "n0", "q1": "n1"}, 10.0),
        ), mock.patch.object(AnnealPlacer, "_anneal", fake_anneal):
            return placer.workspace_candidates(
                None, subcircuit, None, context, None, None, None, None
            )

    def test_best_row_wins(self):
        rows = {
            1: ({"q0": "n1", "q1": "n2"}, 7.0),
            2: ({"q0": "n0", "q1": "n2"}, 5.0),
            3: ({"q0": "n0", "q1": "n1"}, 9.0),
        }
        assert self._fake_candidates(rows) == [rows[2]]

    def test_cost_ties_break_by_canonical_signature(self):
        # Equal costs: the winner is the placement whose node-index
        # signature is smallest, regardless of seed-list order.
        tied = {
            1: ({"q0": "n1", "q1": "n2"}, 5.0),  # signature (1, 2)
            2: ({"q0": "n0", "q1": "n2"}, 5.0),  # signature (0, 2) -> wins
        }
        expected = [tied[2]]
        assert self._fake_candidates(tied) == expected
        assert self._fake_candidates(
            {2: tied[2], 1: tied[1]}
        ) == expected

    def test_matches_best_single_restart_end_to_end(self):
        # Penalise every restart except seed 5: the portfolio must then be
        # bit-identical to running seed 5 alone.
        circuit = load_circuit("random:8x20x5")
        options = PlacementOptions(threshold=10.0, placer="anneal:3,5,9x150")
        real_anneal = AnnealPlacer._anneal

        def penalised(self, seed, *args, **kwargs):
            placement, cost = real_anneal(self, seed, *args, **kwargs)
            if seed != 5:
                return placement, cost + 1e9
            return placement, cost

        with mock.patch.object(AnnealPlacer, "_anneal", penalised):
            multi = place_circuit(circuit, grid(4, 5), options)
        single = place_circuit(
            circuit, grid(4, 5),
            PlacementOptions(threshold=10.0, placer="anneal:5x150"),
        )
        assert _stage_fingerprint(multi) == _stage_fingerprint(single)

    def test_seed_list_order_does_not_matter(self):
        circuit = load_circuit("random:8x20x5")
        first = place_circuit(
            circuit, grid(4, 5),
            PlacementOptions(threshold=10.0, placer="anneal:3,9x150"),
        )
        second = place_circuit(
            circuit, grid(4, 5),
            PlacementOptions(threshold=10.0, placer="anneal:9,3x150"),
        )
        assert _stage_fingerprint(first) == _stage_fingerprint(second)

    def test_never_worse_than_any_single_restart(self):
        circuit = load_circuit("random:8x20x5")
        multi = place_circuit(
            circuit, grid(4, 5),
            PlacementOptions(threshold=10.0, placer="anneal:3,9x150"),
        )
        singles = [
            place_circuit(
                circuit, grid(4, 5),
                PlacementOptions(threshold=10.0, placer=f"anneal:{seed}x150"),
            ).total_runtime
            for seed in (3, 9)
        ]
        assert multi.total_runtime <= min(singles)

    def test_restart_counter(self):
        circuit = load_circuit("random:8x20x5")
        before = STATS.snapshot()
        place_circuit(
            circuit, grid(4, 5),
            PlacementOptions(threshold=10.0, placer="anneal:1,2x100"),
        )
        delta = STATS.delta_since(before)
        restarts = delta.get("placer.anneal_restarts", 0)
        assert restarts > 0
        assert restarts % 2 == 0
        assert delta.get("placer.anneal_steps") == delta.get(
            "placer.moves_accepted", 0
        ) + delta.get("placer.moves_rejected", 0)

    def test_run_config_round_trips_multi_restart_spec(self):
        config = RunConfig(
            circuit="qft:7",
            environment="grid:4x4",
            options=PlacementOptions(placer="anneal:3,5x200"),
        )
        text = config.to_json()
        assert json.loads(text)["options"]["placer"] == "anneal:3,5x200"
        assert RunConfig.from_json(text) == config


# ---------------------------------------------------------------------------
# Config / CLI round trip
# ---------------------------------------------------------------------------


class TestConfigAndCliRoundTrip:
    def test_run_config_round_trips_placer_spec(self):
        config = RunConfig(
            circuit="qft:7",
            environment="grid:4x4",
            options=PlacementOptions(placer="anneal:7x500"),
        )
        text = config.to_json()
        assert json.loads(text)["options"]["placer"] == "anneal:7x500"
        assert RunConfig.from_json(text) == config

    def test_config_file_rejects_unknown_placer(self):
        payload = json.loads(
            RunConfig(circuit="qft6", environment="grid:4x4").to_json()
        )
        payload["options"]["placer"] = "bogus"
        with pytest.raises(ConfigError, match="valid specs"):
            RunConfig.from_dict(payload)

    def test_cli_rejects_unknown_placer_with_exit_2(self, capsys):
        code = main(
            ["place", "qft6", "trans-crotonic-acid", "--placer", "bogus"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "valid specs" in err and "anneal" in err

    @pytest.mark.parametrize("command", ["place", "sweep"])
    def test_cli_refuses_an_anneal_budget_beyond_int64_with_exit_2(
        self, command, capsys
    ):
        code = main([
            command, "error-correction-encoding", "acetyl-chloride",
            "--placer", "anneal:0x9223372036854775808",
        ])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invalid placement options: anneal ")
        assert err.count("\n") == 1
        assert "int64 limit" in err

    def test_config_file_refuses_an_anneal_budget_beyond_int64(self):
        payload = json.loads(
            RunConfig(circuit="qft6", environment="grid:4x4").to_json()
        )
        payload["options"]["placer"] = "anneal:0x9223372036854775808"
        with pytest.raises(ConfigError, match="int64 limit"):
            RunConfig.from_dict(payload)

    def test_cli_place_with_heuristic_placer(self, capsys):
        code = main(
            [
                "place", "random:8x20x5", "grid:4x4",
                "--threshold", "10", "--placer", "anneal:5x150",
                "--output", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["feasible"] is True

    def test_cli_config_file_carries_placer(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        RunConfig(
            circuit="random:8x20x5",
            environment="grid:4x4",
            options=PlacementOptions(threshold=10.0, placer="anneal:5x150"),
            output="json",
        ).save(str(config_path))
        assert main(["place", "--config", str(config_path)]) == 0
        via_config = json.loads(capsys.readouterr().out)
        assert main(
            [
                "place", "random:8x20x5", "grid:4x4",
                "--threshold", "10", "--placer", "anneal:5x150",
                "--output", "json",
            ]
        ) == 0
        via_flags = json.loads(capsys.readouterr().out)
        assert (
            via_config["rows"][0]["runtime_seconds"]
            == via_flags["rows"][0]["runtime_seconds"]
        )

    def test_cli_list_includes_placer_section(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "placers:" in out
        assert "anneal[:SEED[,SEED...][xITERS]]" in out


# ---------------------------------------------------------------------------
# STATS counters
# ---------------------------------------------------------------------------


class TestPlacerCounters:
    def test_anneal_reports_counters(self):
        circuit = load_circuit("random:8x20x5")
        before = STATS.snapshot()
        place_circuit(
            circuit,
            grid(4, 5),
            PlacementOptions(threshold=10.0, placer="anneal:0x150"),
        )
        delta = STATS.delta_since(before)
        assert delta.get("placer.anneal_steps", 0) > 0
        assert delta.get("placer.delta_evals", 0) > 0
        assert delta.get("placer.anneal_steps") == delta.get(
            "placer.moves_accepted", 0
        ) + delta.get("placer.moves_rejected", 0)

    def test_exact_reports_no_placer_counters(self):
        before = STATS.snapshot()
        place_circuit(
            qft6(), trans_crotonic_acid(), PlacementOptions(threshold=200.0)
        )
        delta = STATS.delta_since(before)
        assert not any(name.startswith("placer.") for name in delta)


# ---------------------------------------------------------------------------
# Session + sharded execution
# ---------------------------------------------------------------------------


ANNEAL_CONFIG = RunConfig(
    circuit="random:8x20x5",
    environment="grid:4x4",
    thresholds=(10.0, 20.0),
    options=PlacementOptions(placer="anneal:3x120"),
)


class TestSessionAndSharding:
    def test_session_sweep_with_anneal(self):
        result = Session(ANNEAL_CONFIG).sweep()
        assert any(cell.feasible for cell in result.row.cells)

    def test_sharded_anneal_merge_matches_serial(self):
        config = ANNEAL_CONFIG.replace(shards=2)
        session = Session(config)
        serial = session.sweep()
        plan = session.shard_plan()
        shards = [
            sharding.execute_shard(plan.shard_input(index))
            for index in range(plan.num_shards)
        ]
        merged = sharding.merge_shards(shards, plan=plan)
        assert deterministic_rows(merged.outcomes) == deterministic_rows(
            serial.outcomes
        )
        merged_counters = dict(merged.counters)
        assert merged_counters.get("placer.anneal_steps", 0) > 0
