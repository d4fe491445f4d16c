"""Tests of the Session façade (:mod:`repro.api`)."""

import json

import pytest

from repro.analysis import sharding
from repro.analysis.serialization import deterministic_rows, dump_json
from repro.analysis.sweep import sweep_circuit
from repro.api import GridResult, PlaceResult, Session, SweepResult
from repro.config import RunConfig
from repro.core.config import PlacementOptions
from repro.core.placement import place_circuit
from repro.exceptions import ConfigError
from repro.hardware.molecules import trans_crotonic_acid
from repro.registry import load_circuit, load_environment

QFT_CONFIG = RunConfig(
    circuit="qft6",
    environment="trans-crotonic-acid",
    thresholds=(50, 100, 200),
)

ECC_CONFIG = RunConfig(
    circuit="error-correction-encoding",
    environment="acetyl-chloride",
    thresholds=(50, 100, 200),
)


class TestSessionConstruction:
    def test_from_config_accepts_config_dict_and_path(self, tmp_path):
        assert Session.from_config(QFT_CONFIG).config == QFT_CONFIG
        assert Session.from_config(QFT_CONFIG.to_dict()).config == QFT_CONFIG
        path = tmp_path / "run.json"
        QFT_CONFIG.save(str(path))
        assert Session.from_config(str(path)).config == QFT_CONFIG

    def test_rejects_non_config_values(self):
        with pytest.raises(ConfigError):
            Session("qft6")
        with pytest.raises(ConfigError):
            Session.from_config(42)


class TestPlace:
    def test_place_matches_direct_place_circuit(self):
        result = Session(ECC_CONFIG.replace(thresholds=None)).place()
        assert isinstance(result, PlaceResult)
        assert result.feasible
        direct = place_circuit(
            load_circuit("error-correction-encoding"),
            load_environment("acetyl-chloride"),
            PlacementOptions(),
        )
        assert result.placement.runtime_seconds == direct.runtime_seconds
        assert result.outcome.runtime_seconds == direct.runtime_seconds
        assert result.outcome.num_subcircuits == direct.num_subcircuits

    def test_place_payload_shape(self):
        result = Session(ECC_CONFIG).place()
        payload = result.payload()
        assert payload["circuit"] == "error-correction-encoding"
        assert payload["environment"] == "acetyl-chloride"
        assert len(payload["rows"]) == 1
        assert payload["counters"]["monomorphism.searches"] > 0
        # Canonical JSON round-trips through dump_json.
        json.loads(dump_json(payload))

    def test_infeasible_place_keeps_error(self):
        config = RunConfig(circuit="phaseest", environment="acetyl-chloride")
        result = Session(config).place()
        assert not result.feasible
        assert result.placement is None
        assert result.outcome.error_type


class TestSweep:
    def test_sweep_matches_sweep_circuit_harness(self):
        session_row = Session(QFT_CONFIG).sweep().row
        harness_row = sweep_circuit(
            "qft6", trans_crotonic_acid(), thresholds=(50, 100, 200)
        )
        assert session_row.circuit_name == harness_row.circuit_name
        assert [
            (c.threshold, c.runtime_seconds, c.num_subcircuits)
            for c in session_row.cells
        ] == [
            (c.threshold, c.runtime_seconds, c.num_subcircuits)
            for c in harness_row.cells
        ]

    def test_sweep_result_is_typed(self):
        result = Session(QFT_CONFIG).sweep()
        assert isinstance(result, SweepResult)
        assert result.thresholds == (50.0, 100.0, 200.0)
        assert result.counters
        assert result.table().startswith("qft6 on trans-crotonic acid")
        payload = result.payload()
        assert [cell["threshold"] for cell in payload["cells"]] == [50.0, 100.0, 200.0]

    def test_string_specs_accepted_by_sweep_harness(self):
        # sweep_circuit accepts registry spec strings for both sides.
        row = sweep_circuit("qft6", "trans-crotonic-acid",
                            thresholds=(100,))
        assert row.environment_name == "trans-crotonic acid"
        assert row.cells[0].feasible


class TestShardPaths:
    def test_shard_plan_embeds_config_and_fingerprint(self):
        config = QFT_CONFIG.replace(shards=2)
        session = Session(config)
        plan = session.shard_plan()
        assert plan.num_shards == 2
        assert plan.config == config
        assert plan.shard_input(0).config == config
        # The fingerprint matches a plan built from the same grid again.
        assert Session(config).shard_plan().fingerprint == plan.fingerprint

    def test_sharded_execution_merges_to_serial_sweep(self):
        config = QFT_CONFIG.replace(shards=2)
        session = Session(config)
        serial = session.sweep()
        shards = [session.sweep_shard(index) for index in range(2)]
        merged = sharding.merge_shards(shards)
        assert deterministic_rows(merged.outcomes) == deterministic_rows(
            serial.outcomes
        )

    def test_sweep_shard_requires_an_index(self):
        with pytest.raises(ConfigError, match="shard index"):
            Session(QFT_CONFIG).sweep_shard()


class TestGridAndHarnessDelegates:
    def test_run_returns_grid_result_with_fingerprint(self):
        session = Session(ECC_CONFIG)
        grid = session.sweep_grid()
        result = session.run(grid.specs, fingerprint=True)
        assert isinstance(result, GridResult)
        assert len(result.outcomes) == len(grid.specs)
        assert result.fingerprint == sharding.grid_fingerprint(grid.specs)
        assert result.payload()["plan_fingerprint"] == result.fingerprint
        assert len(result.rows) == len(result.outcomes)

    def test_scalability_delegate(self):
        records = Session(
            RunConfig(circuit="hidden-stage:8", environment="chain:8")
        ).scalability(qubit_counts=(8,))
        assert len(records) == 1
        assert records[0].num_qubits == 8
