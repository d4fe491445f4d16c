"""Tests of the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.circuits import qasm
from repro.circuits.library import qec3_encoder
from repro.config import RunConfig
from repro.core.config import PlacementOptions
from repro.hardware import io as hio
from repro.hardware.molecules import acetyl_chloride


class TestParser:
    def test_parser_subcommands(self):
        parser = build_parser()
        actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
        subcommands = set(actions[0].choices)
        assert subcommands == {"place", "sweep", "shard", "list"}

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "qft6" in output
        assert "acetyl-chloride" in output

    def test_place_benchmark_on_molecule(self, capsys):
        code = main(["place", "error-correction-encoding", "acetyl-chloride"])
        assert code == 0
        output = capsys.readouterr().out
        assert "0.0136" in output
        assert "stage 0" in output

    def test_place_with_threshold_flag(self, capsys):
        code = main(
            ["place", "phaseest", "trans-crotonic-acid", "--threshold", "100"]
        )
        assert code == 0
        assert "subcircuit" in capsys.readouterr().out

    def test_place_from_files(self, tmp_path, capsys):
        circuit_path = tmp_path / "encoder.qc"
        env_path = tmp_path / "molecule.json"
        qasm.dump(qec3_encoder(), str(circuit_path))
        hio.save(acetyl_chloride(), str(env_path))
        code = main(["place", str(circuit_path), str(env_path)])
        assert code == 0
        assert "0.0136" in capsys.readouterr().out

    def test_sweep_command(self, capsys):
        code = main(
            ["sweep", "error-correction-encoding", "acetyl-chloride",
             "--thresholds", "50", "100"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "threshold 50" in output
        assert "threshold 100" in output

    def test_sweep_jobs_flag_matches_serial_output(self, capsys):
        args = ["sweep", "error-correction-encoding", "acetyl-chloride",
                "--thresholds", "50", "100", "200"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_sweep_progress_flag_reports_cells(self, capsys):
        code = main(
            ["sweep", "error-correction-encoding", "acetyl-chloride",
             "--thresholds", "100", "--progress"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "sweep cell 1/1" in captured.err

    def test_unknown_circuit_is_a_usage_error(self, capsys):
        code = main(["place", "not-a-circuit", "acetyl-chloride"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        # One line, listing the valid registry names.
        assert err.count("\n") == 1
        assert "qft6" in err
        assert "qft:N" in err

    def test_unknown_molecule_is_a_usage_error(self, capsys):
        code = main(["place", "qft6", "not-a-molecule"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "acetyl-chloride" in err
        assert "grid:NxM" in err

    @pytest.mark.parametrize("thresholds", [["nan", "9200"], ["9200", "nan"]])
    def test_nan_sweep_threshold_is_a_usage_error(self, thresholds, capsys):
        # 9200 is trans-crotonic acid's largest explicit delay: an
        # unchecked NaN shared its sweep cell, in either order.
        code = main(["sweep", "qft:5", "trans-crotonic-acid",
                     "--thresholds", *thresholds])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: thresholds must be positive")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--threshold", "nan"],
        ["--threshold", "-1"],
        ["--max-monomorphisms", "0"],
    ])
    def test_invalid_option_flag_is_a_usage_error(self, flags, capsys):
        code = main(["place", "qft:5", "trans-crotonic-acid", *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid placement options:")
        assert err.count("\n") == 1

    def test_parameterised_specs_place(self, capsys):
        code = main(["place", "qft:4", "complete:6", "--threshold", "100"])
        assert code == 0
        assert "subcircuit" in capsys.readouterr().out

    def test_missing_positionals_without_config(self, capsys):
        code = main(["place"])
        assert code == 2
        assert "positional arguments or through --config" in capsys.readouterr().err


SWEEP_ARGS = ["error-correction-encoding", "acetyl-chloride",
              "--thresholds", "50", "100", "200"]


class TestJsonOutput:
    def test_place_json_row_and_counters(self, capsys):
        code = main(["place", "error-correction-encoding", "acetyl-chloride",
                     "--output", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        (row,) = payload["rows"]
        assert row["feasible"] is True
        assert row["runtime_seconds"] == pytest.approx(0.0136)
        assert payload["counters"]["monomorphism.searches"] > 0

    def test_place_json_infeasible_exits_nonzero(self, capsys):
        code = main(["place", "phaseest", "acetyl-chloride", "--output", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["feasible"] is False
        assert payload["rows"][0]["error_type"]

    def test_sweep_json_cells_match_text_table(self, capsys):
        assert main(["sweep"] + SWEEP_ARGS + ["--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [cell["threshold"] for cell in payload["cells"]] == [50.0, 100.0, 200.0]
        assert payload["cells"][0]["feasible"] is False
        assert payload["cells"][1]["num_subcircuits"] == 1
        assert payload["counters"]
        # Deduplicated grid: 3 thresholds, but 100/200 share one cell.
        assert len(payload["rows"]) == 2


class TestShardPipeline:
    def test_plan_run_merge_matches_serial_sweep(self, tmp_path, capsys):
        assert main(["sweep"] + SWEEP_ARGS) == 0
        serial_table = capsys.readouterr().out

        out_dir = str(tmp_path / "shards")
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", out_dir]) == 0
        assert "2 shard(s)" in capsys.readouterr().out
        outputs = []
        for index in range(2):
            out_file = str(tmp_path / f"out-{index}.json")
            assert main(["shard", "run",
                         "--shard-file", f"{out_dir}/shard-{index}.pkl",
                         "--out", out_file]) == 0
            capsys.readouterr()
            outputs.append(out_file)
        assert main(["shard", "merge", "--plan", f"{out_dir}/plan.json"]
                    + outputs) == 0
        assert capsys.readouterr().out == serial_table

    def test_sweep_shard_index_outputs_mergeable_shards(self, tmp_path, capsys):
        assert main(["sweep"] + SWEEP_ARGS) == 0
        serial_table = capsys.readouterr().out
        outputs = []
        for index in range(2):
            assert main(["sweep"] + SWEEP_ARGS
                        + ["--shards", "2", "--shard-index", str(index),
                           "--output", "json"]) == 0
            path = tmp_path / f"shard-{index}.json"
            path.write_text(capsys.readouterr().out)
            outputs.append(str(path))
        # Plan-less merge: generic payload, rows in grid order.
        assert main(["shard", "merge", "--output", "json"] + outputs) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["index"] for row in payload["rows"]] == [0, 1]
        assert payload["num_shards"] == 2
        # The shard invocations recompute the same plan fingerprint, so a
        # plan file from a separate invocation also verifies and renders
        # the serial sweep table.
        out_dir = str(tmp_path / "plandir")
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", out_dir]) == 0
        capsys.readouterr()
        assert main(["shard", "merge", "--plan", f"{out_dir}/plan.json"]
                    + outputs) == 0
        assert capsys.readouterr().out == serial_table

    def test_merge_refuses_wrong_plan(self, tmp_path, capsys):
        out_dir = str(tmp_path / "shards")
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "1", "--out-dir", out_dir]) == 0
        out_file = str(tmp_path / "out-0.json")
        assert main(["shard", "run", "--shard-file", f"{out_dir}/shard-0.pkl",
                     "--out", out_file]) == 0
        other_dir = str(tmp_path / "other")
        assert main(["shard", "plan", "qft6", "trans-crotonic-acid",
                     "--thresholds", "100", "--shards", "1",
                     "--out-dir", other_dir]) == 0
        capsys.readouterr()
        code = main(["shard", "merge", "--plan", f"{other_dir}/plan.json",
                     out_file])
        assert code == 1
        assert "different grid" in capsys.readouterr().err

    def test_shard_invocations_merge_across_scheduler_backends(
        self, tmp_path, capsys
    ):
        # Backends are bit-identical, so shards run with different
        # --scheduler-backend flags must share a plan fingerprint and merge.
        outputs = []
        for index, backend in enumerate(["python", "auto"]):
            assert main(["sweep"] + SWEEP_ARGS
                        + ["--shards", "2", "--shard-index", str(index),
                           "--scheduler-backend", backend,
                           "--output", "json"]) == 0
            path = tmp_path / f"shard-{index}.json"
            path.write_text(capsys.readouterr().out)
            outputs.append(str(path))
        assert main(["shard", "merge", "--output", "json"] + outputs) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["index"] for row in payload["rows"]] == [0, 1]

    def test_merge_rejects_malformed_outcome_shard(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "repro-outcome-shard",
                                    "shard_index": 0}))
        code = main(["shard", "merge", str(path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_sweep_shards_without_index_is_a_usage_error(self, capsys):
        code = main(["sweep"] + SWEEP_ARGS + ["--shards", "2"])
        assert code == 2
        assert "--shard-index" in capsys.readouterr().err

    def test_out_of_range_shard_index_is_a_usage_error(self, capsys):
        code = main(["sweep"] + SWEEP_ARGS + ["--shards", "2", "--shard-index", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "out of range" in err
        assert "0..1" in err

    def test_nonpositive_shards_is_a_usage_error(self, capsys):
        code = main(["sweep"] + SWEEP_ARGS + ["--shards", "0", "--shard-index", "0"])
        assert code == 2
        assert "shards must be a positive integer" in capsys.readouterr().err

    def test_shard_plan_without_shards_is_a_usage_error(self, tmp_path, capsys):
        code = main(["shard", "plan"] + SWEEP_ARGS
                    + ["--out-dir", str(tmp_path / "shards")])
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_progress_reports_throughput(self, capsys):
        code = main(["sweep", "error-correction-encoding", "acetyl-chloride",
                     "--thresholds", "100", "--progress"])
        assert code == 0
        err = capsys.readouterr().err
        assert "sweep cell 1/1" in err
        assert "cells/s" in err


class TestRunConfigFlag:
    def test_sweep_config_reproduces_flags_byte_for_byte(self, tmp_path, capsys):
        # The golden contract: `sweep --config run.json` is byte-identical
        # to the equivalent flag-based invocation.
        assert main(["sweep"] + SWEEP_ARGS) == 0
        from_flags = capsys.readouterr().out
        config = RunConfig(circuit="error-correction-encoding",
                           environment="acetyl-chloride",
                           thresholds=(50, 100, 200))
        path = tmp_path / "run.json"
        config.save(str(path))
        assert main(["sweep", "--config", str(path)]) == 0
        assert capsys.readouterr().out == from_flags

    def test_place_config_reproduces_flags_byte_for_byte(self, tmp_path, capsys):
        flags = ["place", "phaseest", "trans-crotonic-acid",
                 "--threshold", "100", "--no-fine-tuning"]
        assert main(flags) == 0
        from_flags = capsys.readouterr().out
        config = RunConfig(
            circuit="phaseest", environment="trans-crotonic-acid",
            options=PlacementOptions(threshold=100, fine_tuning=False),
        )
        path = tmp_path / "run.json"
        path.write_text(config.to_json())
        assert main(["place", "--config", str(path)]) == 0
        assert capsys.readouterr().out == from_flags

    def test_flags_override_config(self, tmp_path, capsys):
        config = RunConfig(circuit="error-correction-encoding",
                           environment="acetyl-chloride",
                           thresholds=(50,), output="json")
        path = tmp_path / "run.json"
        config.save(str(path))
        assert main(["sweep", "--config", str(path),
                     "--thresholds", "100", "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [cell["threshold"] for cell in payload["cells"]] == [100.0]
        assert payload["cells"][0]["feasible"] is True

    def test_malformed_config_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text('{"format": "repro-run-config", "circuit": "qft6", '
                        '"environment": "histidine", "jbos": 4}')
        code = main(["sweep", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "jbos" in err

    def test_shard_plan_embeds_config(self, tmp_path, capsys):
        out_dir = str(tmp_path / "shards")
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", out_dir]) == 0
        capsys.readouterr()
        with open(f"{out_dir}/plan.json", "r", encoding="utf-8") as handle:
            metadata = json.load(handle)
        embedded = RunConfig.from_dict(metadata["config"])
        assert embedded.circuit == "error-correction-encoding"
        assert embedded.environment == "acetyl-chloride"
        assert embedded.thresholds == (50.0, 100.0, 200.0)
        assert embedded.shards == 2
        # The shard input files are self-describing too.
        from repro.analysis import sharding
        shard = sharding.read_shard(f"{out_dir}/shard-0.pkl")
        assert shard.config == embedded


class TestFaultTolerantCli:
    def _serial_table(self, capsys):
        assert main(["sweep"] + SWEEP_ARGS) == 0
        return capsys.readouterr().out

    def test_faulted_sweep_with_retries_matches_serial(self, capsys, monkeypatch):
        serial_table = self._serial_table(capsys)
        monkeypatch.setenv("REPRO_FAULT_PLAN", "0:raise;1:kill")
        assert main(["sweep"] + SWEEP_ARGS + ["--retries", "2"]) == 0
        assert capsys.readouterr().out == serial_table

    def test_resume_without_checkpoint_is_a_usage_error(self, tmp_path, capsys):
        out_dir = str(tmp_path / "shards")
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", out_dir]) == 0
        capsys.readouterr()
        code = main(["shard", "run", "--shard-file", f"{out_dir}/shard-0.pkl",
                     "--out", str(tmp_path / "out.json"), "--resume"])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_checkpoint_resume_flow(self, tmp_path, capsys):
        serial_table = self._serial_table(capsys)
        out_dir = str(tmp_path / "shards")
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", out_dir]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "ckpt-0.jsonl"
        out_0 = str(tmp_path / "out-0.json")
        assert main(["shard", "run", "--shard-file", f"{out_dir}/shard-0.pkl",
                     "--out", out_0, "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        # Simulate a crash that lost the output but kept a partial journal.
        lines = ckpt.read_text().splitlines(keepends=True)
        ckpt.write_text("".join(lines[:2]))
        assert main(["shard", "run", "--shard-file", f"{out_dir}/shard-0.pkl",
                     "--out", out_0, "--checkpoint", str(ckpt), "--resume"]) == 0
        assert "resuming shard 0" in capsys.readouterr().out
        out_1 = str(tmp_path / "out-1.json")
        assert main(["shard", "run", "--shard-file", f"{out_dir}/shard-1.pkl",
                     "--out", out_1]) == 0
        capsys.readouterr()
        assert main(["shard", "merge", "--plan", f"{out_dir}/plan.json",
                     out_0, out_1]) == 0
        assert capsys.readouterr().out == serial_table

    def _plan_and_run_with_corrupt_shard(self, tmp_path, capsys, monkeypatch):
        """Plan 2 shards, run both with shard 1's output corrupted on write."""
        out_dir = str(tmp_path / "shards")
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", out_dir]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_FAULT_PLAN", "out:1")
        outputs = []
        for index in range(2):
            out_file = str(tmp_path / f"out-{index}.json")
            assert main(["shard", "run",
                         "--shard-file", f"{out_dir}/shard-{index}.pkl",
                         "--out", out_file]) == 0
            capsys.readouterr()
            outputs.append(out_file)
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        return out_dir, outputs

    def test_merge_of_corrupt_shard_fails_closed(self, tmp_path, capsys,
                                                 monkeypatch):
        out_dir, outputs = self._plan_and_run_with_corrupt_shard(
            tmp_path, capsys, monkeypatch
        )
        assert main(["shard", "merge", "--plan", f"{out_dir}/plan.json"]
                    + outputs) == 1
        assert "out-1.json" in capsys.readouterr().err

    def test_allow_partial_merge_reports_gaps_and_suggests_replan(
        self, tmp_path, capsys, monkeypatch
    ):
        out_dir, outputs = self._plan_and_run_with_corrupt_shard(
            tmp_path, capsys, monkeypatch
        )
        assert main(["shard", "merge", "--plan", f"{out_dir}/plan.json",
                     "--allow-partial"] + outputs) == 0
        captured = capsys.readouterr()
        assert "partial merge" in captured.out
        assert "missing shard(s): [1]" in captured.out
        assert "shard replan" in captured.out
        assert "MISSING" in captured.out

    def test_replan_recovers_to_byte_identical_table(self, tmp_path, capsys,
                                                     monkeypatch):
        serial_table = self._serial_table(capsys)
        out_dir, outputs = self._plan_and_run_with_corrupt_shard(
            tmp_path, capsys, monkeypatch
        )
        recovery_dir = str(tmp_path / "recovery")
        assert main(["shard", "replan", "--plan", f"{out_dir}/plan.json",
                     "--out-dir", recovery_dir] + outputs) == 0
        assert "1 of 2 shard(s)" in capsys.readouterr().out
        recovered = str(tmp_path / "recovered-1.json")
        assert main(["shard", "run",
                     "--shard-file", f"{recovery_dir}/shard-1.pkl",
                     "--out", recovered]) == 0
        capsys.readouterr()
        assert main(["shard", "merge", "--plan", f"{out_dir}/plan.json",
                     outputs[0], recovered]) == 0
        assert capsys.readouterr().out == serial_table

    def test_replan_with_nothing_missing_is_a_no_op(self, tmp_path, capsys):
        out_dir = str(tmp_path / "shards")
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", out_dir]) == 0
        capsys.readouterr()
        outputs = []
        for index in range(2):
            out_file = str(tmp_path / f"out-{index}.json")
            assert main(["shard", "run",
                         "--shard-file", f"{out_dir}/shard-{index}.pkl",
                         "--out", out_file]) == 0
            capsys.readouterr()
            outputs.append(out_file)
        assert main(["shard", "replan", "--plan", f"{out_dir}/plan.json",
                     "--out-dir", str(tmp_path / "recovery")] + outputs) == 0
        assert "nothing to replan" in capsys.readouterr().out


class TestUnknownSchedulerBackendFailsClosed:
    """``numpy`` names no scheduler backend.  Every stored form of it — the
    environment variable, the flag, a ``--config`` file, a replanned
    ``plan.json`` — is a usage error: exit 2, one ``error:`` line naming
    ``auto``, and no cell runs (no table, no output file)."""

    @staticmethod
    def _assert_refused(code, capsys):
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "'auto'" in errors[0]

    @pytest.mark.parametrize("flags", [
        [], ["--jobs", "2"], ["--retries", "2"], ["--cell-timeout", "30"],
    ], ids=["serial", "jobs", "retries", "cell-timeout"])
    def test_env_value_refuses_sweep(self, flags, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER_BACKEND", "numpy")
        self._assert_refused(
            main(["sweep", "qft6", "trans-crotonic-acid", *flags]), capsys
        )

    def test_env_value_refuses_place(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER_BACKEND", "numpy")
        self._assert_refused(
            main(["place", "qft6", "trans-crotonic-acid"]), capsys
        )

    def test_env_value_refuses_shard_run(self, tmp_path, capsys, monkeypatch):
        out_dir = str(tmp_path / "shards")
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", out_dir]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_SCHEDULER_BACKEND", "numpy")
        out_file = tmp_path / "out-0.json"
        self._assert_refused(
            main(["shard", "run", "--shard-file", f"{out_dir}/shard-0.pkl",
                  "--out", str(out_file)]),
            capsys,
        )
        assert not out_file.exists()

    def test_flag_value_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["place", "qft6", "trans-crotonic-acid",
                  "--scheduler-backend", "numpy"])
        self._assert_refused(info.value.code, capsys)

    def test_config_file_value_is_a_usage_error(self, tmp_path, capsys):
        data = RunConfig(circuit="qft6",
                         environment="trans-crotonic-acid").to_dict()
        data["options"]["scheduler_backend"] = "numpy"
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        self._assert_refused(main(["place", "--config", str(path)]), capsys)

    def test_replanned_plan_value_is_a_usage_error(self, tmp_path, capsys):
        from repro.analysis.serialization import checksummed_payload, dump_json

        out_dir = tmp_path / "shards"
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        plan_path = out_dir / "plan.json"
        metadata = json.loads(plan_path.read_text())
        metadata.pop("payload_sha256")
        metadata["config"]["options"]["scheduler_backend"] = "numpy"
        plan_path.write_text(dump_json(checksummed_payload(metadata)))
        recovery = tmp_path / "recovery"
        self._assert_refused(
            main(["shard", "replan", "--plan", str(plan_path),
                  "--out-dir", str(recovery)]),
            capsys,
        )
        assert not recovery.exists()
