"""Tests of the command-line interface."""

import dataclasses
import json

import pytest

from repro.analysis import sharding
from repro.analysis.serialization import checksummed_payload, dump_json
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

    @pytest.mark.parametrize(
        "unit, message",
        [
            ("-1", "time_unit_seconds must be a positive finite number, got -1.0"),
            ("0", "time_unit_seconds must be a positive finite number, got 0.0"),
            ("NaN", "time_unit_seconds must be a positive finite number, got nan"),
            ("Infinity", "time_unit_seconds must be a positive finite number, got inf"),
        ],
    )
    def test_place_json_refuses_a_bad_time_unit(self, tmp_path, capsys, unit, message):
        env_path = tmp_path / "env.json"
        env_path.write_text(
            '{"nodes": {"a": 1.0, "b": 1.0}, "default_pair_delay": 10.0, '
            f'"time_unit_seconds": {unit}}}'
        )
        code = main(["place", "qft:2", str(env_path), "--output", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_place_refuses_a_repeated_node_key(self, tmp_path, capsys):
        env_path = tmp_path / "env.json"
        env_path.write_text(
            '{"nodes": {"a": 1.0, "a": 2.0, "b": 1.0}, "default_pair_delay": 10.0}'
        )
        code = main(["place", "qft:2", str(env_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: repeated key 'a' in one object of the environment JSON\n"
        )

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
        self, tmp_path, capsys, monkeypatch
    ):
        # Backends are bit-identical, so shards run by processes on
        # different backends must share a plan fingerprint and merge.
        outputs = []
        for index, backend in enumerate(["python", "auto"]):
            monkeypatch.setenv("REPRO_SCHEDULER_BACKEND", backend)
            assert main(["sweep"] + SWEEP_ARGS
                        + ["--shards", "2", "--shard-index", str(index),
                           "--output", "json"]) == 0
            path = tmp_path / f"shard-{index}.json"
            path.write_text(capsys.readouterr().out)
            outputs.append(str(path))
        assert main(["shard", "merge", "--output", "json"] + outputs) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["index"] for row in payload["rows"]] == [0, 1]

    def test_shard_file_planned_with_the_backend_option_runs_and_merges(
        self, tmp_path, capsys
    ):
        # Shard files planned while options had a per-run backend pickle
        # it: "auto" on every spec, and whatever the planner's flags said
        # in the embedded config.  Such a file still runs and merges.
        assert main(["sweep"] + SWEEP_ARGS) == 0
        serial_table = capsys.readouterr().out
        out_dir = str(tmp_path / "shards")
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", out_dir]) == 0
        capsys.readouterr()

        def legacy(options, backend):
            options = options.replace()
            options.scheduler_backend = backend
            return options

        path = f"{out_dir}/shard-1.pkl"
        shard = sharding.read_shard(path)
        sharding.write_shard(dataclasses.replace(
            shard,
            specs=tuple(
                dataclasses.replace(spec, options=legacy(spec.options, "auto"))
                for spec in shard.specs
            ),
            config=shard.config.replace(
                options=legacy(shard.config.options, "python")
            ),
        ), path)
        with open(path, "rb") as handle:
            assert b"scheduler_backend" in handle.read()
        reread = sharding.read_shard(path)
        assert not hasattr(reread.specs[0].options, "scheduler_backend")
        assert reread.config == shard.config

        outputs = []
        for index in range(2):
            out_file = str(tmp_path / f"out-{index}.json")
            assert main(["shard", "run",
                         "--shard-file", f"{out_dir}/shard-{index}.pkl",
                         "--out", out_file]) == 0
            outputs.append(out_file)
        capsys.readouterr()
        assert main(["shard", "merge", "--plan", f"{out_dir}/plan.json"]
                    + outputs) == 0
        assert capsys.readouterr().out == serial_table

    def test_merge_rejects_malformed_outcome_shard(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "repro-outcome-shard",
                                    "shard_index": 0}))
        code = main(["shard", "merge", str(path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_merge_of_corrupt_shard_fails_closed(self, tmp_path, capsys):
        out_dir = str(tmp_path / "shards")
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", out_dir]) == 0
        outputs = []
        for index in range(2):
            out_file = tmp_path / f"out-{index}.json"
            assert main(["shard", "run",
                         "--shard-file", f"{out_dir}/shard-{index}.pkl",
                         "--out", str(out_file)]) == 0
            outputs.append(str(out_file))
        capsys.readouterr()
        # Truncate shard 1's outcome file to half its bytes.
        data = (tmp_path / "out-1.json").read_bytes()
        (tmp_path / "out-1.json").write_bytes(data[: len(data) // 2])
        assert main(["shard", "merge", "--plan", f"{out_dir}/plan.json"]
                    + outputs) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "out-1.json" in captured.err

    @pytest.mark.parametrize("flags,message", [
        (["--jobs", "0"], "jobs must be a positive integer, got 0"),
        (["--jobs", "-3"], "jobs must be a positive integer, got -3"),
    ], ids=["jobs", "negative-jobs"])
    def test_shard_run_bad_flag_value_is_a_usage_error(self, flags, message,
                                                       tmp_path, capsys):
        out_dir = str(tmp_path / "shards")
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", out_dir]) == 0
        capsys.readouterr()
        out_file = tmp_path / "out.json"
        code = main(["shard", "run", "--shard-file", f"{out_dir}/shard-0.pkl",
                     "--out", str(out_file), *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert not out_file.exists()

    @staticmethod
    def _assert_one_error_line(code, capsys, *fragments):
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        for fragment in fragments:
            assert fragment in captured.err

    def test_merge_without_a_shard_names_the_missing_one(self, tmp_path, capsys):
        out_dir = str(tmp_path / "shards")
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", out_dir]) == 0
        out_file = str(tmp_path / "out-0.json")
        assert main(["shard", "run", "--shard-file", f"{out_dir}/shard-0.pkl",
                     "--out", out_file]) == 0
        capsys.readouterr()
        code = main(["shard", "merge", "--plan", f"{out_dir}/plan.json",
                     out_file])
        self._assert_one_error_line(
            code, capsys, "missing [1]", "run each missing shard"
        )

    def test_merge_of_a_missing_outcome_file_is_one_error_line(
        self, tmp_path, capsys
    ):
        code = main(["shard", "merge", str(tmp_path / "out-7.json")])
        self._assert_one_error_line(
            code, capsys, "cannot read outcome-shard file", "out-7.json"
        )

    def test_run_of_a_truncated_shard_file_fails_closed(self, tmp_path, capsys):
        out_dir = tmp_path / "shards"
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        data = (out_dir / "shard-1.pkl").read_bytes()
        (out_dir / "shard-1.pkl").write_bytes(data[: len(data) // 2])
        out_file = tmp_path / "out-1.json"
        code = main(["shard", "run", "--shard-file", str(out_dir / "shard-1.pkl"),
                     "--out", str(out_file)])
        self._assert_one_error_line(code, capsys, "shard-1.pkl")
        assert not out_file.exists()

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


class TestPlanFileChecks:
    """``shard merge --plan`` refuses a plan file that does not describe
    the merged shards: exit 1, one ``error:`` line, no table."""

    @pytest.fixture
    def pipeline(self, tmp_path, capsys):
        out_dir = tmp_path / "shards"
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "2", "--out-dir", str(out_dir)]) == 0
        outputs = []
        for index in range(2):
            out_file = str(tmp_path / f"out-{index}.json")
            assert main(["shard", "run",
                         "--shard-file", str(out_dir / f"shard-{index}.pkl"),
                         "--out", out_file]) == 0
            outputs.append(out_file)
        capsys.readouterr()
        return out_dir / "plan.json", outputs

    @staticmethod
    def _edit_plan(plan_path, edit, rechecksum=True):
        metadata = json.loads(plan_path.read_text())
        edit(metadata)
        if rechecksum:
            metadata = checksummed_payload(metadata)
        plan_path.write_text(dump_json(metadata))

    @staticmethod
    def _merge_refused(plan_path, outputs, capsys, fragment):
        code = main(["shard", "merge", "--plan", str(plan_path)] + outputs)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert fragment in captured.err

    def test_missing_plan_file(self, pipeline, tmp_path, capsys):
        _, outputs = pipeline
        self._merge_refused(tmp_path / "absent.json", outputs, capsys,
                            "cannot read plan file")

    def test_outcome_file_passed_as_plan(self, pipeline, capsys):
        _, outputs = pipeline
        self._merge_refused(outputs[0], outputs, capsys,
                            "is not a shard-plan file")

    def test_plan_missing_a_required_key(self, pipeline, capsys):
        plan_path, outputs = pipeline
        self._edit_plan(plan_path, lambda metadata: metadata.pop("cell_index"))
        self._merge_refused(plan_path, outputs, capsys,
                            "is missing ['cell_index']")

    def test_plan_edited_after_writing_fails_its_checksum(self, pipeline, capsys):
        plan_path, outputs = pipeline
        self._edit_plan(plan_path,
                        lambda metadata: metadata.update(circuit_name="qft6"),
                        rechecksum=False)
        self._merge_refused(plan_path, outputs, capsys,
                            "payload checksum mismatch")

    def test_plan_with_another_shard_count(self, pipeline, tmp_path, capsys):
        # The same grid planned as one shard has the same fingerprint.
        _, outputs = pipeline
        other_dir = tmp_path / "whole"
        assert main(["shard", "plan"] + SWEEP_ARGS
                    + ["--shards", "1", "--out-dir", str(other_dir)]) == 0
        capsys.readouterr()
        self._merge_refused(other_dir / "plan.json", outputs, capsys,
                            "declare 2 shard(s) but the plan has 1")

    def test_plan_with_another_cell_count(self, pipeline, capsys):
        plan_path, outputs = pipeline
        self._edit_plan(plan_path,
                        lambda metadata: metadata.update(total_cells=5))
        self._merge_refused(plan_path, outputs, capsys,
                            "merged grid has 2 cell(s) but the plan describes 5")

    def test_plan_whose_cell_index_overruns_the_grid(self, pipeline, capsys):
        plan_path, outputs = pipeline
        self._edit_plan(plan_path,
                        lambda metadata: metadata.update(cell_index=[0, 9, 1]))
        self._merge_refused(plan_path, outputs, capsys,
                            "does not describe the merged grid")


class TestRemovedOptions:
    """The options of the removed cell-retry, checkpoint, partial-merge,
    replan and per-run scheduler-backend features are unknown to the
    parser: a usage error naming the option, never a run that silently
    ignores it."""

    @pytest.mark.parametrize("argv,token", [
        (["sweep", *SWEEP_ARGS, "--retries", "2"], "--retries"),
        (["sweep", *SWEEP_ARGS, "--cell-timeout", "30"], "--cell-timeout"),
        (["shard", "run", "--shard-file", "shard-0.pkl", "--out", "out-0.json",
          "--checkpoint", "out-0.jsonl"], "--checkpoint"),
        (["shard", "merge", "--allow-partial", "out-0.json"], "--allow-partial"),
        (["shard", "replan", "--plan", "plan.json"], "'replan'"),
        (["place", "qft6", "trans-crotonic-acid",
          "--scheduler-backend", "python"], "--scheduler-backend"),
        (["sweep", *SWEEP_ARGS, "--scheduler-backend", "native"],
         "--scheduler-backend"),
        (["shard", "plan", *SWEEP_ARGS, "--shards", "2", "--out-dir", "shards",
          "--scheduler-backend", "auto"], "--scheduler-backend"),
        (["shard", "run", "--shard-file", "shard-0.pkl", "--out", "out-0.json",
          "--scheduler-backend", "python"], "--scheduler-backend"),
    ], ids=["retries", "cell-timeout", "checkpoint", "allow-partial", "replan",
            "backend-place", "backend-sweep", "backend-plan", "backend-run"])
    def test_removed_option_is_a_usage_error(self, argv, token, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert token in captured.err


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

    @pytest.mark.parametrize("command", [["place"], ["sweep"]],
                             ids=["place", "sweep"])
    def test_mistyped_option_value_is_a_usage_error(self, command, tmp_path,
                                                    capsys):
        # 2.5 used to crash the placer (place) or fail open as N/A cells
        # (sweep).
        data = RunConfig(circuit="qft:5",
                         environment="trans-crotonic-acid").to_dict()
        data["options"]["lookahead_width"] = 2.5
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        code = main([*command, "--config", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "lookahead_width must be an integer, got 2.5" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("key,value", [
        ("retries", 2), ("cell_timeout", 30.0),
    ])
    def test_config_file_with_removed_key_is_a_usage_error(
        self, key, value, tmp_path, capsys
    ):
        # A file from before cell retries were removed may carry their
        # no-op values; any other value is refused rather than ignored.
        data = RunConfig(circuit="qft:5",
                         environment="trans-crotonic-acid").to_dict()
        data.update(retries=0, cell_timeout=None)
        data[key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        code = main(["sweep", "--config", str(path), "--thresholds", "200"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"run-config key {key!r} is {value!r}" in captured.err
        assert "removed" in captured.err

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
        shard = sharding.read_shard(f"{out_dir}/shard-0.pkl")
        assert shard.config == embedded


class TestUnknownSchedulerBackendFailsClosed:
    """``numpy`` names no scheduler backend.  ``REPRO_SCHEDULER_BACKEND``,
    the one switch that picks a backend, refuses it as a usage error:
    exit 2, one ``error:`` line naming ``auto``, and no cell runs (no
    table, no output file)."""

    @staticmethod
    def _assert_refused(code, capsys):
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "'auto'" in errors[0]

    @pytest.mark.parametrize("flags", [[], ["--jobs", "2"]],
                             ids=["serial", "jobs"])
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


class TestStoredSchedulerBackend:
    """Config files written while options had a per-run backend carry it.
    ``"auto"`` is what every process does now, so it is read and dropped;
    any other stored value is a usage error naming the one switch."""

    @staticmethod
    def _config_file(tmp_path, backend):
        data = RunConfig(circuit="qft6",
                         environment="trans-crotonic-acid").to_dict()
        data["options"]["scheduler_backend"] = backend
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_auto_is_dropped(self, tmp_path, capsys):
        def rows():
            payload = json.loads(capsys.readouterr().out)
            for row in payload["rows"]:
                row.pop("software_runtime_seconds")
            return payload

        assert main(["place", "qft6", "trans-crotonic-acid",
                     "--output", "json"]) == 0
        via_flags = rows()
        assert main(["place", "--config", self._config_file(tmp_path, "auto"),
                     "--output", "json"]) == 0
        assert rows() == via_flags

    @pytest.mark.parametrize("command", [
        ["place"], ["sweep", "--thresholds", "200"],
        ["shard", "plan", "--shards", "2", "--out-dir", "OUT"],
    ], ids=["place", "sweep", "plan"])
    @pytest.mark.parametrize("backend", ["python", "native", "numpy"])
    def test_other_values_are_a_usage_error(
        self, command, backend, tmp_path, capsys
    ):
        path = self._config_file(tmp_path, backend)
        out_dir = tmp_path / "shards"
        command = [arg.replace("OUT", str(out_dir)) for arg in command]
        assert main([*command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert f"'scheduler_backend' is {backend!r}" in captured.err
        assert "REPRO_SCHEDULER_BACKEND" in captured.err
        assert not out_dir.exists()
