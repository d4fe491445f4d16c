"""Tests of the sharded grid pipeline (``repro.analysis.sharding``).

Covers the plan → execute → merge round trip (including through files),
the merge-time verification, outcome serialisation round trips, and the
acceptance gate of the sharding PR: a 2-shard and a 4-shard round trip of
the QFT / trans-crotonic-acid sweep must reproduce the serial
``ExperimentRunner`` rows and work counters byte for byte.
"""

import copy
import hashlib
import json
import pickle
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import sharding
from repro.analysis.runner import (
    ExperimentOutcome,
    ExperimentRunner,
    ExperimentSpec,
    molecule_factory,
    run_experiments,
)
from repro.analysis.serialization import (
    checksummed_payload,
    deterministic_rows,
    dump_json,
    outcome_from_dict,
    outcome_to_dict,
    outcomes_payload,
    work_counters,
)
from repro.analysis.sweep import build_sweep_specs, row_from_outcomes, sweep_circuit
from repro.circuits.library import phaseest, qec3_encoder, qft6
from repro.cli import main
from repro.core.config import PlacementOptions
from repro.core.stats import STATS, Counters
from repro.exceptions import ExperimentError, ShardFormatError, ThresholdError
from repro.hardware.molecules import molecule, trans_crotonic_acid


def _small_grid():
    """Four cells over two molecules, one infeasible."""
    return [
        ExperimentSpec(
            circuit_factory=qec3_encoder,
            environment_factory=molecule_factory("acetyl-chloride"),
            threshold=threshold,
            label=f"qec3 thr {threshold:g}",
        )
        for threshold in (50.0, 100.0, 200.0)
    ] + [
        ExperimentSpec(
            circuit_factory=phaseest,
            environment_factory=molecule_factory("trans-crotonic-acid"),
            threshold=200.0,
            label="phaseest",
        )
    ]


def _exploding_circuit():
    """A module-level (picklable) circuit factory failing with a non-N/A error."""
    raise RuntimeError("exploding circuit factory")


def _run_plan(plan, tmp_path=None):
    """Execute every shard (optionally through files) and return the shards."""
    shards = []
    for index in range(plan.num_shards):
        shard_input = plan.shard_input(index)
        if tmp_path is not None:
            path = str(tmp_path / f"shard-{index}.pkl")
            sharding.write_shard(shard_input, path)
            shard_input = sharding.read_shard(path)
        outcome_shard = sharding.execute_shard(shard_input)
        if tmp_path is not None:
            out_path = str(tmp_path / f"out-{index}.json")
            sharding.write_outcome_shard(outcome_shard, out_path)
            outcome_shard = sharding.read_outcome_shard(out_path)
        shards.append(outcome_shard)
    return shards


class TestShardPlan:
    def test_round_robin_partition(self):
        plan = sharding.ShardPlan.build(_small_grid(), num_shards=2)
        assert plan.assignments == ((0, 2), (1, 3))

    def test_plan_is_deterministic(self):
        one = sharding.ShardPlan.build(_small_grid(), 3)
        two = sharding.ShardPlan.build(_small_grid(), 3)
        assert one.assignments == two.assignments == ((0, 3), (1,), (2,))
        assert one.fingerprint == two.fingerprint

    def test_a_positional_strategy_is_a_type_error(self):
        # ShardPlan.build takes its config by keyword only, so a call
        # still naming one of the removed strategies fails loudly.
        with pytest.raises(TypeError):
            sharding.ShardPlan.build(_small_grid(), 2, "round-robin")
        assert not hasattr(sharding.ShardPlan.build(_small_grid(), 2),
                           "strategy")

    def test_more_shards_than_cells_leaves_empty_shards(self):
        plan = sharding.ShardPlan.build(_small_grid()[:2], num_shards=4)
        assert plan.num_shards == 4
        assert plan.assignments == ((0,), (1,), (), ())

    def test_invalid_counts_rejected(self):
        with pytest.raises(ExperimentError, match="num_shards"):
            sharding.ShardPlan.build(_small_grid(), 0)
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        with pytest.raises(ExperimentError, match="out of range"):
            plan.shard_input(2)

    def test_fingerprint_distinguishes_grids(self):
        base = sharding.ShardPlan.build(_small_grid(), 2).fingerprint
        other_specs = _small_grid()
        other_specs[0] = replace(other_specs[0], threshold=75.0)
        assert sharding.ShardPlan.build(other_specs, 2).fingerprint != base
        # ... and is stable for equal grids built twice.
        assert sharding.ShardPlan.build(_small_grid(), 2).fingerprint == base

    def test_plan_file_round_trip(self, tmp_path):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        paths = sharding.write_plan(
            plan, str(tmp_path / "grid"), circuit_name="mixed",
            environment_name="two molecules", thresholds=[50.0, 100.0],
            cell_index=[0, 3],
        )
        assert paths == [str(tmp_path / "grid" / f"shard-{i}.pkl")
                         for i in range(2)]
        assert sharding.read_shard(paths[1]).indices == (1, 3)
        path = str(tmp_path / "grid" / sharding.PLAN_FILE)
        metadata = json.loads(open(path, encoding="utf-8").read())
        assert metadata["labels"][3] == "phaseest"
        assert metadata["shard_files"] == ["shard-0.pkl", "shard-1.pkl"]
        assert "strategy" not in metadata
        assert sharding.read_plan(path) == sharding.PlanFile(
            fingerprint=plan.fingerprint,
            assignments=((0, 2), (1, 3)),
            total_cells=4,
            circuit_name="mixed",
            environment_name="two molecules",
            thresholds=(50.0, 100.0),
            cell_index=(0, 3),
        )


class TestShardFiles:
    def test_shard_input_file_round_trip(self, tmp_path):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        path = str(tmp_path / "shard-0.pkl")
        sharding.write_shard(plan.shard_input(0), path)
        clone = sharding.read_shard(path)
        assert clone.indices == plan.assignments[0]
        assert clone.plan_fingerprint == plan.fingerprint
        assert [spec.label for spec in clone.specs] == [
            plan.specs[index].label for index in clone.indices
        ]

    def test_read_shard_rejects_non_shard_files(self, tmp_path):
        path = str(tmp_path / "junk.pkl")
        with open(path, "wb") as handle:
            pickle.dump({"hello": "world"}, handle)
        with pytest.raises(ExperimentError, match="not a shard-input file"):
            sharding.read_shard(path)
        with pytest.raises(ExperimentError, match="cannot read"):
            sharding.read_shard(str(tmp_path / "missing.pkl"))

    def test_unpicklable_shard_is_a_clean_error(self, tmp_path):
        spec = ExperimentSpec(
            circuit_factory=lambda: qec3_encoder(),
            environment_factory=molecule_factory("acetyl-chloride"),
            label="lambda",
        )
        plan = sharding.ShardPlan.build([spec], 1)
        with pytest.raises(ExperimentError, match="picklable"):
            sharding.write_shard(plan.shard_input(0), str(tmp_path / "s.pkl"))

    def test_malformed_outcome_payload_is_a_clean_error(self):
        with pytest.raises(ExperimentError, match="malformed"):
            sharding.outcome_shard_from_payload(
                {"format": "repro-outcome-shard", "shard_index": 0}
            )
        with pytest.raises(ExperimentError, match="not an outcome-shard"):
            sharding.outcome_shard_from_payload({"format": "something-else"})

    def test_unpicklable_grids_get_distinct_fingerprints(self):
        # The repr fallback must distinguish coexisting grids by their
        # factories (lambda reprs carry the object address, so both
        # factories must stay alive — which they do whenever two plans
        # are being compared or merged).
        factory_a = lambda: qec3_encoder()  # noqa: E731
        factory_b = lambda: phaseest()  # noqa: E731

        def grid(factory):
            return [ExperimentSpec(circuit_factory=factory,
                                   environment_factory=molecule_factory("acetyl-chloride"))]

        one = sharding.grid_fingerprint(grid(factory_a))
        two = sharding.grid_fingerprint(grid(factory_b))
        assert one != two

    def test_outcome_shard_file_round_trip(self, tmp_path):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        shard = sharding.execute_shard(plan.shard_input(1))
        path = str(tmp_path / "out-1.json")
        sharding.write_outcome_shard(shard, path)
        clone = sharding.read_outcome_shard(path)
        assert clone.plan_fingerprint == shard.plan_fingerprint
        assert clone.indices == shard.indices
        assert clone.counters == shard.counters
        assert deterministic_rows(clone.outcomes) == deterministic_rows(
            shard.outcomes
        )
        # The file is canonical JSON: a re-serialisation is byte-identical.
        assert dump_json(sharding.outcome_shard_to_payload(clone)) == open(
            path, encoding="utf-8"
        ).read()


class TestOutcomeSerialization:
    def test_outcome_round_trip_feasible_and_infeasible(self):
        outcomes = run_experiments(_small_grid()[1:3] + _small_grid()[:1])
        for outcome in outcomes:
            clone = outcome_from_dict(
                json.loads(json.dumps(outcome_to_dict(outcome)))
            )
            assert clone == replace(outcome, result=None)

    def test_raise_if_infeasible_survives_round_trip(self):
        outcome = run_experiments(_small_grid()[:1])[0]  # qec3 @ 50 is N/A
        assert not outcome.feasible
        clone = outcome_from_dict(outcome_to_dict(outcome))
        assert clone.error_type == "ThresholdError"
        with pytest.raises(ThresholdError, match="qec3 thr 50"):
            clone.raise_if_infeasible()

    def test_result_is_never_serialised(self):
        spec = replace(_small_grid()[1], keep_result=True)
        outcome = run_experiments([spec])[0]
        assert outcome.result is not None
        row = outcome_to_dict(outcome)
        assert "result" not in row
        assert outcome_from_dict(row).result is None

    def test_outcomes_payload_shape(self):
        outcomes = run_experiments(_small_grid()[:2])
        payload = outcomes_payload(outcomes, counters={"x": 2})
        assert [row["label"] for row in payload["rows"]] == [
            "qec3 thr 50",
            "qec3 thr 100",
        ]
        assert payload["counters"] == {"x": 2}
        json.loads(dump_json(payload))  # JSON-safe end to end


class TestExecuteAndMerge:
    def test_round_trip_matches_serial(self, tmp_path):
        specs = _small_grid()
        serial = ExperimentRunner().run(specs)
        plan = sharding.ShardPlan.build(specs, 2)
        merged = sharding.merge_shards(_run_plan(plan, tmp_path), plan=plan)
        assert deterministic_rows(merged.outcomes) == deterministic_rows(serial)

    def test_merge_without_plan(self):
        plan = sharding.ShardPlan.build(_small_grid(), 3)
        merged = sharding.merge_shards(_run_plan(plan))
        assert [outcome.index for outcome in merged.outcomes] == [0, 1, 2, 3]
        assert merged.num_shards == 3
        assert merged.plan_fingerprint == plan.fingerprint

    def test_merged_work_counters_match_serial(self):
        specs = _small_grid()
        before = STATS.snapshot()
        ExperimentRunner().run(specs)
        serial_counters = STATS.delta_since(before)
        plan = sharding.ShardPlan.build(specs, 2)
        merged = sharding.merge_shards(_run_plan(plan), plan=plan)
        assert work_counters(merged.counters) == work_counters(serial_counters)

    def test_execute_shard_with_parallel_runner(self):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        serial = sharding.execute_shard(plan.shard_input(0))
        parallel = sharding.execute_shard(
            plan.shard_input(0), ExperimentRunner(jobs=2)
        )
        assert deterministic_rows(parallel.outcomes) == deterministic_rows(
            serial.outcomes
        )

    def test_merge_rejects_foreign_shards(self):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        other = sharding.ShardPlan.build(_small_grid()[:2], 2)
        shards = _run_plan(plan)
        foreign = _run_plan(other)
        with pytest.raises(ExperimentError, match="different plans"):
            sharding.merge_shards([shards[0], foreign[1]])
        with pytest.raises(ExperimentError, match="different grid"):
            sharding.merge_shards(foreign, plan=plan)

    def test_merge_rejects_missing_and_duplicate_shards(self):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        shards = _run_plan(plan)
        with pytest.raises(ExperimentError, match="missing \\[1\\]"):
            sharding.merge_shards([shards[0]])
        with pytest.raises(ExperimentError, match="every shard exactly"):
            sharding.merge_shards([shards[0], shards[0]])

    def test_missing_shard_error_asks_for_its_outcome_file(self):
        plan = sharding.ShardPlan.build(_small_grid(), 3)
        shards = [sharding.execute_shard(plan.shard_input(i)) for i in (0, 2)]
        with pytest.raises(ExperimentError) as info:
            sharding.merge_shards(shards, plan=plan)
        message = str(info.value)
        assert "missing [1]" in message
        assert "run each missing shard and pass its outcome file" in message
        assert "replan" not in message
        assert "partial" not in message

    def test_merge_rejects_tampered_outcome_indices(self):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        shards = _run_plan(plan)
        shards[0].outcomes[0].index = 99
        with pytest.raises(ExperimentError, match="does not match"):
            sharding.merge_shards(shards, plan=plan)

    def test_merge_empty_input_rejected(self):
        with pytest.raises(ExperimentError, match="empty"):
            sharding.merge_shards([])


class TestMergeVerification:
    """Each merge-time check refuses shards that do not form the grid."""

    @pytest.fixture
    def shards(self):
        return _run_plan(sharding.ShardPlan.build(_small_grid(), 2))

    def test_shards_disagreeing_on_the_shard_count_are_refused(self, shards):
        shards[1].num_shards = 3
        with pytest.raises(ExperimentError,
                           match=r"disagree on the shard count \(\[2, 3\]\)"):
            sharding.merge_shards(shards)

    def test_shard_count_must_match_the_plan(self):
        # One grid planned twice: same fingerprint, different shard counts.
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        whole = sharding.ShardPlan.build(_small_grid(), 1)
        assert whole.fingerprint == plan.fingerprint
        with pytest.raises(ExperimentError,
                           match=r"declare 1 shard\(s\) but the plan has 2"):
            sharding.merge_shards(_run_plan(whole), plan=plan)

    def test_out_of_range_shard_index_is_refused(self, shards):
        shards[1].shard_index = 5
        with pytest.raises(ExperimentError,
                           match=r"shard indices \[0, 5\] \(missing \[1\]\)"):
            sharding.merge_shards(shards)

    def test_outcome_count_must_match_the_cell_count(self, shards):
        shards[0].outcomes.pop()
        with pytest.raises(ExperimentError,
                           match=r"shard 0 has 1 outcome\(s\) for 2 cell\(s\)"):
            sharding.merge_shards(shards)

    def test_cell_assignment_must_match_the_plan(self, shards):
        # Shards 0 and 1 swapped: each is consistent, together they cover
        # the grid once, and only the plan knows who holds which cells.
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        shards[0].shard_index, shards[1].shard_index = 1, 0
        sharding.merge_shards(shards)
        with pytest.raises(
            ExperimentError,
            match=r"shard 0 cell assignment \[1, 3\] does not match the "
                  r"plan's \[0, 2\]",
        ):
            sharding.merge_shards(shards, plan=plan)

    def test_overlapping_shards_are_refused(self, shards):
        # Each shard is consistent on its own; only the coverage check
        # sees that cell 0 is claimed twice and cell 1 by nobody.
        shards[1].indices = (0, 3)
        shards[1].outcomes[0].index = 0
        with pytest.raises(
            ExperimentError,
            match=r"missing cells \[1\], duplicated cells \[0\]",
        ):
            sharding.merge_shards(shards)

    def test_a_cell_claimed_by_three_shards_is_listed_once(self):
        # Cells (0, 3), (1,) and (2,): shards 1 and 2 also claim cell 0.
        shards = _run_plan(sharding.ShardPlan.build(_small_grid(), 3))
        for shard in shards[1:]:
            shard.indices = (0,)
            shard.outcomes[0].index = 0
        with pytest.raises(
            ExperimentError,
            match=r"\(missing cells \[1, 2\], duplicated cells \[0\]\)$",
        ):
            sharding.merge_shards(shards)

    def test_a_shard_passed_three_times_is_refused(self, shards):
        with pytest.raises(
            ExperimentError, match=r"got shard indices \[0, 0, 0\] \(missing \[1\]\)"
        ):
            sharding.merge_shards([shards[0]] * 3)

    def test_merge_is_independent_of_argument_order(self):
        plan = sharding.ShardPlan.build(_small_grid(), 3)
        shards = _run_plan(plan)
        forward = sharding.merge_shards(shards, plan=plan)
        backward = sharding.merge_shards(shards[::-1], plan=plan)
        assert deterministic_rows(backward.outcomes) == deterministic_rows(
            forward.outcomes
        )
        assert backward.counters == forward.counters


class TestExecuteShard:
    """``execute_shard`` streams a shard's cells through ``iter_outcomes``
    and relabels each outcome with its global grid index."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_outcomes_carry_global_indices_in_shard_order(self, jobs):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        for shard_index in range(plan.num_shards):
            shard = sharding.execute_shard(
                plan.shard_input(shard_index), ExperimentRunner(jobs=jobs)
            )
            assert shard.indices == plan.assignments[shard_index]
            assert [outcome.index for outcome in shard.outcomes] == list(
                shard.indices
            )
            assert [outcome.label for outcome in shard.outcomes] == [
                plan.specs[index].label for index in shard.indices
            ]

    def test_empty_shard_is_an_empty_mergeable_outcome_shard(self):
        plan = sharding.ShardPlan.build(_small_grid()[:2], 4)
        shards = [sharding.execute_shard(plan.shard_input(i)) for i in range(4)]
        assert shards[3].indices == ()
        assert shards[3].outcomes == []
        assert shards[3].counters == {}
        merged = sharding.merge_shards(shards, plan=plan)
        assert [outcome.index for outcome in merged.outcomes] == [0, 1]

    def test_cell_error_that_is_not_n_a_propagates(self):
        specs = _small_grid()[:1] + [
            ExperimentSpec(
                circuit_factory=_exploding_circuit,
                environment_factory=molecule_factory("acetyl-chloride"),
                label="exploding",
            )
        ]
        plan = sharding.ShardPlan.build(specs, 1)
        with pytest.raises(RuntimeError, match="exploding circuit factory"):
            sharding.execute_shard(plan.shard_input(0), ExperimentRunner(jobs=2))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shard_counters_hold_the_work_of_its_cells(self, jobs):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        shard = sharding.execute_shard(
            plan.shard_input(0), ExperimentRunner(jobs=jobs)
        )
        per_cell = Counters()
        for outcome in shard.outcomes:
            per_cell.merge(outcome.counters)
        assert work_counters(shard.counters)
        assert work_counters(shard.counters) == work_counters(per_cell.snapshot())


class TestCountersMergeAssociativity:
    def test_merge_is_associative_across_shards(self):
        deltas = [
            {"monomorphism.searches": 3, "scheduler.full_evals": 7},
            {"monomorphism.searches": 1, "environment.adjacency_cache_hits": 4},
            {"scheduler.full_evals": 2, "scheduler.incremental_evals": 11},
        ]

        def fold(groups):
            total = Counters()
            for group in groups:
                partial_sum = Counters()
                for delta in group:
                    partial_sum.merge(delta)
                total.merge(partial_sum.snapshot())
            return total.snapshot()

        # ((a + b) + c), (a + (b + c)) and the flat sum all agree: shard
        # workers may pre-merge their own worker deltas in any grouping.
        flat = fold([deltas])
        assert fold([deltas[:2], deltas[2:]]) == flat
        assert fold([deltas[:1], deltas[1:]]) == flat
        assert fold([[delta] for delta in deltas]) == flat


class TestCountersMergePartition:
    """Counters.merge over any partition of the work equals the serial total."""

    @given(
        deltas=st.lists(
            st.dictionaries(
                st.sampled_from(
                    ["monomorphism.searches", "scheduler.full_evals",
                     "scheduler.incremental_evals"]
                ),
                st.integers(min_value=0, max_value=1_000),
                max_size=3,
            ),
            max_size=8,
        ),
        cut_points=st.lists(st.integers(min_value=0, max_value=8), max_size=4),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_partition_matches_serial(self, deltas, cut_points):
        serial = Counters()
        for delta in deltas:
            serial.merge(delta)

        bounds = sorted({0, len(deltas), *[min(c, len(deltas)) for c in cut_points]})
        merged = Counters()
        for start, stop in zip(bounds, bounds[1:]):
            shard = Counters()  # empty shards (start == stop) merge as no-ops
            for delta in deltas[start:stop]:
                shard.merge(delta)
            merged.merge(shard.snapshot())
        assert merged.snapshot() == serial.snapshot()


class TestDegenerateLocalPath:
    def test_runner_run_returns_outcomes_in_spec_order(self):
        specs = _small_grid()
        outcomes = ExperimentRunner().run(specs)
        assert [outcome.index for outcome in outcomes] == [0, 1, 2, 3]
        assert [outcome.label for outcome in outcomes] == [
            spec.label for spec in specs
        ]

    def test_iter_outcomes_streams_in_serial_spec_order(self):
        seen = []
        for outcome in ExperimentRunner().iter_outcomes(_small_grid()):
            seen.append(outcome.index)
        assert seen == [0, 1, 2, 3]

    def test_iter_outcomes_parallel_covers_all_cells(self):
        seen = sorted(
            outcome.index
            for outcome in ExperimentRunner(jobs=2).iter_outcomes(_small_grid())
        )
        assert seen == [0, 1, 2, 3]

    def test_abandoned_parallel_iterator_keeps_completed_counters(self):
        # Breaking out of the stream must not hang on the rest of the grid
        # (unstarted cells are cancelled) and must not lose the counters of
        # cells that did execute.
        before = STATS.snapshot()
        iterator = ExperimentRunner(jobs=2).iter_outcomes(_small_grid())
        first = next(iterator)
        iterator.close()
        assert first.counters  # the consumed cell did real work...
        delta = STATS.delta_since(before)
        # ... and everything that ran (consumed or in-flight) was merged.
        assert delta.get("scheduler.full_evals", 0) > 0


class TestSweepStreaming:
    def test_on_row_fires_once_with_the_final_row(self):
        rows = []
        returned = sweep_circuit(
            qec3_encoder,
            molecule("acetyl-chloride"),
            thresholds=(50.0, 100.0),
            on_row=rows.append,
        )
        assert len(rows) == 1
        assert [cell.formatted() for cell in rows[0].cells] == [
            cell.formatted() for cell in returned.cells
        ]


class TestQftCrotonicAcceptance:
    """The PR's acceptance gate: qft/crotonic sweep, 2 and 4 shards."""

    @pytest.fixture(scope="class")
    def grid(self):
        specs, cell_index = build_sweep_specs(
            qft6,
            trans_crotonic_acid(),
            molecule_factory("trans-crotonic-acid"),
            (50.0, 100.0, 200.0, 1000.0),
            PlacementOptions(),
        )
        before = STATS.snapshot()
        serial = ExperimentRunner().run(specs)
        counters = STATS.delta_since(before)
        return specs, cell_index, serial, counters

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_round_trip_is_byte_identical(self, grid, num_shards, tmp_path):
        specs, cell_index, serial, serial_counters = grid
        plan = sharding.ShardPlan.build(specs, num_shards)
        merged = sharding.merge_shards(_run_plan(plan, tmp_path), plan=plan)
        # Byte-identical deterministic rows (canonical JSON encoding)...
        assert dump_json(deterministic_rows(merged.outcomes)) == dump_json(
            deterministic_rows(serial)
        )
        # ... identical merged work counters ...
        assert work_counters(merged.counters) == work_counters(serial_counters)
        # ... and an identical reassembled sweep row.
        thresholds = (50.0, 100.0, 200.0, 1000.0)
        merged_row = row_from_outcomes(
            merged.outcomes, cell_index, thresholds, "qft6", "trans-crotonic acid"
        )
        serial_row = row_from_outcomes(
            serial, cell_index, thresholds, "qft6", "trans-crotonic acid"
        )
        assert [cell.formatted() for cell in merged_row.cells] == [
            cell.formatted() for cell in serial_row.cells
        ]


class TestCrashSafeFiles:
    """Corruption of any pipeline file is a one-line ShardFormatError."""

    def test_truncated_shard_input_is_a_clean_error(self, tmp_path):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        path = str(tmp_path / "shard-0.pkl")
        sharding.write_shard(plan.shard_input(0), path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(ShardFormatError, match="shard-0.pkl"):
            sharding.read_shard(path)

    def test_bit_flipped_shard_input_fails_the_checksum(self, tmp_path):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        path = str(tmp_path / "shard-0.pkl")
        sharding.write_shard(plan.shard_input(0), path)
        data = bytearray(open(path, "rb").read())
        data[-40] ^= 0xFF  # flip one byte inside the pickled shard blob
        open(path, "wb").write(bytes(data))
        with pytest.raises(ShardFormatError):
            sharding.read_shard(path)

    def test_truncated_outcome_shard_is_a_clean_error(self, tmp_path):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        path = str(tmp_path / "out-1.json")
        sharding.write_outcome_shard(sharding.execute_shard(plan.shard_input(1)), path)
        text = open(path, encoding="utf-8").read()
        open(path, "w", encoding="utf-8").write(text[: len(text) // 2])
        with pytest.raises(ShardFormatError, match="out-1.json"):
            sharding.read_outcome_shard(path)

    def test_tampered_outcome_shard_fails_the_checksum(self, tmp_path):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        path = str(tmp_path / "out-1.json")
        sharding.write_outcome_shard(sharding.execute_shard(plan.shard_input(1)), path)
        payload = json.loads(open(path, encoding="utf-8").read())
        payload["rows"][0]["runtime_seconds"] = 1234.5  # edit without re-checksumming
        open(path, "w", encoding="utf-8").write(json.dumps(payload))
        with pytest.raises(ShardFormatError, match="checksum mismatch"):
            sharding.read_outcome_shard(path)

    def test_legacy_payload_without_checksum_still_reads(self, tmp_path):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        shard = sharding.execute_shard(plan.shard_input(1))
        payload = sharding.outcome_shard_to_payload(shard)
        payload.pop("payload_sha256")
        path = str(tmp_path / "out-legacy.json")
        open(path, "w", encoding="utf-8").write(dump_json(payload))
        clone = sharding.read_outcome_shard(path)
        assert deterministic_rows(clone.outcomes) == deterministic_rows(shard.outcomes)

    @staticmethod
    def _write_shard_payload(path, **changes):
        """Write shard 0 of a 2-shard plan with its file payload changed."""
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        sharding.write_shard(plan.shard_input(0), path)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload.update(changes)
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

    def test_swapped_shard_input_blob_fails_the_checksum(self, tmp_path):
        # A well-formed shard of the same plan under the wrong digest: only
        # the checksum tells it apart.
        path = str(tmp_path / "shard-0.pkl")
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        self._write_shard_payload(
            path, shard=pickle.dumps(plan.shard_input(1), protocol=4)
        )
        with pytest.raises(ShardFormatError,
                           match="shard-0.pkl.*shard payload checksum mismatch"):
            sharding.read_shard(path)

    def test_pre_checksum_shard_input_still_reads(self, tmp_path):
        # Before checksumming, the ShardInput was pickled directly under
        # "shard", with no digest.
        path = str(tmp_path / "shard-0.pkl")
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        with open(path, "wb") as handle:
            pickle.dump({"format": sharding.SHARD_INPUT_FORMAT,
                         "schema_version": 1,
                         "shard": plan.shard_input(0)}, handle)
        clone = sharding.read_shard(path)
        assert clone.indices == plan.assignments[0]
        assert clone.plan_fingerprint == plan.fingerprint

    def test_shard_input_blob_of_another_type_is_refused(self, tmp_path):
        path = str(tmp_path / "shard-0.pkl")
        blob = pickle.dumps({"indices": [0, 2]}, protocol=4)
        self._write_shard_payload(
            path, shard=blob, shard_sha256=hashlib.sha256(blob).hexdigest()
        )
        with pytest.raises(ShardFormatError, match="not a shard-input file"):
            sharding.read_shard(path)

    def test_empty_shard_input_file_is_a_clean_error(self, tmp_path):
        path = tmp_path / "shard-0.pkl"
        path.write_bytes(b"")
        with pytest.raises(ShardFormatError, match="cannot read shard file"):
            sharding.read_shard(str(path))

    def test_outcome_file_holding_a_json_array_is_refused(self, tmp_path):
        path = tmp_path / "out-0.json"
        path.write_text("[]\n")
        with pytest.raises(ShardFormatError,
                           match="out-0.json' is not an outcome-shard file"):
            sharding.read_outcome_shard(str(path))

    def test_missing_outcome_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(ShardFormatError,
                           match="cannot read outcome-shard file .*out-9.json"):
            sharding.read_outcome_shard(str(tmp_path / "out-9.json"))

    def test_foreign_outcome_file_names_its_path(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"format": "repro-run-config"}))
        with pytest.raises(ShardFormatError,
                           match="run.json'.*not an outcome-shard payload"):
            sharding.read_outcome_shard(str(path))

    @staticmethod
    def _merge_edited_shard(tmp_path, capsys, edit):
        """Merge a complete one-shard grid whose payload ``edit`` changed."""
        plan = sharding.ShardPlan.build(_small_grid()[:1], 1)
        payload = sharding.outcome_shard_to_payload(
            sharding.execute_shard(plan.shard_input(0))
        )
        payload.pop("payload_sha256")
        edit(payload)
        path = tmp_path / "out-0.json"
        path.write_text(dump_json(checksummed_payload(payload)))
        code = main(["shard", "merge", str(path)])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("edit", [
        lambda payload: payload.update(rows=["abc"]),
        lambda payload: payload.update(counters=[]),
    ], ids=["row", "counters"])
    def test_non_object_row_or_counters_is_one_error_line(
        self, edit, tmp_path, capsys
    ):
        code, captured = self._merge_edited_shard(tmp_path, capsys, edit)
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "out-0.json" in captured.err
        assert "must be a JSON object" in captured.err

    def test_failed_cell_row_is_refused(self, tmp_path, capsys):
        # Rows of cells whose retries ran out carried "failure" and
        # "attempts"; read as plain rows they would pass for "N/A" cells.
        def edit(payload):
            payload["rows"][0].update(failure="error", attempts=3)

        code, captured = self._merge_edited_shard(tmp_path, capsys, edit)
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "out-0.json" in captured.err
        assert "failure='error'" in captured.err

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        plan = sharding.ShardPlan.build(_small_grid(), 2)
        sharding.write_shard(plan.shard_input(0), str(tmp_path / "shard-0.pkl"))
        shard = sharding.execute_shard(plan.shard_input(1))
        sharding.write_outcome_shard(shard, str(tmp_path / "out-1.json"))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out-1.json",
            "shard-0.pkl",
        ]


#: One edit per way an outcome-shard payload can be malformed, short of the
#: non-object row and counters cases above.
_MALFORMED_PAYLOAD_EDITS = {
    "no-plan_fingerprint": lambda payload: payload.pop("plan_fingerprint"),
    "no-shard_index": lambda payload: payload.pop("shard_index"),
    "no-num_shards": lambda payload: payload.pop("num_shards"),
    "no-indices": lambda payload: payload.pop("indices"),
    "no-rows": lambda payload: payload.pop("rows"),
    "text-shard_index": lambda payload: payload.update(shard_index="zero"),
    "scalar-indices": lambda payload: payload.update(indices=7),
    "text-index": lambda payload: payload.update(indices=["first"]),
    "scalar-rows": lambda payload: payload.update(rows=7),
    "row-without-feasible": lambda payload: payload["rows"][0].pop("feasible"),
    "text-counter": lambda payload: payload.update(
        counters={"monomorphism.searches": "many"}
    ),
    "text-row-counters": lambda payload: payload["rows"][0].update(counters="abc"),
}


class TestMalformedOutcomePayload:
    """A payload missing a key or holding a value of the wrong type is a
    ShardFormatError, never an uncaught KeyError/TypeError/ValueError."""

    @pytest.fixture(scope="class")
    def payload(self):
        plan = sharding.ShardPlan.build(_small_grid()[:2], 1)
        return sharding.outcome_shard_to_payload(
            sharding.execute_shard(plan.shard_input(0))
        )

    @pytest.mark.parametrize("edit", list(_MALFORMED_PAYLOAD_EDITS.values()),
                             ids=list(_MALFORMED_PAYLOAD_EDITS))
    def test_malformed_payload_is_a_shard_format_error(self, payload, edit):
        edited = copy.deepcopy(payload)
        edit(edited)
        with pytest.raises(ShardFormatError,
                           match="malformed outcome-shard payload"):
            sharding.outcome_shard_from_payload(edited)
