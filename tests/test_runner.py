"""Tests of the experiment execution engine (``repro.analysis.runner``)."""

import inspect
import pickle

import pytest

from repro.analysis.runner import (
    ExperimentRunner,
    ExperimentSpec,
    benchmark_circuit_factory,
    constant_environment,
    molecule_factory,
    run_experiments,
)
from repro.analysis.sweep import sweep_circuit
from repro.circuits.library import phaseest, qec3_encoder
from repro.config import RunConfig
from repro.core.config import PlacementOptions
from repro.core.stats import Counters, STATS
from repro.exceptions import ConfigError, ExperimentError
from repro.hardware.molecules import (
    acetyl_chloride,
    pentafluorobutadienyl_iron,
    trans_crotonic_acid,
)


def _restricted_molecule(name, keep):
    """Module-level (picklable) factory taking an unhashable list argument."""
    from repro.hardware.molecules import molecule

    return molecule(name).restricted_to(keep)


def _exploding_circuit():
    """Module-level (picklable) circuit factory failing with a non-N/A error."""
    raise RuntimeError("exploding circuit factory")


def _grid_specs(keep_result=False):
    """A small mixed grid: two molecules, one infeasible cell."""
    return [
        ExperimentSpec(
            circuit_factory=qec3_encoder,
            environment_factory=molecule_factory("acetyl-chloride"),
            threshold=100.0,
            label="qec3",
            keep_result=keep_result,
        ),
        ExperimentSpec(
            circuit_factory=phaseest,
            environment_factory=molecule_factory("trans-crotonic-acid"),
            threshold=200.0,
            label="phaseest",
            keep_result=keep_result,
        ),
        ExperimentSpec(
            circuit_factory=phaseest,
            environment_factory=pentafluorobutadienyl_iron,
            threshold=50.0,
            label="infeasible",
        ),
    ]


def _deterministic_fields(outcome):
    return (
        outcome.index,
        outcome.label,
        outcome.feasible,
        outcome.runtime_seconds,
        outcome.num_subcircuits,
        outcome.circuit_name,
        outcome.num_gates,
        outcome.num_qubits,
    )


class TestExperimentSpec:
    def test_specs_pickle_round_trip(self):
        for spec in _grid_specs():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.label == spec.label
            assert clone.threshold == spec.threshold

    def test_constant_environment_factory_pickles_and_compares_equal(self):
        factory = constant_environment(acetyl_chloride())
        clone = pickle.loads(pickle.dumps(factory))
        assert clone().name == "acetyl chloride"

    def test_resolved_options_threshold_override(self):
        spec = ExperimentSpec(
            circuit_factory=qec3_encoder,
            environment_factory=acetyl_chloride,
            threshold=123.0,
            options=PlacementOptions(fine_tuning=False),
        )
        options = spec.resolved_options()
        assert options.threshold == 123.0
        assert not options.fine_tuning

    def test_parallel_run_with_unhashable_partial_factory(self):
        from functools import partial

        specs = [
            ExperimentSpec(
                circuit_factory=qec3_encoder,
                environment_factory=partial(
                    _restricted_molecule, "trans-crotonic-acid", ["M", "C1", "C2", "C3"]
                ),
                threshold=200.0,
                label=f"cell {index}",
            )
            for index in range(2)
        ]
        outcomes = run_experiments(specs, jobs=2)
        assert all(outcome.feasible for outcome in outcomes)

    def test_benchmark_circuit_factory_is_picklable(self):
        factory = benchmark_circuit_factory("phaseest")
        clone = pickle.loads(pickle.dumps(factory))
        assert clone().name == factory().name


class TestSerialRunner:
    def test_outcomes_in_spec_order_with_infeasible_cells(self):
        outcomes = run_experiments(_grid_specs())
        assert [outcome.label for outcome in outcomes] == [
            "qec3",
            "phaseest",
            "infeasible",
        ]
        assert outcomes[0].feasible and outcomes[1].feasible
        assert not outcomes[2].feasible
        assert outcomes[2].runtime_seconds is None
        assert outcomes[2].error

    def test_progress_callback_sees_every_cell(self):
        seen = []
        runner = ExperimentRunner(
            jobs=1, progress=lambda done, total, outcome: seen.append((done, total))
        )
        runner.run(_grid_specs())
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_keep_result_ships_placement_result(self):
        outcomes = run_experiments(_grid_specs(keep_result=True))
        assert outcomes[0].result is not None
        assert outcomes[0].result.num_subcircuits == outcomes[0].num_subcircuits
        # keep_result=False cells travel light.
        assert outcomes[2].result is None

    def test_empty_grid(self):
        assert ExperimentRunner(jobs=4).run([]) == []

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentRunner(jobs=0)

    @pytest.mark.parametrize("jobs", [2.5, True, 0, -1, "2"])
    def test_jobs_follow_the_run_config_rule(self, jobs):
        # One rule for every worker count: 2.5 used to run 2 workers and
        # True 1, where RunConfig and `shard run` refused both.
        with pytest.raises(ConfigError) as info:
            ExperimentRunner(jobs=jobs)
        assert str(info.value) == f"jobs must be a positive integer, got {jobs!r}"
        with pytest.raises(ConfigError) as from_config:
            RunConfig(circuit="qft6", environment="histidine", jobs=jobs)
        assert str(from_config.value) == str(info.value)


class TestParallelRunner:
    def test_parallel_matches_serial(self):
        serial = run_experiments(_grid_specs())
        parallel = run_experiments(_grid_specs(), jobs=2)
        assert [_deterministic_fields(o) for o in serial] == [
            _deterministic_fields(o) for o in parallel
        ]

    def test_parallel_progress_counts_to_total(self):
        seen = []
        runner = ExperimentRunner(
            jobs=2, progress=lambda done, total, outcome: seen.append((done, total))
        )
        runner.run(_grid_specs())
        assert len(seen) == 3
        assert seen[-1] == (3, 3)

    def test_worker_counters_merge_into_parent(self):
        before = STATS.snapshot()
        run_experiments(_grid_specs(), jobs=2)
        delta = STATS.delta_since(before)
        assert delta.get("monomorphism.searches", 0) > 0
        assert delta.get("scheduler.full_evals", 0) > 0

    def test_unpicklable_spec_raises_experiment_error(self):
        spec = ExperimentSpec(
            circuit_factory=lambda: qec3_encoder(),
            environment_factory=acetyl_chloride,
            label="lambda cell",
        )
        with pytest.raises(ExperimentError, match="pickled"):
            ExperimentRunner(jobs=2).run([spec, spec])

    def test_single_cell_grid_runs_in_process(self):
        # One cell never pays process start-up, even with jobs=4 — so even
        # unpicklable factories work.
        outcomes = ExperimentRunner(jobs=4).run(
            [
                ExperimentSpec(
                    circuit_factory=lambda: qec3_encoder(),
                    environment_factory=acetyl_chloride,
                    threshold=100.0,
                )
            ]
        )
        assert len(outcomes) == 1 and outcomes[0].feasible


class TestExecutionPaths:
    """``iter_outcomes`` runs a grid serially or on the process pool."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_iter_outcomes_is_a_lazy_generator(self, jobs):
        before = STATS.snapshot()
        stream = ExperimentRunner(jobs=jobs).iter_outcomes(_grid_specs())
        assert inspect.isgenerator(stream)
        assert STATS.delta_since(before) == {}  # no cell runs before next()
        assert sorted(outcome.index for outcome in stream) == [0, 1, 2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exception_that_is_not_n_a_propagates(self, jobs):
        specs = _grid_specs()[:1] + [
            ExperimentSpec(
                circuit_factory=_exploding_circuit,
                environment_factory=acetyl_chloride,
                label="exploding",
            )
        ]
        with pytest.raises(RuntimeError, match="exploding circuit factory"):
            ExperimentRunner(jobs=jobs).run(specs)


class TestCountersMerge:
    def test_merge_adds_counts(self):
        counters = Counters()
        counters.increment("a", 2)
        counters.merge({"a": 3, "b": 1, "c": 0})
        assert counters.get("a") == 5
        assert counters.get("b") == 1
        assert counters.get("c") == 0  # zero entries are not materialised

    def test_merge_is_order_free(self):
        one, two = Counters(), Counters()
        deltas = [{"x": 1}, {"x": 2, "y": 5}, {"y": 1}]
        for delta in deltas:
            one.merge(delta)
        for delta in reversed(deltas):
            two.merge(delta)
        assert one.snapshot() == two.snapshot()

    def test_counters_pickle_round_trip(self):
        counters = Counters()
        counters.increment("monomorphism.searches", 7)
        clone = pickle.loads(pickle.dumps(counters))
        assert clone.snapshot() == counters.snapshot()


class TestOutcomeErrors:
    def test_raise_if_infeasible_restores_exception_type(self):
        from repro.exceptions import ThresholdError

        outcomes = run_experiments(_grid_specs())
        infeasible = outcomes[2]
        assert infeasible.error_type == "ThresholdError"
        with pytest.raises(ThresholdError, match="infeasible"):
            infeasible.raise_if_infeasible()
        # Feasible outcomes pass through for chaining.
        assert outcomes[0].raise_if_infeasible() is outcomes[0]

    def test_outcomes_carry_environment_metadata(self):
        outcomes = run_experiments(_grid_specs())
        assert outcomes[0].environment_name == "acetyl chloride"
        assert outcomes[0].environment_qubits == 3


class TestSweepParallelParity:
    def test_sweep_circuit_jobs_parity(self):
        # Both environment forms: an object (a constant_environment
        # factory) and a spec string (a loader partial).
        thresholds = (100.0, 200.0, 1000.0)
        for environment in (trans_crotonic_acid(), "trans-crotonic-acid"):
            serial = sweep_circuit(
                phaseest, environment, thresholds=thresholds, jobs=1
            )
            parallel = sweep_circuit(
                phaseest, environment, thresholds=thresholds, jobs=2
            )
            assert [
                (c.threshold, c.runtime_seconds, c.num_subcircuits)
                for c in serial.cells
            ] == [
                (c.threshold, c.runtime_seconds, c.num_subcircuits)
                for c in parallel.cells
            ], environment

    def test_sweep_table_matches_per_environment_sweeps(self):
        from repro.analysis.sweep import sweep_table

        environments = [acetyl_chloride(), trans_crotonic_acid()]
        thresholds = (100.0, 1000.0)
        table = sweep_table(qec3_encoder, environments, thresholds=thresholds, jobs=2)
        assert [row.environment_name for row in table] == [
            "acetyl chloride",
            "trans-crotonic acid",
        ]
        for environment, row in zip(environments, table):
            expected = sweep_circuit(qec3_encoder, environment, thresholds=thresholds)
            assert [
                (c.threshold, c.runtime_seconds, c.num_subcircuits) for c in row.cells
            ] == [
                (c.threshold, c.runtime_seconds, c.num_subcircuits)
                for c in expected.cells
            ]
