"""Tests of the typed run configuration (:mod:`repro.config`)."""

import dataclasses
import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    CONFIG_FORMAT,
    CONFIG_SCHEMA_VERSION,
    OUTPUT_FORMATS,
    RunConfig,
)
from repro.core.config import PlacementOptions
from repro.exceptions import ConfigError, PlacementError, ReproError


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

_options_strategy = st.builds(
    PlacementOptions,
    threshold=st.one_of(st.none(), st.floats(min_value=1.0, max_value=1e4)),
    max_monomorphisms=st.integers(min_value=1, max_value=500),
    fine_tuning=st.booleans(),
    fine_tuning_max_rounds=st.integers(min_value=0, max_value=20),
    lookahead=st.booleans(),
    lookahead_width=st.integers(min_value=1, max_value=16),
    leaf_override=st.booleans(),
    apply_interaction_cap=st.booleans(),
    sequential_levels=st.booleans(),
    restrict_to_largest_component=st.booleans(),
    reorder_commuting_gates=st.booleans(),
    max_workspace_two_qubit_gates=st.one_of(
        st.none(), st.integers(min_value=1, max_value=50)
    ),
    placer=st.sampled_from(
        ["exact", "greedy", "anneal", "anneal:7", "anneal:3x500"]
    ),
)


@st.composite
def _config_strategy(draw):
    return RunConfig(
        circuit=draw(st.sampled_from(["qft6", "qft:7", "hidden-stage:8x3",
                                      "phaseest", "circuits/some.qc"])),
        environment=draw(st.sampled_from(["histidine", "chain:12", "grid:4x4",
                                          "acetyl-chloride", "env.json"])),
        thresholds=draw(st.one_of(
            st.none(),
            st.lists(st.floats(min_value=0.5, max_value=1e4),
                     min_size=1, max_size=6).map(tuple),
        )),
        options=draw(_options_strategy),
        jobs=draw(st.integers(min_value=1, max_value=16)),
        shards=draw(st.integers(min_value=1, max_value=8)),
        output=draw(st.sampled_from(OUTPUT_FORMATS)),
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(config=_config_strategy())
    def test_json_round_trip_is_identity(self, config):
        clone = RunConfig.from_json(config.to_json())
        assert clone == config

    @settings(max_examples=30, deadline=None)
    @given(config=_config_strategy())
    def test_canonical_json_is_stable(self, config):
        # Canonical encoding: a round-tripped config re-encodes to the
        # exact same bytes (the file-level determinism contract).
        text = config.to_json()
        assert RunConfig.from_json(text).to_json() == text

    @settings(max_examples=30, deadline=None)
    @given(config=_config_strategy())
    def test_dict_round_trip_survives_json_types(self, config):
        # Through json.loads/dumps, tuples become lists etc.; from_dict
        # must still rebuild an equal config.
        data = json.loads(json.dumps(config.to_dict()))
        assert RunConfig.from_dict(data) == config

    def test_file_round_trip(self, tmp_path):
        config = RunConfig(circuit="qft:5", environment="chain:5",
                           thresholds=(10, 20), jobs=2)
        path = tmp_path / "run.json"
        config.save(str(path))
        assert RunConfig.load(str(path)) == config

    def test_to_dict_is_self_describing(self):
        data = RunConfig(circuit="qft6", environment="histidine").to_dict()
        assert data["format"] == CONFIG_FORMAT
        assert data["schema_version"] == CONFIG_SCHEMA_VERSION


class TestValidation:
    def test_thresholds_coerced_to_float_tuple(self):
        config = RunConfig(circuit="qft6", environment="histidine",
                           thresholds=[50, 100])
        assert config.thresholds == (50.0, 100.0)

    @pytest.mark.parametrize("changes,match", [
        (dict(circuit=""), "circuit"),
        (dict(environment=""), "environment"),
        (dict(thresholds=()), "empty"),
        (dict(thresholds=(0.0,)), "positive"),
        (dict(thresholds="abc"), "numbers"),
        (dict(jobs=0), "jobs"),
        (dict(circuit=None), "circuit"),
        (dict(environment=7), "environment"),
        (dict(thresholds=(50.0, -1.0)), "positive"),
        (dict(thresholds=(50.0, None)), "numbers"),
        (dict(jobs=2.0), "jobs"),
        (dict(jobs="4"), "jobs"),
        (dict(shards=0), "shards"),
        (dict(output="yaml"), "output"),
        (dict(options="nope"), "PlacementOptions"),
        (dict(thresholds=(float("nan"), 9200.0)), "positive"),
        (dict(jobs=True), "jobs"),
        (dict(shards=True), "shards"),
        (dict(thresholds=(True, 100)), "numbers"),
        (dict(jobs=-2), "jobs"),
    ])
    def test_invalid_values_rejected(self, changes, match):
        base = dict(circuit="qft6", environment="histidine")
        base.update(changes)
        with pytest.raises(ConfigError, match=match):
            RunConfig(**base)

    def test_config_error_is_repro_error(self):
        assert issubclass(ConfigError, ReproError)

    def test_replace_revalidates(self):
        config = RunConfig(circuit="qft6", environment="histidine")
        assert config.replace(jobs=3).jobs == 3
        with pytest.raises(ConfigError):
            config.replace(jobs=-1)


class TestFromDict:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="jbos"):
            RunConfig.from_dict({"circuit": "qft6", "environment": "histidine",
                                 "jbos": 4})

    def test_unknown_option_keys_rejected(self):
        with pytest.raises(ConfigError, match="fine_tunning"):
            RunConfig.from_dict({
                "circuit": "qft6", "environment": "histidine",
                "options": {"fine_tunning": False},
            })

    def test_wrong_format_tag_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            RunConfig.from_dict({"format": "not-a-config",
                                 "circuit": "qft6",
                                 "environment": "histidine"})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            RunConfig.from_json("{not json")

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            RunConfig.load(str(tmp_path / "absent.json"))

    def test_minimal_dict_uses_defaults(self):
        config = RunConfig.from_dict({"circuit": "qft6",
                                      "environment": "histidine"})
        assert config.options == PlacementOptions()
        assert config.jobs == 1
        assert config.output == "text"

    def test_all_fields_covered_by_to_dict(self):
        # Guards against adding a RunConfig field and forgetting the
        # serialisation: every dataclass field must appear in to_dict.
        data = RunConfig(circuit="qft6", environment="histidine").to_dict()
        for field in dataclasses.fields(RunConfig):
            assert field.name in data


class TestRemovedRetryKeys:
    """Files written before cell retries were removed carry ``retries``
    and ``cell_timeout``: their no-op values are dropped, others refused."""

    def _legacy_dict(self, **values):
        data = RunConfig(circuit="qft6", environment="histidine").to_dict()
        data.update(retries=0, cell_timeout=None)
        data.update(values)
        return data

    def test_no_op_values_are_dropped(self):
        config = RunConfig.from_dict(self._legacy_dict())
        assert config == RunConfig(circuit="qft6", environment="histidine")
        assert "retries" not in config.to_dict()
        assert "cell_timeout" not in config.to_dict()

    @pytest.mark.parametrize("key", ["retries", "cell_timeout"])
    def test_either_key_alone_is_dropped(self, key):
        data = RunConfig(circuit="qft6", environment="histidine").to_dict()
        data[key] = dict(retries=0, cell_timeout=None)[key]
        assert RunConfig.from_dict(data) == RunConfig(
            circuit="qft6", environment="histidine"
        )

    @pytest.mark.parametrize("key,value", [
        ("retries", 2), ("retries", False), ("retries", 0.0),
        ("cell_timeout", 30.0), ("cell_timeout", 0),
        ("retries", None), ("cell_timeout", False),
    ])
    def test_other_values_are_refused(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' is .*removed"):
            RunConfig.from_dict(self._legacy_dict(**{key: value}))

    def test_file_saved_before_the_removal_loads(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(self._legacy_dict(jobs=2)))
        assert RunConfig.load(str(path)) == RunConfig(
            circuit="qft6", environment="histidine", jobs=2
        )

    def test_refused_file_names_its_path(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(self._legacy_dict(retries=2)))
        with pytest.raises(ConfigError) as info:
            RunConfig.load(str(path))
        message = str(info.value)
        assert message.startswith(f"config file {str(path)!r}: ")
        assert "run-config key 'retries' is 2" in message

    @pytest.mark.parametrize("retries,readable", [(0, True), (3, False)])
    def test_pickled_config_follows_the_same_rule(self, retries, readable):
        # Shard-input files pickle the plan's config with its fields.
        config = RunConfig(circuit="qft6", environment="histidine")
        legacy = RunConfig(circuit="qft6", environment="histidine")
        object.__setattr__(legacy, "retries", retries)
        object.__setattr__(legacy, "cell_timeout", None)
        blob = pickle.dumps(legacy)
        if readable:
            clone = pickle.loads(blob)
            assert clone == config
            assert not hasattr(clone, "retries")
        else:
            with pytest.raises(ConfigError, match="'retries' is 3"):
                pickle.loads(blob)

    def test_pickled_config_with_a_timeout_is_refused(self):
        legacy = RunConfig(circuit="qft6", environment="histidine")
        object.__setattr__(legacy, "retries", 0)
        object.__setattr__(legacy, "cell_timeout", 5.0)
        with pytest.raises(ConfigError, match="'cell_timeout' is 5.0"):
            pickle.loads(pickle.dumps(legacy))


class TestRemovedShardKeys:
    """Files written while ``sweep`` could run one shard of a partition
    chosen by a strategy carry ``shard_index`` and ``strategy``.  A null
    index and either old strategy, in any spelling the old validator
    accepted, are dropped; an index, or any other strategy, is refused."""

    BASE = RunConfig(circuit="qft6", environment="histidine", shards=2)

    def _legacy_dict(self, **values):
        data = self.BASE.to_dict()
        data.update(shard_index=None, strategy="round-robin")
        data.update(values)
        return data

    @pytest.mark.parametrize("strategy", [
        "round-robin", "cost-balanced", "round_robin", "cost_balanced",
        "Round-Robin", "COST_BALANCED",
    ])
    def test_old_strategies_and_a_null_index_are_dropped(self, strategy):
        config = RunConfig.from_dict(self._legacy_dict(strategy=strategy))
        assert config == self.BASE
        assert "strategy" not in config.to_dict()
        assert "shard_index" not in config.to_dict()

    @pytest.mark.parametrize("key", ["shard_index", "strategy"])
    def test_either_key_alone_is_dropped(self, key):
        data = self.BASE.to_dict()
        data[key] = self._legacy_dict()[key]
        assert RunConfig.from_dict(data) == self.BASE

    @pytest.mark.parametrize("index", [0, 1, 7])
    def test_an_integer_index_is_one_line_naming_plan_and_run(self, index):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_dict(self._legacy_dict(shard_index=index))
        message = str(info.value)
        assert "\n" not in message
        assert f"'shard_index' is {index!r}" in message
        assert "'shard plan'" in message
        assert "'shard run'" in message

    @pytest.mark.parametrize("index", [False, "0", 1.0])
    def test_other_index_values_are_refused(self, index):
        with pytest.raises(ConfigError, match="'shard_index' is "):
            RunConfig.from_dict(self._legacy_dict(shard_index=index))

    @pytest.mark.parametrize("strategy", ["zigzag", "", None, 1, "round robin"])
    def test_any_other_strategy_is_refused(self, strategy):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_dict(self._legacy_dict(strategy=strategy))
        assert f"'strategy' is {strategy!r}" in str(info.value)
        assert "by index" in str(info.value)

    def test_file_saved_before_the_removal_loads(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(self._legacy_dict(strategy="cost_balanced")))
        assert RunConfig.load(str(path)) == self.BASE

    def test_the_fields_are_gone(self):
        names = [field.name for field in dataclasses.fields(RunConfig)]
        assert names == ["circuit", "environment", "thresholds", "options",
                         "jobs", "shards", "output"]
        with pytest.raises(TypeError):
            RunConfig(circuit="qft6", environment="histidine", shard_index=0)

    @pytest.mark.parametrize("strategy", ["round-robin", "cost-balanced"])
    def test_pickled_config_drops_them(self, strategy):
        # Shard-input files pickle the plan's config with every field.
        legacy = RunConfig(circuit="qft6", environment="histidine", shards=2)
        object.__setattr__(legacy, "shard_index", None)
        object.__setattr__(legacy, "strategy", strategy)
        clone = pickle.loads(pickle.dumps(legacy))
        assert clone == self.BASE
        assert not hasattr(clone, "shard_index")
        assert not hasattr(clone, "strategy")

    def test_pickled_config_with_an_index_is_refused(self):
        legacy = RunConfig(circuit="qft6", environment="histidine", shards=2)
        object.__setattr__(legacy, "shard_index", 1)
        object.__setattr__(legacy, "strategy", "round-robin")
        with pytest.raises(ConfigError, match="'shard_index' is 1"):
            pickle.loads(pickle.dumps(legacy))


class TestRemovedBackendOption:
    """Options written while they had a per-run scheduler backend carry
    it.  ``"auto"`` is dropped; any other stored value is refused with one
    line naming ``REPRO_SCHEDULER_BACKEND``, the one switch left."""

    def _legacy_dict(self, backend):
        data = RunConfig(circuit="qft6", environment="histidine").to_dict()
        data["options"]["scheduler_backend"] = backend
        return data

    def test_auto_is_dropped(self):
        config = RunConfig.from_dict(self._legacy_dict("auto"))
        assert config == RunConfig(circuit="qft6", environment="histidine")
        assert "scheduler_backend" not in config.to_dict()["options"]

    @pytest.mark.parametrize("backend", ["python", "native", "numpy", None, 1])
    def test_other_values_are_refused(self, backend):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_dict(self._legacy_dict(backend))
        message = str(info.value)
        assert "\n" not in message
        assert f"'scheduler_backend' is {backend!r}" in message
        assert "REPRO_SCHEDULER_BACKEND" in message

    @pytest.mark.parametrize("backend", ["auto", "python"])
    def test_pickled_options_drop_it(self, backend):
        # Shard-input files pickle options; there it never chose a backend.
        legacy = PlacementOptions(threshold=200.0)
        legacy.scheduler_backend = backend
        clone = pickle.loads(pickle.dumps(legacy))
        assert clone == PlacementOptions(threshold=200.0)
        assert not hasattr(clone, "scheduler_backend")


class TestNonFiniteThresholds:
    """JSON has no literal for infinity (Python writes the token
    ``Infinity``, which RFC 8259 and ``JSON.parse`` reject), so neither
    validator admits an infinite threshold; ``1e308`` already admits every
    finite pair delay, and the environment still answers for ``inf``
    (``tests/test_environment_cache.py``)."""

    def test_options_refuse_it(self):
        with pytest.raises(
            PlacementError,
            match=r"^threshold must be a positive finite number, got inf$",
        ):
            PlacementOptions(threshold=math.inf)
        assert PlacementOptions(threshold=1e308).threshold == 1e308

    def test_run_config_refuses_it(self):
        with pytest.raises(
            ConfigError,
            match=r"^thresholds must be positive finite numbers, got \(50.0, inf\)$",
        ):
            RunConfig(circuit="qft6", environment="histidine",
                      thresholds=(50.0, math.inf))

    @pytest.mark.parametrize("where", ["thresholds", "options"])
    def test_a_file_holding_infinity_is_refused(self, where):
        data = RunConfig(circuit="qft6", environment="histidine").to_dict()
        if where == "thresholds":
            data["thresholds"] = [50, math.inf]
        else:
            data["options"]["threshold"] = math.inf
        text = json.dumps(data)
        assert "Infinity" in text  # what Python's json writes and reads back
        with pytest.raises(ConfigError, match="positive finite"):
            RunConfig.from_json(text)


#: Threshold lists every sweep entry point refuses, with the tuple its
#: one-line message names.
BAD_SWEEP_THRESHOLDS = [
    pytest.param([100.0, math.inf], r"\(100.0, inf\)", id="inf"),
    pytest.param([-5.0], r"\(-5.0,\)", id="negative"),
    pytest.param([100, math.nan], r"\(100.0, nan\)", id="nan"),
]


class TestSweepThresholds:
    """The sweep functions apply :class:`RunConfig`'s threshold rule
    (``check_thresholds``), so a bad list fails up front with its message
    instead of yielding an N/A cell (``inf``, ``-5.0``) or an environment
    error (NaN)."""

    @pytest.mark.parametrize(("thresholds", "named"), BAD_SWEEP_THRESHOLDS)
    def test_every_sweep_entry_point_refuses_them(self, thresholds, named):
        from repro.analysis.runner import molecule_factory
        from repro.analysis.sweep import (
            build_sweep_specs,
            sweep_circuit,
            sweep_environment,
            sweep_table,
        )
        from repro.registry import as_circuit_factory, load_environment

        circuit, molecule = "error-correction-encoding", "acetyl-chloride"
        calls = [
            lambda: sweep_circuit(circuit, molecule, thresholds=thresholds),
            lambda: sweep_environment([circuit], molecule, thresholds=thresholds),
            lambda: sweep_table(circuit, [molecule], thresholds=thresholds),
            lambda: build_sweep_specs(
                as_circuit_factory(circuit), load_environment(molecule),
                molecule_factory(molecule), thresholds,
            ),
        ]
        message = rf"^thresholds must be positive finite numbers, got {named}$"
        for call in calls:
            with pytest.raises(ConfigError, match=message):
                call()
        with pytest.raises(ConfigError, match=message):
            RunConfig(circuit=circuit, environment=molecule,
                      thresholds=thresholds)

    def test_positive_finite_thresholds_still_sweep(self):
        from repro.analysis.sweep import sweep_circuit

        row = sweep_circuit("error-correction-encoding", "acetyl-chloride",
                            thresholds=[100, 1e308])
        assert [cell.threshold for cell in row.cells] == [100.0, 1e308]
        assert all(cell.feasible for cell in row.cells)
