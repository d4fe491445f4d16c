"""Tests of the named-registry subsystem (:mod:`repro.registry`)."""

import pickle
from functools import partial

import pytest

from repro.exceptions import RegistryError, ReproError, UnknownSpecError
from repro.registry import (
    CIRCUITS,
    ENVIRONMENTS,
    Registry,
    as_circuit_factory,
    as_environment_factory,
    load_circuit,
    load_environment,
    parse_spec,
)


class TestParseSpec:
    def test_plain_name(self):
        assert parse_spec("qft6") == ("qft6", ())

    def test_single_parameter(self):
        assert parse_spec("qft:7") == ("qft", (7,))

    def test_multiple_parameters(self):
        assert parse_spec("grid:4x5") == ("grid", (4, 5))

    def test_names_may_contain_slashes_and_dots(self):
        assert parse_spec("steane-x/z1") == ("steane-x/z1", ())

    @pytest.mark.parametrize("bad", ["", ":7", "qft:", "qft:x", "qft:3.5",
                                     "grid:4x", "chain:-2", "a:1,", "a:,2",
                                     "a:1,,3", "a:1,-2"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(UnknownSpecError):
            parse_spec(bad)

    def test_comma_lists_parse_to_tuples(self):
        assert parse_spec("anneal:1,2,3") == ("anneal", ((1, 2, 3),))
        assert parse_spec("anneal:1,2x500") == ("anneal", ((1, 2), 500))

    def test_zero_parameter_allowed(self):
        # Zero is a legitimate parameter value (e.g. an explicit seed 0);
        # the hidden-stage family's default seed must be expressible.
        assert parse_spec("hidden-stage:8x0") == ("hidden-stage", (8, 0))
        assert (CIRCUITS.build("hidden-stage:8x0").gates
                == CIRCUITS.build("hidden-stage:8").gates)


class TestRegistry:
    def test_duplicate_name_rejected(self):
        registry = Registry("thing")
        registry.add("a", lambda: 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.add("a", lambda: 2)
        # Explicit overwrite replaces the entry.
        registry.add("a", lambda: 3, overwrite=True)
        assert registry.build("a") == 3

    def test_invalid_names_rejected(self):
        registry = Registry("thing")
        for bad in ("", "has space", "has:colon", ":x"):
            with pytest.raises(RegistryError):
                registry.add(bad, lambda: 1)

    def test_non_callable_factory_rejected(self):
        with pytest.raises(RegistryError, match="not callable"):
            Registry("thing").add("a", 42)

    def test_unknown_spec_lists_valid_names(self):
        registry = Registry("thing")
        registry.add("alpha", lambda: 1)
        registry.add("beta", lambda n: n, min_params=1)
        with pytest.raises(UnknownSpecError) as excinfo:
            registry.build("gamma")
        message = str(excinfo.value)
        assert "alpha" in message
        assert "beta:N" in message
        assert "\n" not in message

    def test_parameter_arity_enforced(self):
        registry = Registry("thing")
        registry.add("plain", lambda: 0)
        registry.add("fam", lambda a, b=9: (a, b), min_params=1, max_params=2)
        assert registry.build("fam:3") == (3, 9)
        assert registry.build("fam:3x4") == (3, 4)
        with pytest.raises(UnknownSpecError, match="takes no parameters"):
            registry.build("plain:5")
        with pytest.raises(UnknownSpecError, match="parameter"):
            registry.build("fam")
        with pytest.raises(UnknownSpecError, match="parameter"):
            registry.build("fam:1x2x3")

    def test_list_params_gate_comma_lists(self):
        registry = Registry("thing")
        registry.add("fam", lambda a, b=1: (a, b), min_params=1, max_params=2,
                     list_params=(0,))
        assert registry.build("fam:1,2,3") == ((1, 2, 3), 1)
        assert registry.build("fam:1,2x7") == ((1, 2), 7)
        with pytest.raises(UnknownSpecError,
                           match="does not accept a comma-separated list"):
            registry.build("fam:1x2,3")
        registry.add("plainer", lambda a: a, min_params=1)
        with pytest.raises(UnknownSpecError,
                           match="does not accept a comma-separated list"):
            registry.build("plainer:1,2")

    def test_list_params_positions_bounds_checked(self):
        registry = Registry("thing")
        with pytest.raises(RegistryError, match="list_params"):
            registry.add("fam", lambda a: a, min_params=1, max_params=1,
                         list_params=(1,))

    def test_decorator_registration(self):
        registry = Registry("thing")

        @registry.register("doubler", min_params=1)
        def doubler(n):
            return 2 * n

        assert registry.build("doubler:21") == 42
        assert "doubler" in registry


class TestBuiltinRegistries:
    def test_named_circuits_match_factories(self):
        from repro.circuits.library import CIRCUIT_FACTORIES

        for name in CIRCUIT_FACTORIES:
            assert name in CIRCUITS
            assert CIRCUITS.build(name).name == CIRCUIT_FACTORIES[name]().name

    def test_parameterised_circuit_families(self):
        assert CIRCUITS.build("qft:7").num_qubits == 7
        assert CIRCUITS.build("aqft:9").num_qubits == 9
        assert CIRCUITS.build("cat:5").num_qubits == 5
        hidden = CIRCUITS.build("hidden-stage:8")
        assert hidden.num_qubits == 8
        # Same seed -> same circuit; explicit seed parameter differs.
        assert CIRCUITS.build("hidden-stage:8").gates == hidden.gates
        assert CIRCUITS.build("hidden-stage:8x3").gates != hidden.gates

    def test_parameterised_environments(self):
        assert ENVIRONMENTS.build("chain:12").num_qubits == 12
        assert ENVIRONMENTS.build("grid:4x4").num_qubits == 16
        assert ENVIRONMENTS.build("ring:5").num_qubits == 5
        assert ENVIRONMENTS.build("complete:6").num_qubits == 6
        assert ENVIRONMENTS.build("star:7").num_qubits == 7
        assert ENVIRONMENTS.build("heavy-hex:2").num_qubits > 4

    def test_molecules_registered(self):
        assert ENVIRONMENTS.build("histidine").name == "histidine"
        assert "trans-crotonic-acid" in ENVIRONMENTS


class TestLoaders:
    def test_load_circuit_registry_and_file(self, tmp_path):
        from repro.circuits import qasm
        from repro.circuits.library import qec3_encoder

        assert load_circuit("qft:4").num_qubits == 4
        path = tmp_path / "c.qc"
        qasm.dump(qec3_encoder(), str(path))
        assert load_circuit(str(path)).num_gates == qec3_encoder().num_gates

    def test_load_environment_registry_and_file(self, tmp_path):
        from repro.hardware import io as hio
        from repro.hardware.molecules import acetyl_chloride

        assert load_environment("chain:4").num_qubits == 4
        path = tmp_path / "e.json"
        hio.save(acetyl_chloride(), str(path))
        assert load_environment(str(path)).num_qubits == 3

    def test_unknown_specs_raise_with_names(self):
        with pytest.raises(UnknownSpecError, match="qft6"):
            load_circuit("nope")
        with pytest.raises(UnknownSpecError, match="histidine"):
            load_environment("nope")

    def test_loader_partials_pickle_by_reference(self):
        # The property shard plans rely on: the same spec string produces
        # byte-identical factory pickles in any process.
        blob = pickle.dumps(partial(load_circuit, "qft:5"))
        assert pickle.loads(blob)().num_qubits == 5
        assert blob == pickle.dumps(partial(load_circuit, "qft:5"))

    def test_coercion_helpers(self):
        factory = as_circuit_factory("qft6")
        assert factory().name == "qft6"
        original = load_circuit  # any callable passes through untouched
        assert as_circuit_factory(original) is original
        assert as_environment_factory("chain:3")().num_qubits == 3
        with pytest.raises(UnknownSpecError):
            as_circuit_factory(42)
        with pytest.raises(UnknownSpecError):
            as_environment_factory(42)

    def test_errors_are_repro_errors(self):
        assert issubclass(UnknownSpecError, RegistryError)
        assert issubclass(RegistryError, ReproError)
