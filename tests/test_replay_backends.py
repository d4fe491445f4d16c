"""Backend parity for the scheduler replay engine.

The ``RuntimeEvaluator``'s numpy and native backends must be
*bit-identical* to the pure Python reference on every code path — full
evaluation, incremental tail replay, the branch-and-bound cutoff, and the
``full_recompute`` debug mode — for randomized circuits, placements and
moves.  These tests are the in-process half of that contract;
``tests/test_determinism.py`` covers the cross-process
(``PYTHONHASHSEED`` x backend) half and the benchmark harness gates the
same property on the ``replay_*`` macro scenarios.

The parity tests run over every backend available in this interpreter:
``python`` always, ``numpy`` when importable, ``native`` when its kernel
builds (a C compiler at first use; see ``repro/timing/_native.py``).
``TestNativeHillClimb`` holds the native whole-climb entry point to the
Python fine-tuning loop it replaces.
"""

import os
import random
import subprocess

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import gates as g
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import qft_circuit
from repro.core.config import PlacementOptions
from repro.core.fine_tuning import (
    fine_tune_workspace_placement,
    hill_climb_incremental,
)
from repro.core.placement import place_circuit
from repro.core.stats import STATS
from repro.exceptions import ExperimentError, PlacementError, ReproError
from repro.hardware.molecules import histidine, trans_crotonic_acid
from repro.registry import load_environment
from repro.timing import _native, _replay
from repro.timing.scheduler import RuntimeEvaluator, circuit_runtime

needs_numpy = pytest.mark.skipif(
    not _replay.NUMPY_AVAILABLE, reason="numpy is not importable"
)
needs_native = pytest.mark.skipif(
    not _native.available(), reason="native kernel does not build here"
)

#: Every backend the parity matrix can exercise in this interpreter.
AVAILABLE_BACKENDS = (
    ["python"]
    + (["numpy"] if _replay.NUMPY_AVAILABLE else [])
    + (["native"] if _native.available() else [])
)

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_circuit(num_qubits, num_gates, seed):
    rng = random.Random(seed)
    qubits = list(range(num_qubits))
    gate_list = []
    for _ in range(num_gates):
        kind = rng.random()
        if kind < 0.45:
            a, b = rng.sample(qubits, 2)
            gate_list.append(g.zz(a, b, rng.choice([45.0, 90.0, 180.0])))
        elif kind < 0.8:
            gate_list.append(g.rx(rng.choice(qubits), rng.choice([90.0, 180.0])))
        else:
            gate_list.append(g.rz(rng.choice(qubits), 90.0))  # free gate
    return QuantumCircuit(qubits, gate_list, name=f"rand{seed}")


def _random_placement(circuit, environment, seed):
    rng = random.Random(seed)
    nodes = rng.sample(list(environment.nodes), circuit.num_qubits)
    return dict(zip(circuit.qubits, nodes))


def _evaluators(circuit, environment, cap, **kwargs):
    """One evaluator per available backend, python (the reference) first."""
    evaluators = {}
    for backend in AVAILABLE_BACKENDS:
        evaluator = RuntimeEvaluator(
            circuit, environment, apply_interaction_cap=cap,
            backend=backend, **kwargs,
        )
        assert evaluator.backend == backend
        evaluators[backend] = evaluator
    return evaluators


class TestResolveBackend:
    def test_explicit_choices_resolve_to_themselves(self):
        for backend in AVAILABLE_BACKENDS:
            assert _replay.resolve_backend(backend) == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown scheduler backend"):
            _replay.resolve_backend("fortran")

    @needs_numpy
    def test_auto_uses_profitability_thresholds(self, monkeypatch):
        monkeypatch.delenv(_replay.BACKEND_ENV_VAR, raising=False)
        # With the native kernel out of the picture, auto resolves exactly
        # as before the native backend existed: numpy above its threshold,
        # python below.
        monkeypatch.setattr(_native, "available", lambda: False)
        small = _replay.AUTO_NUMPY_MIN_OPS - 1
        assert _replay.resolve_backend("auto", num_ops=small) == "python"
        assert (
            _replay.resolve_backend("auto", num_ops=_replay.AUTO_NUMPY_MIN_OPS)
            == "numpy"
        )
        assert _replay.resolve_backend("auto", num_ops=None) == "numpy"

    @needs_native
    def test_auto_prefers_native_at_every_op_count(self, monkeypatch):
        monkeypatch.delenv(_replay.BACKEND_ENV_VAR, raising=False)
        for num_ops in (0, 1, None):
            assert _replay.resolve_backend("auto", num_ops=num_ops) == "native"

    @needs_numpy
    def test_env_var_overrides_auto(self, monkeypatch):
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "numpy")
        assert _replay.resolve_backend("auto", num_ops=1) == "numpy"
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "python")
        assert _replay.resolve_backend("auto", num_ops=10**6) == "python"

    @needs_native
    def test_env_var_selects_native(self, monkeypatch):
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "native")
        assert _replay.resolve_backend("auto", num_ops=1) == "native"

    def test_env_var_does_not_override_explicit_request(self, monkeypatch):
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "numpy")
        assert _replay.resolve_backend("python") == "python"

    def test_invalid_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "cuda")
        with pytest.raises(ReproError, match="REPRO_SCHEDULER_BACKEND"):
            _replay.resolve_backend("auto")

    def test_numpy_request_without_numpy_rejected(self, monkeypatch):
        monkeypatch.setattr(_replay, "NUMPY_AVAILABLE", False)
        with pytest.raises(ReproError, match="not importable"):
            _replay.resolve_backend("numpy")

    def test_native_request_without_build_rejected(self, monkeypatch):
        monkeypatch.setattr(_native, "available", lambda: False)
        monkeypatch.setattr(
            _native, "unavailable_reason", lambda: "no C compiler found"
        )
        with pytest.raises(ReproError, match="no C compiler found"):
            _replay.resolve_backend("native")
        # The same explicit request through the environment variable must
        # fail just as loudly — a misconfigured deployment, not a fallback.
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "native")
        with pytest.raises(ReproError, match="no C compiler found"):
            _replay.resolve_backend("auto", num_ops=10**6)

    @needs_numpy
    def test_auto_without_native_keeps_todays_resolution(self, monkeypatch):
        monkeypatch.delenv(_replay.BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(_native, "available", lambda: False)
        assert _replay.resolve_backend("auto", num_ops=10**6) == "numpy"
        assert _replay.resolve_backend("auto", num_ops=1) == "python"

    def test_auto_without_numpy_or_native_falls_back(self, monkeypatch):
        monkeypatch.delenv(_replay.BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(_replay, "NUMPY_AVAILABLE", False)
        monkeypatch.setattr(_native, "available", lambda: False)
        assert _replay.resolve_backend("auto", num_ops=10**6) == "python"

    @pytest.mark.skipif(
        _native.available(), reason="native kernel builds on this host"
    )
    def test_pure_python_fallback_without_native_build(self):
        # On hosts without a working toolchain, auto must silently keep
        # the python/numpy resolution and the evaluator must stay fully
        # functional on the pure-Python (or numpy) path.
        assert _native.unavailable_reason()
        resolved = _replay.resolve_backend("auto", num_ops=10**6)
        assert resolved in ("python", "numpy")
        environment = trans_crotonic_acid()
        circuit = _random_circuit(4, 20, 7)
        placement = _random_placement(circuit, environment, 8)
        evaluator = RuntimeEvaluator(circuit, environment, backend="auto")
        assert evaluator._native is None
        assert evaluator.runtime(placement) == circuit_runtime(
            circuit, placement, environment, validate=False
        )


class TestBackendParity:
    @RELAXED
    @given(st.integers(0, 500), st.booleans())
    def test_full_evaluation_parity(self, seed, cap):
        environment = trans_crotonic_acid()
        circuit = _random_circuit(5, 28, seed)
        placement = _random_placement(circuit, environment, seed + 1)
        evaluators = _evaluators(circuit, environment, cap)
        expected = circuit_runtime(
            circuit, placement, environment,
            apply_interaction_cap=cap, validate=False,
        )
        for evaluator in evaluators.values():
            assert evaluator.runtime(placement) == expected
            assert evaluator.set_base(placement) == expected

    @RELAXED
    @given(st.integers(0, 500))
    def test_incremental_and_cutoff_parity(self, seed):
        environment = trans_crotonic_acid()
        circuit = _random_circuit(5, 30, seed)
        placement = _random_placement(circuit, environment, seed + 1)
        evaluators = _evaluators(circuit, environment, True)
        python = evaluators["python"]
        others = [e for name, e in evaluators.items() if name != "python"]
        base = python.set_base(placement)
        for evaluator in others:
            assert evaluator.set_base(placement) == base
        used = set(placement.values())
        free = [n for n in environment.nodes if n not in used]
        for qubit in circuit.qubits:
            for node in free:
                overrides = {qubit: node}
                expected = python.runtime_with(overrides)
                expected_cut = python.runtime_with(overrides, limit=base)
                for evaluator in others:
                    assert evaluator.runtime_with(overrides) == expected
                    # The cutoff path must agree too (both inf or both exact).
                    assert evaluator.runtime_with(
                        overrides, limit=base
                    ) == expected_cut
            for other in circuit.qubits:
                if other == qubit:
                    continue
                swap = {qubit: placement[other], other: placement[qubit]}
                expected = python.runtime_with(swap)
                for evaluator in others:
                    assert evaluator.runtime_with(swap) == expected
        # Replays must leave the base state intact (numpy scatters durations
        # in place; native keeps per-qubit override flags).
        first = circuit.qubits[0]
        for evaluator in others:
            assert evaluator.runtime_with({first: placement[first]}) == base

    def test_replay_counters_identical(self):
        environment = trans_crotonic_acid()
        circuit = _random_circuit(5, 40, 11)
        placement = _random_placement(circuit, environment, 12)
        evaluators = _evaluators(circuit, environment, True)
        free = [n for n in environment.nodes if n not in set(placement.values())]
        deltas = []
        for evaluator in evaluators.values():
            before = STATS.snapshot()
            evaluator.set_base(placement)
            for qubit in circuit.qubits:
                for node in free:
                    evaluator.runtime_with({qubit: node})
                    evaluator.runtime_with(
                        {qubit: node}, limit=evaluator.base_runtime
                    )
            evaluator.flush_stats()
            delta = STATS.delta_since(before)
            # The environment-level pair-matrix cache warms on the first
            # array-backed evaluator and hits afterwards; that is backend
            # metadata, not evaluation accounting.
            delta.pop("scheduler.pair_matrix_cache_hits", None)
            delta.pop("scheduler.pair_matrix_cache_misses", None)
            deltas.append(delta)
        for delta in deltas[1:]:
            assert delta == deltas[0]

    @pytest.mark.parametrize("backend", [b for b in AVAILABLE_BACKENDS
                                         if b != "python"])
    def test_full_recompute_cross_checks_backends(self, backend):
        environment = histidine()
        circuit = _random_circuit(6, 40, 3)
        placement = _random_placement(circuit, environment, 4)
        evaluator = RuntimeEvaluator(
            circuit, environment, apply_interaction_cap=True,
            backend=backend, full_recompute=True,
        )
        evaluator.set_base(placement)
        free = [n for n in environment.nodes if n not in set(placement.values())]
        for qubit in circuit.qubits:
            for node in free:
                evaluator.runtime_with({qubit: node})

    @needs_numpy
    def test_full_recompute_detects_divergence(self):
        environment = trans_crotonic_acid()
        circuit = _random_circuit(4, 20, 9)
        placement = _random_placement(circuit, environment, 10)
        evaluator = RuntimeEvaluator(
            circuit, environment, backend="numpy", full_recompute=True
        )
        evaluator.set_base(placement)
        # Corrupt the compiled pair delays in the numpy table only (the
        # shared cached buffer is read-only, so rebind a doubled copy): the
        # cross-backend assertion must catch the (synthetic) divergence.
        evaluator._table.pair = evaluator._table.pair * 2.0
        free = [n for n in environment.nodes if n not in set(placement.values())]
        moved = {q for gate in circuit if gate.is_two_qubit for q in gate.qubits}
        with pytest.raises(AssertionError):
            for qubit in sorted(moved, key=repr):
                for node in free:
                    evaluator.runtime_with({qubit: node})
        # Full evaluations are cross-checked too, not just incremental ones.
        with pytest.raises(AssertionError, match="diverged"):
            evaluator.set_base(placement)

    @needs_native
    def test_full_recompute_detects_native_divergence(self):
        environment = trans_crotonic_acid()
        circuit = _random_circuit(4, 20, 9)
        placement = _random_placement(circuit, environment, 10)
        evaluator = RuntimeEvaluator(
            circuit, environment, backend="native", full_recompute=True
        )
        evaluator.set_base(placement)
        # Corrupt the kernel's single-qubit delay buffer (private to this
        # evaluator): the python cross-check must catch the divergence.
        for index in range(len(evaluator._native._single)):
            evaluator._native._single[index] *= 2.0
        with pytest.raises(AssertionError, match="diverged"):
            evaluator.set_base(placement)

    def test_empty_circuit(self, crotonic):
        circuit = QuantumCircuit(["a", "b"], [], name="empty")
        placement = {"a": "M", "b": "C1"}
        for evaluator in _evaluators(circuit, crotonic, False).values():
            assert evaluator.runtime(placement) == 0.0
            assert evaluator.set_base(placement) == 0.0
            assert evaluator.runtime_with({"a": "C4"}) == 0.0


@needs_numpy
class TestGatherCacheBound:
    def test_cap_evicts_without_changing_results(self, monkeypatch):
        environment = histidine()
        circuit = _random_circuit(8, 60, 21)
        placement = _random_placement(circuit, environment, 22)
        reference = RuntimeEvaluator(circuit, environment, backend="numpy")
        reference.set_base(placement)
        rng = random.Random(5)
        qubits = list(circuit.qubits)
        swaps = []
        for _ in range(40):
            a, b = rng.sample(qubits, 2)
            swaps.append({a: placement[b], b: placement[a]})
        # Reference values under the default (un-hit) cap...
        expected = [reference.runtime_with(swap) for swap in swaps]
        assert 4 < len(reference._table._gather_cache) <= (
            _replay.GATHER_CACHE_MAX_ENTRIES
        )
        # ...must be bit-identical under a cap small enough to churn.
        monkeypatch.setattr(_replay, "GATHER_CACHE_MAX_ENTRIES", 4)
        bounded = RuntimeEvaluator(circuit, environment, backend="numpy")
        bounded.set_base(placement)
        for swap, value in zip(swaps, expected):
            assert bounded.runtime_with(swap) == value
        assert len(bounded._table._gather_cache) <= 4
        # Re-missing an evicted key recomputes the exact same arrays.
        for swap, value in zip(swaps[:5], expected[:5]):
            assert bounded.runtime_with(swap) == value


class TestPairMatrixCache:
    @needs_numpy
    def test_shared_across_evaluators_with_hit_counter(self, crotonic):
        crotonic.invalidate_caches()
        circuit = _random_circuit(5, 30, 13)
        before = STATS.snapshot()
        first = RuntimeEvaluator(circuit, crotonic, backend="numpy")
        second = RuntimeEvaluator(circuit, crotonic, backend="numpy")
        delta = STATS.delta_since(before)
        assert delta.get("scheduler.pair_matrix_cache_misses") == 1
        assert delta.get("scheduler.pair_matrix_cache_hits") == 1
        # Zero-copy sharing: both tables view the same cached buffer.
        assert (
            first._table.pair.__array_interface__["data"][0]
            == second._table.pair.__array_interface__["data"][0]
        )
        assert not first._table.pair.flags.writeable

    def test_recalibration_invalidates(self, crotonic):
        flat = crotonic.pair_delay_table()
        assert crotonic.pair_delay_table() is flat
        crotonic.set_pair_delay("M", "C1", 123.0)
        rebuilt = crotonic.pair_delay_table()
        assert rebuilt is not flat
        nodes = crotonic.nodes
        count = len(nodes)
        i, j = nodes.index("M"), nodes.index("C1")
        assert rebuilt[i * count + j] == 123.0
        assert rebuilt[j * count + i] == 123.0

    def test_matches_pair_delay_for_every_entry(self, crotonic):
        nodes = crotonic.nodes
        count = len(nodes)
        flat = crotonic.pair_delay_table()
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                assert flat[i * count + j] == crotonic.pair_delay(a, b)

    def test_dropped_from_pickles(self, crotonic):
        import pickle

        crotonic.pair_delay_table()
        clone = pickle.loads(pickle.dumps(crotonic))
        assert clone._pair_matrix_cache == {}


class TestPlacerLevelBackendParity:
    @pytest.mark.parametrize("threshold", [100.0, 200.0])
    def test_place_circuit_identical_across_backends(self, crotonic, threshold):
        results = {}
        for backend in AVAILABLE_BACKENDS:
            result = place_circuit(
                qft_circuit(6),
                crotonic,
                PlacementOptions(threshold=threshold, scheduler_backend=backend),
            )
            results[backend] = (
                result.total_runtime,
                [sorted(stage.placement.items(), key=lambda kv: repr(kv[0]))
                 for stage in result.stages],
                [swap.runtime for swap in result.swap_stages],
            )
        for backend in AVAILABLE_BACKENDS[1:]:
            assert results[backend] == results["python"]

    def test_invalid_backend_option_rejected(self):
        with pytest.raises(PlacementError, match="scheduler_backend"):
            PlacementOptions(scheduler_backend="gpu")

    def test_native_backend_option_accepted(self):
        assert PlacementOptions(scheduler_backend="native").scheduler_backend == (
            "native"
        )

    def test_runner_backend_override(self):
        from repro.analysis.runner import (
            ExperimentRunner,
            ExperimentSpec,
            benchmark_circuit_factory,
            molecule_factory,
        )

        spec = ExperimentSpec(
            circuit_factory=benchmark_circuit_factory("qft6"),
            environment_factory=molecule_factory("trans-crotonic-acid"),
            threshold=200.0,
        )
        outcomes = {}
        for backend in AVAILABLE_BACKENDS:
            runner = ExperimentRunner(scheduler_backend=backend)
            outcome = runner.run([spec])[0].raise_if_infeasible()
            outcomes[backend] = (outcome.runtime_seconds, outcome.num_subcircuits)
        for backend in AVAILABLE_BACKENDS[1:]:
            assert outcomes[backend] == outcomes["python"]
        with pytest.raises(ExperimentError, match="scheduler_backend"):
            ExperimentRunner(scheduler_backend="gpu")


#: Hosts of the climb parity suite: two molecules and two lattices.
CLIMB_HOSTS = ("trans-crotonic-acid", "histidine", "grid:3x3", "ring:6")

#: The scheduler counters a climb must move identically on both paths.
CLIMB_COUNTERS = (
    "scheduler.full_evals",
    "scheduler.incremental_evals",
    "scheduler.ops_skipped",
    "scheduler.ops_replayed",
)


def _climb_case(host, seed, full, shared=False):
    """A random circuit, placement, movable set and allowed-node order.

    ``full`` fills every host node, so every move is a swap; otherwise some
    nodes stay free.  ``shared`` puts the last two placement keys on one
    node, so the occupant of a node depends on the key order.  Key,
    movable and allowed orders are all shuffled.
    """
    environment = load_environment(host)
    rng = random.Random(seed)
    nodes = list(environment.nodes)
    num_qubits = len(nodes) if full else rng.randint(2, len(nodes) - 1)
    circuit = _random_circuit(num_qubits, rng.randint(0, 60), seed)
    keys = rng.sample(list(circuit.qubits), num_qubits)
    placement = dict(zip(keys, rng.sample(nodes, num_qubits)))
    if shared:
        placement[keys[-1]] = placement[keys[-2]]
    movable = rng.sample(list(circuit.qubits), rng.randint(1, num_qubits))
    allowed = rng.sample(nodes, rng.randint(1, len(nodes)))
    return environment, circuit, placement, movable, allowed


def _climb(evaluator, placement, movable, allowed, max_rounds):
    """One ``hill_climb_incremental`` run and everything it leaves behind."""
    before = STATS.snapshot()
    best, cost = hill_climb_incremental(
        placement, evaluator, movable, allowed, max_rounds=max_rounds
    )
    after = STATS.snapshot()
    deltas = {
        name: after.get(name, 0) - before.get(name, 0) for name in CLIMB_COUNTERS
    }
    first, second = list(best)[:2]
    follow_up = evaluator.runtime_with({first: best[second], second: best[first]})
    return (
        list(best.items()),
        cost,
        deltas,
        list(evaluator._base_nodes),
        evaluator.base_runtime,
        follow_up,
    )


@needs_native
class TestNativeHillClimb:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        host=st.sampled_from(CLIMB_HOSTS),
        max_rounds=st.sampled_from((0, 1, 3, 10)),
        full=st.booleans(),
        shared=st.booleans(),
        cap=st.booleans(),
    )
    def test_native_climb_matches_python_loop(
        self, seed, host, max_rounds, full, shared, cap
    ):
        environment, circuit, placement, movable, allowed = _climb_case(
            host, seed, full, shared
        )
        outcomes = {}
        for backend in ("python", "native"):
            evaluator = RuntimeEvaluator(
                circuit, environment, apply_interaction_cap=cap, backend=backend
            )
            outcomes[backend] = _climb(
                evaluator, placement, movable, allowed, max_rounds
            )
        assert outcomes["native"] == outcomes["python"]

    def test_extra_cost_and_full_recompute_keep_the_python_loop(
        self, monkeypatch
    ):
        environment, circuit, placement, movable, allowed = _climb_case(
            "histidine", 5, False
        )

        def forbidden(*args):
            raise AssertionError("the native climb was called")

        monkeypatch.setattr(_native.NativeReplay, "hill_climb", forbidden)
        # Sanity: a plain native climb does go through the patched entry.
        with pytest.raises(AssertionError, match="native climb"):
            hill_climb_incremental(
                placement,
                RuntimeEvaluator(circuit, environment, backend="native"),
                movable,
                allowed,
            )

        def extra(candidate):
            return 0.0 if candidate[movable[0]] == placement[movable[0]] else 7.0

        results = {}
        for backend in ("python", "native"):
            results[backend] = (
                hill_climb_incremental(
                    placement,
                    RuntimeEvaluator(circuit, environment, backend=backend),
                    movable,
                    allowed,
                    extra_cost=extra,
                ),
                fine_tune_workspace_placement(
                    circuit,
                    placement,
                    environment,
                    allowed_nodes=allowed,
                    full_recompute=True,
                    backend=backend,
                ),
            )
        assert results["native"] == results["python"]

    def test_unknown_qubit_or_node_raises_before_the_kernel(self):
        environment, circuit, placement, movable, allowed = _climb_case(
            "trans-crotonic-acid", 3, False
        )
        evaluator = RuntimeEvaluator(circuit, environment, backend="native")
        with pytest.raises(KeyError):
            evaluator.hill_climb(placement, movable, allowed + ["nowhere"], 3)
        with pytest.raises(KeyError):
            evaluator.hill_climb(placement, movable + ["ghost"], allowed, 3)
        assert evaluator._base_nodes is None  # never re-based
        python = RuntimeEvaluator(circuit, environment, backend="python")
        with pytest.raises(RuntimeError, match="native backend"):
            python.hill_climb(placement, movable, allowed, 3)


class TestNativeBuild:
    @pytest.fixture
    def fresh_probe(self, tmp_path, monkeypatch):
        """A private, empty artifact cache and a forgotten probe."""
        monkeypatch.setenv(_native.CACHE_DIR_ENV_VAR, str(tmp_path))
        monkeypatch.setattr(_native, "_compiler", lambda: "cc")
        _native.reset_probe_for_tests()
        yield tmp_path
        _native.reset_probe_for_tests()

    @pytest.mark.parametrize(
        "outcome",
        [
            subprocess.TimeoutExpired("cc", 120),
            OSError("exec format error"),
            subprocess.CompletedProcess("cc", 1, "", "error: boom\nmore"),
        ],
        ids=["timeout", "os-error", "compiler-error"],
    )
    def test_failed_build_leaves_no_temp_file(
        self, fresh_probe, monkeypatch, outcome
    ):
        def run(command, **kwargs):
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(subprocess, "run", run)
        assert not _native.available()
        assert not list(fresh_probe.glob("replay_build_*"))
        reason = _native.unavailable_reason()
        assert reason and "\n" not in reason

    def test_failed_publish_leaves_no_temp_file(self, fresh_probe, monkeypatch):
        def compiled(command, **kwargs):
            return subprocess.CompletedProcess(command, 0, "", "")

        def refuse(source, destination):
            raise OSError("read-only file system")

        monkeypatch.setattr(subprocess, "run", compiled)
        monkeypatch.setattr(os, "replace", refuse)
        assert not _native.available()
        assert not list(fresh_probe.glob("replay_build_*"))
        assert _native.unavailable_reason() == (
            "kernel build failed: read-only file system"
        )
