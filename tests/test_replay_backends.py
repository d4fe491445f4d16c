"""Backend parity for the scheduler replay engine.

The ``RuntimeEvaluator``'s native backend must be *bit-identical* to the
pure Python reference on every code path — full evaluation, incremental
tail replay, the branch-and-bound cutoff, and the ``full_recompute`` debug
mode — for randomized circuits, placements and moves.  These tests are the in-process half of that contract;
``tests/test_determinism.py`` covers the cross-process
(``PYTHONHASHSEED`` x backend) half and the benchmark harness gates the
same property on the ``replay_*`` macro scenarios.

The parity tests run over every backend available in this interpreter:
``python`` always, ``native`` when its kernel builds (a C compiler at
first use; see ``repro/timing/_native.py``).
``TestNativeHillClimb`` holds the native whole-climb entry point to the
Python fine-tuning loop it replaces.
"""

import os
import random
import subprocess
from array import array

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
from repro.exceptions import ConfigError, ReproError
from repro.hardware.molecules import histidine, trans_crotonic_acid
from repro.registry import load_environment
from repro.timing import _native, _replay
from repro.timing.scheduler import RuntimeEvaluator, circuit_runtime

needs_native = pytest.mark.skipif(
    not _native.available(), reason="native kernel does not build here"
)

#: Every backend the parity matrix can exercise in this interpreter.
AVAILABLE_BACKENDS = ["python"] + (["native"] if _native.available() else [])

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


#: Compiled op counts at which ``auto`` must resolve the same way: none,
#: one, and far above any profitability floor.
AUTO_OP_COUNTS = (0, 1, 10**4)


def _auto_backends():
    """The backend ``auto`` resolves to, alone and per evaluator op count."""
    environment = trans_crotonic_acid()
    resolved = [_replay.resolve_backend("auto")]
    for num_ops in AUTO_OP_COUNTS:
        circuit = QuantumCircuit(
            [0, 1], [g.zz(0, 1, 90.0)] * num_ops, name=f"ops{num_ops}"
        )
        resolved.append(RuntimeEvaluator(circuit, environment).backend)
    return resolved


class TestResolveBackend:
    def test_explicit_choices_resolve_to_themselves(self):
        for backend in AVAILABLE_BACKENDS:
            assert _replay.resolve_backend(backend) == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown scheduler backend"):
            _replay.resolve_backend("fortran")

    def test_numpy_request_without_numpy_rejected(self):
        # No backend uses numpy: a stored "numpy" request is refused with
        # the valid choices, which name auto.
        with pytest.raises(ReproError,
                           match="unknown scheduler backend 'numpy'.*'auto'"):
            _replay.resolve_backend("numpy")

    @needs_native
    def test_auto_prefers_native_at_every_op_count(self, monkeypatch):
        monkeypatch.delenv(_replay.BACKEND_ENV_VAR, raising=False)
        assert _auto_backends() == ["native"] * (1 + len(AUTO_OP_COUNTS))

    def test_auto_without_numpy_or_native_falls_back(self, monkeypatch):
        monkeypatch.delenv(_replay.BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(_native, "available", lambda: False)
        assert _auto_backends() == ["python"] * (1 + len(AUTO_OP_COUNTS))

    def test_env_var_overrides_auto(self, monkeypatch):
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "python")
        assert _replay.resolve_backend("auto") == "python"
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "auto")
        monkeypatch.setattr(_native, "available", lambda: False)
        assert _replay.resolve_backend("auto") == "python"

    @needs_native
    def test_env_var_selects_native(self, monkeypatch):
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "native")
        assert _replay.resolve_backend("auto") == "native"

    def test_env_var_does_not_override_explicit_request(self, monkeypatch):
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "native")
        assert _replay.resolve_backend("python") == "python"

    def test_invalid_env_var_rejected(self, monkeypatch):
        for value in ("cuda", "numpy"):
            monkeypatch.setenv(_replay.BACKEND_ENV_VAR, value)
            with pytest.raises(ConfigError,
                               match="REPRO_SCHEDULER_BACKEND.*'auto'"):
                _replay.resolve_backend("auto")

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
            _replay.resolve_backend("auto")

    @pytest.mark.skipif(
        _native.available(), reason="native kernel builds on this host"
    )
    def test_pure_python_fallback_without_native_build(self):
        # On hosts without a working toolchain, auto must silently resolve
        # to python and the evaluator must stay fully functional on the
        # pure-Python path.
        assert _native.unavailable_reason()
        assert _replay.resolve_backend("auto") == "python"
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
        # Replays must leave the base state intact (native keeps per-qubit
        # override flags).
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
            # native evaluator and hits afterwards; that is backend
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


class TestPairMatrixCache:
    @needs_native
    def test_shared_across_evaluators_with_hit_counter(self, crotonic):
        crotonic.invalidate_caches()
        circuit = _random_circuit(5, 30, 13)
        before = STATS.snapshot()
        first = RuntimeEvaluator(circuit, crotonic, backend="native")
        second = RuntimeEvaluator(circuit, crotonic, backend="native")
        delta = STATS.delta_since(before)
        assert delta.get("scheduler.pair_matrix_cache_misses") == 1
        assert delta.get("scheduler.pair_matrix_cache_hits") == 1
        # Zero-copy sharing: both kernels read the one cached buffer.
        assert first._native._pair is crotonic.pair_delay_table()
        assert second._native._pair is first._native._pair

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


#: Placer-level parity cases: (threshold, extra options), with ids.
PLACER_PARITY_CASES = [
    pytest.param(100.0, {}, id="100.0"),
    pytest.param(200.0, {}, id="200.0"),
    # Beyond int64, where a round count used to wrap to 0 in ctypes.
    pytest.param(200.0, {"fine_tuning_max_rounds": 2**64}, id="max-rounds-2**64"),
    # The one exact path that fine tunes without the pipeline's evaluator.
    pytest.param(200.0, {"sequential_levels": True}, id="sequential-levels"),
]


class TestPlacerLevelBackendParity:
    @pytest.mark.parametrize(("threshold", "extra"), PLACER_PARITY_CASES)
    def test_place_circuit_identical_across_backends(
        self, crotonic, threshold, extra, monkeypatch
    ):
        results = {}
        for backend in AVAILABLE_BACKENDS:
            monkeypatch.setenv(_replay.BACKEND_ENV_VAR, backend)
            result = place_circuit(
                qft_circuit(6),
                crotonic,
                PlacementOptions(threshold=threshold, **extra),
            )
            results[backend] = (
                result.total_runtime,
                [sorted(stage.placement.items(), key=lambda kv: repr(kv[0]))
                 for stage in result.stages],
                [swap.runtime for swap in result.swap_stages],
            )
        for backend in AVAILABLE_BACKENDS[1:]:
            assert results[backend] == results["python"]

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_sequential_levels_builds_one_evaluator_per_fine_tuning_call(
        self, crotonic, monkeypatch, backend
    ):
        import repro.core.placement as placement_module

        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, backend)
        built = _count_calls(monkeypatch, RuntimeEvaluator, "__init__")
        tune_calls = _count_calls(
            monkeypatch, placement_module, "fine_tune_workspace_placement"
        )
        result = place_circuit(
            qft_circuit(6),
            crotonic,
            PlacementOptions(threshold=200.0, sequential_levels=True),
        )
        # One call per candidate set, not per candidate.
        assert 0 < len(built) <= len(tune_calls) <= 2 * len(result.stages)

    @pytest.mark.parametrize("backend", AVAILABLE_BACKENDS)
    def test_pool_workers_use_the_parents_backend(self, monkeypatch, backend):
        # The backend is a property of the process: a jobs=2 grid's workers
        # inherit REPRO_SCHEDULER_BACKEND from the parent, with no plumbing.
        from repro.analysis.runner import (
            ExperimentRunner,
            ExperimentSpec,
            benchmark_circuit_factory,
            molecule_factory,
        )

        specs = [
            ExperimentSpec(
                circuit_factory=benchmark_circuit_factory("qft6"),
                environment_factory=molecule_factory("trans-crotonic-acid"),
                threshold=threshold,
            )
            for threshold in (100.0, 200.0)
        ]
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, backend)
        outcomes = ExperimentRunner(jobs=2).run(specs)
        # Only native evaluators read the shared pair-delay matrix, so the
        # workers' counters show which backend their evaluators resolved to.
        lookups = sum(
            o.counters.get(f"scheduler.pair_matrix_cache_{kind}", 0)
            for o in outcomes
            for kind in ("hits", "misses")
        )
        assert (lookups > 0) == (backend == "native")
        serial = ExperimentRunner().run(specs)
        assert [o.runtime_seconds for o in outcomes] == [
            o.runtime_seconds for o in serial
        ]


#: Hosts of the climb parity suite: two molecules and two lattices.
CLIMB_HOSTS = ("trans-crotonic-acid", "histidine", "grid:3x3", "ring:6")

#: The scheduler counters a climb must move identically on both paths.
CLIMB_COUNTERS = (
    "scheduler.full_evals",
    "scheduler.incremental_evals",
    "scheduler.ops_skipped",
    "scheduler.ops_replayed",
)


def _climb_case(host, seed, full, shared=(False,)):
    """A random circuit, start placements, movable set and allowed-node order.

    One start per entry of ``shared``.  ``full`` fills every host node, so
    every move is a swap; otherwise some nodes stay free.  A true
    ``shared`` entry puts that start's last two placement keys on one node,
    so the occupant of a node depends on the key order.  Key, movable and
    allowed orders are all shuffled.
    """
    environment = load_environment(host)
    rng = random.Random(seed)
    nodes = list(environment.nodes)
    num_qubits = len(nodes) if full else rng.randint(2, len(nodes) - 1)
    circuit = _random_circuit(num_qubits, rng.randint(0, 60), seed)
    placements = []
    for share in shared:
        keys = rng.sample(list(circuit.qubits), num_qubits)
        placement = dict(zip(keys, rng.sample(nodes, num_qubits)))
        if share:
            placement[keys[-1]] = placement[keys[-2]]
        placements.append(placement)
    movable = rng.sample(list(circuit.qubits), rng.randint(1, num_qubits))
    allowed = rng.sample(nodes, rng.randint(1, len(nodes)))
    return environment, circuit, placements, movable, allowed


def _climb(evaluator, climb):
    """The results of ``climb()`` and everything it leaves behind."""
    before = STATS.snapshot()
    results = climb()
    after = STATS.snapshot()
    deltas = {
        name: after.get(name, 0) - before.get(name, 0) for name in CLIMB_COUNTERS
    }
    best = results[-1][0]
    first, second = list(best)[:2]
    follow_up = evaluator.runtime_with({first: best[second], second: best[first]})
    return (
        [(list(placement.items()), cost) for placement, cost in results],
        deltas,
        list(evaluator._base_nodes),
        evaluator.base_runtime,
        follow_up,
    )


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so every call is counted; returns the counter."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


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
        max_rounds=st.sampled_from((0, 1, 3, 10, 2**64)),
        full=st.booleans(),
        shared=st.lists(st.booleans(), min_size=1, max_size=6),
        cap=st.booleans(),
    )
    def test_native_climb_matches_python_loop(
        self, seed, host, max_rounds, full, shared, cap
    ):
        environment, circuit, placements, movable, allowed = _climb_case(
            host, seed, full, shared
        )
        python, native = (
            RuntimeEvaluator(
                circuit, environment, apply_interaction_cap=cap, backend=backend
            )
            for backend in ("python", "native")
        )
        expected = _climb(python, lambda: [
            hill_climb_incremental(
                placement, python, movable, allowed, max_rounds=max_rounds
            )
            for placement in placements
        ])
        actual = _climb(native, lambda: native.hill_climb(
            placements, movable, allowed, max_rounds
        ))
        assert actual == expected

    def test_full_recompute_keeps_the_python_loop(self, monkeypatch):
        environment, circuit, placements, movable, allowed = _climb_case(
            "histidine", 5, False
        )

        def forbidden(*args):
            raise AssertionError("the native climb was called")

        monkeypatch.setattr(_native.NativeReplay, "hill_climb", forbidden)
        # Sanity: a plain native fine tuning does go through the patched entry.
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "native")
        with pytest.raises(AssertionError, match="native climb"):
            fine_tune_workspace_placement(
                circuit, placements, environment, allowed_nodes=allowed,
            )

        results = {}
        for backend in ("python", "native"):
            monkeypatch.setenv(_replay.BACKEND_ENV_VAR, backend)
            results[backend] = fine_tune_workspace_placement(
                circuit,
                placements,
                environment,
                allowed_nodes=allowed,
                full_recompute=True,
            )
        assert results["native"] == results["python"]

    def test_unknown_qubit_or_node_raises_before_the_kernel(self):
        environment, circuit, [placement], movable, allowed = _climb_case(
            "trans-crotonic-acid", 3, False
        )
        evaluator = RuntimeEvaluator(circuit, environment, backend="native")
        with pytest.raises(KeyError):
            evaluator.hill_climb([placement], movable, allowed + ["nowhere"], 3)
        with pytest.raises(KeyError):
            evaluator.hill_climb([placement], movable + ["ghost"], allowed, 3)
        # A bad second start fails before the first one is climbed.
        stray = dict(placement)
        stray[movable[0]] = "nowhere"
        with pytest.raises(KeyError):
            evaluator.hill_climb([placement, stray], movable, allowed, 3)
        assert evaluator.hill_climb([], movable, allowed, 3) == []
        # The binding refuses rows the kernel would read past.
        with pytest.raises(ValueError, match="rows"):
            evaluator._native.hill_climb(1, array("i"), array("i"), [0], [0], 3)
        assert evaluator._base_nodes is None  # never re-based
        python = RuntimeEvaluator(circuit, environment, backend="python")
        with pytest.raises(RuntimeError, match="native backend"):
            python.hill_climb([placement], movable, allowed, 3)

    def test_one_kernel_call_per_candidate_set(self, crotonic, monkeypatch):
        import repro.core.placement as placement_module

        kernel_calls = _count_calls(monkeypatch, _native.NativeReplay, "hill_climb")
        tune_calls = _count_calls(
            monkeypatch, placement_module, "fine_tune_workspace_placement"
        )
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "native")
        result = place_circuit(
            qft_circuit(6), crotonic, PlacementOptions(threshold=200.0)
        )
        assert len(kernel_calls) == len(tune_calls)
        assert len(kernel_calls) <= 2 * len(result.stages)


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
