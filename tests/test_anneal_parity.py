"""The native annealer against its Python reference loop.

``RuntimeEvaluator.anneal`` runs one restart of the annealer in one call
of the C kernel; ``anneal_loop`` is the Python loop it replaces.  For
random circuits, hosts, start placements and iteration budgets both must
leave everything the same: the best placement (key order included) and
its cost, the accepted/rejected/scored move counts behind the
``placer.*`` counters, the scheduler counters, the evaluator's final base
and the caller's ``random.Random`` state, restart after restart on one
shared evaluator.  ``TestAnnealPlacerBackends`` holds the placer's
dispatch between the two paths to the same contract end to end.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core._bitset import canonical_order
from repro.core.config import PlacementOptions
from repro.core.placement import _GraphContext, _working_graph, place_circuit
from repro.core.placers.anneal import (
    _LIMIT_TEMPERATURES,
    _LOCAL_MOVE_FRACTION,
    _schedule,
    anneal_loop,
)
from repro.core.placers.greedy import greedy_candidate
from repro.core.stats import STATS
from repro.core.workspace import extract_workspaces
from repro.exceptions import PlacementError
from repro.registry import load_circuit, load_environment
from repro.timing import _native, _replay
from repro.timing.scheduler import RuntimeEvaluator

pytestmark = pytest.mark.skipif(
    not _native.available(), reason="native kernel does not build here"
)

#: (host, threshold, restrict_to_largest_component).  Crotonic acid at 50
#: keeps one isolated node in its working graph: an anchor there has no
#: host neighbours, so a local move falls back to a global one.
HOSTS = (
    ("grid:3x4", 10.0, True),
    ("grid:4x4", 10.0, True),
    ("ring:8", 10.0, True),
    ("heavy-hex:3", 10.0, True),
    ("star:7", 10.0, True),
    ("trans-crotonic-acid", 200.0, True),
    ("trans-crotonic-acid", 50.0, False),
    ("histidine", 100.0, True),
)

BUDGETS = (0, 1, 2, 5, 40, 300)

SCHEDULER_COUNTERS = (
    "scheduler.full_evals",
    "scheduler.incremental_evals",
    "scheduler.ops_skipped",
    "scheduler.ops_replayed",
)


def _case(host, threshold, restrict, family, size, gates, seed, pick,
          random_start, all_movable):
    """One workspace's anneal inputs, as AnnealPlacer._anneal builds them.

    ``random_start`` replaces the greedy start with a random injective
    placement over the working graph (hosts with finite delays only, so
    its cost stays finite); ``all_movable`` makes every circuit qubit
    movable, in a shuffled order, so some have no pattern partner.
    """
    environment = load_environment(host)
    options = PlacementOptions(
        threshold=threshold, restrict_to_largest_component=restrict
    )
    rng = random.Random(seed)
    try:
        graph = _working_graph(
            load_circuit(f"{family}:{size}x{gates}x{seed}"),
            environment, options, threshold,
        )
    except PlacementError:
        return None
    size = min(size, graph.number_of_nodes())
    circuit = load_circuit(f"{family}:{size}x{gates}x{seed}")
    try:
        workspaces = extract_workspaces(circuit, graph)
    except PlacementError:
        return None
    workspaces = [
        ws for ws in workspaces if ws.interaction_graph.number_of_edges()
    ]
    if not workspaces:
        return None
    workspace = workspaces[pick % len(workspaces)]
    subcircuit = workspace.subcircuit(circuit)
    context = _GraphContext(graph, circuit)
    reference = RuntimeEvaluator(subcircuit, environment, backend="python")
    if random_start and math.isfinite(environment.default_pair_delay):
        nodes = rng.sample(list(graph.nodes()), circuit.num_qubits)
        start = dict(zip(circuit.qubits, nodes))
        start_cost = reference.runtime(start)
    else:
        start, start_cost = greedy_candidate(
            workspace, subcircuit, circuit, context, environment, options,
            None, reference,
        )
    pattern = workspace.interaction_graph
    movable = canonical_order(
        {q for gate in subcircuit if gate.is_two_qubit for q in gate.qubits}
    )
    if all_movable:
        movable = rng.sample(list(circuit.qubits), circuit.num_qubits)
    partners = {
        qubit: canonical_order(pattern.neighbors(qubit))
        for qubit in movable
        if qubit in pattern
    }
    return (environment, subcircuit, context.neighbour_table, start,
            start_cost, movable, partners)


def _restarts(backend, case, iterations, seeds):
    """Anneal the case once per seed on one shared evaluator; everything left behind."""
    environment, subcircuit, table, start, start_cost, movable, partners = case
    evaluator = RuntimeEvaluator(subcircuit, environment, backend=backend)
    outcomes = []
    for seed in seeds:
        rng = random.Random(seed)
        before = STATS.snapshot()
        if backend == "python":
            best, cost, counts = anneal_loop(
                rng, start, start_cost, movable, partners, table, iterations,
                evaluator,
            )
        else:
            t0, alpha = _schedule(start_cost, iterations)
            best, cost, counts = evaluator.anneal(
                rng, start, start_cost, movable, partners, table,
                iterations=iterations, t0=t0, alpha=alpha,
                local_fraction=_LOCAL_MOVE_FRACTION,
                limit_temperatures=_LIMIT_TEMPERATURES,
            )
        after = STATS.snapshot()
        deltas = [after.get(k, 0) - before.get(k, 0) for k in SCHEDULER_COUNTERS]
        outcomes.append((
            list(best.items()), cost, counts, deltas,
            list(evaluator._base_nodes), evaluator.base_runtime, rng.getstate(),
        ))
    # The recorded durations and checkpoints must match too: score one
    # more swap against the final base.
    first, second = list(start)[:2]
    outcomes.append(evaluator.runtime_with(
        {first: start[second], second: start[first]}
    ))
    return outcomes


class TestNativeAnnealParity:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(
        host=st.sampled_from(HOSTS),
        family=st.sampled_from(("random", "random-chain")),
        size=st.integers(2, 9),
        gates=st.integers(1, 30),
        seed=st.integers(0, 10_000),
        pick=st.integers(0, 5),
        random_start=st.booleans(),
        all_movable=st.booleans(),
        iterations=st.sampled_from(BUDGETS),
        restarts=st.lists(st.integers(0, 2**64), min_size=1, max_size=3),
    )
    def test_kernel_matches_python_loop(
        self, host, family, size, gates, seed, pick, random_start,
        all_movable, iterations, restarts,
    ):
        case = _case(*host, family, size, gates, seed, pick, random_start,
                     all_movable)
        assume(case is not None)
        start_cost = case[4]
        assume(math.isfinite(start_cost) and start_cost > 0.0)
        expected = _restarts("python", case, iterations, restarts)
        actual = _restarts("native", case, iterations, restarts)
        assert actual == expected

    def test_partnerless_qubits_and_neighbourless_anchors(self):
        """Both fallbacks of a proposal are exercised and agree."""
        case = _case("trans-crotonic-acid", 50.0, False, "random", 7, 24, 11,
                     0, True, True)
        _, _, table, start, start_cost, movable, partners = case
        assert any(qubit not in partners for qubit in movable)
        assert any(
            not table.neighbours(start[partner])
            for partner_list in partners.values()
            for partner in partner_list
        )
        assert math.isfinite(start_cost)
        seeds = (3, 4)
        assert (_restarts("native", case, 400, seeds)
                == _restarts("python", case, 400, seeds))

    def test_bad_inputs_raise_before_the_kernel(self):
        case = _case("grid:3x4", 10.0, True, "random-chain", 6, 12, 2, 0,
                     False, False)
        environment, subcircuit, table, start, cost, movable, partners = case
        evaluator = RuntimeEvaluator(subcircuit, environment, backend="native")
        rng = random.Random(5)
        state = rng.getstate()
        kwargs = dict(iterations=10, t0=1.0, alpha=0.9, local_fraction=0.75,
                      limit_temperatures=20.0)

        def anneal(rng=rng, start=start, movable=movable, **overrides):
            return evaluator.anneal(
                rng, start, cost, movable, partners, table,
                **{**kwargs, **overrides},
            )

        with pytest.raises(TypeError, match="random.Random"):
            anneal(rng=random.SystemRandom())
        stray = dict(start)
        stray[next(iter(stray))] = "nowhere"
        with pytest.raises(KeyError):
            anneal(start=stray)
        shared = dict(start)
        first, second = list(shared)[:2]
        shared[first] = shared[second]
        with pytest.raises(ValueError, match="distinct node"):
            anneal(start=shared)
        with pytest.raises(KeyError):
            anneal(movable=list(movable) + ["ghost"])
        with pytest.raises(ValueError, match="movable"):
            anneal(movable=[])
        with pytest.raises(ValueError, match="iterations"):
            anneal(iterations=2**64)
        assert rng.getstate() == state
        assert evaluator._base_nodes is None  # never re-based
        python = RuntimeEvaluator(subcircuit, environment, backend="python")
        with pytest.raises(RuntimeError, match="native backend"):
            python.anneal(rng, start, cost, movable, partners, table, **kwargs)


#: Placements whose anneals the dispatch must route identically.
PLACEMENTS = (
    ("random-chain:12x36x1", "grid:8x8", 10.0, "anneal:3,5x300"),
    ("random:8x20x5", "grid:4x4", 10.0, "anneal:7x150"),
    ("random:6x18x2", "heavy-hex:3", 10.0, "anneal:1,2x200"),
    ("random-chain:7x21x3", "star:7", 10.0, "anneal:4x100"),
    ("qft:6", "trans-crotonic-acid", 200.0, "anneal:0,9x250"),
)


def _placement(monkeypatch, circuit, host, threshold, spec, backend):
    monkeypatch.setenv(_replay.BACKEND_ENV_VAR, backend)
    before = STATS.snapshot()
    result = place_circuit(
        load_circuit(circuit),
        load_environment(host),
        PlacementOptions(threshold=threshold, placer=spec),
    )
    after = STATS.snapshot()
    # Every placer counter and the scheduler's work counters; the native
    # backend alone builds the shared pair-delay matrix, so its cache
    # counters differ by design.
    counters = {
        name: after[name] - before.get(name, 0)
        for name in after
        if name.startswith("placer.") or name in SCHEDULER_COUNTERS
    }
    stages = [list(stage.placement.items()) for stage in result.stages]
    return result.total_runtime, stages, counters


class TestAnnealPlacerBackends:
    @pytest.mark.parametrize("circuit,host,threshold,spec", PLACEMENTS)
    def test_placements_and_counters_identical(self, circuit, host, threshold,
                                               spec, monkeypatch):
        case = (monkeypatch, circuit, host, threshold, spec)
        native = _placement(*case, "native")
        assert native == _placement(*case, "python")
        assert native[2]["placer.delta_evals"] > 0

    def test_one_kernel_call_per_restart(self, monkeypatch):
        calls = []
        original = _native.NativeReplay.anneal

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(_native.NativeReplay, "anneal", counted)
        before = STATS.get("placer.anneal_restarts")
        _placement(monkeypatch, *PLACEMENTS[0], "native")
        assert len(calls) == STATS.get("placer.anneal_restarts") - before > 0

    def test_full_recompute_keeps_the_python_loop(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the native anneal was called")

        monkeypatch.setattr(_native.NativeReplay, "anneal", forbidden)
        circuit, host, threshold, spec = PLACEMENTS[1]
        options = PlacementOptions(threshold=threshold, placer=spec)
        monkeypatch.setenv(_replay.BACKEND_ENV_VAR, "native")
        with pytest.raises(AssertionError, match="native anneal"):
            place_circuit(load_circuit(circuit), load_environment(host), options)
        results = []
        for backend in ("python", "native"):
            monkeypatch.setenv(_replay.BACKEND_ENV_VAR, backend)
            results.append(place_circuit(
                load_circuit(circuit),
                load_environment(host),
                options.replace(debug_full_recompute=True),
            ).total_runtime)
        assert results[0] == results[1]
