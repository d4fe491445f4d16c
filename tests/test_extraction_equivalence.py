"""Equivalence tests for witness extraction and mask-based completion.

:func:`repro.core.workspace.extract_workspaces` answers most embeddability
probes from a carried witness monomorphism and grows its interaction graph
in place; :func:`repro.core.monomorphism._pattern_order` keeps a placed-
neighbour count per node; and :func:`repro.core.placement._complete_placement` and
:func:`repro.core.placement._estimate_swap_cost` read hop distances from BFS
rings over the host encoding's neighbour masks.  The implementations
they replaced are kept below, verbatim, as the reference: for any circuit,
host and workspace cap both extractions must return the same workspaces
(start, stop, gates, and the interaction graph's node, edge and adjacency
order) or the same error (type and message); both pattern orders must
agree; and both completions and swap-cost estimates must agree, including
the placement's insertion order and an infinite estimate.

The inputs cover ``random:``, ``random-chain:``, ``qft:``, ``cat:`` and
``hidden-stage:`` circuits; every Table-3 molecule at the paper's six
thresholds; ``grid``, ``ring``, ``heavy-hex`` and ``star`` lattices; and
random graphs with int, str, tuple and mixed labels and shuffled node and
edge insertion order (string and tuple hashes vary per
``PYTHONHASHSEED``), connected or not.
"""

import random
from typing import Dict, List, Optional

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
import repro.core.placement as core_placement
from repro.core import monomorphism, workspace
from repro.core._bitset import HostEncoding, encode_host, node_index_table
from repro.core.monomorphism import has_monomorphism
from repro.core.stats import STATS
from repro.core.workspace import Workspace
from repro.exceptions import PlacementError
from repro.hardware.molecules import MOLECULE_FACTORIES
from repro.hardware.threshold_graph import PAPER_THRESHOLDS
from repro.registry import load_circuit, load_environment

RELAXED = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CAPS = (None, 1, 2, 5)


# ---------------------------------------------------------------------------
# The networkx extraction and completion, kept verbatim as the reference
# ---------------------------------------------------------------------------


def _embeds(
    graph: nx.Graph,
    host: nx.Graph,
    host_encoding: HostEncoding,
    host_bipartite: bool = False,
) -> bool:
    """Exact embeddability check with the cheap necessary conditions first.

    The size checks read the encoding: networkx counts a graph's edges by
    summing every node's degree, O(n) per probe on a large host.
    """
    if graph.number_of_nodes() == 0:
        return True
    if graph.number_of_nodes() > host_encoding.num_nodes:
        return False
    if graph.number_of_edges() > host_encoding.num_edges:
        return False
    if host_bipartite and not nx.is_bipartite(graph):
        # Subgraphs of a bipartite host are bipartite, so a pattern with an
        # odd cycle can be refuted in O(V+E).  Proving non-embeddability by
        # search instead is the worst case of the enumerator — on a
        # 1024-node grid a refutation can visit an astronomical number of
        # search nodes, and synthetic hosts (grid/chain/ring with even
        # length) are all bipartite.
        return False
    return has_monomorphism(graph, host, host_encoding=host_encoding)


def extract_workspaces(
    circuit: QuantumCircuit,
    adjacency_graph: nx.Graph,
    max_two_qubit_gates: Optional[int] = None,
) -> List[Workspace]:
    if adjacency_graph.number_of_edges() == 0 and circuit.num_two_qubit_gates > 0:
        raise PlacementError(
            "the adjacency graph allows no interaction at all; "
            "raise the threshold"
        )
    if max_two_qubit_gates is not None and max_two_qubit_gates < 1:
        raise PlacementError("max_two_qubit_gates must be at least 1")

    # One bitset encoding of the host serves every embeddability probe of
    # the greedy scan (one probe per distinct two-qubit interaction).
    host_encoding = encode_host(adjacency_graph)
    host_bipartite = (
        adjacency_graph.number_of_edges() > 0 and nx.is_bipartite(adjacency_graph)
    )

    workspaces: List[Workspace] = []
    current_graph = nx.Graph()
    current_start = 0
    current_two_qubit_count = 0
    index = 0

    def close(stop: int) -> None:
        nonlocal current_graph, current_start, current_two_qubit_count, index
        if stop <= current_start:
            return
        workspaces.append(
            Workspace(
                index=index,
                start=current_start,
                stop=stop,
                gates=tuple(circuit.gates[current_start:stop]),
                interaction_graph=current_graph.copy(),
            )
        )
        index += 1
        current_start = stop
        current_graph = nx.Graph()
        current_two_qubit_count = 0

    gates = circuit.gates
    for position, gate in enumerate(gates):
        if not gate.is_two_qubit:
            continue
        a, b = gate.interaction()
        if (
            max_two_qubit_gates is not None
            and current_two_qubit_count >= max_two_qubit_gates
        ):
            close(position)
        if current_graph.has_edge(a, b):
            current_two_qubit_count += 1
            continue
        candidate = current_graph.copy()
        candidate.add_edge(a, b)
        if _embeds(candidate, adjacency_graph, host_encoding, host_bipartite):
            current_graph = candidate
            current_two_qubit_count += 1
            continue
        # The gate breaks embeddability: close the workspace before it.
        close(position)
        current_graph.add_edge(a, b)
        current_two_qubit_count = 1
        if not _embeds(
            current_graph, adjacency_graph, host_encoding, host_bipartite
        ):
            raise PlacementError(
                f"two-qubit gate {gate!r} cannot be aligned with any fast "
                "interaction of the environment"
            )
    close(len(gates))

    if not workspaces:
        # A circuit with no gates (or only gates before the first close) still
        # forms one (possibly empty) workspace so that placement has
        # something to work with.
        workspaces.append(
            Workspace(
                index=0,
                start=0,
                stop=len(gates),
                gates=tuple(gates),
                interaction_graph=nx.Graph(),
            )
        )
    return workspaces


def _pattern_order(pattern: nx.Graph) -> list:
    """Order pattern nodes: highest degree first, then keep the frontier connected."""
    if pattern.number_of_nodes() == 0:
        return []
    remaining = set(pattern.nodes())
    node_order = node_index_table(remaining)
    order: list = []
    # Start from the highest-degree node (ties broken deterministically).
    start = max(remaining, key=lambda n: (pattern.degree(n), node_order[n]))
    order.append(start)
    remaining.remove(start)
    while remaining:
        frontier = [
            node
            for node in remaining
            if any(neighbour in order for neighbour in pattern.neighbors(node))
        ]
        pool = frontier if frontier else list(remaining)
        nxt = max(
            pool,
            key=lambda n: (
                sum(1 for nb in pattern.neighbors(n) if nb in order),
                pattern.degree(n),
                node_order[n],
            ),
        )
        order.append(nxt)
        remaining.remove(nxt)
    return order


class ReferenceContext:
    """The reference's ``_GraphContext``: node order plus cached networkx BFS."""

    def __init__(self, graph: nx.Graph) -> None:
        self.graph = graph
        self.node_order = node_index_table(graph.nodes())
        self._distances: Dict = {}

    def distances_from(self, source):
        """Hop distances from ``source`` (cached per source node)."""
        cached = self._distances.get(source)
        if cached is None:
            cached = nx.single_source_shortest_path_length(self.graph, source)
            self._distances[source] = cached
        return cached


def _complete_placement(circuit, partial, context, previous):
    """Extend a monomorphism over the active qubits to all circuit qubits.

    Inactive qubits prefer to stay where the previous stage left them (when
    that node is still free), then take the free node closest to their old
    position, and finally any free node in a deterministic order.
    """
    graph = context.graph
    node_order = context.node_order
    placement = dict(partial)
    used = set(placement.values())
    free_set = {node for node in graph.nodes() if node not in used}

    unplaced = [q for q in circuit.qubits if q not in placement]
    remaining = []
    if previous is not None:
        for qubit in unplaced:
            old_node = previous.get(qubit)
            if old_node is not None and old_node in free_set:
                placement[qubit] = old_node
                free_set.remove(old_node)
            else:
                remaining.append(qubit)
    else:
        remaining = list(unplaced)

    for qubit in remaining:
        if not free_set:
            raise PlacementError(
                "ran out of physical qubits while completing a placement"
            )
        if previous is not None and previous.get(qubit) in graph:
            distances = context.distances_from(previous[qubit])
            target = min(
                free_set,
                key=lambda node: (
                    distances.get(node, float("inf")),
                    node_order[node],
                ),
            )
        else:
            target = min(free_set, key=node_order.__getitem__)
        placement[qubit] = target
        free_set.remove(target)
    return placement


def _estimate_swap_cost(previous, candidate, context, median_delay):
    """Cheap estimate of the swap-stage runtime between two placements.

    Uses hop distances in the adjacency graph: the stage's depth is at least
    the largest displacement and its work at least the total displacement;
    each layer costs about one SWAP, i.e. three times a typical edge delay.
    """
    max_hops = 0
    total_hops = 0
    for qubit, new_node in candidate.items():
        old_node = previous.get(qubit)
        if old_node is None or old_node == new_node:
            continue
        hops = context.distances_from(old_node).get(new_node)
        if hops is None:  # another component of a disconnected working graph
            return float("inf")
        max_hops = max(max_hops, hops)
        total_hops += hops
    if total_hops == 0:
        return 0.0
    estimated_depth = max_hops + 0.5 * (total_hops - max_hops) / max(
        1, context.graph.number_of_nodes()
    )
    return 3.0 * median_delay * estimated_depth


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"q{i}",
    "tuple": lambda i: (i % 3, f"n{i}"),
    "mixed": lambda i: (i, f"q{i}", (i, "t"))[i % 3],
}


@st.composite
def graphs(draw, min_nodes=1, max_nodes=10, connected=False):
    """Random graphs with shuffled node and edge insertion order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(min_nodes, max_nodes))
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    density = draw(st.sampled_from((0.1, 0.25, 0.45, 0.8)))
    pairs = set()
    if connected:
        pairs.update((rng.randrange(node), node) for node in range(1, size))
    pairs.update(
        (a, b)
        for a in range(size)
        for b in range(a + 1, size)
        if rng.random() < density
    )
    edges = [pair if rng.random() < 0.5 else pair[::-1] for pair in sorted(pairs)]
    rng.shuffle(edges)
    nodes = list(range(size))
    rng.shuffle(nodes)
    graph = nx.Graph()
    graph.add_nodes_from(label(node) for node in nodes)
    graph.add_edges_from((label(a), label(b)) for a, b in edges)
    return graph, rng


CIRCUIT_FAMILIES = ("random", "random-chain", "qft", "cat", "hidden-stage")


@st.composite
def circuit_specs(draw, max_qubits=8):
    family = draw(st.sampled_from(CIRCUIT_FAMILIES))
    qubits = draw(st.integers(2, max_qubits))
    seed = draw(st.integers(0, 99))
    if family in ("random", "random-chain"):
        gates = draw(st.integers(1, 4 * qubits))
        return f"{family}:{qubits}x{gates}x{seed}"
    if family == "hidden-stage":
        return f"hidden-stage:{qubits}x{seed}"
    return f"{family}:{qubits}"


ARCHITECTURES = (
    "grid:2x3", "grid:3x3", "grid:3x4", "grid:4x4",
    "ring:5", "ring:8", "ring:11",
    "heavy-hex:2", "heavy-hex:3",
    "star:4", "star:7",
)

MOLECULE_CIRCUITS = (
    "qft:5", "qft:7", "cat:6", "cat:9", "random:6x18x1", "random:7x21x3",
    "random-chain:6x18x2", "hidden-stage:6x0", "hidden-stage:8x4",
)


def _working_graphs(environment, threshold):
    """The placer's default working graph and, if different, the full one."""
    adjacency = environment.adjacency_graph(threshold)
    if environment.is_connected_at(threshold):
        return [adjacency]
    return [environment.largest_component_graph(threshold), adjacency]


def _extraction_outcome(extract, circuit, host, cap):
    try:
        workspaces = extract(circuit, host, max_two_qubit_gates=cap)
    except PlacementError as error:
        return ("error", type(error).__name__, str(error))
    return [
        (
            ws.index,
            ws.start,
            ws.stop,
            repr(ws.gates),
            repr(list(ws.interaction_graph.nodes())),
            repr(list(ws.interaction_graph.edges())),
            repr([list(nbrs) for nbrs in ws.interaction_graph.adj.values()]),
        )
        for ws in workspaces
    ]


def _assert_extractions_match(circuit, host, caps=CAPS):
    for cap in caps:
        expected = _extraction_outcome(extract_workspaces, circuit, host, cap)
        actual = _extraction_outcome(workspace.extract_workspaces, circuit, host, cap)
        assert actual == expected, (circuit.name, cap)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


class TestExtractionMatchesReference:
    @RELAXED
    @given(circuit_specs(), graphs(), st.sampled_from(CAPS))
    def test_random_hosts(self, spec, drawn, cap):
        host, _ = drawn
        _assert_extractions_match(load_circuit(spec), host, caps=(cap,))

    @RELAXED
    @given(circuit_specs(max_qubits=12), st.sampled_from(ARCHITECTURES))
    def test_lattices(self, spec, architecture):
        environment = load_environment(architecture)
        host = environment.adjacency_graph(environment.minimal_connecting_threshold())
        _assert_extractions_match(load_circuit(spec), host)

    @pytest.mark.parametrize("threshold", PAPER_THRESHOLDS)
    @pytest.mark.parametrize("molecule", sorted(MOLECULE_FACTORIES))
    def test_molecule_working_graphs(self, molecule, threshold):
        environment = MOLECULE_FACTORIES[molecule]()
        for host in _working_graphs(environment, threshold):
            for spec in MOLECULE_CIRCUITS:
                _assert_extractions_match(load_circuit(spec), host)

    def test_witness_answers_probes_without_search(self, monkeypatch):
        # qft:8 on histidine at threshold 200: the reference probes once
        # per new interaction; the witness leaves most probes unsearched.
        circuit = load_circuit("qft:8")
        host = load_environment("histidine").adjacency_graph(200.0)
        probes = []
        embeds = _embeds

        def counting_embeds(*args):
            probes.append(args[0].number_of_edges())
            return embeds(*args)

        monkeypatch.setitem(globals(), "_embeds", counting_embeds)
        expected = _extraction_outcome(extract_workspaces, circuit, host, None)
        monkeypatch.undo()
        before = STATS.snapshot("monomorphism.")
        actual = _extraction_outcome(workspace.extract_workspaces, circuit, host, None)
        searches = STATS.delta_since(before).get("monomorphism.searches", 0)
        assert actual == expected
        assert 0 < searches < len(probes)


class TestPatternOrderMatchesReference:
    @RELAXED
    @given(graphs(min_nodes=0, max_nodes=12))
    def test_random_patterns(self, drawn):
        pattern, rng = drawn
        if pattern.number_of_nodes() and rng.random() < 0.3:
            node = rng.choice(list(pattern.nodes()))
            pattern.add_edge(node, node)
        assert monomorphism._pattern_order(pattern) == _pattern_order(pattern)


# ---------------------------------------------------------------------------
# Completion and the swap-cost estimate
# ---------------------------------------------------------------------------


def _random_injection(rng, keys, nodes, count):
    return dict(zip(rng.sample(keys, count), rng.sample(nodes, count)))


def _completion_outcome(complete, circuit, partial, context, previous):
    try:
        placed = complete(circuit, partial, context, previous)
    except PlacementError as error:
        return ("error", type(error).__name__, str(error))
    return ("placed", repr(list(placed.items())))


def _assert_completion_matches(rng, graph):
    nodes = list(graph.nodes())
    size = len(nodes)
    qubits = [f"v{i}" for i in range(rng.randint(1, size + 1))]
    rng.shuffle(qubits)
    circuit = QuantumCircuit(qubits)
    context = core_placement._GraphContext(graph)
    reference = ReferenceContext(graph)
    median_delay = rng.choice((1.0, 2.5))
    limit = min(len(qubits), size)
    for _ in range(4):
        partial = _random_injection(rng, qubits, nodes, rng.randint(0, limit))
        previous: Optional[Dict] = None
        if rng.random() < 0.8:
            previous = _random_injection(rng, qubits, nodes, rng.randint(0, limit))
        expected = _completion_outcome(
            _complete_placement, circuit, partial, reference, previous
        )
        actual = _completion_outcome(
            core_placement._complete_placement, circuit, partial, context, previous
        )
        assert actual == expected, (partial, previous)
        if expected[0] != "placed" or previous is None:
            continue
        candidate = _complete_placement(circuit, partial, reference, previous)
        for before, after in ((previous, candidate), (candidate, previous)):
            assert core_placement._estimate_swap_cost(
                before, after, context, median_delay
            ) == _estimate_swap_cost(before, after, reference, median_delay)


class TestCompletionMatchesReference:
    @RELAXED
    @given(graphs())
    def test_random_graphs(self, drawn):
        graph, rng = drawn
        _assert_completion_matches(rng, graph)

    @RELAXED
    @given(graphs(min_nodes=2, connected=True))
    def test_connected_graphs(self, drawn):
        graph, rng = drawn
        _assert_completion_matches(rng, graph)

    @pytest.mark.parametrize("threshold", PAPER_THRESHOLDS)
    @pytest.mark.parametrize("molecule", sorted(MOLECULE_FACTORIES))
    def test_molecule_working_graphs(self, molecule, threshold):
        environment = MOLECULE_FACTORIES[molecule]()
        rng = random.Random(f"{molecule}@{threshold}")
        for graph in _working_graphs(environment, threshold):
            for _ in range(10):
                _assert_completion_matches(rng, graph)

    def test_disconnected_estimate_is_infinite(self):
        graph = nx.Graph([("a", "b"), ("c", "d")])
        context = core_placement._GraphContext(graph)
        previous = {"x": "a", "y": "c"}
        candidate = {"x": "d", "y": "c"}
        assert core_placement._estimate_swap_cost(
            previous, candidate, context, 1.0
        ) == float("inf")
        assert _estimate_swap_cost(
            previous, candidate, ReferenceContext(graph), 1.0
        ) == float("inf")

