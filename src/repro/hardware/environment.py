"""Physical environments: weighted graphs of physical qubits.

Definition 1 of the paper: a physical environment (molecule) is a complete
non-oriented graph over a finite set of vertices (nuclei) with non-negative
edge weights.  ``W(v_i, v_j)`` for ``i != j`` is the delay needed to apply a
fixed-angle (90-degree) two-qubit interaction between the two nuclei, and
``W(v_i, v_i)`` is the delay of a fixed-angle single-qubit rotation on that
nucleus.  All delays are expressed in a single *time unit* (the NMR data set
uses ``1e-4`` seconds per unit, matching the paper's tables).

The placement algorithm never works directly on the complete graph; it first
extracts the *adjacency graph* of "fast" interactions, i.e. the pairs whose
delay is at most a chosen ``Threshold`` (see
:mod:`repro.hardware.threshold_graph`).
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.graph import Graph, connected_components
from repro.core.stats import STATS
from repro.exceptions import EnvironmentError_

if TYPE_CHECKING:
    import networkx as nx

Node = Hashable
Pair = Tuple[Node, Node]


def _canonical_pair(a: Node, b: Node) -> Pair:
    """Return an unordered pair in a deterministic canonical order."""
    return (a, b) if repr(a) <= repr(b) else (b, a)


def injective_placements(environment_qubits: int, circuit_qubits: int) -> int:
    """Number of injective placements ``m! / (m - n)!`` (0 when ``n > m``).

    The search-space size of Table 2's last column, shared by
    :meth:`PhysicalEnvironment.search_space_size` and the experiment
    harnesses (which carry the two qubit counts without an environment).
    """
    if circuit_qubits > environment_qubits:
        return 0
    return math.perm(environment_qubits, circuit_qubits)


class PhysicalEnvironment:
    """A complete weighted graph of physical qubits (nuclei).

    Parameters
    ----------
    single_qubit_delays:
        Mapping ``node -> delay`` of a 90-degree single-qubit pulse on each
        nucleus.  The keys define the node set.
    pair_delays:
        Mapping ``(node_a, node_b) -> delay`` of a 90-degree two-qubit
        interaction.  Pairs are unordered; missing pairs fall back to
        ``default_pair_delay``.
    default_pair_delay:
        Delay assumed for pairs without an explicit entry.  ``math.inf``
        (the default) models interactions that are effectively unusable —
        they will never be below any finite threshold, and using them in a
        schedule yields an infinite runtime, which keeps such placements from
        ever being selected.
    name:
        Human-readable environment name used in reports.
    time_unit_seconds:
        Physical duration of one delay unit (``1e-4`` s for the NMR data);
        a positive finite number.
    """

    def __init__(
        self,
        single_qubit_delays: Mapping[Node, float],
        pair_delays: Mapping[Tuple[Node, Node], float],
        default_pair_delay: float = math.inf,
        name: str = "environment",
        time_unit_seconds: float = 1e-4,
    ) -> None:
        if not single_qubit_delays:
            raise EnvironmentError_("an environment needs at least one node")
        self.name = str(name)
        self.time_unit_seconds = float(time_unit_seconds)
        if not 0.0 < self.time_unit_seconds < math.inf:
            raise EnvironmentError_(
                "time_unit_seconds must be a positive finite number, "
                f"got {time_unit_seconds!r}"
            )
        self._nodes: Tuple[Node, ...] = tuple(single_qubit_delays.keys())
        self._node_set: FrozenSet[Node] = frozenset(self._nodes)
        if len(self._node_set) != len(self._nodes):
            raise EnvironmentError_("duplicate node labels in the environment")

        self._single: Dict[Node, float] = {}
        for node, delay in single_qubit_delays.items():
            self._single[node] = self._check_delay(delay, f"node {node!r}")

        self.default_pair_delay = self._check_delay(
            default_pair_delay, "default_pair_delay"
        )

        self._pairs: Dict[Pair, float] = {}
        for (a, b), delay in pair_delays.items():
            if a not in self._node_set or b not in self._node_set:
                raise EnvironmentError_(
                    f"pair ({a!r}, {b!r}) references unknown node(s)"
                )
            if a == b:
                raise EnvironmentError_(
                    f"pair delays must connect distinct nodes, got ({a!r}, {b!r})"
                )
            key = _canonical_pair(a, b)
            if key in self._pairs:
                raise EnvironmentError_(f"duplicate pair delay for {key!r}")
            self._pairs[key] = self._check_delay(delay, f"pair {key!r}")

        # Derived-graph caches, keyed by threshold *signature* — the largest
        # pair delay at or below the threshold — so that two thresholds
        # admitting the same edge set share one cached graph (see
        # ``invalidate_caches``); networkx copies are made on request.
        _SigKey = Tuple[Optional[float], bool]
        self._adjacency_cache: Dict[_SigKey, Graph] = {}
        self._component_cache: Dict[_SigKey, Graph] = {}
        self._connectivity_cache: Dict[_SigKey, bool] = {}
        self._networkx_cache: Dict[Graph, nx.Graph] = {}
        self._pair_matrix_cache: Dict[Tuple[Node, ...], array] = {}
        self._minimal_threshold: Optional[float] = None
        self._delay_values: Optional[List[float]] = None
        self._cache_version = 0

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the derived-graph caches.

        The caches are exact and rebuilt on demand, so dropping them keeps
        worker-bound pickles small (an experiment spec ships the delay
        tables, not hundreds of cached graphs) and guarantees a freshly
        unpickled environment re-derives its graphs locally.
        """
        state = self.__dict__.copy()
        state["_adjacency_cache"] = {}
        state["_component_cache"] = {}
        state["_connectivity_cache"] = {}
        state["_networkx_cache"] = {}
        state["_pair_matrix_cache"] = {}
        state["_minimal_threshold"] = None
        state["_delay_values"] = None
        return state

    @staticmethod
    def _check_delay(delay: float, what: str) -> float:
        value = float(delay)
        if value < 0 or math.isnan(value):
            raise EnvironmentError_(
                f"delay for {what} must be a non-negative number, got {delay!r}"
            )
        return value

    # -- basic queries -------------------------------------------------------

    @property
    def nodes(self) -> Tuple[Node, ...]:
        """The physical qubits, in declaration order."""
        return self._nodes

    @property
    def num_qubits(self) -> int:
        """Number of physical qubits."""
        return len(self._nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._node_set

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PhysicalEnvironment(name={self.name!r}, qubits={self.num_qubits})"
        )

    def single_qubit_delay(self, node: Node) -> float:
        """Delay of a 90-degree single-qubit pulse on ``node``."""
        try:
            return self._single[node]
        except KeyError:
            raise EnvironmentError_(f"unknown node {node!r}") from None

    def pair_delay(self, a: Node, b: Node) -> float:
        """Delay of a 90-degree two-qubit interaction between ``a`` and ``b``."""
        if a == b:
            return self.single_qubit_delay(a)
        if a not in self._node_set or b not in self._node_set:
            raise EnvironmentError_(f"unknown node in pair ({a!r}, {b!r})")
        return self._pairs.get(_canonical_pair(a, b), self.default_pair_delay)

    def weight(self, a: Node, b: Node) -> float:
        """Paper notation ``W(v_i, v_j)``; alias of :meth:`pair_delay`."""
        return self.pair_delay(a, b)

    def explicit_pairs(self) -> Dict[Pair, float]:
        """Pairs with explicitly specified delays (a copy)."""
        return dict(self._pairs)

    def finite_pairs(self) -> Dict[Pair, float]:
        """All pairs with a finite delay, including defaulted ones when finite."""
        return {
            _canonical_pair(a, b): delay
            for a, b, delay in self._pairs_within(sys.float_info.max)
        }

    def _pairs_within(self, limit: float) -> Iterator[Tuple[Node, Node, float]]:
        """Yield ``(a, b, delay)`` for every node pair with ``delay <= limit``.

        Pairs come in declaration order: ``a`` is declared before ``b``,
        ordered by ``a`` then ``b`` — the edge insertion order of every
        derived graph.  Delays are never NaN, so ``limit =
        sys.float_info.max`` selects exactly the finite pairs.  When the
        default delay exceeds ``limit`` only explicit pairs qualify, and
        sorting those by declaration position costs O(n + p log p) for
        ``p`` explicit pairs instead of visiting all ``n(n-1)/2`` node pairs
        (a 1,600-node grid has ~3k couplings against ~1.3M node pairs).
        Otherwise defaulted pairs qualify too, and every pair is visited.
        """
        nodes = self._nodes
        if self.default_pair_delay > limit:
            position = {node: i for i, node in enumerate(nodes)}
            found = []
            for (a, b), delay in self._pairs.items():
                if delay <= limit:
                    i, j = position[a], position[b]
                    found.append((i, j, delay) if i < j else (j, i, delay))
            found.sort()
            for i, j, delay in found:
                yield nodes[i], nodes[j], delay
            return
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                delay = self.pair_delay(a, b)
                if delay <= limit:
                    yield a, b, delay

    # -- derived graphs --------------------------------------------------------

    def _delay_graph(self, name: str, limit: float) -> Graph:
        """All nodes, plus an edge for every pair with ``delay <= limit``."""
        graph = Graph(name=name)
        for node in self._nodes:
            graph.add_node(node, delay=self._single[node])
        for a, b, delay in self._pairs_within(limit):
            graph.add_edge(a, b, delay=delay)
        return graph

    def _networkx(self, graph: Graph) -> nx.Graph:
        """The cached :class:`networkx.Graph` copy of a cached graph."""
        copy = self._networkx_cache.get(graph)
        if copy is None:
            copy = self._networkx_cache[graph] = graph.to_networkx()
        return copy

    def to_networkx(self, include_infinite: bool = False) -> nx.Graph:
        """Full environment graph with ``delay`` edge and node attributes."""
        limit = math.inf if include_infinite else sys.float_info.max
        return self._delay_graph(self.name, limit).to_networkx()

    def threshold_graph(self, threshold: float) -> Graph:
        """Graph of "fast" interactions: pairs whose delay is at most ``threshold``.

        Nodes are always all physical qubits (a node may end up isolated).
        Nodes and edges carry the ``delay`` attribute.  This is the
        :class:`~repro.core.graph.Graph` the placement pipeline works on;
        :meth:`adjacency_graph` is its networkx copy.

        The graph is built once per distinct threshold and cached: a
        threshold sweep placing many circuits at the same thresholds reuses
        one graph object per cell instead of rebuilding it every time.
        Callers must treat the returned graph as read-only; mutate the
        *environment* (``set_pair_delay``, ``set_single_qubit_delay``) or
        call :meth:`invalidate_caches` instead of editing the graph in
        place.
        """
        key = self.threshold_signature(threshold)
        cached = self._adjacency_cache.get(key)
        if cached is not None:
            STATS.increment("environment.adjacency_cache_hits")
            return cached
        STATS.increment("environment.adjacency_cache_misses")
        graph = self._delay_graph(f"{self.name}@{threshold:g}", threshold)
        self._adjacency_cache[key] = graph
        return graph

    def adjacency_graph(self, threshold: float) -> nx.Graph:
        """:meth:`threshold_graph` as a :class:`networkx.Graph` (same read-only contract).

        Built from the cached graph on the first request and cached with
        it, so repeated calls return one object.
        """
        return self._networkx(self.threshold_graph(threshold))

    def threshold_signature(self, threshold: float) -> Tuple[Optional[float], bool]:
        """Canonical cache key for a threshold: the edge set it admits.

        The adjacency graph depends on the threshold only through the set of
        pair delays at or below it, so any two thresholds between the same
        two consecutive delay values produce identical graphs (a threshold
        sweep typically hits far fewer distinct graphs than thresholds).
        The edge set is fully determined by the slowest *explicit* pair
        delay admitted (``None`` when none is) and whether defaulted pairs
        are admitted too.  A NaN threshold raises: it compares false
        against every delay, so no signature describes its edge set.
        """
        if math.isnan(threshold):
            raise EnvironmentError_("threshold must be a number, got nan")
        if self._delay_values is None:
            # Infinite explicit delays stay in the list: threshold=inf admits
            # them, so it must not share a signature with finite thresholds.
            self._delay_values = sorted(set(self._pairs.values()))
        values = self._delay_values
        position = bisect_right(values, threshold)
        explicit = values[position - 1] if position else None
        return (explicit, self.default_pair_delay <= threshold)

    def is_connected_at(self, threshold: float) -> bool:
        """Whether the adjacency graph at ``threshold`` is connected."""
        key = self.threshold_signature(threshold)
        cached = self._connectivity_cache.get(key)
        if cached is not None:
            return cached
        graph = self.threshold_graph(threshold)
        connected = len(next(connected_components(graph))) == graph.number_of_nodes()
        self._connectivity_cache[key] = connected
        return connected

    def threshold_component(self, threshold: float) -> Graph:
        """:meth:`threshold_graph` restricted to its largest connected component.

        Cached per threshold like :meth:`threshold_graph` (same read-only
        contract).  When the graph is connected this *is* the cached
        threshold graph; otherwise it is a one-time copy over the largest
        component (ties go to the component found first, i.e. the one
        holding the earliest declared node, as with
        ``nx.connected_components``), with nodes and edges in the
        environment's declaration order.
        """
        key = self.threshold_signature(threshold)
        cached = self._component_cache.get(key)
        if cached is not None:
            STATS.increment("environment.component_cache_hits")
            return cached
        STATS.increment("environment.component_cache_misses")
        graph = self.threshold_graph(threshold)
        if self.is_connected_at(threshold):
            component = graph
        else:
            component = graph.induced(max(connected_components(graph), key=len))
        self._component_cache[key] = component
        return component

    def largest_component_graph(self, threshold: float) -> nx.Graph:
        """:meth:`threshold_component` as a :class:`networkx.Graph`.

        Cached like :meth:`adjacency_graph`; when the graph is connected
        this is the :meth:`adjacency_graph` object itself.
        """
        return self._networkx(self.threshold_component(threshold))

    def pair_delay_table(self) -> array:
        """Flat row-major ``n x n`` pair-delay matrix over :attr:`nodes`, cached.

        Entry ``i * n + j`` is :meth:`pair_delay` of ``(nodes[i], nodes[j])``
        — the diagonal degenerates to the single-qubit delays, matching the
        scheduler's ``_pair_weight`` for every index pair.  It is keyed by
        the declaration-order node tuple, so every
        :class:`~repro.timing.scheduler.RuntimeEvaluator` built
        against the same calibration shares one table instead of re-running
        the ``O(n^2)`` fill (~524k lookups on a 1024-node grid).  Cached
        next to the threshold-keyed graph caches: recalibration via
        ``set_pair_delay``/``set_single_qubit_delay`` (or a manual
        :meth:`invalidate_caches`) drops it.

        Callers must treat the returned buffer as read-only; the native
        scheduler backend wraps it zero-copy.
        """
        key = self._nodes
        cached = self._pair_matrix_cache.get(key)
        if cached is not None:
            STATS.increment("scheduler.pair_matrix_cache_hits")
            return cached
        STATS.increment("scheduler.pair_matrix_cache_misses")
        count = len(key)
        # Delay tables are sparse on big hosts (a 1024-node grid has ~2k
        # explicit couplings against ~524k node pairs), so prefill the
        # default at C speed and write only the explicit entries: the fill
        # is O(n + pairs), not O(n^2).  ``_pairs`` keys are canonical by
        # construction, so each unordered pair appears exactly once.
        flat = array("d", (self.default_pair_delay,)) * (count * count)
        index = {node: position for position, node in enumerate(key)}
        for node, position in index.items():
            flat[position * count + position] = self._single[node]
        for (node_a, node_b), value in self._pairs.items():
            i = index[node_a]
            j = index[node_b]
            flat[i * count + j] = value
            flat[j * count + i] = value
        self._pair_matrix_cache[key] = flat
        return flat

    def invalidate_caches(self) -> None:
        """Drop every cached derived graph.

        Called automatically by the mutating methods; call it manually after
        any out-of-band change that affects delays.
        """
        self._adjacency_cache.clear()
        self._component_cache.clear()
        self._connectivity_cache.clear()
        self._networkx_cache.clear()
        self._pair_matrix_cache.clear()
        self._minimal_threshold = None
        self._delay_values = None
        self._cache_version += 1

    @property
    def cache_version(self) -> int:
        """Monotonic counter bumped on every invalidation.

        Long-lived consumers that snapshot delay data (e.g.
        :class:`~repro.timing.scheduler.RuntimeEvaluator`) compare this to
        detect that the environment was recalibrated under them.
        """
        return self._cache_version

    # -- calibration updates ---------------------------------------------------

    def set_pair_delay(self, a: Node, b: Node, delay: float) -> None:
        """Update (or introduce) the delay of one interaction pair.

        Recalibration entry point: experimentalists re-measure couplings over
        time; updating through this method keeps the cached adjacency and
        component graphs consistent by invalidating them.
        """
        if a not in self._node_set or b not in self._node_set:
            raise EnvironmentError_(f"unknown node in pair ({a!r}, {b!r})")
        if a == b:
            raise EnvironmentError_(
                f"pair delays must connect distinct nodes, got ({a!r}, {b!r})"
            )
        key = _canonical_pair(a, b)
        self._pairs[key] = self._check_delay(delay, f"pair {key!r}")
        self.invalidate_caches()

    def set_single_qubit_delay(self, node: Node, delay: float) -> None:
        """Update the single-qubit pulse delay of ``node`` (invalidates caches)."""
        if node not in self._node_set:
            raise EnvironmentError_(f"unknown node {node!r}")
        self._single[node] = self._check_delay(delay, f"node {node!r}")
        self.invalidate_caches()

    def minimal_connecting_threshold(self) -> float:
        """Smallest pair delay whose adjacency graph is connected.

        This is the paper's suggested default for ``Threshold``: "the minimal
        value such that the graph associated with fastest interactions is
        connected".  Computed as the bottleneck (minimax) edge of a minimum
        spanning tree over finite pair delays, grown by Kruskal's rule over
        the pair walk as ``nx.minimum_spanning_tree`` grows it, so even the
        sign of a zero bottleneck is networkx's.  Raises if even the full
        finite graph is disconnected.
        """
        if self._minimal_threshold is not None:
            return self._minimal_threshold
        tree = Graph()
        for node in self._nodes:
            tree.add_node(node)
        root = {node: node for node in self._nodes}

        def find(node: Node) -> Node:
            while root[node] != node:
                root[node] = node = root[root[node]]
            return node

        pairs = sorted(self._pairs_within(sys.float_info.max), key=lambda pair: pair[2])
        for a, b, delay in pairs:
            top_a, top_b = find(a), find(b)
            if top_a != top_b:
                root[top_a] = top_b
                tree.add_edge(a, b, delay=delay)
        # A spanning tree has n - 1 edges; a one-node host has no finite pair.
        edges = tree.number_of_edges()
        if edges == 0 or edges < len(self._nodes) - 1:
            raise EnvironmentError_(
                f"environment {self.name!r} has no connected finite-delay graph"
            )
        self._minimal_threshold = max(
            data["delay"] for _, _, data in tree.edges(data=True)
        )
        return self._minimal_threshold

    def delay_values(self) -> List[float]:
        """Sorted list of distinct finite pair delays (useful for sweeps)."""
        return sorted(set(self.finite_pairs().values()))

    # -- transformations -------------------------------------------------------

    def restricted_to(self, nodes: Iterable[Node], name: Optional[str] = None) -> "PhysicalEnvironment":
        """Return the induced sub-environment over ``nodes``."""
        wanted = frozenset(nodes)
        keep = [n for n in self._nodes if n in wanted]
        if not keep:
            raise EnvironmentError_("restriction would produce an empty environment")
        keep_set = set(keep)
        single = {n: self._single[n] for n in keep}
        pairs = {
            pair: delay
            for pair, delay in self._pairs.items()
            if pair[0] in keep_set and pair[1] in keep_set
        }
        return PhysicalEnvironment(
            single,
            pairs,
            default_pair_delay=self.default_pair_delay,
            name=name or f"{self.name}-restricted",
            time_unit_seconds=self.time_unit_seconds,
        )

    def scaled(self, factor: float, name: Optional[str] = None) -> "PhysicalEnvironment":
        """Return a copy with every delay multiplied by ``factor``."""
        if factor <= 0:
            raise EnvironmentError_("scaling factor must be positive")
        single = {n: d * factor for n, d in self._single.items()}
        pairs = {p: d * factor for p, d in self._pairs.items()}
        default = (
            self.default_pair_delay * factor
            if math.isfinite(self.default_pair_delay)
            else self.default_pair_delay
        )
        return PhysicalEnvironment(
            single,
            pairs,
            default_pair_delay=default,
            name=name or f"{self.name}-x{factor:g}",
            time_unit_seconds=self.time_unit_seconds,
        )

    # -- reporting helpers -----------------------------------------------------

    def seconds(self, delay_units: float) -> float:
        """Convert a delay expressed in environment units to seconds."""
        return delay_units * self.time_unit_seconds

    def search_space_size(self, circuit_qubits: int) -> int:
        """Number of injective placements ``m! / (m - n)!`` (Table 2's last column)."""
        return injective_placements(self.num_qubits, circuit_qubits)
