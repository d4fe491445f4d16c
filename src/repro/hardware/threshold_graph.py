"""Threshold selection and adjacency-graph utilities.

The preprocessing step of the paper's heuristic: pick a ``Threshold`` and
declare every interaction whose delay is at most the threshold "fast".  The
fast interactions form the *adjacency graph*; all subcircuit placement and
SWAP routing happens along its edges.

The paper suggests two ways to obtain the threshold: take it from the
experimentalists, or use "the minimal value such that the graph associated
with fastest interactions is connected".  Both are supported here, plus a
sweep helper used by the Table 3 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.core._bitset import canonical_order
from repro.core.graph import connected_components
from repro.exceptions import ThresholdError
from repro.hardware.environment import PhysicalEnvironment

if TYPE_CHECKING:
    import networkx as nx

#: The threshold values swept in Table 3 of the paper.
PAPER_THRESHOLDS: Tuple[float, ...] = (50.0, 100.0, 200.0, 500.0, 1000.0, 10000.0)


@dataclass(frozen=True)
class AdjacencySummary:
    """Summary statistics of an adjacency graph at a given threshold."""

    threshold: float
    num_nodes: int
    num_edges: int
    num_components: int
    is_connected: bool
    max_degree: int

    @property
    def usable(self) -> bool:
        """Whether the graph has at least one edge (any interaction allowed)."""
        return self.num_edges > 0


def adjacency_graph(environment: PhysicalEnvironment, threshold: float) -> nx.Graph:
    """Adjacency graph of ``environment`` at ``threshold`` (delegates to the environment)."""
    return environment.adjacency_graph(threshold)


def summarize(environment: PhysicalEnvironment, threshold: float) -> AdjacencySummary:
    """Compute :class:`AdjacencySummary` for one threshold value."""
    import networkx as nx

    graph = environment.adjacency_graph(threshold)
    num_components = nx.number_connected_components(graph) if graph.number_of_nodes() else 0
    degrees = [d for _, d in graph.degree()]
    return AdjacencySummary(
        threshold=float(threshold),
        num_nodes=graph.number_of_nodes(),
        num_edges=graph.number_of_edges(),
        num_components=num_components,
        is_connected=num_components == 1,
        max_degree=max(degrees) if degrees else 0,
    )


def connectivity_threshold(environment: PhysicalEnvironment) -> float:
    """The minimal threshold at which the adjacency graph is connected."""
    return environment.minimal_connecting_threshold()


def largest_connected_nodes(
    environment: PhysicalEnvironment, threshold: float
) -> List:
    """Nodes of the largest connected component of the adjacency graph.

    When a threshold disconnects the environment (as happens for
    trans-crotonic acid at threshold 50), placement can still proceed inside
    the largest component as long as it holds enough physical qubits.
    """
    graph = environment.threshold_graph(threshold)
    if graph.number_of_edges() == 0:
        raise ThresholdError(
            f"threshold {threshold:g} disallows every interaction of "
            f"{environment.name!r}"
        )
    return canonical_order(environment.threshold_component(threshold).nodes())


def sweep_summaries(
    environment: PhysicalEnvironment,
    thresholds: Sequence[float] = PAPER_THRESHOLDS,
) -> List[AdjacencySummary]:
    """Adjacency summaries across a set of thresholds (in ascending order)."""
    return [summarize(environment, t) for t in sorted(thresholds)]


def usable_thresholds(
    environment: PhysicalEnvironment,
    thresholds: Sequence[float] = PAPER_THRESHOLDS,
    min_component_size: int = 2,
) -> List[float]:
    """Thresholds whose largest component has at least ``min_component_size`` nodes."""
    result = []
    for threshold in thresholds:
        graph = environment.threshold_graph(threshold)
        if graph.number_of_edges() == 0:
            continue
        largest = max(map(len, connected_components(graph)))
        if largest >= min_component_size:
            result.append(float(threshold))
    return result
