"""The quantum circuit placement engine (the paper's primary contribution)."""

from repro.core.config import DEFAULT_OPTIONS, PlacementOptions
from repro.core.exhaustive import (
    hill_climbing_whole_circuit_placement,
    optimal_whole_circuit_placement,
    search_space_size,
    whole_circuit_runtime,
)
from repro.core.monomorphism import (
    count_monomorphisms,
    find_monomorphisms,
    first_monomorphism,
    has_monomorphism,
    iter_monomorphisms,
    verify_monomorphism,
)
from repro.core.placement import place_circuit
from repro.core.result import PlacementResult, StagePlacement, SwapStage
from repro.core.workspace import Workspace, extract_workspaces

__all__ = [
    "place_circuit",
    "PlacementOptions",
    "DEFAULT_OPTIONS",
    "PlacementResult",
    "StagePlacement",
    "SwapStage",
    "Workspace",
    "extract_workspaces",
    "find_monomorphisms",
    "iter_monomorphisms",
    "first_monomorphism",
    "has_monomorphism",
    "count_monomorphisms",
    "verify_monomorphism",
    "optimal_whole_circuit_placement",
    "hill_climbing_whole_circuit_placement",
    "whole_circuit_runtime",
    "search_space_size",
]
