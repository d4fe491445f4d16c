"""Configuration options of the placement engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import PlacementError

#: Option fields that must be ``bool`` and those that must be ``int``
#: (never ``bool``): a config file's ``"no"`` or ``2.5`` fails here, not
#: deep inside the placer.
_BOOL_FIELDS = (
    "fine_tuning",
    "lookahead",
    "leaf_override",
    "apply_interaction_cap",
    "sequential_levels",
    "restrict_to_largest_component",
    "reorder_commuting_gates",
    "debug_full_recompute",
)
_INT_FIELDS = ("max_monomorphisms", "fine_tuning_max_rounds", "lookahead_width")


#: The per-run backend option that options objects carried before the
#: scheduler backend became a property of the process
#: (``REPRO_SCHEDULER_BACKEND``); old files and pickles may still hold it.
REMOVED_BACKEND_OPTION = "scheduler_backend"


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class PlacementOptions:
    """Knobs of :func:`repro.core.placement.place_circuit`.

    Attributes
    ----------
    threshold:
        The ``Threshold`` below which an interaction counts as fast.  ``None``
        selects the paper's default: the minimal value at which the fast
        graph is connected.
    max_monomorphisms:
        The paper's ``k``: how many candidate monomorphisms are enumerated
        per workspace (the original implementation used 100).
    fine_tuning:
        Run hill-climbing fine tuning on each workspace placement.
    fine_tuning_max_rounds:
        Maximum hill-climbing sweeps per workspace.
    lookahead:
        Enable the depth-2 lookahead when picking a workspace's placement
        (score = this stage's runtime + incoming swap cost + best next-stage
        runtime + its swap cost).
    lookahead_width:
        How many of the cheapest candidates are combined in the k x k
        lookahead.  Keeps the Python implementation fast; the paper's C++
        code used the full ``k``.
    leaf_override:
        Enable the leaf–target value override heuristic in the SWAP router.
    apply_interaction_cap:
        Cap runs of consecutive two-qubit gates on one pair at three
        interaction uses when computing runtimes (Section 6).
    sequential_levels:
        Use the strict sequential-levels runtime model instead of the default
        asynchronous one.
    restrict_to_largest_component:
        When the threshold disconnects the adjacency graph, confine placement
        to the largest connected component (provided it is big enough).
    reorder_commuting_gates:
        Apply the commutation-aware reordering pass
        (:func:`repro.circuits.commutation.commutation_aware_reorder`) before
        placing — the paper's "further research" direction of using gate
        commutation to obtain a more favourable instance.  The pass only
        exchanges exactly-commuting gates, so the computation is unchanged.
    max_workspace_two_qubit_gates:
        Optional cap on the number of two-qubit gates per workspace.  The
        paper's strategy is greedy-maximal (``None``); a finite cap explores
        the computation-depth vs. swap-depth balance its conclusions mention.
    debug_full_recompute:
        Debug-only: make the incremental cost evaluator verify every
        delta-cost evaluation against a from-scratch scheduling run and
        assert exact equality (on the native backend this additionally
        cross-checks every full evaluation against the pure Python
        reference).  Slows fine tuning down to (worse than) the
        non-incremental speed; useful when auditing scheduler changes.
    placer:
        Placement engine, as a :data:`repro.registry.PLACERS` spec:
        ``"exact"`` (the default — the paper's exhaustive monomorphism
        search, bit-identical to every release before this knob existed),
        ``"greedy"`` (one-shot interaction-weight seeding) or
        ``"anneal"``/``"anneal:SEED"``/``"anneal:SEEDxITERS"`` (the
        deterministic simulated annealer for hosts where exact search is
        infeasible; see ``docs/placers.md``).  Unknown specs raise the
        spec-listing :class:`~repro.exceptions.UnknownSpecError` at
        construction time.
    """

    threshold: Optional[float] = None
    max_monomorphisms: int = 100
    fine_tuning: bool = True
    fine_tuning_max_rounds: int = 10
    lookahead: bool = True
    lookahead_width: int = 8
    leaf_override: bool = True
    apply_interaction_cap: bool = True
    sequential_levels: bool = False
    restrict_to_largest_component: bool = True
    reorder_commuting_gates: bool = False
    max_workspace_two_qubit_gates: Optional[int] = None
    debug_full_recompute: bool = False
    placer: str = "exact"

    def __post_init__(self) -> None:
        for name in _BOOL_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise PlacementError(
                    f"{name} must be a bool, got {getattr(self, name)!r}"
                )
        for name in _INT_FIELDS:
            if not _is_int(getattr(self, name)):
                raise PlacementError(
                    f"{name} must be an integer, got {getattr(self, name)!r}"
                )
        if self.threshold is not None and (
            isinstance(self.threshold, bool)
            or not isinstance(self.threshold, (int, float))
        ):
            raise PlacementError(
                f"threshold must be a number (or None), got {self.threshold!r}"
            )
        if self.max_workspace_two_qubit_gates is not None and not _is_int(
            self.max_workspace_two_qubit_gates
        ):
            raise PlacementError(
                "max_workspace_two_qubit_gates must be an integer (or None), "
                f"got {self.max_workspace_two_qubit_gates!r}"
            )
        if not isinstance(self.placer, str) or not self.placer:
            raise PlacementError(
                f"placer must be a non-empty spec string, got {self.placer!r}"
            )
        if self.placer != "exact":
            # The default short-circuits the registry lookup: validating it
            # would import repro.core.placers -> repro.core.placement ->
            # this module while DEFAULT_OPTIONS below is still being built.
            from repro.registry import PLACERS

            PLACERS.validate(self.placer)
        if self.max_monomorphisms < 1:
            raise PlacementError("max_monomorphisms must be at least 1")
        if self.lookahead_width < 1:
            raise PlacementError("lookahead_width must be at least 1")
        if self.fine_tuning_max_rounds < 0:
            raise PlacementError("fine_tuning_max_rounds must be non-negative")
        if self.threshold is not None and not self.threshold > 0:
            # ``not > 0`` rather than ``<= 0``: NaN fails every comparison.
            raise PlacementError(
                f"threshold must be positive, got {self.threshold!r}"
            )
        if (
            self.max_workspace_two_qubit_gates is not None
            and self.max_workspace_two_qubit_gates < 1
        ):
            raise PlacementError("max_workspace_two_qubit_gates must be at least 1")

    def __setstate__(self, state: dict) -> None:
        # Shard-input files planned before the backend option was removed
        # pickle it.  It never chose a backend there (specs were planned
        # on "auto" and ``shard run`` took its own flag), so it is dropped
        # whatever it holds.
        state = dict(state)
        state.pop(REMOVED_BACKEND_OPTION, None)
        self.__dict__.update(state)

    def replace(self, **changes) -> "PlacementOptions":
        """Return a copy with some fields changed."""
        from dataclasses import replace as dataclass_replace

        return dataclass_replace(self, **changes)


#: Default options (the configuration used throughout the paper's evaluation).
DEFAULT_OPTIONS = PlacementOptions()
