"""Configuration options of the placement engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import PlacementError
from repro.timing._replay import BACKEND_CHOICES


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
    scheduler_backend:
        Evaluation backend of the scheduler's
        :class:`~repro.timing.scheduler.RuntimeEvaluator`: ``"python"``
        (the reference loop), ``"native"`` (the C kernel compiled on
        demand; requires a C compiler at first use) or ``"auto"`` (the
        default — defer to the ``REPRO_SCHEDULER_BACKEND`` environment
        variable, then pick native whenever its kernel builds, else
        python).  Backends are bit-identical, so this knob never changes
        any placement output.
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
    scheduler_backend: str = "auto"
    placer: str = "exact"

    def __post_init__(self) -> None:
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
        if self.scheduler_backend not in BACKEND_CHOICES:
            raise PlacementError(
                f"scheduler_backend must be one of {BACKEND_CHOICES}, "
                f"got {self.scheduler_backend!r}"
            )
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

    def replace(self, **changes) -> "PlacementOptions":
        """Return a copy with some fields changed."""
        from dataclasses import replace as dataclass_replace

        return dataclass_replace(self, **changes)


#: Default options (the configuration used throughout the paper's evaluation).
DEFAULT_OPTIONS = PlacementOptions()
