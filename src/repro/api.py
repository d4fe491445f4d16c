"""The unified workload API: a :class:`Session` façade over place/sweep/shard.

One :class:`~repro.config.RunConfig` describes a run; a :class:`Session`
executes it.  The CLI (:mod:`repro.cli`), the examples and the shard
pipeline are thin delegates of this layer, so a run launched from Python,
from flags, from a ``--config run.json`` file or from a shard payload
goes through the same grid construction and produces byte-identical
deterministic output.

Typical use::

    from repro import RunConfig, Session

    cfg = RunConfig(circuit="qft6", environment="trans-crotonic-acid",
                    thresholds=(50, 100, 200))
    result = Session(cfg).sweep()
    print(result.table())          # the Table-3 style row
    print(result.counters)         # aggregated work counters

Results are typed objects (:class:`PlaceResult`, :class:`SweepResult`,
:class:`GridResult`) carrying the outcome rows, the run's aggregated
:data:`~repro.core.stats.STATS` counter delta and (where applicable) the
grid fingerprint — not bare dicts or tuples.  Their ``payload()`` methods
emit exactly the canonical JSON the CLI prints with ``--output json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis import sharding
from repro.analysis.reporting import format_table
from repro.analysis.runner import (
    ExperimentOutcome,
    ExperimentRunner,
    ExperimentSpec,
    ProgressCallback,
)
from repro.analysis.serialization import outcome_to_dict, outcomes_payload
from repro.analysis.sweep import SweepRow, build_sweep_specs, row_from_outcomes
from repro.config import RunConfig
from repro.core.result import PlacementResult
from repro.core.stats import STATS
from repro.exceptions import ConfigError
from repro.hardware.environment import PhysicalEnvironment
from repro.hardware.threshold_graph import PAPER_THRESHOLDS
from repro.registry import load_circuit, load_environment

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.analysis.experiments import Table2Result
    from repro.analysis.scalability import ScalabilityRecord
    from repro.analysis.sweep import SweepCell
    from repro.core.config import PlacementOptions


# ---------------------------------------------------------------------------
# Shared renderers (used by result objects and the CLI merge path)
# ---------------------------------------------------------------------------


def sweep_payload(
    row: SweepRow,
    outcomes: Sequence[ExperimentOutcome],
    counters: Mapping[str, int],
    fingerprint: Optional[str] = None,
) -> Dict[str, Any]:
    """The canonical ``sweep --output json`` payload for one sweep row."""
    payload = outcomes_payload(outcomes, counters=counters)
    payload["circuit"] = row.circuit_name
    payload["environment"] = row.environment_name
    payload["cells"] = [
        {
            "threshold": cell.threshold,
            "feasible": cell.feasible,
            "runtime_seconds": cell.runtime_seconds,
            "num_subcircuits": cell.num_subcircuits,
        }
        for cell in row.cells
    ]
    if fingerprint is not None:
        payload["plan_fingerprint"] = fingerprint
    return payload


def sweep_table_text(row: SweepRow) -> str:
    """The human-readable sweep table for one sweep row."""
    table_rows = [
        [f"threshold {cell.threshold:g}", cell.formatted()] for cell in row.cells
    ]
    return format_table(["threshold", "runtime (subcircuits)"], table_rows,
                        title=f"{row.circuit_name} on {row.environment_name}")


# ---------------------------------------------------------------------------
# Typed results
# ---------------------------------------------------------------------------


@dataclass
class GridResult:
    """An executed spec grid: outcomes in grid order, counters, fingerprint.

    ``counters`` is the run's aggregate :data:`~repro.core.stats.STATS`
    delta; ``fingerprint`` (when computed) is the grid identity of
    :func:`repro.analysis.sharding.grid_fingerprint` — the same value a
    shard plan over these specs would carry.
    """

    config: RunConfig
    outcomes: List[ExperimentOutcome]
    counters: Dict[str, int] = field(default_factory=dict)
    fingerprint: Optional[str] = None

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """The outcomes as JSON-safe row dicts (shared row format)."""
        return [outcome_to_dict(outcome) for outcome in self.outcomes]

    def payload(self) -> Dict[str, Any]:
        """The canonical JSON payload (rows + counters [+ fingerprint])."""
        payload = outcomes_payload(self.outcomes, counters=self.counters)
        if self.fingerprint is not None:
            payload["plan_fingerprint"] = self.fingerprint
        return payload


@dataclass
class PlaceResult:
    """One placed circuit: the outcome row plus the full placement."""

    config: RunConfig
    outcome: ExperimentOutcome
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.outcome.feasible

    @property
    def placement(self) -> Optional[PlacementResult]:
        """The full :class:`PlacementResult` (``None`` for infeasible runs)."""
        return self.outcome.result

    def payload(self) -> Dict[str, Any]:
        """The canonical ``place --output json`` payload."""
        payload = outcomes_payload([self.outcome], counters=self.counters)
        payload["circuit"] = self.config.circuit
        payload["environment"] = self.config.environment
        return payload


@dataclass
class SweepResult:
    """One executed threshold sweep: the Table-3 row plus grid outcomes."""

    config: RunConfig
    row: SweepRow
    outcomes: List[ExperimentOutcome]
    counters: Dict[str, int] = field(default_factory=dict)
    thresholds: Tuple[float, ...] = ()
    fingerprint: Optional[str] = None

    @property
    def cells(self) -> "List[SweepCell]":
        return self.row.cells

    def payload(self) -> Dict[str, Any]:
        """The canonical ``sweep --output json`` payload."""
        return sweep_payload(
            self.row, self.outcomes, self.counters, self.fingerprint
        )

    def table(self) -> str:
        """The human-readable sweep table (exactly the CLI's output)."""
        return sweep_table_text(self.row)


@dataclass
class SweepGrid:
    """The flattened sweep grid of one config, before execution."""

    environment: PhysicalEnvironment
    thresholds: List[float]
    circuit_name: str
    specs: List[ExperimentSpec]
    cell_index: List[int]


# ---------------------------------------------------------------------------
# The façade
# ---------------------------------------------------------------------------


class Session:
    """Execute the run a :class:`RunConfig` describes.

    Parameters
    ----------
    config:
        The run description (a :class:`RunConfig`).
    progress:
        Optional per-cell progress callback forwarded to every
        :class:`~repro.analysis.runner.ExperimentRunner` the session
        builds (see :func:`~repro.analysis.runner.stderr_progress`).
    """

    def __init__(
        self,
        config: RunConfig,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if not isinstance(config, RunConfig):
            raise ConfigError(
                f"Session needs a RunConfig, got {type(config).__name__}; "
                "use Session.from_config() for dicts and file paths"
            )
        self.config = config
        self.progress = progress

    @classmethod
    def from_config(
        cls,
        config: Union[RunConfig, Mapping, str],
        progress: Optional[ProgressCallback] = None,
    ) -> "Session":
        """Build a session from a :class:`RunConfig`, dict, or file path."""
        if isinstance(config, RunConfig):
            return cls(config, progress=progress)
        if isinstance(config, Mapping):
            return cls(RunConfig.from_dict(config), progress=progress)
        if isinstance(config, str):
            return cls(RunConfig.load(config), progress=progress)
        raise ConfigError(
            f"cannot build a Session from {type(config).__name__}; expected "
            "a RunConfig, a mapping, or a config file path"
        )

    # -- building blocks -----------------------------------------------------

    def circuit_factory(self) -> Callable[[], Any]:
        """The picklable circuit factory of this run's circuit spec."""
        return partial(load_circuit, self.config.circuit)

    def environment_factory(self) -> Callable[[], Any]:
        """The picklable environment factory of this run's environment spec."""
        return partial(load_environment, self.config.environment)

    def runner(self) -> ExperimentRunner:
        """An :class:`ExperimentRunner` shaped by this config."""
        return ExperimentRunner(jobs=self.config.jobs, progress=self.progress)

    def run(
        self, specs: Sequence[ExperimentSpec], fingerprint: bool = False
    ) -> GridResult:
        """Execute an arbitrary spec grid under this config's runner."""
        specs = list(specs)
        before = STATS.snapshot()
        outcomes = self.runner().run(specs)
        return GridResult(
            config=self.config,
            outcomes=outcomes,
            counters=STATS.delta_since(before),
            fingerprint=sharding.grid_fingerprint(specs) if fingerprint else None,
        )

    # -- place ---------------------------------------------------------------

    def place(self) -> PlaceResult:
        """Place the configured circuit into the configured environment.

        Runs through the experiment engine so the result row has the same
        shape (and serialisation) as sweep cells and shard outputs; the
        full :class:`~repro.core.result.PlacementResult` is kept on the
        outcome for callers that need stages and mappings.
        """
        spec = ExperimentSpec(
            circuit_factory=self.circuit_factory(),
            environment_factory=self.environment_factory(),
            options=self.config.options,
            label=f"{self.config.circuit}@{self.config.environment}",
            keep_result=True,
        )
        grid = self.run([spec])
        return PlaceResult(
            config=self.config,
            outcome=grid.outcomes[0],
            counters=grid.counters,
        )

    # -- sweep ---------------------------------------------------------------

    def sweep_grid(self) -> SweepGrid:
        """Build the deduplicated sweep grid this config describes.

        Factories are module-level loader partials, so specs — and
        therefore the plan fingerprint — serialise identically in any
        process.
        """
        environment = load_environment(self.config.environment)
        thresholds = [
            float(value)
            for value in (self.config.thresholds or list(PAPER_THRESHOLDS))
        ]
        circuit_factory = self.circuit_factory()
        circuit_name = circuit_factory().name
        specs, cell_index = build_sweep_specs(
            circuit_factory,
            environment,
            self.environment_factory(),
            thresholds,
            self.config.options,
            circuit_name=circuit_name,
        )
        return SweepGrid(
            environment=environment,
            thresholds=thresholds,
            circuit_name=circuit_name,
            specs=specs,
            cell_index=cell_index,
        )

    def sweep(self, grid: Optional[SweepGrid] = None) -> SweepResult:
        """Run the whole threshold sweep and assemble its Table-3 row."""
        grid = grid or self.sweep_grid()
        before = STATS.snapshot()
        outcomes = self.runner().run(grid.specs)
        counters = STATS.delta_since(before)
        row = row_from_outcomes(
            outcomes,
            grid.cell_index,
            grid.thresholds,
            grid.circuit_name,
            grid.environment.name,
        )
        return SweepResult(
            config=self.config,
            row=row,
            outcomes=outcomes,
            counters=counters,
            thresholds=tuple(grid.thresholds),
        )

    # -- shard ---------------------------------------------------------------

    def shard_plan(self, grid: Optional[SweepGrid] = None) -> sharding.ShardPlan:
        """Deal this config's sweep grid out to ``config.shards`` shards.

        The returned plan embeds the config, so shard input files written
        from it are self-describing; run a shard with
        :func:`repro.analysis.sharding.execute_shard`.
        """
        grid = grid or self.sweep_grid()
        return sharding.ShardPlan.build(
            grid.specs, self.config.shards, config=self.config
        )

    # -- table harnesses -----------------------------------------------------

    def table2(
        self, on_result: "Optional[Callable[[Table2Result], None]]" = None
    ) -> "List[Table2Result]":
        """The paper's Table 2 under this config's options and runner."""
        from repro.analysis.experiments import run_table2

        return run_table2(
            options=self.config.options,
            runner=self.runner(),
            on_result=on_result,
        )

    def scalability(
        self,
        qubit_counts: Sequence[int] = (8, 16, 32, 64),
        seed: int = 0,
        options: "Optional[PlacementOptions]" = None,
        on_record: "Optional[Callable[[ScalabilityRecord], None]]" = None,
    ) -> "List[ScalabilityRecord]":
        """The paper's Table 4 chains under this config's runner.

        ``options`` defaults to the harness's tuned
        :data:`~repro.analysis.scalability.SCALABILITY_OPTIONS` (not the
        config's placement options, which target single placements).
        """
        from repro.analysis.scalability import run_scalability_sweep

        return run_scalability_sweep(
            qubit_counts,
            seed=seed,
            options=options,
            runner=self.runner(),
            on_record=on_record,
        )
