"""Threshold sweeps (the paper's Table 3).

For a set of circuits, a molecule, and a list of ``Threshold`` values, run
the placer at each threshold and record the total runtime and the number of
subcircuits, marking combinations that cannot run (disconnected or empty
adjacency graph) as ``N/A`` exactly as the paper does.

Cells are executed through :class:`repro.analysis.runner.ExperimentRunner`,
so a sweep can fan out over worker processes (``jobs=4``) and still return
byte-identical rows to the serial run — pass picklable circuit factories
(module-level functions or ``functools.partial``) when using ``jobs > 1``.

Circuits and environments may also be given as registry spec strings
(``"qft:7"``, ``"trans-crotonic-acid"``, ``"grid:4x4"``; see
:mod:`repro.registry`): string specs resolve through the module-level
loaders, so the resulting grids serialise — and fingerprint — identically
in any process, exactly like the CLI's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.runner import (
    ExperimentRunner,
    ExperimentSpec,
    constant_environment,
)
from repro.config import check_thresholds
from repro.core.config import PlacementOptions
from repro.core.exhaustive import whole_circuit_runtime
from repro.exceptions import ExperimentError
from repro.hardware.environment import PhysicalEnvironment
from repro.hardware.threshold_graph import PAPER_THRESHOLDS
from repro.registry import as_circuit_factory, load_environment

#: A circuit factory, or a registry spec string resolving to one.
CircuitLike = Union[str, Callable]

#: An environment object, or a registry spec string resolving to one.
EnvironmentLike = Union[str, PhysicalEnvironment]


def _coerce_environment(
    environment: EnvironmentLike,
) -> Tuple[PhysicalEnvironment, Callable[[], PhysicalEnvironment]]:
    """The environment object plus its picklable factory.

    Spec strings become ``partial(load_environment, spec)`` factories
    (deterministic across processes); environment objects are wrapped
    with :func:`constant_environment` as before.
    """
    if isinstance(environment, str):
        return load_environment(environment), partial(load_environment, environment)
    return environment, constant_environment(environment)


@dataclass(frozen=True)
class SweepCell:
    """One cell of the sweep: a (circuit, threshold) combination.

    ``runtime_seconds`` and ``num_subcircuits`` are ``None`` when the
    combination is infeasible (the paper's "N/A").
    """

    circuit_name: str
    threshold: float
    runtime_seconds: Optional[float]
    num_subcircuits: Optional[int]

    @property
    def feasible(self) -> bool:
        """Whether the circuit could be placed at this threshold."""
        return self.runtime_seconds is not None

    def formatted(self) -> str:
        """The paper's cell format ``<runtime> sec (<subcircuits>)`` or ``N/A``."""
        if not self.feasible:
            return "N/A"
        return f"{self.runtime_seconds:.4f} sec ({self.num_subcircuits})"


@dataclass
class SweepRow:
    """All thresholds for one circuit on one environment."""

    circuit_name: str
    environment_name: str
    cells: List[SweepCell]

    def best_cell(self) -> Optional[SweepCell]:
        """The feasible cell with the smallest runtime (``None`` if none)."""
        feasible = [cell for cell in self.cells if cell.feasible]
        if not feasible:
            return None
        return min(feasible, key=lambda cell: cell.runtime_seconds)

    def cell_at(self, threshold: float) -> Optional[SweepCell]:
        """The cell at a specific threshold value."""
        for cell in self.cells:
            if cell.threshold == threshold:
                return cell
        return None


def _sweep_specs(
    circuit_factory,
    circuit_name: str,
    environment: PhysicalEnvironment,
    environment_factory,
    thresholds: Sequence[float],
    options: PlacementOptions,
    reuse_equivalent_cells: bool,
) -> Tuple[List[ExperimentSpec], List[int]]:
    """Deduplicated cell specs plus, per threshold, its spec index.

    Two thresholds falling between the same consecutive delay values of the
    environment admit exactly the same fast interactions, so the placer
    would do byte-identical work for both cells (only the reported
    threshold differs); with ``reuse_equivalent_cells`` such cells share one
    spec via the environment's
    :meth:`~repro.hardware.environment.PhysicalEnvironment.threshold_signature`.
    A threshold that is not a positive finite number raises
    :class:`~repro.exceptions.ConfigError` (see
    :func:`repro.config.check_thresholds`).
    """
    check_thresholds(tuple(float(threshold) for threshold in thresholds))
    specs: List[ExperimentSpec] = []
    cell_index: List[int] = []
    memo: Dict = {}
    for position, threshold in enumerate(thresholds):
        signature = (
            environment.threshold_signature(threshold)
            if reuse_equivalent_cells
            else ("cell", position)
        )
        index = memo.get(signature)
        if index is None:
            index = len(specs)
            memo[signature] = index
            specs.append(
                ExperimentSpec(
                    circuit_factory=circuit_factory,
                    environment_factory=environment_factory,
                    threshold=float(threshold),
                    options=options,
                    label=f"{circuit_name}@{environment.name} thr {threshold:g}",
                )
            )
        cell_index.append(index)
    return specs, cell_index


def build_sweep_specs(
    circuit_factory,
    environment: PhysicalEnvironment,
    environment_factory,
    thresholds: Sequence[float],
    options: Optional[PlacementOptions] = None,
    reuse_equivalent_cells: bool = True,
    circuit_name: Optional[str] = None,
) -> Tuple[List[ExperimentSpec], List[int]]:
    """The flattened, deduplicated cell list of one sweep row.

    Public entry point for callers that need the raw grid rather than
    executed rows — the sharding pipeline plans over exactly this list
    (``repro-place shard plan``).  Returns the specs
    plus, for each threshold position, the index of the spec that serves
    it (equivalent thresholds share a spec; see :func:`_sweep_specs`).
    ``environment_factory`` is the picklable factory shipped to workers
    and into shard files; pass one that serialises deterministically
    (e.g. a ``partial`` over a module-level loader) when plans must be
    reproducible across processes.
    """
    return _sweep_specs(
        circuit_factory,
        circuit_name or circuit_factory().name,
        environment,
        environment_factory,
        thresholds,
        options or PlacementOptions(),
        reuse_equivalent_cells,
    )


def row_from_outcomes(
    outcomes,
    cell_index: List[int],
    thresholds: Sequence[float],
    circuit_name: str,
    environment_name: str,
) -> SweepRow:
    """Reassemble a :class:`SweepRow` from executed sweep-grid outcomes.

    The inverse of :func:`build_sweep_specs`: ``outcomes`` holds one
    outcome per spec (grid order — e.g. a merged shard grid) and
    ``cell_index`` fans them back out to the threshold positions.
    """
    return SweepRow(
        circuit_name,
        environment_name,
        _cells_from_outcomes(outcomes, cell_index, thresholds, circuit_name),
    )


def _cells_from_outcomes(
    outcomes, cell_index: List[int], thresholds: Sequence[float], circuit_name: str
) -> List[SweepCell]:
    return [
        SweepCell(
            circuit_name=circuit_name,
            threshold=float(threshold),
            runtime_seconds=outcomes[index].runtime_seconds,
            num_subcircuits=outcomes[index].num_subcircuits,
        )
        for threshold, index in zip(thresholds, cell_index)
    ]


def _run_sweep_grid(
    row_inputs: Sequence[Tuple[str, object, PhysicalEnvironment, object]],
    thresholds: Sequence[float],
    options: PlacementOptions,
    reuse_equivalent_cells: bool,
    jobs: int,
    runner: Optional[ExperimentRunner],
    on_row: Optional[Callable[[SweepRow], None]] = None,
) -> List[SweepRow]:
    """Execute a multi-row sweep grid as one flattened cell list.

    ``row_inputs`` holds one ``(circuit_name, circuit_factory, environment,
    environment_factory)`` tuple per output row.  Flattening before
    execution means a parallel runner interleaves cells of *all* rows on a
    single worker pool instead of paying pool start-up per row.

    With ``on_row``, cells stream through
    :meth:`ExperimentRunner.iter_outcomes` and the callback fires with
    each :class:`SweepRow` the moment its last cell completes — in row
    *completion* order, which for parallel runs need not be input order.
    The returned list is in input order either way.
    """
    all_specs: List[ExperimentSpec] = []
    row_layouts: List[Tuple[str, str, List[int]]] = []
    for circuit_name, circuit_factory, environment, environment_factory in row_inputs:
        specs, cell_index = _sweep_specs(
            circuit_factory,
            circuit_name,
            environment,
            environment_factory,
            thresholds,
            options,
            reuse_equivalent_cells,
        )
        offset = len(all_specs)
        all_specs.extend(specs)
        row_layouts.append(
            (circuit_name, environment.name, [offset + index for index in cell_index])
        )
    runner = runner or ExperimentRunner(jobs=jobs)
    if on_row is None:
        outcomes = runner.run(all_specs)
    else:
        # Per-row countdown of distinct pending cells: O(1) bookkeeping
        # per completed outcome (each spec belongs to exactly one row).
        collected: List[Optional[object]] = [None] * len(all_specs)
        remaining: List[int] = []
        row_of_spec: Dict[int, int] = {}
        for position, (_, _, cell_index) in enumerate(row_layouts):
            distinct = set(cell_index)
            remaining.append(len(distinct))
            for index in distinct:
                row_of_spec[index] = position

        def handle(outcome):
            collected[outcome.index] = outcome
            position = row_of_spec[outcome.index]
            remaining[position] -= 1
            if remaining[position] == 0:
                circuit_name, environment_name, cell_index = row_layouts[position]
                on_row(
                    row_from_outcomes(
                        collected, cell_index, thresholds, circuit_name,
                        environment_name,
                    )
                )

        outcomes = runner.run(all_specs, on_item=handle)
    return [
        row_from_outcomes(
            outcomes, cell_index, thresholds, circuit_name, environment_name
        )
        for circuit_name, environment_name, cell_index in row_layouts
    ]


def sweep_circuit(
    circuit_factory: CircuitLike,
    environment: EnvironmentLike,
    thresholds: Sequence[float] = PAPER_THRESHOLDS,
    options: Optional[PlacementOptions] = None,
    reuse_equivalent_cells: bool = True,
    jobs: int = 1,
    runner: Optional[ExperimentRunner] = None,
    on_row: Optional[Callable[[SweepRow], None]] = None,
) -> SweepRow:
    """Place one circuit at every threshold (fresh circuit per threshold).

    Equivalent thresholds share one placement run by default (see
    :func:`_sweep_specs`); disable ``reuse_equivalent_cells`` to force one
    full run per threshold (e.g. when benchmarking the placer itself).
    With ``jobs > 1`` (or an explicit ``runner``) the deduplicated cells
    execute on worker processes; the row is identical to the serial one.
    """
    circuit_factory = as_circuit_factory(circuit_factory)
    environment, environment_factory = _coerce_environment(environment)
    return _run_sweep_grid(
        [
            (
                circuit_factory().name,
                circuit_factory,
                environment,
                environment_factory,
            )
        ],
        thresholds,
        options or PlacementOptions(),
        reuse_equivalent_cells,
        jobs,
        runner,
        on_row,
    )[0]


def sweep_environment(
    circuit_factories: Iterable[CircuitLike],
    environment: EnvironmentLike,
    thresholds: Sequence[float] = PAPER_THRESHOLDS,
    options: Optional[PlacementOptions] = None,
    reuse_equivalent_cells: bool = True,
    jobs: int = 1,
    runner: Optional[ExperimentRunner] = None,
    on_row: Optional[Callable[[SweepRow], None]] = None,
) -> List[SweepRow]:
    """Sweep several circuits over one environment (one Table 3 block).

    The whole (circuit x threshold) grid is flattened into one cell list
    before execution, so a parallel runner interleaves cells of *all* rows
    instead of running one serial row at a time.  ``on_row`` streams each
    circuit's row as soon as its last cell completes (completion order).
    """
    environment, environment_factory = _coerce_environment(environment)
    return _run_sweep_grid(
        [
            (circuit_factory().name, circuit_factory, environment, environment_factory)
            for circuit_factory in map(as_circuit_factory, circuit_factories)
        ],
        thresholds,
        options or PlacementOptions(),
        reuse_equivalent_cells,
        jobs,
        runner,
        on_row,
    )


def sweep_table(
    circuit_factory: CircuitLike,
    environments: Iterable[EnvironmentLike],
    thresholds: Sequence[float] = PAPER_THRESHOLDS,
    options: Optional[PlacementOptions] = None,
    reuse_equivalent_cells: bool = True,
    jobs: int = 1,
    runner: Optional[ExperimentRunner] = None,
    on_row: Optional[Callable[[SweepRow], None]] = None,
) -> List[SweepRow]:
    """Sweep one circuit over several environments (a full Table 3).

    Like :func:`sweep_environment` but varying the environment instead of
    the circuit, and likewise flattened into a single cell list — one
    parallel run (one worker pool) covers every molecule's row instead of
    paying pool start-up per environment.  ``on_row`` streams each
    environment's row as soon as its last cell completes.
    """
    circuit_factory = as_circuit_factory(circuit_factory)
    circuit_name = circuit_factory().name
    return _run_sweep_grid(
        [
            (circuit_name, circuit_factory) + _coerce_environment(environment)
            for environment in environments
        ],
        thresholds,
        options or PlacementOptions(),
        reuse_equivalent_cells,
        jobs,
        runner,
        on_row,
    )


def whole_circuit_reference(
    circuit_factory,
    environment: PhysicalEnvironment,
    apply_interaction_cap: bool = True,
) -> float:
    """Runtime (seconds) of the optimal whole-circuit placement (no SWAPs).

    This is the last-column reference of Table 3: "circuit runtime with the
    optimal placement when placed without insertion of SWAPs".
    """
    circuit = as_circuit_factory(circuit_factory)()
    if isinstance(environment, str):
        environment = load_environment(environment)
    runtime_units = whole_circuit_runtime(
        circuit, environment, apply_interaction_cap=apply_interaction_cap
    )
    return runtime_units * environment.time_unit_seconds
