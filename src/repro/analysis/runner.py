"""Deterministic experiment execution engine (serial or multi-process).

Every experiment grid in this repository — the Table 3 threshold sweeps,
the Table 2 reconstruction, the Table 4 scalability chains — is an
embarrassingly parallel list of independent *cells*: place one circuit
into one environment at one threshold.  This module gives all of them one
task-graph abstraction instead of three hand-rolled serial loops:

:class:`ExperimentSpec`
    One picklable cell: a circuit factory, an environment factory, an
    optional threshold override and :class:`~repro.core.config.PlacementOptions`.
    Factories must be picklable for multi-process runs — module-level
    functions, :func:`functools.partial` over module-level functions, or
    :func:`constant_environment` wrappers all qualify; lambdas do not.

:class:`ExperimentRunner`
    Executes a cell list either serially (``jobs=1``, in-process, no
    pickling) or on a ``concurrent.futures.ProcessPoolExecutor`` whose
    workers call each spec's factories exactly as the serial loop does.
    The parallel path preserves two invariants the experiment harnesses
    rely on:

    * **deterministic result ordering** — :meth:`ExperimentRunner.run`
      returns outcomes in spec order regardless of worker completion
      order;
    * **counter aggregation** — each cell's :data:`repro.core.stats.STATS`
      delta is measured inside the worker, shipped back with the outcome
      and merged into the parent registry, so the coordinating process
      reports the whole run's search/cache counters instead of silently
      reporting only its own share.

Because the placement pipeline is hash-seed deterministic end to end (see
``docs/parallelism.md``), a grid executed at ``jobs=4`` produces
byte-identical deterministic fields to the same grid at ``jobs=1`` — wall
times (:attr:`ExperimentOutcome.software_runtime_seconds`) are the only
machine-dependent fields.

A grid executes one way: :meth:`ExperimentRunner.iter_outcomes` yields
outcomes as cells complete, so harnesses can render rows incrementally,
and :meth:`ExperimentRunner.run` collects that stream in spec order.  The
sharding layer (:mod:`repro.analysis.sharding`) streams each shard's
cells through the same :meth:`~ExperimentRunner.iter_outcomes`.

The scheduler's evaluation backend is likewise an execution detail and a
property of the process: worker processes inherit the parent's
``REPRO_SCHEDULER_BACKEND`` environment variable.  Backends are
bit-identical (see ``docs/performance.md``), so it changes no outcome.

A cell that raises :class:`~repro.exceptions.ThresholdError` or
:class:`~repro.exceptions.PlacementError` is an infeasible ("N/A")
outcome; any other exception propagates out of the grid.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import benchmark_circuit
from repro.core.config import PlacementOptions
from repro.core.placement import place_circuit
from repro.core.result import PlacementResult
from repro.core.stats import STATS
from repro.exceptions import ExperimentError, PlacementError, ThresholdError
from repro.hardware.environment import PhysicalEnvironment
from repro.hardware.molecules import molecule
from repro.timing._replay import backend_from_env

#: Signature of the progress callback: ``(completed, total, outcome)``.
ProgressCallback = Callable[[int, int, "ExperimentOutcome"], None]


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of an experiment grid.

    Attributes
    ----------
    circuit_factory:
        Zero-argument callable building a fresh :class:`QuantumCircuit`.
    environment_factory:
        Zero-argument callable building (or returning) the
        :class:`PhysicalEnvironment`; every cell calls it, in-process or
        in a worker.
    threshold:
        Optional threshold override; when set, the cell runs with
        ``options.replace(threshold=threshold)``.
    options:
        Placement options for the cell (defaults to ``PlacementOptions()``).
    label:
        Free-form cell label carried through to the outcome (for progress
        display and reports).
    keep_result:
        Ship the full :class:`PlacementResult` back with the outcome.  Off
        by default: sweeps only need the scalar summary, and pickling whole
        placement results out of workers is the dominant IPC cost.
    """

    circuit_factory: Callable[[], QuantumCircuit]
    environment_factory: Callable[[], PhysicalEnvironment]
    threshold: Optional[float] = None
    options: Optional[PlacementOptions] = None
    label: str = ""
    keep_result: bool = False

    def resolved_options(self) -> PlacementOptions:
        """The cell's effective placement options."""
        options = self.options or PlacementOptions()
        if self.threshold is not None:
            options = options.replace(threshold=self.threshold)
        return options


@dataclass
class ExperimentOutcome:
    """Result of one executed cell, in the order fields become known.

    ``feasible`` is ``False`` when placement raised a
    :class:`~repro.exceptions.ThresholdError` or
    :class:`~repro.exceptions.PlacementError` (the paper's "N/A" cells);
    ``error`` then carries the message and ``error_type`` the exception
    class name, so harnesses that treated those exceptions as fatal can
    re-raise via :meth:`raise_if_infeasible`.  ``software_runtime_seconds``
    is the cell's wall time (machine-dependent); every other field is
    deterministic.
    """

    index: int
    label: str
    feasible: bool
    runtime_seconds: Optional[float]
    num_subcircuits: Optional[int]
    circuit_name: str = ""
    num_gates: int = 0
    num_qubits: int = 0
    environment_name: str = ""
    environment_qubits: int = 0
    error: Optional[str] = None
    error_type: Optional[str] = None
    software_runtime_seconds: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    result: Optional[PlacementResult] = None

    def raise_if_infeasible(self, with_context: bool = True) -> "ExperimentOutcome":
        """Re-raise the cell's placement error (no-op for feasible cells).

        Restores throw-on-failure semantics for harnesses where an
        infeasible cell is a caller mistake rather than an expected "N/A"
        (Table 2 and the scalability chains, as opposed to sweeps).  With
        ``with_context`` the message names the failed cell; without it the
        original error message is re-raised verbatim (the CLI's ``place``
        uses this to keep its stderr identical to a direct
        :func:`~repro.core.placement.place_circuit` call).
        """
        if self.feasible:
            return self
        import repro.exceptions as exceptions_module

        exception_class = getattr(
            exceptions_module, self.error_type or "", PlacementError
        )
        if with_context:
            message = (
                f"experiment cell {self.label or self.index!r} failed: "
                f"{self.error}"
            )
        else:
            message = self.error or "placement infeasible"
        raise exception_class(message)


# ---------------------------------------------------------------------------
# Picklable factory helpers
# ---------------------------------------------------------------------------


class _ConstantEnvironmentFactory:
    """Wrap an existing environment object as a picklable factory."""

    def __init__(self, environment: PhysicalEnvironment) -> None:
        self.environment = environment

    def __call__(self) -> PhysicalEnvironment:
        return self.environment


def constant_environment(
    environment: PhysicalEnvironment,
) -> Callable[[], PhysicalEnvironment]:
    """A picklable factory returning an already-built environment.

    Use this to build specs from an environment object you already hold
    (the back-compat path of :func:`repro.analysis.sweep.sweep_circuit`).
    The environment itself must be picklable; its derived-graph caches are
    dropped in transit (see ``PhysicalEnvironment.__getstate__``).
    """
    if isinstance(environment, _ConstantEnvironmentFactory):  # pragma: no cover
        return environment
    return _ConstantEnvironmentFactory(environment)


def benchmark_circuit_factory(name: str) -> Callable[[], QuantumCircuit]:
    """Picklable factory for a named benchmark circuit."""
    return partial(benchmark_circuit, name)


def molecule_factory(name: str) -> Callable[[], PhysicalEnvironment]:
    """Picklable factory for a named molecule environment."""
    return partial(molecule, name)


# ---------------------------------------------------------------------------
# Cell execution (runs in workers for parallel grids)
# ---------------------------------------------------------------------------


def _execute_cell(payload: Tuple[int, ExperimentSpec]) -> ExperimentOutcome:
    """Run one cell and package its outcome (module-level: picklable)."""
    index, spec = payload
    circuit = spec.circuit_factory()
    environment = spec.environment_factory()
    before = STATS.snapshot()
    start = time.perf_counter()
    feasible = True
    error: Optional[str] = None
    result: Optional[PlacementResult] = None
    runtime_seconds: Optional[float] = None
    num_subcircuits: Optional[int] = None
    try:
        result = place_circuit(circuit, environment, spec.resolved_options())
        runtime_seconds = result.runtime_seconds
        num_subcircuits = result.num_subcircuits
    except (ThresholdError, PlacementError) as exc:
        feasible = False
        error = str(exc)
        error_type = type(exc).__name__
        result = None
    else:
        error_type = None
    elapsed = time.perf_counter() - start
    return ExperimentOutcome(
        index=index,
        label=spec.label,
        feasible=feasible,
        runtime_seconds=runtime_seconds,
        num_subcircuits=num_subcircuits,
        circuit_name=circuit.name,
        num_gates=circuit.num_gates,
        num_qubits=circuit.num_qubits,
        environment_name=environment.name,
        environment_qubits=environment.num_qubits,
        error=error,
        error_type=error_type,
        software_runtime_seconds=elapsed,
        counters=STATS.delta_since(before),
        result=result if spec.keep_result else None,
    )


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class ExperimentRunner:
    """Execute a list of :class:`ExperimentSpec` cells, serially or in parallel.

    Parameters
    ----------
    jobs:
        Number of worker processes.  ``1`` (the default) runs in-process
        with zero pickling — exactly the old serial loops.  Values above 1
        use a ``ProcessPoolExecutor`` (never more workers than cells).
    progress:
        Optional callback invoked after every completed cell with
        ``(completed_count, total, outcome)``.  In parallel runs it fires
        in completion order (which is nondeterministic); the *returned*
        outcome list is always in spec order.

    The ``REPRO_SCHEDULER_BACKEND`` environment variable, which every
    cell's evaluator reads, is validated here, so an invalid value is
    refused before any cell runs.
    """

    def __init__(
        self,
        jobs: int = 1,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be at least 1, got {jobs}")
        # Cells read the variable only once they run; an invalid value
        # must fail here, not inside every cell.
        backend_from_env()
        self.jobs = int(jobs)
        self.progress = progress

    def run(
        self,
        specs: Sequence[ExperimentSpec],
        build: Optional[Callable[[ExperimentOutcome], object]] = None,
        on_item: Optional[Callable[[object], None]] = None,
    ) -> List:
        """Execute every cell and return the results in spec order.

        Collects :meth:`iter_outcomes`: each outcome is passed through
        ``build`` (identity when ``None``) as soon as its cell completes —
        completion order for parallel runs — ``on_item`` fires with the
        built item, and the returned list is re-assembled in spec order
        via ``outcome.index``.
        """
        specs = list(specs)
        results: List = [None] * len(specs)
        for outcome in self.iter_outcomes(specs):
            item = build(outcome) if build is not None else outcome
            results[outcome.index] = item
            if on_item is not None:
                on_item(item)
        return results

    def iter_outcomes(
        self, specs: Sequence[ExperimentSpec]
    ) -> Iterator[ExperimentOutcome]:
        """Stream outcomes as cells complete (the ``as_completed`` front end).

        Yields every cell's outcome as soon as it is available — in spec
        order for serial runs, in completion order for parallel runs
        (``outcome.index``, the cell's position in ``specs``, identifies
        it either way).  The ``progress`` callback, if any, fires once per
        yielded outcome.  Cells run in-process when ``jobs`` is 1 or the
        grid has a single cell, and on the process pool otherwise.
        """
        specs = list(specs)
        if not specs:
            return
        if self.jobs == 1 or len(specs) == 1:
            yield from self._iter_serial(specs)
        else:
            yield from self._iter_parallel(specs)

    # -- serial ---------------------------------------------------------------

    def _iter_serial(
        self, specs: List[ExperimentSpec]
    ) -> Iterator[ExperimentOutcome]:
        total = len(specs)
        for index, spec in enumerate(specs):
            outcome = _execute_cell((index, spec))
            if self.progress is not None:
                self.progress(index + 1, total, outcome)
            yield outcome

    # -- parallel -------------------------------------------------------------

    def _check_picklable(self, specs: List[ExperimentSpec]) -> None:
        try:
            pickle.dumps(specs)
            return
        except Exception:  # repro: allow[ROB002]
            # Deliberate: the batch probe only decides whether to fall back to
            # the per-spec probe below, which names the culprit and raises.
            pass
        # Re-check cell by cell only to name the culprit in the error.
        for spec in specs:
            try:
                pickle.dumps(spec)
            except Exception as exc:
                raise ExperimentError(
                    f"experiment cell {spec.label or spec!r} cannot be pickled "
                    f"for multi-process execution ({exc}); use module-level "
                    "factories, functools.partial, or constant_environment(), "
                    "or run with jobs=1"
                ) from exc

    def _iter_parallel(
        self, specs: List[ExperimentSpec]
    ) -> Iterator[ExperimentOutcome]:
        total = len(specs)
        self._check_picklable(specs)
        with ProcessPoolExecutor(max_workers=min(self.jobs, total)) as pool:
            pending = {
                pool.submit(_execute_cell, (index, spec))
                for index, spec in enumerate(specs)
            }
            completed = 0
            try:
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        outcome = future.result()
                        # Worker counters fold into the parent registry;
                        # addition commutes, so the aggregate is
                        # completion-order free.
                        STATS.merge(outcome.counters)
                        completed += 1
                        if self.progress is not None:
                            self.progress(completed, total, outcome)
                        yield outcome
            finally:
                # Abandoned mid-grid (consumer break, or an exception in a
                # streaming callback): cancel the cells that have not
                # started so pool shutdown waits only for in-flight ones,
                # and fold in the counters of cells that did run anyway —
                # work performed must never vanish from the registry.
                if pending:
                    for future in pending:
                        future.cancel()
                    done, _ = wait(pending)
                    for future in done:
                        if future.cancelled():
                            continue
                        try:
                            outcome = future.result()
                        except Exception:  # pragma: no cover  # repro: allow[ROB002]
                            continue
                        STATS.merge(outcome.counters)


def run_experiments(
    specs: Sequence[ExperimentSpec],
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> List[ExperimentOutcome]:
    """Convenience wrapper: ``ExperimentRunner(jobs, progress).run(specs)``."""
    return ExperimentRunner(jobs=jobs, progress=progress).run(specs)


def stderr_progress(prefix: str = "cell", stream=None):
    """A progress callback printing one line per completed cell.

    Reports ``completed/total`` plus the run's aggregate throughput in
    cells per second (measured from the callback's creation, so create it
    immediately before the run).  Lines are flushed explicitly: under a
    ``ProcessPoolExecutor`` the parent process can sit in ``wait()`` for
    long stretches, and unflushed progress would otherwise appear in
    bursts (or not at all when stderr is a pipe) — streaming mode is only
    observable if every completed cell is visible immediately.
    """
    import sys
    import time

    start = time.perf_counter()

    def callback(completed: int, total: int, outcome: ExperimentOutcome) -> None:
        out = stream if stream is not None else sys.stderr
        elapsed = max(time.perf_counter() - start, 1e-9)
        status = "ok" if outcome.feasible else "N/A"
        label = outcome.label or outcome.circuit_name
        print(
            f"{prefix} {completed}/{total}: {label} [{status}, "
            f"{outcome.software_runtime_seconds:.2f}s] "
            f"({completed / elapsed:.2f} cells/s)",
            file=out,
            flush=True,
        )

    return callback
