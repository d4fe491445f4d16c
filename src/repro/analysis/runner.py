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
    pickling) or on a ``concurrent.futures.ProcessPoolExecutor``.  The
    parallel path preserves three invariants the experiment harnesses rely
    on:

    * **deterministic result ordering** — outcomes are returned in spec
      order regardless of worker completion order;
    * **per-worker environment-cache warmup** — each worker instantiates
      every distinct environment once (keyed by the spec's environment
      factory) and pre-builds its adjacency graphs at the grid's
      thresholds, so per-cell work inside a worker hits warm caches just
      like the serial loop does;
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

Two fronts extend the runner beyond one blocking local call:

* **streaming** — :meth:`ExperimentRunner.iter_outcomes` yields outcomes
  as cells complete, so harnesses can render rows incrementally;
* **sharding** — :meth:`ExperimentRunner.run` itself is the degenerate
  one-shard case of the plan → execute → merge pipeline in
  :mod:`repro.analysis.sharding`, which splits a grid into shards that
  execute on any host and merge back bit-identically.

The scheduler's evaluation backend is likewise an execution detail: cells
carry it in their :class:`~repro.core.config.PlacementOptions`
(``scheduler_backend``), worker processes inherit the
``REPRO_SCHEDULER_BACKEND`` environment variable for cells left on
``"auto"``, and :class:`ExperimentRunner` can force one backend for a whole
grid (``scheduler_backend=...``).  Backends are bit-identical (see
``docs/performance.md``), so none of these choices changes any outcome.

Fault tolerance is opt-in: construct the runner with a
:class:`~repro.analysis.resilience.RetryPolicy` (``retry_policy=...``) —
or install a test-only fault injector — and execution switches to the
resilient path in :mod:`repro.analysis.resilience`, which isolates every
attempt in its own process so failing cells retry, hung cells time out,
and exhausted cells degrade to structured
:class:`~repro.analysis.resilience.FailedOutcome` rows.  Without either,
the serial/pool paths below run exactly as before.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import benchmark_circuit
from repro.core.config import PlacementOptions
from repro.core.placement import place_circuit
from repro.core.result import PlacementResult
from repro.core.stats import STATS
from repro.exceptions import ExperimentError, PlacementError, ThresholdError
from repro.hardware.environment import PhysicalEnvironment
from repro.hardware.molecules import molecule
from repro.timing._replay import BACKEND_CHOICES, backend_from_env

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
        :class:`PhysicalEnvironment`.  Workers cache the built environment
        per factory (see :func:`environment_cache_key`), so all cells of a
        grid sharing one factory share one environment object — and its
        threshold-graph caches — within each worker process.
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


class _EnvironmentRef:
    """Worker-side stand-in for an environment registered by the initializer.

    Parallel runs ship each distinct constant environment to every worker
    exactly once (through the pool initializer); the per-cell specs then
    carry this reference — just a token — instead of re-pickling the whole
    delay table with every submitted cell.
    """

    __slots__ = ("key",)

    def __init__(self, key: Hashable) -> None:
        self.key = key

    def __call__(self) -> PhysicalEnvironment:
        environment = _ENVIRONMENT_CACHE.get(self.key)
        if environment is None:  # pragma: no cover - initializer always runs first
            raise ExperimentError(
                f"environment reference {self.key!r} is not registered in this "
                "process; references are only valid inside ExperimentRunner "
                "worker processes"
            )
        return environment


class _ConstantEnvironmentFactory:
    """Wrap an existing environment object as a picklable factory.

    The wrapper remembers a stable ``token`` minted in the parent process,
    so every pickled copy of the same wrapper compares (and hashes) equal;
    parallel runs use the token to ship the environment once per worker
    (see :class:`_EnvironmentRef`) and to share it — caches and all —
    across every cell of the grid (see :func:`environment_cache_key`).
    """

    __slots__ = ("environment", "token")

    _tokens = itertools.count()

    def __init__(self, environment: PhysicalEnvironment) -> None:
        self.environment = environment
        self.token = (environment.name, next(self._tokens))

    def __call__(self) -> PhysicalEnvironment:
        return self.environment

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _ConstantEnvironmentFactory):
            return NotImplemented
        return self.token == other.token

    def __hash__(self) -> int:
        return hash(self.token)

    def __getstate__(self) -> Tuple[PhysicalEnvironment, Tuple]:
        return (self.environment, self.token)

    def __setstate__(self, state: Tuple[PhysicalEnvironment, Tuple]) -> None:
        self.environment, self.token = state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"constant_environment({self.environment!r})"


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


def environment_cache_key(
    factory: Callable[[], PhysicalEnvironment],
) -> Optional[Hashable]:
    """Worker-side cache key for a spec's environment factory.

    Module-level functions hash by identity (stable across pickling, since
    they are pickled by reference), ``functools.partial`` objects are keyed
    by their function and arguments, and :func:`constant_environment`
    wrappers carry an explicit token.  Unhashable factories (or partials
    over unhashable arguments) return ``None`` — their cells build a fresh
    environment each time.
    """
    if isinstance(factory, _EnvironmentRef):
        return factory.key
    if isinstance(factory, _ConstantEnvironmentFactory):
        # The token, not the wrapper object: _EnvironmentRef cells and the
        # initializer's registration must resolve to the same cache slot.
        return factory.token
    if isinstance(factory, partial):
        try:
            key = (
                factory.func,
                factory.args,
                tuple(sorted(factory.keywords.items())),
            )
            # Hashability probe for a worker-local dict key; the key never
            # leaves the process or reaches a serialised payload.
            hash(key)  # repro: allow[DET003]
            return key
        except TypeError:
            return None
    try:
        hash(factory)  # repro: allow[DET003]
    except TypeError:
        return None
    return factory


# ---------------------------------------------------------------------------
# Cell execution (runs in workers for parallel grids)
# ---------------------------------------------------------------------------

#: Per-worker environment instances, keyed by :func:`environment_cache_key`.
#: Only populated inside pool workers (see ``_in_worker``): there, each
#: cell's spec arrives as its own unpickled copy, so keying by factory lets
#: all cells of a grid share one environment — and its warm caches — per
#: worker.  The parent/serial path calls factories directly instead: its
#: factories already return the caller's own objects, and caching them here
#: would grow an unbounded registry across harness calls in long-lived
#: processes.
_ENVIRONMENT_CACHE: Dict[Hashable, PhysicalEnvironment] = {}

_in_worker = False


def _environment_for(spec: ExperimentSpec) -> PhysicalEnvironment:
    if not _in_worker:
        return spec.environment_factory()
    key = environment_cache_key(spec.environment_factory)
    if key is None:
        return spec.environment_factory()
    environment = _ENVIRONMENT_CACHE.get(key)
    if environment is None:
        environment = spec.environment_factory()
        _ENVIRONMENT_CACHE[key] = environment
    return environment


def _execute_cell(payload: Tuple[int, ExperimentSpec]) -> ExperimentOutcome:
    """Run one cell and package its outcome (module-level: picklable)."""
    index, spec = payload
    circuit = spec.circuit_factory()
    environment = _environment_for(spec)
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


def _initialize_worker(
    entries: Sequence[Tuple[Callable[[], PhysicalEnvironment], Tuple[Optional[float], ...]]],
    warm_graphs: bool,
) -> None:
    """Process-pool initializer: register environments, pre-build hot caches.

    Runs once per worker before any cell.  Registration makes every keyed
    environment available to cells that carry only an
    :class:`_EnvironmentRef`; with ``warm_graphs`` the adjacency (and
    largest-component) graphs are built too, so the first cell a worker
    receives behaves like a mid-sweep cell in the serial loop — warm
    caches, same counters-per-cell profile across workers.
    """
    global _in_worker
    # Deliberate per-worker state: the flag and the environment cache are
    # each process's private warm-up, never merged back — outcomes flow
    # through return values and STATS deltas only.
    _in_worker = True  # repro: allow[PAR002]
    for factory, thresholds in entries:
        key = environment_cache_key(factory)
        if key is None:
            continue
        environment = _ENVIRONMENT_CACHE.get(key)
        if environment is None:
            environment = factory()
            _ENVIRONMENT_CACHE[key] = environment  # repro: allow[PAR002]
        if not warm_graphs:
            continue
        for threshold in thresholds:
            try:
                value = (
                    environment.minimal_connecting_threshold()
                    if threshold is None
                    else threshold
                )
                environment.adjacency_graph(value)
                environment.largest_component_graph(value)
            except Exception:  # repro: allow[ROB002]
                # Warmup is best-effort: an infeasible threshold fails again
                # (and is reported) when its cell actually runs.
                continue


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
    warmup:
        Pre-build per-worker environment caches before the first cell
        (parallel runs only; the serial path warms caches naturally).
    scheduler_backend:
        When set (``"auto"``/``"python"``/``"native"``), override every
        cell's ``options.scheduler_backend`` for this run — the
        whole-grid equivalent of the CLI's ``--scheduler-backend``.
        Outcomes are bit-identical across backends, so this only affects
        wall time.  The ``REPRO_SCHEDULER_BACKEND`` environment variable
        that cells left on ``"auto"`` inherit is validated here too, so
        an invalid value is refused before any cell runs.
    retry_policy:
        Optional :class:`~repro.analysis.resilience.RetryPolicy`.  When
        set (and not a no-op), cells execute on the resilient
        per-attempt-process path: failures retry with deterministic
        backoff, hung cells are killed at ``cell_timeout``, and exhausted
        cells yield :class:`~repro.analysis.resilience.FailedOutcome`
        rows instead of raising.  ``None`` (the default) keeps the plain
        serial/pool paths byte-for-byte unchanged.
    """

    def __init__(
        self,
        jobs: int = 1,
        progress: Optional[ProgressCallback] = None,
        warmup: bool = True,
        scheduler_backend: Optional[str] = None,
        retry_policy: Optional["object"] = None,
    ) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be at least 1, got {jobs}")
        if scheduler_backend is not None and scheduler_backend not in BACKEND_CHOICES:
            raise ExperimentError(
                f"scheduler_backend must be one of {BACKEND_CHOICES}, "
                f"got {scheduler_backend!r}"
            )
        # Cells left on "auto" read the variable only once they run; an
        # invalid value must fail here, not inside every (retried) cell.
        backend_from_env()
        if retry_policy is not None:
            from repro.analysis.resilience import RetryPolicy

            if not isinstance(retry_policy, RetryPolicy):
                raise ExperimentError(
                    f"retry_policy must be a RetryPolicy (or None), got "
                    f"{type(retry_policy).__name__}"
                )
        self.jobs = int(jobs)
        self.progress = progress
        self.warmup = warmup
        self.scheduler_backend = scheduler_backend
        self.retry_policy = retry_policy

    def run(self, specs: Sequence[ExperimentSpec]) -> List[ExperimentOutcome]:
        """Execute every cell and return outcomes in spec order.

        Local execution is the degenerate one-shard case of the sharded
        plan → execute → merge pipeline (:mod:`repro.analysis.sharding`):
        the grid becomes a one-shard plan, the shard executes in-process
        (serially or over local workers, per ``jobs``), and the merge
        step's verification — every cell accounted for exactly once —
        replaces the old ad-hoc missing-outcome check.  A grid split
        into real shards and merged back goes through exactly this path,
        which is why the two are byte-identical.
        """
        from repro.analysis import sharding

        specs = list(specs)
        if not specs:
            return []
        plan = sharding.ShardPlan.build(
            specs, num_shards=1, compute_fingerprint=False
        )
        shard = sharding.execute_shard(plan.shard_input(0), runner=self)
        return sharding.merge_shards([shard], plan=plan).outcomes

    def prepared_specs(
        self, specs: Sequence[ExperimentSpec]
    ) -> List[ExperimentSpec]:
        """The spec list with this runner's whole-grid overrides applied."""
        specs = list(specs)
        if self.scheduler_backend is not None:
            specs = [
                dataclasses.replace(
                    spec,
                    options=(spec.options or PlacementOptions()).replace(
                        scheduler_backend=self.scheduler_backend
                    ),
                )
                for spec in specs
            ]
        return specs

    def iter_outcomes(
        self, specs: Sequence[ExperimentSpec]
    ) -> Iterator[ExperimentOutcome]:
        """Stream outcomes as cells complete (the ``as_completed`` front end).

        Yields every cell's outcome as soon as it is available — in spec
        order for serial runs, in completion order for parallel runs
        (``outcome.index`` identifies the cell either way).  The
        ``progress`` callback, if any, still fires once per yielded
        outcome.  Harnesses use this to render rows incrementally instead
        of blocking on the full grid; collecting and sorting the iterator
        is exactly :meth:`run` minus the merge-step verification.
        """
        specs = self.prepared_specs(specs)
        if not specs:
            return
        yield from self._iter_prepared(specs)

    def run_ordered(
        self,
        specs: Sequence[ExperimentSpec],
        build: Optional[Callable[[ExperimentOutcome], object]] = None,
        on_item: Optional[Callable[[object], None]] = None,
        what: str = "experiment grid",
    ) -> List:
        """Stream the grid, transform each outcome, return spec-order results.

        The shared collect loop of the streaming harnesses: each outcome
        is passed through ``build`` (identity when ``None``) as soon as
        its cell completes — completion order for parallel runs —
        ``on_item`` fires with the built item, and the returned list is
        re-assembled in spec order via ``outcome.index``.  A cell that
        produced no outcome raises :class:`ExperimentError` (``what``
        names the caller in the message) rather than returning a
        misaligned list.
        """
        specs = list(specs)
        results: List = [None] * len(specs)
        for outcome in self.iter_outcomes(specs):
            item = build(outcome) if build is not None else outcome
            results[outcome.index] = item
            if on_item is not None:
                on_item(item)
        missing = [index for index, item in enumerate(results) if item is None]
        if missing:  # pragma: no cover - cells either return or raise
            raise ExperimentError(
                f"{what} returned no outcome for cell(s) {missing}; "
                "refusing to return a misaligned result list"
            )
        return results

    def execute_prepared(
        self,
        specs: Sequence[ExperimentSpec],
        global_indices: Optional[Sequence[int]] = None,
    ) -> List[ExperimentOutcome]:
        """Execute already-prepared specs and order outcomes by cell index.

        The execution core shared by :func:`repro.analysis.sharding.execute_shard`
        and (through it) :meth:`run`; callers outside the sharding
        pipeline should use :meth:`run` or :meth:`iter_outcomes`.
        ``global_indices`` maps each spec position to its grid-global cell
        index — shard workers pass their slice of the plan so retry
        backoff and fault injection key on the *global* grid, making the
        resilient path invariant to how the grid was sharded.
        """
        specs = list(specs)
        outcomes: List[Optional[ExperimentOutcome]] = [None] * len(specs)
        if not specs:
            return []
        for outcome in self._iter_prepared(specs, global_indices=global_indices):
            outcomes[outcome.index] = outcome
        missing = [index for index, outcome in enumerate(outcomes) if outcome is None]
        if missing:  # pragma: no cover - cells either return or raise
            raise ExperimentError(
                f"execution returned no outcome for cell(s) {missing}; "
                "refusing to return a misaligned result list"
            )
        return outcomes

    def _iter_prepared(
        self,
        specs: List[ExperimentSpec],
        global_indices: Optional[Sequence[int]] = None,
    ) -> Iterator[ExperimentOutcome]:
        """Route prepared specs to the right execution path.

        Resilient execution (per-attempt processes, retries, timeouts)
        engages only when the runner carries a non-no-op retry policy or
        a fault injector is active; otherwise the original serial and
        pool paths run untouched, preserving their performance profile
        and counter semantics exactly.
        """
        from repro.analysis import resilience

        injector = resilience.active_fault_injector()
        policy = self.retry_policy
        if (policy is not None and not policy.is_noop) or injector is not None:
            yield from resilience.execute_cells(
                specs,
                policy=policy,
                injector=injector,
                jobs=self.jobs,
                progress=self.progress,
                global_indices=global_indices,
            )
        elif self.jobs == 1 or len(specs) == 1:
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

    def _warmup_entries(
        self, specs: List[ExperimentSpec]
    ) -> List[Tuple[Callable[[], PhysicalEnvironment], Tuple[Optional[float], ...]]]:
        """Initializer entries: environments worth shipping to every worker.

        Warmup runs in *every* worker, so it only pays off for environments
        shared by multiple cells; a single-cell environment is built lazily
        by whichever worker receives its cell.  Constant-environment
        factories are always included (cells reference them by token, so
        each worker must register them) but get graph warmup only when
        shared.
        """
        grouped: Dict[Hashable, Tuple[Callable, Dict[Optional[float], None]]] = {}
        counts: Dict[Hashable, int] = {}
        for spec in specs:
            key = environment_cache_key(spec.environment_factory)
            if key is None:
                continue
            factory, thresholds = grouped.setdefault(
                key, (spec.environment_factory, {})
            )
            thresholds.setdefault(spec.resolved_options().threshold)
            counts[key] = counts.get(key, 0) + 1
        entries = []
        for key, (factory, thresholds) in grouped.items():
            shared = counts[key] > 1
            if isinstance(factory, _ConstantEnvironmentFactory):
                entries.append((factory, tuple(thresholds) if shared else ()))
            elif shared:
                entries.append((factory, tuple(thresholds)))
        return entries

    @staticmethod
    def _lighten(specs: List[ExperimentSpec]) -> List[ExperimentSpec]:
        """Swap constant-environment factories for per-cell references.

        The environments themselves travel once per worker in the
        initializer entries; the submitted cells then carry only a token.
        """
        light: List[ExperimentSpec] = []
        for spec in specs:
            factory = spec.environment_factory
            if isinstance(factory, _ConstantEnvironmentFactory):
                spec = dataclasses.replace(
                    spec, environment_factory=_EnvironmentRef(factory.token)
                )
            light.append(spec)
        return light

    def _iter_parallel(
        self, specs: List[ExperimentSpec]
    ) -> Iterator[ExperimentOutcome]:
        total = len(specs)
        workers = min(self.jobs, total)
        # Entries are always shipped: they register keyed environments in
        # each worker (required by _EnvironmentRef cells); self.warmup only
        # controls whether derived graphs are pre-built on top.
        entries = self._warmup_entries(specs)
        light_specs = self._lighten(specs)
        self._check_picklable(light_specs)
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_initialize_worker,
            initargs=(entries, self.warmup),
        ) as pool:
            pending = {
                pool.submit(_execute_cell, (index, spec))
                for index, spec in enumerate(light_specs)
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
        # FailedOutcome rows (exhausted retries) are distinct from the
        # paper's structural "N/A" cells: show the failure kind and the
        # attempts consumed so an operator can tell them apart on sight.
        failure = getattr(outcome, "failure", None)
        if outcome.feasible:
            status = "ok"
        elif failure:
            status = f"FAILED:{failure} after {getattr(outcome, 'attempts', 0)} attempt(s)"
        else:
            status = "N/A"
        label = outcome.label or outcome.circuit_name
        print(
            f"{prefix} {completed}/{total}: {label} [{status}, "
            f"{outcome.software_runtime_seconds:.2f}s] "
            f"({completed / elapsed:.2f} cells/s)",
            file=out,
            flush=True,
        )

    return callback
