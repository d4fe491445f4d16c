"""Fault-tolerant cell execution: retries, timeouts, and fault injection.

The experiment engine's failure model used to be "every cell either
returns or the whole grid dies": a worker crash, a hung placement or an
unexpected exception poisoned the entire run.  This module gives every
failure mode a defined, tested recovery path:

==================  =====================================================
failure mode        recovery
==================  =====================================================
cell exception      retried with deterministic backoff, up to
                    ``RetryPolicy.max_attempts``; exhausted cells become
                    structured :class:`FailedOutcome` rows
hung cell           killed when it exceeds ``RetryPolicy.cell_timeout``
                    and resubmitted like an exception
killed worker       detected as a closed result pipe (no message) and
                    resubmitted like an exception
infeasible cell     *not* a fault: :class:`~repro.exceptions.ThresholdError`
                    / :class:`~repro.exceptions.PlacementError` are the
                    paper's "N/A" cells and are never retried
corrupted file      detected on read by the checksum/format checks in
                    :mod:`repro.analysis.sharding`
                    (:class:`~repro.exceptions.ShardFormatError`); the
                    shard is re-run or re-planned, not silently merged
==================  =====================================================

Resilient execution isolates every attempt in its own child process (one
``multiprocessing.Process`` per attempt, at most ``jobs`` concurrent), so
a hang can be terminated and a crash cannot take the coordinator or its
pool down.  This costs a process start per cell and per-attempt cold
caches — the per-process *cache* counters differ from a plain run — but
every deterministic outcome field is byte-identical to the fault-free
serial run, which is the contract the merge step relies on
(``docs/parallelism.md`` section 8).  When no retry policy and no fault
injector are active, :class:`~repro.analysis.runner.ExperimentRunner`
keeps its original serial/pool paths untouched.

Determinism: the backoff schedule is a pure function of the cell index
and attempt number (SHA-256 jitter — independent of ``PYTHONHASHSEED``,
wall clock and worker count), and the :class:`FaultInjector` is a
deterministic spec-indexed plan, so a faulty run is exactly reproducible:
same plan, same retries, same final grid.

The injector is a **test-only hook**: install one with
:func:`install_fault_injector` (or the ``REPRO_FAULT_PLAN`` environment
variable for subprocess/CLI tests) to exercise the recovery paths; no
production code path constructs one.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.runner import (
    ExperimentOutcome,
    ExperimentSpec,
    ProgressCallback,
    _execute_cell,
)
from repro.core.stats import STATS
from repro.exceptions import ExperimentError, InjectedFaultError

#: STATS counters maintained by the resilient executor (coordinator-side).
CELLS_RETRIED = "cells_retried"
CELLS_TIMED_OUT = "cells_timed_out"
CELLS_FAILED = "cells_failed"

#: Environment variable carrying a fault-plan spec for subprocess tests
#: (see :meth:`FaultInjector.from_spec`).
FAULT_PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: Fault actions a plan may request for a cell attempt.
FAULT_ACTIONS = ("raise", "hang", "kill")

#: How long an injected hang sleeps — effectively forever next to any
#: realistic ``cell_timeout``; the coordinator terminates it long before.
_HANG_SECONDS = 3600.0


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) failed cells are retried.

    Attributes
    ----------
    max_attempts:
        Total attempts per cell (1 = no retries).  ``RunConfig.retries``
        maps to ``max_attempts = retries + 1``.
    backoff:
        Delay in seconds before the first retry; doubles (by
        ``backoff_factor``) per subsequent retry.
    backoff_factor:
        Exponential base of the backoff schedule.
    jitter:
        Fractional jitter added on top of each delay.  The jitter value is
        *deterministic* — derived by SHA-256 from the cell index and the
        attempt number — so two runs of the same faulty grid sleep the
        same schedule (and tests can assert it), while distinct cells
        still decorrelate.
    cell_timeout:
        Per-cell wall-clock budget in seconds, enforced by the
        coordinator terminating the attempt's process.  ``None`` disables
        the timeout.
    """

    max_attempts: int = 1
    backoff: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.1
    cell_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ExperimentError(
                f"max_attempts must be a positive integer, got {self.max_attempts!r}"
            )
        if self.backoff < 0:
            raise ExperimentError(f"backoff must be >= 0, got {self.backoff!r}")
        if self.backoff_factor < 1.0:
            raise ExperimentError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ExperimentError(f"jitter must be in [0, 1], got {self.jitter!r}")
        if self.cell_timeout is not None and not self.cell_timeout > 0:
            raise ExperimentError(
                f"cell_timeout must be positive (or None), got {self.cell_timeout!r}"
            )

    @property
    def is_noop(self) -> bool:
        """Whether this policy changes nothing over plain execution."""
        return self.max_attempts == 1 and self.cell_timeout is None

    def delay(self, cell_index: int, attempt: int) -> float:
        """Backoff before retrying ``cell_index`` after failed ``attempt``.

        A pure function of its arguments: exponential in the (1-based)
        attempt number, with a deterministic jitter fraction derived from
        ``sha256(cell_index:attempt)`` — no global state, no wall clock,
        no hash seed.
        """
        if attempt < 1:
            raise ExperimentError(f"attempt numbers are 1-based, got {attempt}")
        base = self.backoff * self.backoff_factor ** (attempt - 1)
        digest = hashlib.sha256(f"{cell_index}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + self.jitter * unit)

    def schedule(self, cell_index: int) -> Tuple[float, ...]:
        """The cell's full backoff schedule (one delay per possible retry)."""
        return tuple(
            self.delay(cell_index, attempt)
            for attempt in range(1, self.max_attempts)
        )


# ---------------------------------------------------------------------------
# Fault injection (test-only hook)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultInjector:
    """A deterministic, spec-indexed fault plan.

    ``cell_faults`` maps a cell index (the *global* grid index when the
    grid came from a shard, the local index otherwise) to the sequence of
    fault actions its attempts suffer: attempt ``k`` (1-based) performs
    ``cell_faults[index][k-1]``; attempts beyond the sequence run clean —
    which is how a fault plan models a *transient* failure that retries
    recover from.  Actions:

    ``raise``
        The attempt raises :class:`~repro.exceptions.InjectedFaultError`
        before doing any work (a cell exception).
    ``hang``
        The attempt sleeps far past any timeout (a hung cell).
    ``kill``
        The attempt's process exits abruptly via ``os._exit`` (a killed
        worker).

    ``corrupt_outputs`` lists shard indices whose outcome files are
    corrupted (truncated in half) immediately after being written by
    :func:`repro.analysis.sharding.write_outcome_shard` — exercising the
    checksum/format detection and the replan/resume recovery path.
    """

    cell_faults: Mapping[int, Tuple[str, ...]] = field(default_factory=dict)
    corrupt_outputs: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for index, actions in dict(self.cell_faults).items():
            for action in actions:
                if action not in FAULT_ACTIONS:
                    raise ExperimentError(
                        f"unknown fault action {action!r} for cell {index}; "
                        f"use one of {FAULT_ACTIONS}"
                    )

    def fault_for(self, cell_index: int, attempt: int) -> Optional[str]:
        """The action injected into ``attempt`` of ``cell_index`` (or None)."""
        actions = self.cell_faults.get(cell_index)
        if actions is None or attempt > len(actions):
            return None
        return actions[attempt - 1]

    def corrupts_output(self, shard_index: int) -> bool:
        """Whether this plan corrupts the given shard's outcome file."""
        return shard_index in self.corrupt_outputs

    @classmethod
    def from_spec(cls, text: str) -> "FaultInjector":
        """Parse the ``REPRO_FAULT_PLAN`` grammar.

        Semicolon-separated clauses: ``<cell>:<action>[,<action>...]``
        injects per-attempt faults into a cell, ``out:<shard>`` corrupts a
        shard's outcome file after writing.  Example::

            REPRO_FAULT_PLAN="2:kill;5:raise,raise;out:1"
        """
        cell_faults: Dict[int, Tuple[str, ...]] = {}
        corrupt: List[int] = []
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            head, _, tail = clause.partition(":")
            try:
                if head.strip() == "out":
                    corrupt.append(int(tail.strip()))
                    continue
                index = int(head.strip())
                actions = tuple(
                    action.strip() for action in tail.split(",") if action.strip()
                )
            except ValueError:
                raise ExperimentError(
                    f"malformed fault-plan clause {clause!r}; expected "
                    "'<cell>:<action>[,...]' or 'out:<shard>'"
                ) from None
            if not actions:
                raise ExperimentError(
                    f"fault-plan clause {clause!r} names no actions"
                )
            cell_faults[index] = actions
        return cls(cell_faults=cell_faults, corrupt_outputs=tuple(corrupt))


_INSTALLED_INJECTOR: Optional[FaultInjector] = None


def install_fault_injector(injector: FaultInjector) -> None:
    """Install a process-wide fault injector (test-only)."""
    global _INSTALLED_INJECTOR
    if not isinstance(injector, FaultInjector):
        raise ExperimentError(
            f"install_fault_injector needs a FaultInjector, got "
            f"{type(injector).__name__}"
        )
    _INSTALLED_INJECTOR = injector


def clear_fault_injector() -> None:
    """Remove the installed fault injector."""
    global _INSTALLED_INJECTOR
    _INSTALLED_INJECTOR = None


def active_fault_injector() -> Optional[FaultInjector]:
    """The installed injector, or one parsed from ``REPRO_FAULT_PLAN``.

    The environment-variable path lets subprocess tests (and the CI
    fault-injection smoke) inject faults into an unmodified CLI
    invocation; an empty/unset variable means no injection.
    """
    if _INSTALLED_INJECTOR is not None:
        return _INSTALLED_INJECTOR
    text = os.environ.get(FAULT_PLAN_ENV_VAR)
    if not text:
        return None
    return FaultInjector.from_spec(text)


def corrupt_file(path: str) -> None:
    """Truncate a file to half its size (the injector's ``out:`` action).

    Half a canonical JSON payload can neither parse nor match its
    embedded checksum, so readers fail with
    :class:`~repro.exceptions.ShardFormatError` — never silently merge.
    """
    size = os.path.getsize(path)
    # Tearing the file in place is the point: this is the ``out:N`` fault.
    with open(path, "rb+") as handle:  # repro: allow[ROB001]
        handle.truncate(size // 2)


# ---------------------------------------------------------------------------
# FailedOutcome
# ---------------------------------------------------------------------------


@dataclass
class FailedOutcome(ExperimentOutcome):
    """A cell whose retries were exhausted, as a structured grid row.

    Degrades a persistent failure into data instead of poisoning the
    grid: ``feasible`` is ``False`` (sweeps render "N/A"), ``error`` /
    ``error_type`` carry the last attempt's failure, ``failure``
    classifies it (``"error"``, ``"timeout"`` or ``"crash"``) and
    ``attempts`` counts the attempts consumed.  Serialised rows keep the
    extra fields (see :func:`repro.analysis.serialization.outcome_from_dict`),
    so failure metadata survives shard-file round trips and merges.
    """

    attempts: int = 0
    failure: str = "error"


# ---------------------------------------------------------------------------
# The resilient executor
# ---------------------------------------------------------------------------


def _attempt_child(conn, index: int, spec: ExperimentSpec, fault: Optional[str]) -> None:
    """Run one attempt in a child process and report through ``conn``.

    Protocol: ``("ok", outcome)`` for a completed cell (including the
    structurally-infeasible "N/A" outcomes, which are results, not
    faults); ``("error", message, type_name, counters_delta)`` for an
    unexpected exception — the delta ships back so work performed by a
    failed attempt never vanishes from the coordinator's registry.  A
    crash sends nothing: the coordinator sees the pipe close.
    """
    try:
        if fault == "kill":
            os._exit(17)
        before = STATS.snapshot()
        try:
            if fault == "hang":
                time.sleep(_HANG_SECONDS)
            if fault == "raise":
                raise InjectedFaultError(f"injected fault (cell {index})")
            outcome = _execute_cell((index, spec))
        except (KeyboardInterrupt, SystemExit):  # pragma: no cover
            raise
        except BaseException as exc:
            conn.send(("error", str(exc), type(exc).__name__, STATS.delta_since(before)))
            return
        conn.send(("ok", outcome))
    finally:
        conn.close()


@dataclass
class _CellState:
    """Coordinator-side bookkeeping for one cell."""

    local: int
    global_index: int
    spec: ExperimentSpec
    attempts: int = 0
    eligible_at: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)


def execute_cells(
    specs: Sequence[ExperimentSpec],
    policy: Optional[RetryPolicy] = None,
    injector: Optional[FaultInjector] = None,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
    global_indices: Optional[Sequence[int]] = None,
) -> Iterator[ExperimentOutcome]:
    """Execute cells with per-attempt process isolation, retries, timeouts.

    Yields outcomes in completion order (``outcome.index`` is the local
    spec index, exactly like the plain runner paths); the ``progress``
    callback fires once per *final* outcome.  ``global_indices`` maps
    local spec positions to grid-global cell indices — the key space of
    the fault plan and the backoff jitter — and defaults to the local
    indices.

    Failure handling per attempt: an unexpected exception, a timeout
    (process terminated at ``policy.cell_timeout``) or a crash (pipe
    closed without a message) consumes one attempt; while attempts
    remain the cell re-enters the queue after its deterministic backoff
    (``cells_retried``; timeouts also count ``cells_timed_out``), and an
    exhausted cell yields a :class:`FailedOutcome` (``cells_failed``).
    """
    policy = policy or RetryPolicy()
    specs = list(specs)
    total = len(specs)
    if total == 0:
        return
    if global_indices is None:
        global_indices = range(total)
    global_indices = list(global_indices)
    if len(global_indices) != total:
        raise ExperimentError(
            f"got {len(global_indices)} global indices for {total} spec(s)"
        )
    jobs = max(1, min(int(jobs), total))

    states = [
        _CellState(local=local, global_index=global_index, spec=spec)
        for local, (global_index, spec) in enumerate(zip(global_indices, specs))
    ]
    waiting: List[_CellState] = list(states)
    running: Dict[object, Tuple[multiprocessing.Process, _CellState]] = {}
    deadlines: Dict[object, float] = {}
    completed = 0

    def fail_or_requeue(state: _CellState, kind: str, message: str,
                        type_name: str) -> Optional[FailedOutcome]:
        if state.attempts < policy.max_attempts:
            STATS.increment(CELLS_RETRIED)
            state.eligible_at = (
                time.monotonic() + policy.delay(state.global_index, state.attempts)
            )
            waiting.append(state)
            return None
        STATS.increment(CELLS_FAILED)
        return FailedOutcome(
            index=state.local,
            label=state.spec.label,
            feasible=False,
            runtime_seconds=None,
            num_subcircuits=None,
            error=message,
            error_type=type_name,
            counters=dict(state.counters),
            attempts=state.attempts,
            failure=kind,
        )

    try:
        while completed < total:
            now = time.monotonic()
            # Launch eligible cells, lowest (eligible_at, local) first, up
            # to the concurrency budget.
            while len(running) < jobs and waiting:
                eligible = [s for s in waiting if s.eligible_at <= now]
                if not eligible:
                    break
                state = min(eligible, key=lambda s: (s.eligible_at, s.local))
                waiting.remove(state)
                fault = (
                    injector.fault_for(state.global_index, state.attempts + 1)
                    if injector is not None
                    else None
                )
                parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
                process = multiprocessing.Process(
                    target=_attempt_child,
                    args=(child_conn, state.local, state.spec, fault),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                state.attempts += 1
                running[parent_conn] = (process, state)
                deadlines[parent_conn] = (
                    now + policy.cell_timeout
                    if policy.cell_timeout is not None
                    else math.inf
                )

            # How long to block: until the nearest attempt deadline or the
            # nearest backoff expiry, whichever is sooner.
            wake_times = [d for d in deadlines.values() if d < math.inf]
            if waiting and len(running) < jobs:
                wake_times.append(min(s.eligible_at for s in waiting))
            if not running:
                if wake_times:
                    time.sleep(max(0.0, min(wake_times) - time.monotonic()))
                continue
            timeout = (
                max(0.0, min(wake_times) - time.monotonic()) if wake_times else None
            )
            ready = _mp_connection.wait(list(running), timeout=timeout)

            for conn in ready:
                process, state = running.pop(conn)
                deadlines.pop(conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None
                conn.close()
                process.join()
                outcome: Optional[ExperimentOutcome] = None
                if message is not None and message[0] == "ok":
                    outcome = message[1]
                    STATS.merge(outcome.counters)
                elif message is not None and message[0] == "error":
                    _, text, type_name, counters = message
                    STATS.merge(counters)
                    for name, value in counters.items():
                        state.counters[name] = state.counters.get(name, 0) + value
                    outcome = fail_or_requeue(state, "error", text, type_name)
                else:
                    outcome = fail_or_requeue(
                        state,
                        "crash",
                        f"worker process for cell {state.spec.label or state.local!r} "
                        f"died without a result (exit code {process.exitcode})",
                        "WorkerCrash",
                    )
                if outcome is not None:
                    completed += 1
                    if progress is not None:
                        progress(completed, total, outcome)
                    yield outcome

            # Deadline sweep: terminate attempts that exceeded the budget.
            now = time.monotonic()
            for conn in [c for c, d in list(deadlines.items()) if d <= now]:
                process, state = running.pop(conn)
                deadlines.pop(conn)
                process.terminate()
                process.join()
                conn.close()
                STATS.increment(CELLS_TIMED_OUT)
                outcome = fail_or_requeue(
                    state,
                    "timeout",
                    f"cell {state.spec.label or state.local!r} exceeded "
                    f"cell_timeout={policy.cell_timeout:g}s "
                    f"(attempt {state.attempts})",
                    "CellTimeout",
                )
                if outcome is not None:
                    completed += 1
                    if progress is not None:
                        progress(completed, total, outcome)
                    yield outcome
    finally:
        # Abandoned mid-grid (consumer break, exception in a callback):
        # never leave attempt processes running.
        for conn, (process, _) in running.items():
            process.terminate()
            process.join()
            conn.close()
