"""Sharded experiment grids: plan → execute → merge.

The :class:`~repro.analysis.runner.ExperimentRunner` fans a grid's cells
over local worker processes; this module is the next scaling layer up —
splitting one flattened grid into *shards* that can be executed anywhere
(other hosts, other containers, a batch queue) and merged back into the
exact result the serial runner would have produced.

The pipeline has three stages, each with a file format so the stages can
run in different processes on different machines:

**plan**
    :meth:`ShardPlan.build` deterministically partitions a flattened,
    deduplicated spec list into ``N`` shards — round-robin, or
    cost-balanced by circuit size (greedy longest-processing-time with
    index tie-breaks, so the same grid always yields the same plan).  The
    plan carries a ``fingerprint`` of the grid; every derived artifact
    echoes it, which is how the merge step refuses to combine shards of
    different grids.  :func:`write_shard` serialises each shard's input
    (:class:`ShardInput`: the specs plus their *global* grid indices) to a
    pickle file a shard worker can execute without any other context.

**execute**
    :func:`execute_shard` runs one shard's cells through an ordinary
    :class:`ExperimentRunner` (so a shard worker can itself use ``jobs>1``
    process parallelism) and packages an :class:`OutcomeShard`: the
    outcomes re-labelled with their global grid indices, the shard's
    :data:`~repro.core.stats.STATS` counter delta, and the plan
    fingerprint.  :func:`write_outcome_shard` serialises it to JSON (via
    :mod:`repro.analysis.serialization`, the same row format as
    ``--output json``).

**merge**
    :func:`merge_shards` verifies the shards' fingerprints and index sets
    against each other (and against the plan, when given), restores grid
    order, and merges the counter deltas with
    :meth:`~repro.core.stats.Counters.merge`.  The merged outcome list is
    exactly what ``ExperimentRunner.run`` on the whole grid returns —
    deterministic fields byte-identical, wall times shard-local.

Determinism contract: because the placement pipeline is hash-seed
deterministic end to end (``docs/parallelism.md``), the merged grid's
deterministic fields (everything except ``software_runtime_seconds`` and
the per-process cache counters; see
:data:`repro.analysis.serialization.WORK_COUNTERS`) are byte-identical to
the serial run for *any* shard count and either strategy.

Crash-safe files (``docs/parallelism.md`` section 8): every file this
module writes goes through an atomic temp-file + ``os.replace`` write
and carries an embedded SHA-256 payload checksum verified on read, and
every unreadable, corrupted or malformed file fails with a one-line
:class:`~repro.exceptions.ShardFormatError`.  A cell that raises
anything but the "N/A" errors propagates out of :func:`execute_shard`;
a shard that did not run is re-run, and the merge refuses to proceed
without it.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import pickle
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.runner import (
    ExperimentOutcome,
    ExperimentRunner,
    ExperimentSpec,
)
from repro.analysis.serialization import (
    SCHEMA_VERSION,
    atomic_write_bytes,
    atomic_write_text,
    checksummed_payload,
    dump_json,
    outcome_from_dict,
    outcome_to_dict,
    verify_payload_checksum,
)
from repro.core.stats import STATS, Counters
from repro.exceptions import ExperimentError, ShardFormatError
from repro.registry import SHARD_STRATEGIES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.config import RunConfig


def _round_robin_buckets(
    specs: Sequence[ExperimentSpec], num_shards: int
) -> List[List[int]]:
    """Deal cell indices out to shards by position."""
    buckets: List[List[int]] = [[] for _ in range(num_shards)]
    for index in range(len(specs)):
        buckets[index % num_shards].append(index)
    return buckets


def _cost_balanced_buckets(
    specs: Sequence[ExperimentSpec], num_shards: int
) -> List[List[int]]:
    """Greedy longest-processing-time assignment with index tie-breaks."""
    buckets: List[List[int]] = [[] for _ in range(num_shards)]
    costs = _cell_costs(specs)
    heap = [(0, shard) for shard in range(num_shards)]
    heapq.heapify(heap)
    for index in sorted(range(len(specs)), key=lambda i: (-costs[i], i)):
        load, shard = heapq.heappop(heap)
        buckets[shard].append(index)
        heapq.heappush(heap, (load + costs[index], shard))
    return buckets


SHARD_STRATEGIES.add(
    "round-robin", _round_robin_buckets,
    description="deal cells out to shards by index",
)
SHARD_STRATEGIES.add(
    "cost-balanced", _cost_balanced_buckets,
    description="greedy LPT by circuit gates x qubits, index tie-breaks",
)

#: Built-in partitioning strategies (hyphenated canonical names;
#: underscores are accepted and normalised), derived from the registry at
#: import time.  Strategies registered into
#: :data:`repro.registry.SHARD_STRATEGIES` later are also accepted by
#: :meth:`ShardPlan.build` — consult the registry, not this snapshot, when
#: plugins matter.
STRATEGIES = tuple(SHARD_STRATEGIES.names())

#: Format tags written into (and checked in) the shard file headers.
SHARD_INPUT_FORMAT = "repro-shard-input"
OUTCOME_SHARD_FORMAT = "repro-outcome-shard"

#: Pickle protocol for shard-input files: fixed, so the same plan always
#: produces the same bytes regardless of the writing interpreter's default.
_PICKLE_PROTOCOL = 4


def _normalise_strategy(strategy: str) -> str:
    canonical = strategy.replace("_", "-").lower()
    if canonical not in SHARD_STRATEGIES:
        raise ExperimentError(
            f"unknown shard strategy {strategy!r}; use one of "
            f"{tuple(SHARD_STRATEGIES.names())}"
        )
    return canonical


def grid_fingerprint(specs: Sequence[ExperimentSpec]) -> str:
    """A stable identity for a flattened spec grid.

    Hashes each spec's pickle bytes (factories pickle by reference, so the
    same module-level factories, thresholds and options give the same
    digest in any process); specs that cannot be pickled fall back to a
    repr of their fields *including both factories* — object reprs make
    that stable (and grid-distinguishing) only within one process, which
    is all an unpicklable grid supports anyway: it cannot be written to a
    shard file in the first place.
    """
    hasher = hashlib.sha256()
    hasher.update(f"grid:{len(specs)}".encode())
    for index, spec in enumerate(specs):
        try:
            blob = pickle.dumps(spec, protocol=_PICKLE_PROTOCOL)
        except Exception:  # repro: allow[ROB002]
            blob = b"unpicklable:" + repr(
                (
                    spec.label,
                    spec.threshold,
                    spec.options,
                    spec.circuit_factory,
                    spec.environment_factory,
                    spec.keep_result,
                )
            ).encode()
        hasher.update(f"\x00{index}\x00".encode())
        hasher.update(hashlib.sha256(blob).digest())
    return hasher.hexdigest()


@dataclass(frozen=True)
class ShardInput:
    """Everything a shard worker needs to execute its cells.

    ``indices`` are the cells' positions in the *full* grid; the worker
    executes ``specs`` in order and reports each outcome under its global
    index, so the merge step can restore grid order without the plan.
    ``config`` carries the :class:`repro.config.RunConfig` the grid was
    built from (when the planner had one), making shard files
    self-describing.
    """

    plan_fingerprint: str
    shard_index: int
    num_shards: int
    indices: Tuple[int, ...]
    specs: Tuple[ExperimentSpec, ...]
    config: Optional["RunConfig"] = None


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of a spec grid into shards.

    ``config`` optionally embeds the :class:`repro.config.RunConfig` the
    grid was built from; it rides along into every :class:`ShardInput` and
    the plan metadata, but is *not* part of the grid fingerprint — the
    fingerprint identifies the spec grid itself, however it was described.
    """

    specs: Tuple[ExperimentSpec, ...]
    assignments: Tuple[Tuple[int, ...], ...]
    strategy: str
    fingerprint: str
    config: Optional["RunConfig"] = None

    @property
    def num_shards(self) -> int:
        return len(self.assignments)

    @property
    def total_cells(self) -> int:
        return len(self.specs)

    @classmethod
    def build(
        cls,
        specs: Sequence[ExperimentSpec],
        num_shards: int,
        strategy: str = "round-robin",
        config: Optional["RunConfig"] = None,
    ) -> "ShardPlan":
        """Partition ``specs`` into ``num_shards`` deterministic shards.

        ``strategy`` names an entry of
        :data:`repro.registry.SHARD_STRATEGIES` — ``round-robin`` deals
        cells out by index; ``cost-balanced`` assigns the most expensive
        cells first (cost estimated from the built circuit's gate and
        qubit counts) to the least-loaded shard, with index and
        shard-number tie-breaks so the result is a pure function of the
        grid.  ``config`` embeds the run description in the plan and its
        shard files.
        """
        specs = tuple(specs)
        if num_shards < 1:
            raise ExperimentError(
                f"num_shards must be at least 1, got {num_shards}"
            )
        strategy = _normalise_strategy(strategy)
        buckets = SHARD_STRATEGIES.entry(strategy).factory(specs, num_shards)
        if len(buckets) != num_shards:  # pragma: no cover - plugin misuse
            raise ExperimentError(
                f"shard strategy {strategy!r} produced {len(buckets)} "
                f"bucket(s) for {num_shards} shard(s)"
            )
        return cls(
            specs=specs,
            assignments=tuple(tuple(sorted(bucket)) for bucket in buckets),
            strategy=strategy,
            fingerprint=grid_fingerprint(specs),
            config=config,
        )

    def shard_input(self, shard_index: int) -> ShardInput:
        """The self-contained input of one shard."""
        if not 0 <= shard_index < self.num_shards:
            raise ExperimentError(
                f"shard index {shard_index} out of range for a "
                f"{self.num_shards}-shard plan"
            )
        indices = self.assignments[shard_index]
        return ShardInput(
            plan_fingerprint=self.fingerprint,
            shard_index=shard_index,
            num_shards=self.num_shards,
            indices=indices,
            specs=tuple(self.specs[index] for index in indices),
            config=self.config,
        )

    def metadata(self) -> Dict[str, Any]:
        """JSON-safe plan description (everything but the specs)."""
        metadata = {
            "schema_version": SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "strategy": self.strategy,
            "num_shards": self.num_shards,
            "total_cells": self.total_cells,
            "assignments": [list(indices) for indices in self.assignments],
            "labels": [spec.label for spec in self.specs],
        }
        if self.config is not None:
            metadata["config"] = self.config.to_dict()
        return metadata


def _cell_costs(specs: Sequence[ExperimentSpec]) -> List[int]:
    """Per-cell cost estimates for the cost-balanced strategy.

    Proportional to ``num_gates * num_qubits`` of the cell's circuit —
    a crude but monotone proxy for placement work.  Circuits are built
    once per distinct factory object (sweep grids share factories across
    thresholds); a factory that fails at plan time costs 1 and fails
    properly when its cell runs.
    """
    memo: Dict[int, int] = {}
    costs: List[int] = []
    for spec in specs:
        key = id(spec.circuit_factory)
        if key not in memo:
            try:
                circuit = spec.circuit_factory()
                memo[key] = max(1, circuit.num_gates) * max(1, circuit.num_qubits)
            except Exception:  # repro: allow[ROB002]
                # Cost estimation is advisory; a failing factory falls back to
                # unit cost and fails loudly when the cell itself runs.
                memo[key] = 1
        costs.append(memo[key])
    return costs


# ---------------------------------------------------------------------------
# Shard-input files (pickle: specs carry callables)
# ---------------------------------------------------------------------------


def write_shard(shard: ShardInput, path: str) -> None:
    """Serialise a shard input to ``path`` (pickle with a format header).

    The write is crash-safe (temp file + ``os.replace``) and the shard's
    pickle bytes are wrapped with their own SHA-256 digest, so
    :func:`read_shard` detects a file corrupted after writing instead of
    unpickling garbage.
    """
    try:
        shard_blob = pickle.dumps(shard, protocol=_PICKLE_PROTOCOL)
    except Exception as exc:
        raise ExperimentError(
            f"shard {shard.shard_index} cannot be serialised ({exc}); shard "
            "specs need picklable factories — module-level functions, "
            "functools.partial, or constant_environment()"
        ) from exc
    payload = {
        "format": SHARD_INPUT_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "shard_sha256": hashlib.sha256(shard_blob).hexdigest(),
        "shard": shard_blob,
    }
    atomic_write_bytes(path, pickle.dumps(payload, protocol=_PICKLE_PROTOCOL))


def read_shard(path: str) -> ShardInput:
    """Read a shard input written by :func:`write_shard`.

    Every low-level failure — missing file, truncated pickle, foreign
    format, checksum mismatch — raises a one-line
    :class:`~repro.exceptions.ShardFormatError` naming the path and the
    cause.  Files from before checksumming existed (the shard object
    pickled directly under ``"shard"``) remain readable.
    """
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except Exception as exc:
        raise ShardFormatError(f"cannot read shard file {path!r}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != SHARD_INPUT_FORMAT:
        raise ShardFormatError(
            f"{path!r} is not a shard-input file (expected format "
            f"{SHARD_INPUT_FORMAT!r})"
        )
    shard = payload.get("shard")
    if isinstance(shard, (bytes, bytearray)):
        declared = payload.get("shard_sha256")
        actual = hashlib.sha256(shard).hexdigest()
        if declared is not None and declared != actual:
            raise ShardFormatError(
                f"{path!r}: shard payload checksum mismatch (file says "
                f"{str(declared)[:12]}, content hashes to {actual[:12]}); "
                "the file was corrupted after it was written"
            )
        try:
            shard = pickle.loads(shard)
        except Exception as exc:
            raise ShardFormatError(
                f"cannot read shard file {path!r}: {exc}"
            ) from exc
    if not isinstance(shard, ShardInput):
        raise ShardFormatError(
            f"{path!r} is not a shard-input file (expected format "
            f"{SHARD_INPUT_FORMAT!r})"
        )
    return shard


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class OutcomeShard:
    """One executed shard: outcomes, counter delta, plan fingerprint.

    ``outcomes`` are in shard-local spec order with each outcome's
    ``index`` set to its *global* grid position; ``counters`` is the
    shard's aggregate :data:`~repro.core.stats.STATS` delta (worker
    deltas already folded in when the shard itself ran with ``jobs>1``).
    """

    plan_fingerprint: str
    shard_index: int
    num_shards: int
    indices: Tuple[int, ...]
    outcomes: List[ExperimentOutcome]
    counters: Dict[str, int] = field(default_factory=dict)


def execute_shard(
    shard: ShardInput, runner: Optional[ExperimentRunner] = None
) -> OutcomeShard:
    """Run one shard's cells and package the outcome shard.

    ``runner`` controls *how* the shard's own cells execute (serially or
    over local worker processes, progress callbacks);
    defaults to a serial runner.  The cells stream through
    :meth:`ExperimentRunner.iter_outcomes` exactly as they would inside a
    whole-grid run — same per-cell work, same counters — and each
    outcome's shard-local index is replaced by its global grid index.
    """
    runner = runner or ExperimentRunner()
    before = STATS.snapshot()
    outcomes = sorted(
        runner.iter_outcomes(shard.specs), key=lambda outcome: outcome.index
    )
    for outcome, global_index in zip(outcomes, shard.indices):
        outcome.index = global_index
    return OutcomeShard(
        plan_fingerprint=shard.plan_fingerprint,
        shard_index=shard.shard_index,
        num_shards=shard.num_shards,
        indices=tuple(shard.indices),
        outcomes=outcomes,
        counters=STATS.delta_since(before),
    )


# ---------------------------------------------------------------------------
# Outcome-shard files (JSON: outcomes are plain data)
# ---------------------------------------------------------------------------


def outcome_shard_to_payload(shard: OutcomeShard) -> Dict[str, Any]:
    """The JSON-safe form of an outcome shard (``--output json`` rows).

    The payload embeds its own SHA-256 checksum
    (:func:`repro.analysis.serialization.checksummed_payload`), so the
    file :func:`write_outcome_shard` produces — and the identical payload
    a ``sweep --shard-index --output json`` worker prints — is verifiable
    on read.  Checksumming is deterministic, so equal shards still
    serialise to byte-identical payloads.
    """
    return checksummed_payload({
        "format": OUTCOME_SHARD_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "plan_fingerprint": shard.plan_fingerprint,
        "shard_index": shard.shard_index,
        "num_shards": shard.num_shards,
        "indices": list(shard.indices),
        "rows": [outcome_to_dict(outcome) for outcome in shard.outcomes],
        "counters": {
            name: int(value) for name, value in sorted(shard.counters.items())
        },
    })


def outcome_shard_from_payload(payload: Mapping[str, Any]) -> OutcomeShard:
    """Rebuild an :class:`OutcomeShard` from its JSON payload.

    The embedded checksum, if any, is ignored here (file readers verify
    it against the raw file first; in-memory payloads need no integrity
    check), so pre-checksum payloads remain loadable.  A missing key or a
    value of the wrong type raises :class:`ShardFormatError`.
    """
    if payload.get("format") != OUTCOME_SHARD_FORMAT:
        raise ShardFormatError(
            f"not an outcome-shard payload (expected format "
            f"{OUTCOME_SHARD_FORMAT!r}, got {payload.get('format')!r})"
        )
    try:
        counters = payload.get("counters", {})
        if not isinstance(counters, Mapping):
            raise TypeError(
                f"counters must be a JSON object, got {type(counters).__name__}"
            )
        return OutcomeShard(
            plan_fingerprint=payload["plan_fingerprint"],
            shard_index=int(payload["shard_index"]),
            num_shards=int(payload["num_shards"]),
            indices=tuple(int(index) for index in payload["indices"]),
            outcomes=[outcome_from_dict(row) for row in payload["rows"]],
            counters={str(k): int(v) for k, v in counters.items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ShardFormatError(
            f"malformed outcome-shard payload ({exc!r}); the file is "
            "truncated or was not written by write_outcome_shard"
        ) from exc


def write_outcome_shard(shard: OutcomeShard, path: str) -> None:
    """Serialise an outcome shard to canonical JSON at ``path``.

    The write is atomic (temp file + ``os.replace``) and the payload
    carries its own checksum, so an interrupted or corrupted write is
    detected on read instead of merged silently.  Note that file round
    trips drop any attached :class:`~repro.core.result.PlacementResult`
    objects (see :mod:`repro.analysis.serialization`); shard grids ship
    scalar rows.
    """
    atomic_write_text(path, dump_json(outcome_shard_to_payload(shard)))


def read_outcome_shard(path: str) -> OutcomeShard:
    """Read an outcome shard written by :func:`write_outcome_shard`.

    Unreadable or corrupt files — missing, truncated, foreign format,
    payload-checksum mismatch, malformed rows or counters — raise a
    one-line :class:`~repro.exceptions.ShardFormatError` naming the path
    and the cause (including the expected digest for checksum
    mismatches).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except Exception as exc:
        raise ShardFormatError(
            f"cannot read outcome-shard file {path!r}: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ShardFormatError(f"{path!r} is not an outcome-shard file")
    verify_payload_checksum(payload, path)
    try:
        return outcome_shard_from_payload(payload)
    except ShardFormatError as exc:
        raise ShardFormatError(f"{path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------


@dataclass
class MergedGrid:
    """The reassembled grid: outcomes in grid order plus merged counters."""

    outcomes: List[ExperimentOutcome]
    counters: Dict[str, int]
    plan_fingerprint: str
    num_shards: int


def merge_shards(
    shards: Sequence[OutcomeShard], plan: Optional[ShardPlan] = None
) -> MergedGrid:
    """Verify and merge outcome shards back into one grid.

    Checks, before touching any data: every shard echoes the same plan
    fingerprint (and the given ``plan``'s, when provided), shard indices
    are unique and in range, each shard's outcome list matches its index
    list, and the union of indices covers the grid exactly once.  Counter
    deltas are folded with :meth:`Counters.merge` in shard order — merge
    order cannot matter, since merging is per-name addition.
    """
    shards = sorted(shards, key=lambda shard: shard.shard_index)
    if not shards:
        raise ExperimentError("cannot merge an empty list of outcome shards")

    fingerprints = {shard.plan_fingerprint for shard in shards}
    if len(fingerprints) > 1:
        raise ExperimentError(
            "outcome shards come from different plans (fingerprints "
            f"{sorted(fingerprints)}); refusing to merge"
        )
    fingerprint = shards[0].plan_fingerprint
    if plan is not None and plan.fingerprint != fingerprint:
        raise ExperimentError(
            f"outcome shards carry fingerprint {fingerprint!r} but the plan "
            f"is {plan.fingerprint!r}; these shards belong to a different grid"
        )

    declared = {shard.num_shards for shard in shards}
    if len(declared) > 1:
        raise ExperimentError(
            f"outcome shards disagree on the shard count ({sorted(declared)})"
        )
    num_shards = shards[0].num_shards
    if plan is not None and plan.num_shards != num_shards:
        raise ExperimentError(
            f"shards declare {num_shards} shard(s) but the plan has "
            f"{plan.num_shards}"
        )

    seen_shards = [shard.shard_index for shard in shards]
    duplicate_shards = sorted(
        index for index, count in Counter(seen_shards).items() if count > 1
    )
    out_of_range = [
        index for index in seen_shards if not 0 <= index < num_shards
    ]
    missing_shards = sorted(set(range(num_shards)) - set(seen_shards))
    if duplicate_shards or out_of_range or missing_shards:
        raise ExperimentError(
            f"merging a {num_shards}-shard plan needs every shard exactly "
            f"once, got shard indices {sorted(seen_shards)} "
            f"(missing {missing_shards}); run each missing shard and pass "
            "its outcome file"
        )

    for shard in shards:
        if len(shard.outcomes) != len(shard.indices):
            raise ExperimentError(
                f"shard {shard.shard_index} has {len(shard.outcomes)} "
                f"outcome(s) for {len(shard.indices)} cell(s)"
            )
        for outcome, expected in zip(shard.outcomes, shard.indices):
            if outcome.index != expected:
                raise ExperimentError(
                    f"shard {shard.shard_index} outcome index "
                    f"{outcome.index} does not match its assigned cell "
                    f"{expected}"
                )
        if plan is not None and shard.indices != plan.assignments[shard.shard_index]:
            raise ExperimentError(
                f"shard {shard.shard_index} cell assignment "
                f"{list(shard.indices)} does not match the plan's "
                f"{list(plan.assignments[shard.shard_index])}"
            )

    all_indices = [index for shard in shards for index in shard.indices]
    total = plan.total_cells if plan is not None else len(all_indices)
    duplicates = sorted(
        index for index, count in Counter(all_indices).items() if count > 1
    )
    missing_cells = sorted(set(range(total)) - set(all_indices))
    if duplicates or missing_cells:
        raise ExperimentError(
            "outcome shards do not cover the grid exactly once "
            f"(missing cells {missing_cells}, duplicated cells {duplicates})"
        )

    outcomes: List[ExperimentOutcome] = sorted(
        (outcome for shard in shards for outcome in shard.outcomes),
        key=lambda outcome: outcome.index,
    )
    merged = Counters()
    for shard in shards:
        merged.merge(shard.counters)
    return MergedGrid(
        outcomes=outcomes,
        counters=merged.snapshot(),
        plan_fingerprint=fingerprint,
        num_shards=num_shards,
    )
