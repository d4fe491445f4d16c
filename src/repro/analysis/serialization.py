"""Machine-readable serialisation of experiment outcomes.

One helper module shared by every surface that emits outcome rows —
``repro-place place/sweep --output json``, the shard-worker CLI
(``repro-place shard run``), :mod:`repro.analysis.sharding` outcome-shard
files and the sharded benchmark gate — so a row written anywhere can be
read (and compared byte for byte) everywhere.

Two views of an :class:`~repro.analysis.runner.ExperimentOutcome` exist:

* :func:`outcome_to_dict` — the full row, including the machine-dependent
  ``software_runtime_seconds`` wall time and the per-cell ``counters``
  delta.  This is what shard files and ``--output json`` carry.
* :func:`deterministic_row` — the row restricted to the fields the
  determinism contract covers (wall time and counters stripped).  Two
  executions of the same grid — serial vs sharded, ``jobs=1`` vs
  ``jobs=4`` — must produce byte-identical deterministic rows; this is
  the comparison the sharded bench gate and tests perform.

The full :class:`~repro.core.result.PlacementResult` (``outcome.result``,
present only for ``keep_result=True`` cells) is intentionally *not*
serialised: it is a deep object graph with no JSON form, and every grid
harness consumes only the scalar summary.  In-memory merges keep it;
file round-trips drop it.  :func:`outcome_from_dict` reads rows back and
refuses a row that is not a JSON object or that carries the ``failure``
key of the removed cell-retry layer (``docs/api.md``).

:func:`dump_json` is the canonical encoder (sorted keys, fixed
separators, trailing newline): byte-identical inputs produce
byte-identical files, which is what "merged output equals serial output"
means at the file level.

This module is also where every artifact write becomes **crash-safe**:
:func:`atomic_write_text`/:func:`atomic_write_bytes` write to a temp file
in the destination directory, fsync, and ``os.replace`` into place, so an
interrupted writer leaves either the old file or the new one — never a
torn hybrid.  JSON payloads carry an embedded ``payload_sha256`` checksum
(:func:`checksummed_payload`, verified by :func:`verify_payload_checksum`)
so silent corruption that still parses as JSON is detected on read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.analysis.runner import ExperimentOutcome
from repro.exceptions import ShardFormatError

#: Schema tag written into every JSON payload produced by this module.
SCHEMA_VERSION = 1

#: JSON key under which a payload embeds its own SHA-256 checksum.  The
#: digest covers the canonical encoding of the payload *without* this key.
CHECKSUM_KEY = "payload_sha256"

#: Outcome fields that are machine-dependent and therefore excluded from
#: :func:`deterministic_row`.  ``software_runtime_seconds`` is wall time;
#: ``counters`` include per-process cache counters whose values depend on
#: how the grid was split over processes (see ``docs/parallelism.md``).
NONDETERMINISTIC_FIELDS = ("software_runtime_seconds", "counters")

#: Counter names whose totals are per-cell deterministic wherever the cell
#: runs, so their *sums* over a grid are identical for any execution shape
#: (serial, multi-worker, sharded).  Cache counters are excluded: how many
#: adjacency graphs or host encodings each process builds depends on which
#: cells it received.
WORK_COUNTERS = (
    "monomorphism.searches",
    "monomorphism.nodes_explored",
    "monomorphism.mappings_yielded",
    "scheduler.full_evals",
    "scheduler.incremental_evals",
    "scheduler.ops_replayed",
    "scheduler.ops_skipped",
)


def outcome_to_dict(outcome: ExperimentOutcome) -> Dict[str, Any]:
    """The outcome as a plain JSON-safe dict (``result`` dropped).

    Built field by field rather than via ``dataclasses.asdict``, which
    would deep-convert an attached ``PlacementResult`` graph only for it
    to be discarded.
    """
    row = {
        field.name: getattr(outcome, field.name)
        for field in dataclasses.fields(outcome)
        if field.name != "result"
    }
    row["counters"] = {
        name: int(value) for name, value in sorted(row["counters"].items())
    }
    return row


def outcome_from_dict(row: Mapping[str, Any]) -> ExperimentOutcome:
    """Rebuild an :class:`ExperimentOutcome` from :func:`outcome_to_dict`.

    A row that is not a mapping raises ``TypeError``.  A row carrying a
    ``failure`` key raises :class:`ShardFormatError`: it records a cell
    whose retries ran out, written before the cell-retry layer was
    removed, and read as an ordinary row it would pass for an "N/A" cell.
    """
    if not isinstance(row, Mapping):
        raise TypeError(
            f"an outcome row must be a JSON object, got {type(row).__name__}"
        )
    if "failure" in row:
        raise ShardFormatError(
            f"outcome row of cell {row.get('index')!r} is a failed cell "
            f"(failure={row['failure']!r}) from the removed cell-retry "
            "layer; re-run its shard"
        )
    known = {field.name for field in dataclasses.fields(ExperimentOutcome)} - {"result"}
    data = {key: value for key, value in row.items() if key in known}
    data["counters"] = dict(data.get("counters") or {})
    return ExperimentOutcome(**data)


def deterministic_row(outcome: ExperimentOutcome) -> Dict[str, Any]:
    """The outcome restricted to its deterministic fields.

    Byte-identical across execution shapes (serial, parallel, sharded)
    for the same grid — the unit of comparison of the determinism gates.
    """
    row = outcome_to_dict(outcome)
    for name in NONDETERMINISTIC_FIELDS:
        row.pop(name, None)
    return row


def deterministic_rows(outcomes: Sequence[ExperimentOutcome]) -> List[Dict[str, Any]]:
    """:func:`deterministic_row` over a whole outcome list."""
    return [deterministic_row(outcome) for outcome in outcomes]


def work_counters(counters: Mapping[str, int]) -> Dict[str, int]:
    """Restrict a counter mapping to the execution-shape-free counters."""
    return {
        name: int(counters[name]) for name in WORK_COUNTERS if counters.get(name)
    }


def outcomes_payload(
    outcomes: Sequence[ExperimentOutcome],
    counters: Optional[Mapping[str, int]] = None,
) -> Dict[str, Any]:
    """The shared ``--output json`` payload: outcome rows plus counters."""
    payload: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "rows": [outcome_to_dict(outcome) for outcome in outcomes],
    }
    if counters is not None:
        payload["counters"] = {
            name: int(value) for name, value in sorted(counters.items())
        }
    return payload


def dump_json(payload: object) -> str:
    """Canonical JSON encoding: sorted keys, fixed separators, newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


# ---------------------------------------------------------------------------
# Crash-safe writes and payload checksums
# ---------------------------------------------------------------------------


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory (``os.replace`` must
    not cross filesystems) and is fsynced before the rename, so a crash at
    any point leaves either the previous file or the complete new one.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """UTF-8 text form of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def payload_checksum(payload: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical encoding of ``payload`` sans checksum key."""
    body = {key: value for key, value in payload.items() if key != CHECKSUM_KEY}
    return hashlib.sha256(dump_json(body).encode("utf-8")).hexdigest()


def checksummed_payload(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """A copy of ``payload`` with its :data:`CHECKSUM_KEY` embedded.

    Checksumming is deterministic (canonical encoding), so byte-identical
    payloads produce byte-identical checksummed files.
    """
    body = dict(payload)
    body[CHECKSUM_KEY] = payload_checksum(payload)
    return body


def verify_payload_checksum(payload: Mapping[str, Any], path: str) -> None:
    """Verify an embedded checksum, raising :class:`ShardFormatError`.

    Payloads without a :data:`CHECKSUM_KEY` pass (hand-written files and
    payloads captured from ``--output json`` before checksumming existed
    stay readable); a present-but-wrong checksum means the file was
    corrupted after writing and is rejected with the path and both
    digests in the message.
    """
    declared = payload.get(CHECKSUM_KEY)
    if declared is None:
        return
    actual = payload_checksum(payload)
    if actual != declared:
        raise ShardFormatError(
            f"{path!r}: payload checksum mismatch (file says {declared[:12]}, "
            f"content hashes to {actual[:12]}); the file was corrupted after "
            "it was written"
        )
