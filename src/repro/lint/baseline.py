"""The committed lint baseline: frozen debt, ratchet-only.

``lint_baseline.json`` (repository root) freezes the findings that
existed when a rule landed, keyed ``"<path>::<code>"`` with a count, so
the gate can be strict on *new* code without demanding a big-bang
cleanup of old code.  The semantics are a ratchet:

* a finding **above** its baselined count fails ``--check`` — new debt
  is never admitted silently;
* a baselined count **above** the current findings also fails — once a
  violation is fixed, ``--baseline`` must shrink the file, so the
  recorded debt only moves down and a fix cannot quietly regress later.

The file is canonical JSON (:func:`repro.analysis.serialization.dump_json`)
written atomically, so re-baselining is itself deterministic: the same
tree always produces the same baseline bytes.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.analysis.serialization import atomic_write_text, dump_json
from repro.exceptions import ReproError
from repro.lint.engine import Diagnostic

#: The baseline's canonical location, relative to the repository root.
BASELINE_FILENAME = "lint_baseline.json"

#: Format tag written into (and checked in) the baseline file.
BASELINE_FORMAT = "repro-lint-baseline"

#: Schema version of the baseline file.
BASELINE_SCHEMA_VERSION = 1


class BaselineError(ReproError):
    """A baseline file that cannot be read or is not a baseline."""


def baseline_key(diagnostic: Diagnostic) -> str:
    """The ``"<path>::<code>"`` key a diagnostic counts under.

    Line numbers are deliberately excluded: unrelated edits move
    violations around within a file, and a baseline that churns on every
    edit stops being reviewable.
    """
    return f"{diagnostic.path}::{diagnostic.code}"


def baseline_counts(diagnostics: Iterable[Diagnostic]) -> Dict[str, int]:
    """Current findings in baseline form (key -> count)."""
    counts: Dict[str, int] = {}
    for diagnostic in diagnostics:
        key = baseline_key(diagnostic)
        counts[key] = counts.get(key, 0) + 1
    return counts


def render_baseline(diagnostics: Iterable[Diagnostic]) -> str:
    """The canonical baseline file content for the given findings."""
    return dump_json({
        "format": BASELINE_FORMAT,
        "schema_version": BASELINE_SCHEMA_VERSION,
        "entries": baseline_counts(diagnostics),
    })


def write_baseline(diagnostics: Iterable[Diagnostic], path: str) -> None:
    """Atomically (re)write the baseline file."""
    atomic_write_text(path, render_baseline(diagnostics))


def load_baseline(path: str) -> Dict[str, int]:
    """Read a baseline file; a missing file is an empty baseline."""
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(
            f"cannot read lint baseline {path!r}: {exc}"
        ) from exc
    if (
        not isinstance(payload, dict)
        or payload.get("format") != BASELINE_FORMAT
        or not isinstance(payload.get("entries"), dict)
    ):
        raise BaselineError(
            f"{path!r} is not a lint baseline (expected format "
            f"{BASELINE_FORMAT!r} with an 'entries' object)"
        )
    entries: Dict[str, int] = {}
    for key, value in payload["entries"].items():
        if not isinstance(key, str) or not isinstance(value, int) or value < 1:
            raise BaselineError(
                f"{path!r}: malformed baseline entry {key!r}: {value!r} "
                "(entries map 'path::CODE' to positive counts)"
            )
        entries[key] = value
    return entries


def compare_to_baseline(
    diagnostics: Iterable[Diagnostic], baseline: Mapping[str, int]
) -> Tuple[List[Diagnostic], List[str]]:
    """Split findings into (new beyond baseline, stale baseline keys).

    For each ``path::code`` key the first ``baseline[key]`` findings are
    absorbed (oldest lines first, the sort order); everything beyond is
    *new*.  Keys whose baselined count exceeds the current findings are
    *stale* — the ratchet must be tightened with ``--baseline``.
    """
    remaining = dict(baseline)
    fresh: List[Diagnostic] = []
    for diagnostic in sorted(diagnostics):
        key = baseline_key(diagnostic)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            fresh.append(diagnostic)
    stale = sorted(key for key, count in remaining.items() if count > 0)
    return fresh, stale
