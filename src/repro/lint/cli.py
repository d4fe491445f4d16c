"""``python -m repro.lint`` — the static-analysis command line.

Modes:

* default — lint and print every finding (baseline ignored); exit 1 if
  any exist.  The "show me everything" view.
* ``--check`` — the CI gate: exit 0 iff the tree is clean *modulo* the
  committed baseline (no finding above its baselined count, no stale
  baseline entry).  This is step 0 of ``scripts/ci_check.sh``.
* ``--baseline`` — rewrite the baseline file from the current findings
  (the ratchet-tightening action after a fix, never a way to admit new
  debt silently: re-baselining with *more* findings is visible in the
  committed diff).

``--format json`` emits a canonical JSON report — serialised by
:func:`repro.analysis.serialization.dump_json` (sorted keys), findings
pre-sorted by (path, line, col, code) — so the lint output itself obeys
SER001; ``--format text`` (default) prints ``path:line:col: CODE
message`` lines.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis.serialization import dump_json
from repro.lint.baseline import (
    BASELINE_FILENAME,
    compare_to_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.engine import Diagnostic, default_targets, lint_paths


def _default_root() -> str:
    """The repository root: the directory holding this package's ``src``."""
    package_dir = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(package_dir, "..", "..", ".."))


def _report_text(diagnostics: Sequence[Diagnostic], stale: Sequence[str]) -> str:
    lines = [diagnostic.format() for diagnostic in diagnostics]
    lines.extend(
        f"stale baseline entry {key!r}: the finding was fixed; run "
        "'python -m repro.lint --baseline' to ratchet the baseline down"
        for key in stale
    )
    return "\n".join(lines)


def _report_json(
    diagnostics: Sequence[Diagnostic], stale: Sequence[str]
) -> str:
    return dump_json({
        "findings": [diagnostic.to_dict() for diagnostic in diagnostics],
        "stale_baseline_entries": list(stale),
        "clean": not diagnostics and not stale,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="determinism & robustness static analysis "
        "(rule catalog: docs/static-analysis.md)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint "
        "(default: src/repro, scripts, benchmarks)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check",
        action="store_true",
        help="gate mode: exit 0 iff clean modulo the committed baseline",
    )
    mode.add_argument(
        "--baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repository root (default: inferred from the package location)",
    )
    parser.add_argument(
        "--baseline-file",
        default=None,
        help=f"baseline path (default: <root>/{BASELINE_FILENAME})",
    )
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root) if args.root else _default_root()
    targets = [
        os.path.join(root, path) for path in args.paths
    ] or default_targets(root)
    baseline_path = args.baseline_file or os.path.join(root, BASELINE_FILENAME)
    diagnostics = lint_paths(targets, root=root)

    if args.baseline:
        write_baseline(diagnostics, baseline_path)
        print(
            f"baseline written: {baseline_path} "
            f"({len(diagnostics)} finding(s) frozen)"
        )
        return 0

    stale: List[str] = []
    if args.check:
        diagnostics, stale = compare_to_baseline(
            diagnostics, load_baseline(baseline_path)
        )

    report = (
        _report_json(diagnostics, stale)
        if args.format == "json"
        else _report_text(diagnostics, stale)
    )
    if report.strip():
        print(report)
    failed = bool(diagnostics or stale)
    if args.format == "text":
        if failed:
            print(
                f"repro.lint: {len(diagnostics)} finding(s), "
                f"{len(stale)} stale baseline entr(y/ies)",
                file=sys.stderr,
            )
        elif args.check:
            print("repro.lint: clean (modulo baseline)")
        else:
            print("repro.lint: clean")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
