"""``python -m repro.lint`` — the static-analysis command line.

Lints the given paths (default: ``src/repro``, ``scripts``,
``benchmarks``) and prints every finding; exits 1 if any exist, 0 when
the tree is clean.  ``--check`` names the same verdict as the CI gate
(step 0 of ``scripts/ci_check.sh``).  There is no baseline: a finding is
fixed, or acknowledged inline with ``# repro: allow[CODE]``.

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
from typing import List, Optional

from repro.analysis.serialization import dump_json
from repro.lint.engine import default_targets, lint_paths


def _default_root() -> str:
    """The repository root: the directory holding this package's ``src``."""
    package_dir = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(package_dir, "..", "..", ".."))


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
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate mode (the CI spelling): exit 0 iff there is no finding",
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
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root) if args.root else _default_root()
    targets = [
        os.path.join(root, path) for path in args.paths
    ] or default_targets(root)
    diagnostics = lint_paths(targets, root=root)

    if args.format == "json":
        print(dump_json({
            "findings": [diagnostic.to_dict() for diagnostic in diagnostics],
            "clean": not diagnostics,
        }))
    elif diagnostics:
        print("\n".join(diagnostic.format() for diagnostic in diagnostics))
        print(f"repro.lint: {len(diagnostics)} finding(s)", file=sys.stderr)
    else:
        print("repro.lint: clean")
    return 1 if diagnostics else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
