"""The repository-level static-analysis gate (``pytest -m lint``).

Tier-1 runs these too (they are cheap); the ``lint`` marker exists so CI
can re-run just the gate after a fix without paying for the full suite.
The mypy case degrades to a skip when mypy is not installed — the runtime
image does not ship it, and the linter gate must not depend on it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_tree

REPO_ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.lint


class TestTreeIsClean:
    def test_tree_has_no_findings(self):
        # There is no baseline: a finding is fixed, or acknowledged inline
        # with ``# repro: allow[CODE]``.
        findings = lint_tree(str(REPO_ROOT))
        assert findings == [], "findings:\n" + "\n".join(
            d.format() for d in findings
        )

    def test_cli_check_exits_zero(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--check"],
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr


class TestTypingGate:
    def test_strict_modules_pass_mypy(self):
        pytest.importorskip("mypy", reason="mypy not installed in this image")
        completed = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "mypy.ini"],
            cwd=str(REPO_ROOT),
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
