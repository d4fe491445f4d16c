"""``repro.lint`` — the determinism & robustness static-analysis suite.

The package's differentiating guarantee — byte-identical placements and
sweep tables across ``PYTHONHASHSEED``, worker counts, shards, scheduler
backends and placer engines — is enforced dynamically by the fingerprint
tests and bench gates.  This package enforces it *statically*, at review
time: a small AST-based rule engine (stdlib :mod:`ast`, no runtime
dependencies) that recognises the exact hazard patterns earlier PRs spent
whole changes eradicating, before they re-enter the tree.

Every rule applies to every ``repro.*`` module; a rule exempts at most
the one module sanctioned to contain its pattern.  Rule families (see
``docs/static-analysis.md`` for the full catalog):

* **DET** — determinism hazards: hash-order-dependent iteration
  (DET001), ``repr``/``str``/``id`` sort keys that bypass the canonical
  :func:`repro.core._bitset.node_index_table` order (DET002), builtin
  ``hash()`` (DET003), global-state or unseeded :mod:`random` use
  (DET004), wall-clock and UUID values (DET005).
* **ROB** — robustness hazards: non-atomic file writes (ROB001), broad
  exception handlers that swallow silently (ROB002), and
  ``pickle.load`` outside the checksum-verified shard readers (ROB003).
* **PAR** — parallelism-safety hazards: lambdas/nested defs submitted
  to worker pools (PAR001), worker functions mutating module-level
  state outside ``STATS`` (PAR002), and mutable default arguments
  (PAR003).
* **SER** — ``json.dump``/``dumps`` without ``sort_keys=True`` (SER001).

Diagnostics carry file, line, column and rule code; a deliberate
violation is acknowledged inline with ``# repro: allow[CODE]`` anywhere
in the flagged statement's span, the only way to suppress a finding —
``--check`` fails on any other.

Entry points: ``python -m repro.lint [--check] [--format json|text]``
(:mod:`repro.lint.cli`) and the programmatic
:func:`lint_tree` / :func:`lint_source` used by the test gate
(``pytest -m lint``).
"""

from repro.lint.engine import (
    Diagnostic,
    default_targets,
    lint_file,
    lint_paths,
    lint_source,
    lint_tree,
    module_name_for,
    suppressed_lines,
    suppression_covers,
)
from repro.lint.rules import RULES, Rule, rules_by_code

__all__ = [
    "Diagnostic",
    "RULES",
    "Rule",
    "default_targets",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_tree",
    "module_name_for",
    "rules_by_code",
    "suppressed_lines",
    "suppression_covers",
]
