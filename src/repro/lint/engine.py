"""The rule engine: parse, match, suppress, and report.

One file is linted by parsing it once with :mod:`ast`, running every
rule that applies to the file's dotted module name under the file's
*profile* (strict for ``src``, relaxed for ``scripts/`` and
``benchmarks/``), and dropping findings acknowledged by an inline
suppression::

    root = min(component, key=repr)  # repro: allow[DET002]

A suppression names the rule code(s) it acknowledges
(``allow[DET001,ROB002]`` for several).  It matches a finding when it
sits on **any physical line of the flagged node**, or on the first line
of the innermost enclosing statement (and, for simple statements, the
last) — so multi-line calls can carry the allow on whichever line reads
best.

Everything here is deterministic by construction — files are walked in
sorted order and diagnostics sorted by (path, line, column, code) — so
the linter's own output passes the determinism contract it enforces.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.lint.rules import (
    PROFILE_STRICT,
    RULES,
    Rule,
    profile_for_module,
)

#: Inline suppression syntax: ``# repro: allow[CODE]`` or
#: ``# repro: allow[CODE1,CODE2]`` anywhere in a line's trailing comment.
_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]"
)

#: Directory trees (relative to the repository root) the default lint
#: run covers; each file's profile follows from its module name.
DEFAULT_TARGETS: Tuple[str, ...] = (
    os.path.join("src", "repro"),
    "scripts",
    "benchmarks",
)


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: where, which rule, and what to do instead."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        """The one-line human-readable form (``path:line:col: CODE msg``)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-safe form (canonically serialisable)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


def module_name_for(path: str, root: Optional[str] = None) -> str:
    """The dotted module name a file path lints as.

    Strips ``root`` (when given) and any leading ``src/`` segment, drops
    the ``.py`` suffix, and joins the rest with dots —
    ``src/repro/timing/trace.py`` becomes ``repro.timing.trace``;
    ``__init__.py`` files name their package.  Files outside any package
    (scripts) lint under their bare stem.
    """
    relative = os.path.normpath(path)
    if root is not None:
        root_norm = os.path.normpath(root)
        if relative.startswith(root_norm + os.sep):
            relative = relative[len(root_norm) + 1:]
    parts = relative.replace("\\", "/").split("/")
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part not in ("", ".", ".."))


def suppressed_lines(source: str) -> Dict[int, FrozenSet[str]]:
    """Per-line inline suppressions: line number -> allowed rule codes."""
    suppressions: Dict[int, FrozenSet[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(text)
        if match is not None:
            codes = frozenset(
                token.strip().upper()
                for token in match.group(1).split(",")
                if token.strip()
            )
            if codes:
                suppressions[number] = codes
    return suppressions


def statement_spans(tree: ast.AST) -> List[Tuple[int, int, bool]]:
    """Sorted (start, end, is_simple) spans of every statement.

    A statement is *simple* when it has no nested statement body
    (assignments, expression statements, returns); for those an allow on
    the closing line is as readable as one on the first.  Compound
    statements (``for``, ``with``, ``def`` …) only honour their header
    line, so a suppression cannot silently blanket a whole block.
    """
    spans: List[Tuple[int, int, bool]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        end = int(getattr(node, "end_lineno", None) or node.lineno)
        body = getattr(node, "body", None)
        compound = bool(
            isinstance(body, list) and body and isinstance(body[0], ast.stmt)
        )
        spans.append((node.lineno, end, not compound))
    return sorted(spans)


def suppression_covers(
    code: str,
    line: int,
    end_line: int,
    suppressions: Mapping[int, Iterable[str]],
    spans: Sequence[Tuple[int, int, bool]],
) -> bool:
    """Whether an inline allow for ``code`` matches a finding's span."""
    if not suppressions:
        return False
    candidates = set(range(line, max(line, end_line) + 1))
    enclosing: Optional[Tuple[int, int, bool]] = None
    for span in spans:
        if span[0] <= line <= span[1]:
            if (
                enclosing is None
                or span[0] > enclosing[0]
                or (span[0] == enclosing[0] and span[1] < enclosing[1])
            ):
                enclosing = span
    if enclosing is not None:
        candidates.add(enclosing[0])
        if enclosing[2]:
            candidates.add(enclosing[1])
    return any(
        code in suppressions.get(candidate, ())
        for candidate in sorted(candidates)
    )


def lint_source(
    source: str,
    module: str,
    path: str = "<string>",
    profile: str = PROFILE_STRICT,
    rules: Sequence[Rule] = RULES,
) -> List[Diagnostic]:
    """Lint one source string as dotted module ``module``, returning
    diagnostics sorted by (line, column, code).

    A file that does not parse yields a single ``PARSE`` diagnostic
    rather than crashing the run — a syntax error is caught by the test
    suite anyway; the linter must still report the rest of the tree.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Diagnostic(
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                code="PARSE",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    suppressions = suppressed_lines(source)
    spans = statement_spans(tree)
    diagnostics: List[Diagnostic] = []
    for rule in rules:
        if not rule.applies_to(module, profile):
            continue
        for line, col, end_line, message in rule.check(tree, module):
            if suppression_covers(
                rule.code, line, end_line, suppressions, spans
            ):
                continue
            diagnostics.append(
                Diagnostic(
                    path=path, line=line, col=col, code=rule.code,
                    message=message,
                )
            )
    return sorted(diagnostics)


def profile_for_path(path: str, root: Optional[str] = None) -> str:
    """The rule profile a file path lints under (module-name based)."""
    return profile_for_module(module_name_for(path, root=root))


def _display_path(path: str, root: Optional[str]) -> str:
    display = os.path.relpath(path, root) if root is not None else path
    return display.replace(os.sep, "/")


def lint_file(
    path: str,
    root: Optional[str] = None,
    rules: Sequence[Rule] = RULES,
) -> List[Diagnostic]:
    """Lint one file; diagnostics carry ``path`` relative to ``root``."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    module = module_name_for(path, root=root)
    return lint_source(
        source,
        module,
        path=_display_path(path, root),
        profile=profile_for_module(module),
        rules=rules,
    )


def _python_files(target: str) -> List[str]:
    """Every ``.py`` file under ``target`` (or ``target`` itself), sorted."""
    if os.path.isfile(target):
        return [target]
    collected: List[str] = []
    for directory, subdirectories, files in os.walk(target):
        subdirectories[:] = sorted(
            name for name in subdirectories if name != "__pycache__"
        )
        for name in sorted(files):
            if name.endswith(".py"):
                collected.append(os.path.join(directory, name))
    return collected


def lint_paths(
    targets: Iterable[str],
    root: Optional[str] = None,
    rules: Sequence[Rule] = RULES,
) -> List[Diagnostic]:
    """Lint files and directory trees; one sorted diagnostic list."""
    files: List[str] = []
    for target in targets:
        files.extend(_python_files(target))
    diagnostics: List[Diagnostic] = []
    for path in sorted(dict.fromkeys(files)):
        diagnostics.extend(lint_file(path, root=root, rules=rules))
    return sorted(diagnostics)


def default_targets(root: str) -> List[str]:
    """The directory trees a full lint run covers (existing ones only)."""
    targets = []
    for relative in DEFAULT_TARGETS:
        candidate = os.path.join(root, relative)
        if os.path.isdir(candidate):
            targets.append(candidate)
    return targets


def lint_tree(root: str, rules: Sequence[Rule] = RULES) -> List[Diagnostic]:
    """Lint the default trees of a repository root (``src/repro``,
    ``scripts``, ``benchmarks``)."""
    return lint_paths(default_targets(root), root=root, rules=rules)
