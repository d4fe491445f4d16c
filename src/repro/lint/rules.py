"""The determinism (DET), robustness (ROB), parallelism (PAR) and
serialization (SER) rules.

Each rule is a small :mod:`ast` pattern matcher with a stable code and a
one-line message naming the sanctioned replacement.  Rules are purely
syntactic — no type inference — so they only fire on patterns that are
unambiguously the hazard: a rule that cries wolf gets suppressed into
uselessness, while a quiet rule still catches the regressions that
matter (every hazard class below has bitten this codebase before).

Two rule *profiles* exist: ``strict`` (the ``repro.*`` source tree) runs
every rule on every module, except where a rule names the one module
sanctioned to contain its pattern; ``relaxed`` (``scripts/`` and
``benchmarks/``, which lint under bare stems) runs only the rules marked
``relaxed=True``.  Deliberate exceptions anywhere else carry an inline
``# repro: allow[CODE]``.

The full catalog, with rationale and the sanctioned pattern for each
rule, lives in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

#: A raw finding before path/suppression handling:
#: (line, col, end_line, message).  ``end_line`` is the last physical
#: line of the flagged node, so inline suppressions anywhere in a
#: multi-line statement are honoured.
Finding = Tuple[int, int, int, str]

#: Rule profiles (see the module docstring).
PROFILE_STRICT = "strict"
PROFILE_RELAXED = "relaxed"


def on_output_path(module: str) -> bool:
    """Whether ``module`` belongs to the ``repro`` package.

    Every such module is on the deterministic output path: placements,
    sweep tables, traces and shard payloads are all derived from values
    these modules compute.
    """
    return module == "repro" or module.startswith("repro.")


def profile_for_module(module: str) -> str:
    """The rule profile a dotted module lints under."""
    return PROFILE_STRICT if on_output_path(module) else PROFILE_RELAXED


@dataclass(frozen=True)
class Rule:
    """One lint rule: code, AST checker, profile flag, and the one module
    (if any) sanctioned to contain the rule's pattern."""

    code: str
    summary: str
    check: Callable[[ast.AST, str], Iterator[Finding]]
    relaxed: bool = False
    exempt: Optional[str] = None

    def applies_to(self, module: str, profile: str = PROFILE_STRICT) -> bool:
        if profile == PROFILE_RELAXED:
            return self.relaxed
        return on_output_path(module) and module != self.exempt


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------

#: Builtins whose result order (or value) depends on PYTHONHASHSEED when
#: applied to str-keyed collections.
_ORDER_SENSITIVE_KEYS = ("repr", "str", "id")

#: ``random`` module functions that read or mutate the *global* RNG state.
_GLOBAL_RANDOM_FUNCTIONS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "getstate", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})

#: Call patterns whose value differs between runs (wall clock, UUIDs).
#: ``time.monotonic``/``perf_counter`` are deliberately absent: measuring
#: a duration is sanctioned (timeouts, ``software_runtime_seconds``);
#: only absolute timestamps and UUIDs poison serialised payloads.
_WALL_CLOCK_CALLS = {
    ("time", "time"): "time.time()",
    ("time", "time_ns"): "time.time_ns()",
    ("datetime", "now"): "datetime.now()",
    ("datetime", "utcnow"): "datetime.utcnow()",
    ("datetime", "today"): "datetime.today()",
    ("date", "today"): "date.today()",
    ("uuid", "uuid1"): "uuid.uuid1()",
    ("uuid", "uuid4"): "uuid.uuid4()",
}

#: Mode characters that make ``open()`` write: create, truncate, append,
#: or update in place (``"rb+"``).  Any one of them is a write for ROB001.
_WRITE_MODE_CHARS = frozenset("wax+")

#: Keyword arguments whose value is executed in a worker process
#: (``ExperimentSpec`` factories, executor initializers, ``Process``
#: targets).
_WORKER_CALLABLE_KEYWORDS = frozenset({
    "target", "initializer", "circuit_factory", "environment_factory",
})


def _call_name(node: ast.AST) -> Optional[str]:
    """``foo`` for ``foo(...)`` calls on a bare name, else ``None``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _attribute_pair(func: ast.AST) -> Optional[Tuple[str, str]]:
    """``("mod", "attr")`` for ``mod.attr`` on a bare name, else ``None``."""
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id, func.attr
    return None


def _keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _end_line(node: ast.AST) -> int:
    return int(getattr(node, "end_lineno", None) or getattr(node, "lineno", 1))


def _is_set_expression(node: ast.AST) -> bool:
    """Whether ``node`` is syntactically a set: literal, comp, or call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return _call_name(node) in ("set", "frozenset")


def _literal_strings(node: ast.AST) -> List[str]:
    """Every string constant ``node`` can evaluate to (IfExp branches too)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        return _literal_strings(node.body) + _literal_strings(node.orelse)
    return []


def _findings(
    tree: ast.AST, visit: Callable[[ast.AST, List[Finding]], None]
) -> Iterator[Finding]:
    found: List[Finding] = []
    visit(tree, found)
    return iter(sorted(found))


# ---------------------------------------------------------------------------
# DET001 — hash-order-dependent iteration
# ---------------------------------------------------------------------------


def _det001(tree: ast.AST, module: str) -> Iterator[Finding]:
    """Iteration directly over a set expression (order = hash order)."""

    def visit(root: ast.AST, found: List[Finding]) -> None:
        for node in ast.walk(root):
            iterables: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iterables.extend(gen.iter for gen in node.generators)
            for iterable in iterables:
                if _is_set_expression(iterable):
                    found.append((
                        iterable.lineno,
                        iterable.col_offset,
                        _end_line(iterable),
                        "iteration over a set follows hash order, which "
                        "depends on PYTHONHASHSEED; sort it first "
                        "(canonical_order / node_index_table for graph "
                        "nodes, sorted() for value-ordered data)",
                    ))

    return _findings(tree, visit)


# ---------------------------------------------------------------------------
# DET002 — repr/str/id sort keys bypassing node_index_table
# ---------------------------------------------------------------------------


def _is_order_sensitive_key(node: ast.expr) -> Optional[str]:
    """The offending builtin name when ``key=`` is repr/str/id-based."""
    if isinstance(node, ast.Name) and node.id in _ORDER_SENSITIVE_KEYS:
        return node.id
    if isinstance(node, ast.Lambda):
        for inner in ast.walk(node.body):
            name = _call_name(inner)
            if name in _ORDER_SENSITIVE_KEYS:
                return name
    return None


def _det002(tree: ast.AST, module: str) -> Iterator[Finding]:
    """``sorted``/``min``/``max`` keyed on ``repr``/``str``/``id``."""

    def visit(root: ast.AST, found: List[Finding]) -> None:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) not in ("sorted", "min", "max"):
                continue
            key = _keyword(node, "key")
            if key is None:
                continue
            builtin = _is_order_sensitive_key(key)
            if builtin is not None:
                found.append((
                    node.lineno,
                    node.col_offset,
                    _end_line(node),
                    f"key={builtin} re-derives node order ad hoc; route "
                    "through repro.core._bitset.node_index_table "
                    "(canonical_order / canonical_min) so every tie-break "
                    "shares the one canonical order",
                ))

    return _findings(tree, visit)


# ---------------------------------------------------------------------------
# DET003 — hash() on the fingerprint path
# ---------------------------------------------------------------------------


def _det003(tree: ast.AST, module: str) -> Iterator[Finding]:
    """``hash()`` builtin outside a ``__hash__`` definition."""

    def visit(root: ast.AST, found: List[Finding]) -> None:
        def walk(node: ast.AST) -> None:
            if isinstance(node, ast.FunctionDef) and node.name == "__hash__":
                return  # implementing __hash__ is the one sanctioned use
            if isinstance(node, ast.Call) and _call_name(node) == "hash":
                found.append((
                    node.lineno,
                    node.col_offset,
                    _end_line(node),
                    "hash() is salted by PYTHONHASHSEED for str/bytes and "
                    "must not feed a fingerprint; use hashlib.sha256 over "
                    "canonical bytes (serialization.dump_json)",
                ))
            for child in ast.iter_child_nodes(node):
                walk(child)

        walk(root)

    return _findings(tree, visit)


# ---------------------------------------------------------------------------
# DET004 — global-state or unseeded random
# ---------------------------------------------------------------------------


def _det004(tree: ast.AST, module: str) -> Iterator[Finding]:
    """``random.*`` global-state calls, or ``random.Random()`` unseeded."""

    def visit(root: ast.AST, found: List[Finding]) -> None:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            pair = _attribute_pair(node.func)
            if pair is None or pair[0] != "random":
                continue
            if pair[1] in _GLOBAL_RANDOM_FUNCTIONS:
                found.append((
                    node.lineno,
                    node.col_offset,
                    _end_line(node),
                    f"random.{pair[1]}() uses the interpreter-global RNG "
                    "state; use a private random.Random seeded from "
                    "sha256 of the spec seed (the placer-anneal idiom)",
                ))
            elif pair[1] == "Random" and not node.args and not node.keywords:
                found.append((
                    node.lineno,
                    node.col_offset,
                    _end_line(node),
                    "random.Random() with no seed draws from OS entropy; "
                    "derive the seed from the spec (sha256 of seed and "
                    "workspace index, the placer-anneal idiom)",
                ))

    return _findings(tree, visit)


# ---------------------------------------------------------------------------
# DET005 — wall clock / UUIDs near serialised payloads
# ---------------------------------------------------------------------------


def _det005(tree: ast.AST, module: str) -> Iterator[Finding]:
    """Wall-clock or UUID calls (absolute, run-unique values)."""

    def visit(root: ast.AST, found: List[Finding]) -> None:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            pair = _attribute_pair(node.func)
            if pair in _WALL_CLOCK_CALLS:
                found.append((
                    node.lineno,
                    node.col_offset,
                    _end_line(node),
                    f"{_WALL_CLOCK_CALLS[pair]} is run-dependent and must "
                    "not reach a serialised or fingerprinted payload; "
                    "byte-identical inputs must produce byte-identical "
                    "files",
                ))

    return _findings(tree, visit)


# ---------------------------------------------------------------------------
# ROB001 — non-atomic writes
# ---------------------------------------------------------------------------


def _rob001(tree: ast.AST, module: str) -> Iterator[Finding]:
    """``open()`` for writing (any ``w``/``a``/``x``/``+`` mode) that
    bypasses atomic_write_*."""

    def visit(root: ast.AST, found: List[Finding]) -> None:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call) or _call_name(node) != "open":
                continue
            mode_node: Optional[ast.expr] = None
            if len(node.args) >= 2:
                mode_node = node.args[1]
            else:
                mode_node = _keyword(node, "mode")
            if mode_node is None:
                continue
            if any(
                _WRITE_MODE_CHARS.intersection(mode)
                for mode in _literal_strings(mode_node)
            ):
                found.append((
                    node.lineno,
                    node.col_offset,
                    _end_line(node),
                    "artifact writes must be crash-safe; use "
                    "analysis.serialization.atomic_write_text/bytes "
                    "(temp file + fsync + os.replace) instead of a "
                    "direct open-for-write",
                ))

    return _findings(tree, visit)


# ---------------------------------------------------------------------------
# ROB002 — broad exception handlers that swallow silently
# ---------------------------------------------------------------------------


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names: List[ast.expr] = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return any(
        isinstance(name, ast.Name) and name.id in ("Exception", "BaseException")
        for name in names
    )


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    """No re-raise and no counter increment anywhere in the handler body."""
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return False
            pair = _attribute_pair(node.func) if isinstance(node, ast.Call) else None
            if pair is not None and pair[0] == "STATS":
                return False
    return True


def _rob002(tree: ast.AST, module: str) -> Iterator[Finding]:
    """Bare/broad ``except`` that neither re-raises nor counts."""

    def visit(root: ast.AST, found: List[Finding]) -> None:
        for node in ast.walk(root):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _is_broad_handler(node) and _handler_swallows(node):
                # The span is the handler *header* only: an allow must sit
                # on the ``except`` line, not anywhere in the body.
                header_end = (
                    _end_line(node.type) if node.type is not None
                    else node.lineno
                )
                found.append((
                    node.lineno,
                    node.col_offset,
                    header_end,
                    "broad except swallows the failure invisibly; "
                    "re-raise a typed error, or record the fallback with "
                    "a STATS counter so degraded paths stay observable",
                ))

    return _findings(tree, visit)


# ---------------------------------------------------------------------------
# ROB003 — unpickling outside the checksum-verified readers
# ---------------------------------------------------------------------------


def _rob003(tree: ast.AST, module: str) -> Iterator[Finding]:
    """``pickle.load``/``loads`` anywhere but the shard readers."""

    def visit(root: ast.AST, found: List[Finding]) -> None:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            pair = _attribute_pair(node.func)
            if pair is not None and pair[0] == "pickle" and pair[1] in (
                "load", "loads",
            ):
                found.append((
                    node.lineno,
                    node.col_offset,
                    _end_line(node),
                    "pickle.load on unverified bytes executes arbitrary "
                    "code on corruption; only the checksum-verified shard "
                    "readers (analysis.sharding.read_shard) may unpickle",
                ))

    return _findings(tree, visit)


# ---------------------------------------------------------------------------
# PAR001 / PAR002 — worker-submission safety
# ---------------------------------------------------------------------------


def _submitted_callables(tree: ast.AST) -> List[ast.expr]:
    """Expressions handed to a worker pool / process / spec factory.

    Covers ``pool.submit(f, ...)``, ``Process(target=f)``, executor
    ``initializer=f``, and ``ExperimentSpec``/``replace`` factory
    keywords (``circuit_factory=`` / ``environment_factory=``) — every
    site where a callable crosses a process boundary by pickling.
    """
    submitted: List[ast.expr] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
        ):
            submitted.append(node.args[0])
        for keyword in node.keywords:
            if keyword.arg in _WORKER_CALLABLE_KEYWORDS:
                submitted.append(keyword.value)
    return submitted


def _def_name_scopes(tree: ast.AST) -> Tuple[Set[str], Set[str]]:
    """(module-level def names, nested def names) in one pass."""
    module_level: Set[str] = set()
    nested: Set[str] = set()

    def walk(node: ast.AST, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                (module_level if depth == 0 else nested).add(child.name)
                walk(child, depth + 1)
            elif isinstance(child, ast.ClassDef):
                # Methods pickle via their class; only function nesting
                # makes a callable unreachable by reference.
                walk(child, depth)
            elif isinstance(child, ast.Lambda):
                walk(child, depth + 1)
            else:
                walk(child, depth)

    walk(tree, 0)
    return module_level, nested


def _par001(tree: ast.AST, module: str) -> Iterator[Finding]:
    """Lambda / nested def handed to a worker pool (pickles by reference)."""

    def visit(root: ast.AST, found: List[Finding]) -> None:
        module_level, nested = _def_name_scopes(root)
        for expr in _submitted_callables(root):
            flagged: Optional[str] = None
            if isinstance(expr, ast.Lambda):
                flagged = "a lambda"
            elif (
                isinstance(expr, ast.Name)
                and expr.id in nested
                and expr.id not in module_level
            ):
                flagged = f"nested function {expr.id!r}"
            if flagged is not None:
                found.append((
                    expr.lineno,
                    expr.col_offset,
                    _end_line(expr),
                    f"{flagged} is submitted to a worker pool but is not "
                    "module-level; callables pickle by reference, so "
                    "workers cannot import it and plan fingerprints "
                    "become process-dependent — define it at module "
                    "scope (functools.partial over a module-level "
                    "function is fine)",
                ))

    return _findings(tree, visit)


def _module_level_names(tree: ast.AST) -> Set[str]:
    """Names bound by assignment at module level (worker-shared state)."""
    names: Set[str] = set()
    for node in ast.iter_child_nodes(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _worker_defs(tree: ast.AST) -> List[ast.AST]:
    """Module-level defs executed inside worker processes."""
    wanted: Set[str] = set()
    for expr in _submitted_callables(tree):
        if isinstance(expr, ast.Name):
            wanted.add(expr.id)
    return [
        node
        for node in ast.iter_child_nodes(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in wanted
    ]


def _par002(tree: ast.AST, module: str) -> Iterator[Finding]:
    """Worker-executed function mutating module-level state."""

    def visit(root: ast.AST, found: List[Finding]) -> None:
        shared = _module_level_names(root)
        for worker in _worker_defs(root):
            declared_global: Set[str] = set()
            for node in ast.walk(worker):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
            for node in ast.walk(worker):
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                for target in targets:
                    hazard = False
                    if (
                        isinstance(target, ast.Name)
                        and target.id in declared_global
                    ):
                        hazard = True
                    elif isinstance(target, (ast.Subscript, ast.Attribute)):
                        base = target
                        while isinstance(base, (ast.Subscript, ast.Attribute)):
                            base = base.value
                        if (
                            isinstance(base, ast.Name)
                            and base.id in shared
                            and base.id != "STATS"
                        ):
                            hazard = True
                    if hazard:
                        found.append((
                            node.lineno,
                            node.col_offset,
                            _end_line(node),
                            "worker-executed function mutates module-level "
                            "state; per-process copies diverge and merge "
                            "back nondeterministically — return the value, "
                            "or record it via STATS counters (which merge "
                            "deterministically)",
                        ))

    return _findings(tree, visit)


# ---------------------------------------------------------------------------
# PAR003 — mutable default arguments
# ---------------------------------------------------------------------------


def _is_mutable_default(node: ast.expr) -> bool:
    """A list/dict/set display or comprehension, or a bare container call."""
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    return _call_name(node) in ("list", "dict", "set", "bytearray")


def _par003(tree: ast.AST, module: str) -> Iterator[Finding]:
    """A def whose default argument is a mutable container."""

    def visit(root: ast.AST, found: List[Finding]) -> None:
        for node in ast.walk(root):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaults: List[Tuple[ast.arg, Optional[ast.expr]]] = list(
                zip(positional[len(positional) - len(args.defaults):], args.defaults)
            )
            defaults.extend(zip(args.kwonlyargs, args.kw_defaults))
            for arg, default in defaults:
                if default is not None and _is_mutable_default(default):
                    found.append((
                        default.lineno,
                        default.col_offset,
                        _end_line(default),
                        f"mutable default for {arg.arg!r} on {node.name!r} "
                        "is evaluated once and shared by every call (and, "
                        "on a registry provider or placer, by every cell "
                        "and worker); default to None and build the "
                        "container in the body",
                    ))

    return _findings(tree, visit)


# ---------------------------------------------------------------------------
# SER001 — non-canonical JSON
# ---------------------------------------------------------------------------


def _ser001(tree: ast.AST, module: str) -> Iterator[Finding]:
    """``json.dump``/``json.dumps`` without ``sort_keys=True``."""

    def visit(root: ast.AST, found: List[Finding]) -> None:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            if _attribute_pair(node.func) not in (
                ("json", "dump"), ("json", "dumps"),
            ):
                continue
            sort_keys = _keyword(node, "sort_keys")
            if isinstance(sort_keys, ast.Constant) and sort_keys.value is True:
                continue
            found.append((
                node.lineno,
                node.col_offset,
                _end_line(node),
                "json.dump* without sort_keys=True emits non-canonical key "
                "order, so byte-identical inputs stop producing "
                "byte-identical files; use analysis.serialization.dump_json "
                "(or pass sort_keys=True)",
            ))

    return _findings(tree, visit)


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------

RULES: Tuple[Rule, ...] = (
    Rule(
        code="DET001",
        summary="iteration over a set/frozenset follows hash order",
        check=_det001,
        relaxed=True,
    ),
    Rule(
        code="DET002",
        summary="sorted/min/max keyed on repr/str/id bypasses "
        "node_index_table",
        check=_det002,
        relaxed=True,
        # node_index_table holds the one sort every other site routes through.
        exempt="repro.core._bitset",
    ),
    Rule(
        code="DET003",
        summary="hash() builtin outside a __hash__ definition",
        check=_det003,
    ),
    Rule(
        code="DET004",
        summary="global-state or unseeded random",
        check=_det004,
        relaxed=True,
    ),
    Rule(
        code="DET005",
        summary="wall clock/UUID value",
        check=_det005,
    ),
    Rule(
        code="ROB001",
        summary="non-atomic file write",
        check=_rob001,
        # atomic_write_text/bytes must open their own temp files.
        exempt="repro.analysis.serialization",
    ),
    Rule(
        code="ROB002",
        summary="broad except that swallows without re-raise or counter",
        check=_rob002,
        relaxed=True,
    ),
    Rule(
        code="ROB003",
        summary="pickle.load outside the checksum-verified shard readers",
        check=_rob003,
        exempt="repro.analysis.sharding",
    ),
    Rule(
        code="PAR001",
        summary="non-module-level callable submitted to a worker pool",
        check=_par001,
    ),
    Rule(
        code="PAR002",
        summary="worker-executed function mutates module-level state",
        check=_par002,
    ),
    Rule(
        code="PAR003",
        summary="mutable default argument",
        check=_par003,
    ),
    Rule(
        code="SER001",
        summary="json.dump* without sort_keys=True",
        check=_ser001,
    ),
)


def rules_by_code() -> Dict[str, Rule]:
    """The catalog as a code-keyed mapping (codes are unique)."""
    return {rule.code: rule for rule in RULES}
