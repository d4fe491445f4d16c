"""On-demand build shim and ctypes binding for the native replay kernel.

The ``"native"`` scheduler backend compiles ``_native_kernel.c`` (which
lives next to this module) into a small shared library the first time it
is requested, caches the artifact under a content-addressed name, and
drives it through :mod:`ctypes`.  There is **no install-time dependency**:
a plain ``PYTHONPATH=src`` checkout works, the only requirement is a C
compiler on ``PATH`` (``cc``/``gcc``/``clang``, or ``$CC``) at first use —
after that the cached ``.so`` is reused across processes and sessions.

Failure is a first-class state, not an exception at import time:

* :func:`available` probes (and memoises) whether the kernel can be
  loaded, attempting at most one build per process;
* an explicit ``backend="native"`` request surfaces the recorded one-line
  reason via :func:`load_kernel` (wrapped in a
  :class:`~repro.exceptions.ReproError` by ``resolve_backend``);
* ``backend="auto"`` silently resolves to the python reference loop
  when the kernel is unavailable.

Bit-identity: the kernel performs exactly the IEEE-754 double operations
of the pure Python reference loop (see the comment block at the top of
``_native_kernel.c``); the build deliberately passes ``-ffp-contract=off``
so no multiply-add is fused into an FMA with a single rounding.

The array plumbing uses the stdlib :mod:`array` module, so the scheduler
never imports numpy (a cold ``python -m repro`` process does not load it).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.stats import STATS

if TYPE_CHECKING:
    from repro.hardware.environment import PairDelayTable

#: Environment variable overriding the compiled-artifact cache directory.
CACHE_DIR_ENV_VAR = "REPRO_NATIVE_CACHE"

#: Compiler flags.  ``-ffp-contract=off`` is load-bearing: contraction of
#: ``weight * relative + busy`` into one fused rounding would break the
#: bit-identical backend contract.  ``-O2`` alone never reorders or fuses
#: IEEE double arithmetic on SSE2.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Libraries linked after the source: the annealer calls libm's ``exp``,
#: the function ``math.exp`` calls.
LDLIBS = ("-lm",)

_SOURCE_PATH = Path(__file__).with_name("_native_kernel.c")

# Memoised probe state: None = not yet probed; (kernel, None) on success;
# (None, reason) after a failed build/load attempt.
_PROBE: Optional[Tuple[Optional["_Kernel"], Optional[str]]] = None


def _compiler() -> Optional[str]:
    """The C compiler to use, or ``None`` when no toolchain is present."""
    env_cc = os.environ.get("CC", "").strip()
    if env_cc:
        resolved = shutil.which(env_cc)
        if resolved:
            return resolved
    for candidate in ("cc", "gcc", "clang"):
        resolved = shutil.which(candidate)
        if resolved:
            return resolved
    return None


def cache_dir() -> Path:
    """Directory holding compiled kernel artifacts."""
    override = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "native"


def _artifact_path(source: bytes, compiler: str) -> Path:
    """Content-addressed artifact path: same source + toolchain -> same file."""
    digest = hashlib.sha256()
    digest.update(source)
    digest.update(compiler.encode())
    digest.update(" ".join(CFLAGS + LDLIBS).encode())
    digest.update(f"{sys.platform}-{os.uname().machine}".encode())
    return cache_dir() / f"replay_{digest.hexdigest()[:16]}.so"


class _PairTable(ctypes.Structure):
    """Mirror of ``repro_pair_table`` in ``_native_kernel.c``.

    The pointers of a
    :class:`~repro.hardware.environment.PairDelayTable`: its matrix, or
    its three row buffers (the unused layout's pointers are NULL).
    """

    _fields_ = [
        ("num_nodes", ctypes.c_int64),
        ("default_delay", ctypes.c_double),
        ("matrix", ctypes.POINTER(ctypes.c_double)),
        ("row_start", ctypes.POINTER(ctypes.c_int64)),
        ("row_node", ctypes.POINTER(ctypes.c_int32)),
        ("row_delay", ctypes.POINTER(ctypes.c_double)),
    ]


class _ReplayCtx(ctypes.Structure):
    """Mirror of ``repro_replay_ctx`` in ``_native_kernel.c``.

    Built once per :class:`NativeReplay`; every kernel call after that
    passes this pointer plus at most three scalars.  Field order and
    types must match the C struct exactly.
    """

    _fields_ = [
        ("num_ops", ctypes.c_int64),
        ("num_qubits", ctypes.c_int64),
        ("num_env_nodes", ctypes.c_int64),
        ("interval", ctypes.c_int64),
        ("num_checkpoints", ctypes.c_int64),
        ("stop_index", ctypes.c_int64),
        ("ops_a", ctypes.POINTER(ctypes.c_int32)),
        ("ops_b", ctypes.POINTER(ctypes.c_int32)),
        ("relative", ctypes.POINTER(ctypes.c_double)),
        ("single_delays", ctypes.POINTER(ctypes.c_double)),
        ("pairs", _PairTable),
        ("eval_nodes", ctypes.POINTER(ctypes.c_int32)),
        ("base_nodes", ctypes.POINTER(ctypes.c_int32)),
        ("changed_flag", ctypes.POINTER(ctypes.c_int8)),
        ("changed_target", ctypes.POINTER(ctypes.c_int32)),
        ("base_durations", ctypes.POINTER(ctypes.c_double)),
        ("checkpoints", ctypes.POINTER(ctypes.c_double)),
        ("times", ctypes.POINTER(ctypes.c_double)),
        ("first_touch", ctypes.POINTER(ctypes.c_int64)),
        ("occupant", ctypes.POINTER(ctypes.c_int32)),
    ]


class _Kernel:
    """The loaded shared library with typed entry points."""

    def __init__(self, path: Path) -> None:
        lib = ctypes.CDLL(str(path))
        self.path = path
        ctx_p = ctypes.POINTER(_ReplayCtx)
        self.ctx_full = lib.repro_ctx_full
        self.ctx_full.restype = ctypes.c_double
        self.ctx_full.argtypes = [
            ctx_p,              # ctx
            ctypes.c_int32,     # record (1 = base_nodes + tables)
        ]
        self.ctx_tail = lib.repro_ctx_tail
        self.ctx_tail.restype = ctypes.c_double
        self.ctx_tail.argtypes = [
            ctx_p,              # ctx
            ctypes.c_int64,     # start
            ctypes.c_double,    # cutoff
            ctypes.c_int32,     # has_cutoff
        ]
        int32_p = ctypes.POINTER(ctypes.c_int32)
        self.hill_climb = lib.repro_hill_climb
        self.hill_climb.restype = ctypes.c_int32
        self.hill_climb.argtypes = [
            ctx_p,              # ctx
            ctypes.c_int64,     # num_starts
            int32_p,            # nodes (start rows in, final rows out)
            int32_p,            # keys (placement-key order, one row per start)
            int32_p,            # movable
            ctypes.c_int64,     # num_movable
            int32_p,            # allowed
            ctypes.c_int64,     # num_allowed
            ctypes.c_int64,     # max_rounds
            ctypes.POINTER(ctypes.c_double),  # costs_out[num_starts]
            ctypes.POINTER(ctypes.c_int8),    # repeats_out[num_starts]
            ctypes.POINTER(ctypes.c_double),  # base_runtime_out
            ctypes.POINTER(ctypes.c_int64),   # counts_out[4]
        ]
        int64_p = ctypes.POINTER(ctypes.c_int64)
        self.anneal = lib.repro_anneal
        self.anneal.restype = ctypes.c_double
        self.anneal.argtypes = [
            ctx_p,              # ctx
            ctypes.POINTER(ctypes.c_uint32),  # mt[625] (in and out)
            int32_p,            # nodes (start row in, best row out)
            int32_p,            # movable
            ctypes.c_int64,     # num_movable
            int64_p,            # partner_start[num_movable + 1]
            int32_p,            # partners
            ctypes.c_char_p,    # rows (neighbour bit rows, node order)
            ctypes.c_int64,     # row_words
            int32_p,            # canon_node
            ctypes.c_int64,     # num_canon
            int32_p,            # node_canon (scratch)
            int32_p,            # allowed
            ctypes.c_int64,     # num_allowed
            ctypes.c_int64,     # iterations
            ctypes.c_double,    # start_cost
            ctypes.c_double,    # t0
            ctypes.c_double,    # alpha
            ctypes.c_double,    # local_fraction
            ctypes.c_double,    # limit_temperatures
            ctypes.POINTER(ctypes.c_double),  # base_runtime_out
            int64_p,            # counts_out[6]
        ]


def _first_line(text: str) -> str:
    """The first non-blank line of a diagnostic, for one-line reasons."""
    lines = text.strip().splitlines()
    return lines[0] if lines else "unknown error"


def _build_and_load() -> Tuple[Optional[_Kernel], Optional[str]]:
    """Compile (if needed) and load the kernel; never raises."""
    try:
        source = _SOURCE_PATH.read_bytes()
    except OSError as error:
        return None, f"kernel source unreadable: {error}"
    compiler = _compiler()
    if compiler is None:
        return None, "no C compiler found (tried $CC, cc, gcc, clang)"
    artifact = _artifact_path(source, compiler)
    if not artifact.exists():
        tmp_name: Optional[str] = None
        try:
            artifact.parent.mkdir(parents=True, exist_ok=True)
            # Compile to a unique temp name, then atomically publish: two
            # concurrent first-time processes race harmlessly.
            fd, tmp_name = tempfile.mkstemp(
                suffix=".so", prefix="replay_build_", dir=str(artifact.parent)
            )
            os.close(fd)
            command = [
                compiler, *CFLAGS, "-o", tmp_name, str(_SOURCE_PATH), *LDLIBS
            ]
            completed = subprocess.run(
                command, capture_output=True, text=True, timeout=120
            )
            if completed.returncode != 0:
                detail = _first_line(completed.stderr or completed.stdout)
                return None, (
                    f"compilation failed ({' '.join(command[:2])}...): {detail}"
                )
            os.replace(tmp_name, artifact)
            tmp_name = None
        except (OSError, subprocess.SubprocessError) as error:
            return None, f"kernel build failed: {_first_line(str(error))}"
        finally:
            # Every path that did not publish the artifact removes it.
            if tmp_name is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_name)
    try:
        return _Kernel(artifact), None
    except OSError as error:
        return None, f"kernel load failed: {error}"


def available() -> bool:
    """Whether the native kernel can be used in this process.

    At most one build attempt per process; the result (and any one-line
    failure reason) is memoised.
    """
    global _PROBE
    if _PROBE is None:
        _PROBE = _build_and_load()
        if _PROBE[0] is None:
            STATS.increment("scheduler.native_build_failures")
    return _PROBE[0] is not None


def unavailable_reason() -> Optional[str]:
    """The one-line failure reason after a failed probe (else ``None``)."""
    available()
    assert _PROBE is not None
    return _PROBE[1]


def load_kernel() -> _Kernel:
    """The loaded kernel; raises ``RuntimeError`` with the one-line reason."""
    if not available():
        raise RuntimeError(unavailable_reason() or "native kernel unavailable")
    assert _PROBE is not None and _PROBE[0] is not None
    return _PROBE[0]


def reset_probe_for_tests() -> None:
    """Forget the memoised probe (test hook: re-probe under a new env)."""
    global _PROBE
    _PROBE = None


def _double_view(buffer: array) -> "ctypes.Array[ctypes.c_double]":
    return (ctypes.c_double * len(buffer)).from_buffer(buffer)


def _int32_view(buffer: array) -> "ctypes.Array[ctypes.c_int32]":
    return (ctypes.c_int32 * len(buffer)).from_buffer(buffer)


def _pointer(buffer: Optional[array], kind: Any) -> Any:
    """A ``kind`` pointer to ``buffer``'s data, or NULL for ``None``.

    The pointer does not keep ``buffer`` alive: its owner must be kept
    referenced for as long as the kernel may read it.
    """
    if buffer is None:
        return ctypes.POINTER(kind)()
    return ctypes.cast(buffer.buffer_info()[0], ctypes.POINTER(kind))


class NativeReplay:
    """Per-evaluator native state: compiled op arrays + base-placement state.

    Stores the op list, the single-qubit delays and the base-placement
    state in stdlib ``array`` buffers shared zero-copy with the C kernel,
    which reads pair delays in place from the environment's shared
    :class:`~repro.hardware.environment.PairDelayTable` (its matrix or its
    rows).  The owning :class:`~repro.timing.scheduler.RuntimeEvaluator`
    keeps all public bookkeeping (STATS counters, checkpoint arithmetic,
    cutoff semantics) so both backends stay operation-for-operation
    comparable; only :meth:`hill_climb` and :meth:`anneal` do that
    arithmetic in C, and they report their counts back for the evaluator
    to book.
    """

    __slots__ = (
        "_kernel",
        "num_ops",
        "num_qubits",
        "num_env_nodes",
        "interval",
        "num_checkpoints",
        "_ops_a",
        "_ops_b",
        "_relative",
        "_single",
        "_pair",
        "_ops_a_p",
        "_ops_b_p",
        "_relative_p",
        "_single_p",
        "_times",
        "_times_p",
        "_flags",
        "_flags_p",
        "_targets",
        "_targets_p",
        "_eval_nodes",
        "_eval_nodes_p",
        "_base_nodes",
        "_base_nodes_p",
        "_durations",
        "_durations_p",
        "_checkpoints",
        "_checkpoints_p",
        "_first_touch",
        "_first_touch_p",
        "_occupant",
        "_occupant_p",
        "_ctx",
        "_ctx_ref",
    )

    def __init__(
        self,
        ops: Sequence[Tuple[int, int, float]],
        num_qubits: int,
        single_delays: Sequence[float],
        pairs: "PairDelayTable",
        checkpoint_interval: int,
        first_touch: Sequence[int],
    ) -> None:
        self._kernel = load_kernel()
        self.num_ops = len(ops)
        self.num_qubits = num_qubits
        self.num_env_nodes = pairs.num_nodes
        self.interval = checkpoint_interval
        self.num_checkpoints = (
            (self.num_ops + checkpoint_interval - 1) // checkpoint_interval
            if self.num_ops
            else 0
        )
        self._ops_a = array("i", (op[0] for op in ops))
        self._ops_b = array("i", (op[1] for op in ops))
        self._relative = array("d", (op[2] for op in ops))
        self._single = array("d", single_delays)
        self._pair = pairs
        self._times = array("d", bytes(8 * num_qubits))
        self._flags = array("b", bytes(num_qubits))
        self._targets = array("i", bytes(4 * num_qubits))
        self._eval_nodes = array("i", bytes(4 * num_qubits))
        self._base_nodes = array("i", bytes(4 * num_qubits))
        self._durations = array("d", bytes(8 * self.num_ops))
        self._checkpoints = array(
            "d", bytes(8 * self.num_checkpoints * num_qubits)
        )
        self._first_touch = array("q", first_touch)
        # ctypes views are built once: per-call from_buffer would dominate
        # the kernel-call cost on the incremental hot path.
        self._ops_a_p = _int32_view(self._ops_a)
        self._ops_b_p = _int32_view(self._ops_b)
        self._relative_p = _double_view(self._relative)
        self._single_p = _double_view(self._single)
        self._times_p = _double_view(self._times)
        self._flags_p = (ctypes.c_int8 * num_qubits).from_buffer(self._flags)
        self._targets_p = _int32_view(self._targets)
        self._eval_nodes_p = _int32_view(self._eval_nodes)
        self._base_nodes_p = _int32_view(self._base_nodes)
        self._durations_p = _double_view(self._durations)
        self._checkpoints_p = _double_view(self._checkpoints)
        self._first_touch_p = (ctypes.c_int64 * num_qubits).from_buffer(
            self._first_touch
        )
        # The occupant table is allocated by the first hill_climb() or
        # anneal(), so evaluators that do neither never build it.
        self._occupant: Optional[array] = None
        self._occupant_p: Optional["ctypes.Array[ctypes.c_int32]"] = None
        # The context struct binds every constant operand once; the view
        # attributes above keep the underlying buffers alive for as long
        # as the struct's raw pointers are reachable.
        double_p = ctypes.POINTER(ctypes.c_double)
        int32_p = ctypes.POINTER(ctypes.c_int32)
        self._ctx = _ReplayCtx(
            num_ops=self.num_ops,
            num_qubits=self.num_qubits,
            num_env_nodes=self.num_env_nodes,
            interval=self.interval,
            num_checkpoints=self.num_checkpoints,
            stop_index=-1,
            ops_a=ctypes.cast(self._ops_a_p, int32_p),
            ops_b=ctypes.cast(self._ops_b_p, int32_p),
            relative=ctypes.cast(self._relative_p, double_p),
            single_delays=ctypes.cast(self._single_p, double_p),
            # self._pair keeps the table's buffers alive.
            pairs=_PairTable(
                num_nodes=pairs.num_nodes,
                default_delay=pairs.default,
                matrix=_pointer(pairs.matrix, ctypes.c_double),
                row_start=_pointer(pairs.row_start, ctypes.c_int64),
                row_node=_pointer(pairs.row_node, ctypes.c_int32),
                row_delay=_pointer(pairs.row_delay, ctypes.c_double),
            ),
            eval_nodes=ctypes.cast(self._eval_nodes_p, int32_p),
            base_nodes=ctypes.cast(self._base_nodes_p, int32_p),
            changed_flag=ctypes.cast(
                self._flags_p, ctypes.POINTER(ctypes.c_int8)
            ),
            changed_target=ctypes.cast(self._targets_p, int32_p),
            base_durations=ctypes.cast(self._durations_p, double_p),
            checkpoints=ctypes.cast(self._checkpoints_p, double_p),
            times=ctypes.cast(self._times_p, double_p),
            first_touch=ctypes.cast(
                self._first_touch_p, ctypes.POINTER(ctypes.c_int64)
            ),
        )
        self._ctx_ref = ctypes.byref(self._ctx)

    # -- full evaluation ----------------------------------------------------

    def run_full(self, nodes: List[int]) -> float:
        """One full evaluation (no recorded state) under ``nodes``."""
        if not self.num_ops:
            return 0.0
        self._eval_nodes[:] = array("i", nodes)
        return self._kernel.ctx_full(self._ctx_ref, 0)

    def set_base(self, nodes: List[int]) -> float:
        """Full evaluation recording durations + checkpoints for tail replay."""
        self._base_nodes[:] = array("i", nodes)
        if not self.num_ops:
            return 0.0
        return self._kernel.ctx_full(self._ctx_ref, 1)

    def base_nodes(self) -> List[int]:
        """The recorded base placement (one node index per qubit)."""
        return self._base_nodes.tolist()

    # -- incremental tail replay ---------------------------------------------

    def replay_tail(
        self,
        changed: Dict[int, int],
        start: int,
        cutoff: Optional[float],
    ) -> Tuple[float, int]:
        """Replay ops ``start..`` with ``changed`` qubits re-placed.

        Returns ``(runtime, stop_index)``; ``stop_index`` is the op index
        at which the monotone cutoff fired, or ``-1`` when the tail ran to
        completion (in which case ``runtime`` is exact).
        """
        flags = self._flags
        targets = self._targets
        for index, target in changed.items():
            flags[index] = 1
            targets[index] = target
        try:
            result = self._kernel.ctx_tail(
                self._ctx_ref,
                start,
                0.0 if cutoff is None else cutoff,
                0 if cutoff is None else 1,
            )
        finally:
            for index in changed:
                flags[index] = 0
        return result, self._ctx.stop_index

    def _ensure_occupant(self) -> None:
        """Allocate the node -> qubit scratch of the climb and the anneal."""
        if self._occupant is None:
            self._occupant = array("i", bytes(4 * self.num_env_nodes))
            self._occupant_p = _int32_view(self._occupant)
            self._ctx.occupant = ctypes.cast(
                self._occupant_p, ctypes.POINTER(ctypes.c_int32)
            )

    # -- whole hill climb ----------------------------------------------------

    def hill_climb(
        self,
        num_starts: int,
        starts: array,
        keys: array,
        movable: List[int],
        allowed: List[int],
        max_rounds: int,
    ) -> Tuple[List[int], List[float], List[int], float, Tuple[int, int, int, int]]:
        """Run the first-improvement climb from every start row in C.

        ``starts`` holds ``num_starts`` rows of ``num_qubits`` node
        indices (overwritten with the final rows) and ``keys`` the matching
        rows of qubit indices in placement-key order; ``movable`` and
        ``allowed`` are the search order.  Each row is re-based and climbed
        in turn with one merge memo, leaving the recorded base on the last
        row's result.  Returns ``(nodes, costs, repeats, base_runtime,
        counts)``: the final node rows (flat), each row's cost, a 1 for
        each row whose final row repeats an earlier one, the final base's
        runtime, and the full-evaluation, incremental-evaluation,
        ops-skipped and ops-replayed counts summed over the rows.  Raises
        ``MemoryError`` when the kernel cannot allocate the memo.
        """
        # The kernel reads num_qubits entries per row of both buffers.
        if not len(keys) == len(starts) == num_starts * self.num_qubits:
            raise ValueError(
                f"hill_climb() needs {num_starts} rows of {self.num_qubits} "
                f"entries, got {len(starts)} starts and {len(keys)} keys"
            )
        self._ensure_occupant()
        movable_array = array("i", movable)
        allowed_array = array("i", allowed)
        costs = array("d", bytes(8 * num_starts))
        repeats = array("b", bytes(num_starts))
        base_runtime = ctypes.c_double()
        counts = (ctypes.c_int64 * 4)()
        status = self._kernel.hill_climb(
            self._ctx_ref,
            num_starts,
            _int32_view(starts),
            _int32_view(keys),
            _int32_view(movable_array),
            len(movable_array),
            _int32_view(allowed_array),
            len(allowed_array),
            max_rounds,
            _double_view(costs),
            (ctypes.c_int8 * num_starts).from_buffer(repeats),
            ctypes.byref(base_runtime),
            counts,
        )
        if status != 0:
            raise MemoryError("the native hill climb could not allocate its memo")
        return (
            starts.tolist(),
            costs.tolist(),
            repeats.tolist(),
            base_runtime.value,
            (counts[0], counts[1], counts[2], counts[3]),
        )

    # -- whole anneal --------------------------------------------------------

    def anneal(
        self,
        state: Sequence[int],
        nodes: array,
        movable: array,
        partner_start: array,
        partners: array,
        rows: bytes,
        row_words: int,
        canon_node: array,
        allowed: array,
        iterations: int,
        scalars: Tuple[float, float, float, float, float],
    ) -> Tuple[float, float, Tuple[int, ...], Tuple[int, ...]]:
        """Run one annealing restart in C (``repro_anneal``).

        ``state`` is the generator state, ``random.Random.getstate()[1]``
        (624 words and a position); ``nodes`` the start row, overwritten
        with the best row; ``scalars`` is ``(start_cost, t0, alpha,
        local_fraction, limit_temperatures)``.  The recorded base is left
        on the final placement.  Returns ``(best_cost, base_runtime,
        counts, state)``: the six counts of the kernel's ``counts_out`` and
        the advanced generator state.
        """
        # The kernel reads 625 state words, num_qubits start entries, one
        # offset per movable qubit and one more, and row_words words per
        # host node.
        if len(state) != 625:
            raise ValueError(f"anneal() needs 625 state words, got {len(state)}")
        if len(nodes) != self.num_qubits or len(partner_start) != len(movable) + 1:
            raise ValueError(
                f"anneal() needs a row of {self.num_qubits} nodes and "
                f"{len(movable) + 1} partner offsets, got {len(nodes)} and "
                f"{len(partner_start)}"
            )
        if len(rows) != 8 * row_words * len(canon_node):
            raise ValueError(
                f"anneal() needs {len(canon_node)} rows of {row_words} words, "
                f"got {len(rows)} bytes"
            )
        self._ensure_occupant()
        words = (ctypes.c_uint32 * 625)(*state)
        node_canon = array("i", bytes(4 * self.num_env_nodes))
        base_runtime = ctypes.c_double()
        counts = (ctypes.c_int64 * 6)()
        best_cost = self._kernel.anneal(
            self._ctx_ref,
            words,
            _int32_view(nodes),
            _int32_view(movable),
            len(movable),
            (ctypes.c_int64 * len(partner_start)).from_buffer(partner_start),
            _int32_view(partners),
            rows,
            row_words,
            _int32_view(canon_node),
            len(canon_node),
            _int32_view(node_canon),
            _int32_view(allowed),
            len(allowed),
            iterations,
            *scalars,
            ctypes.byref(base_runtime),
            counts,
        )
        return best_cost, base_runtime.value, tuple(counts), tuple(words)
