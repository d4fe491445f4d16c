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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.stats import STATS

#: Environment variable overriding the compiled-artifact cache directory.
CACHE_DIR_ENV_VAR = "REPRO_NATIVE_CACHE"

#: Compiler flags.  ``-ffp-contract=off`` is load-bearing: contraction of
#: ``weight * relative + busy`` into one fused rounding would break the
#: bit-identical backend contract.  ``-O2`` alone never reorders or fuses
#: IEEE double arithmetic on SSE2.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

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
    digest.update(" ".join(CFLAGS).encode())
    digest.update(f"{sys.platform}-{os.uname().machine}".encode())
    return cache_dir() / f"replay_{digest.hexdigest()[:16]}.so"


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
        ("pair", ctypes.POINTER(ctypes.c_double)),
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
        self.hill_climb.restype = ctypes.c_double
        self.hill_climb.argtypes = [
            ctx_p,              # ctx
            int32_p,            # keys (placement-key order)
            ctypes.c_int64,     # num_keys
            int32_p,            # movable
            ctypes.c_int64,     # num_movable
            int32_p,            # allowed
            ctypes.c_int64,     # num_allowed
            ctypes.c_int64,     # max_rounds
            ctypes.POINTER(ctypes.c_double),  # base_runtime (in/out)
            ctypes.POINTER(ctypes.c_int64),   # counts_out[4]
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
            command = [compiler, *CFLAGS, "-o", tmp_name, str(_SOURCE_PATH)]
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


class NativeReplay:
    """Per-evaluator native state: compiled op arrays + base-placement state.

    Stores the op list, the delay tables and the base-placement state in
    stdlib ``array`` buffers shared zero-copy with the C kernel.  The
    owning :class:`~repro.timing.scheduler.RuntimeEvaluator` keeps all
    public bookkeeping (STATS counters, checkpoint arithmetic, cutoff
    semantics) so both backends stay operation-for-operation comparable; only
    :meth:`hill_climb` does that arithmetic in C, and it reports its counts
    back for the evaluator to book.
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
        "_pair_p",
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
        "has_base",
    )

    def __init__(
        self,
        ops: Sequence[Tuple[int, int, float]],
        num_qubits: int,
        single_delays: Sequence[float],
        pair_flat: array,
        num_env_nodes: int,
        checkpoint_interval: int,
        first_touch: Sequence[int],
    ) -> None:
        self._kernel = load_kernel()
        self.num_ops = len(ops)
        self.num_qubits = num_qubits
        self.num_env_nodes = num_env_nodes
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
        self._pair = pair_flat
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
        self._pair_p = _double_view(self._pair)
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
        # The climb's occupant table is allocated by the first hill_climb(),
        # so evaluators that never climb (the annealer's) never build it.
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
            pair=ctypes.cast(self._pair_p, double_p),
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
        self.has_base = False

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
        self.has_base = True
        if not self.num_ops:
            return 0.0
        return self._kernel.ctx_full(self._ctx_ref, 1)

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

    # -- whole hill climb ----------------------------------------------------

    def hill_climb(
        self,
        keys: List[int],
        movable: List[int],
        allowed: List[int],
        max_rounds: int,
        base_runtime: float,
    ) -> Tuple[float, float, List[int], Tuple[int, int, int, int]]:
        """Run the first-improvement climb from the recorded base in C.

        ``keys`` are the qubit indices in placement-key order, ``movable``
        and ``allowed`` the search order, ``base_runtime`` the recorded
        base's runtime (the first incumbent).  Returns ``(cost,
        base_runtime, base_nodes, counts)``: the final incumbent, the final
        base's runtime and node indices, and the accepted-move,
        incremental-evaluation, ops-skipped and ops-replayed counts.
        """
        if self._occupant is None:
            self._occupant = array("i", bytes(4 * self.num_env_nodes))
            self._occupant_p = _int32_view(self._occupant)
            self._ctx.occupant = ctypes.cast(
                self._occupant_p, ctypes.POINTER(ctypes.c_int32)
            )
        keys_array = array("i", keys)
        movable_array = array("i", movable)
        allowed_array = array("i", allowed)
        base = ctypes.c_double(base_runtime)
        counts = (ctypes.c_int64 * 4)()
        cost = self._kernel.hill_climb(
            self._ctx_ref,
            _int32_view(keys_array),
            len(keys_array),
            _int32_view(movable_array),
            len(movable_array),
            _int32_view(allowed_array),
            len(allowed_array),
            max_rounds,
            ctypes.byref(base),
            counts,
        )
        return (
            cost,
            base.value,
            self._base_nodes.tolist(),
            (counts[0], counts[1], counts[2], counts[3]),
        )
