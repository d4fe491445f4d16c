"""Array-backed evaluation backend for the scheduler replay engine.

The :class:`~repro.timing.scheduler.RuntimeEvaluator` compiles a circuit's
gate list into integer-indexed operations and replays them thousands of
times during hill-climbing fine tuning.  This module supplies the optional
``numpy`` backend of that evaluator: the op list is flattened into parallel
arrays (``ops_a``, ``ops_b``, ``relative``) and every *duration table* —
the per-operation operating time under a concrete node assignment — is
computed in a handful of vectorised array operations instead of one Python
branch-and-dict-lookup per operation.  The sequential busy-time recurrence
itself (the paper's per-qubit dynamic program) stays a tight Python loop
over the precomputed duration array: its loop-carried dependence cannot be
vectorised without changing the order of float operations, and the backend
contract is *bit-identical* results, not approximately-equal ones.

``numpy`` is strictly optional: everything here degrades to ``None``/
raises cleanly when it is not importable, and the evaluator keeps its pure
Python loop as the always-available reference implementation.  Backend
choice is resolved by :func:`resolve_backend` from an explicit request, the
``REPRO_SCHEDULER_BACKEND`` environment variable, and (for ``"auto"``) a
profitability threshold — the vectorised kernel has a fixed per-evaluation
array overhead that only pays off once the compiled op list is long enough.

A third backend, ``native``, compiles the whole recurrence (not just the
duration tables) to a small C kernel under the same bit-identical contract;
its build shim and array plumbing live in :mod:`repro.timing._native`, this
module only resolves the name and registers it in ``SCHEDULER_BACKENDS``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.timing import _native

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None

#: Whether the numpy backend can be used in this interpreter.
NUMPY_AVAILABLE = _np is not None

#: Environment variable consulted when a backend request is ``"auto"``.
BACKEND_ENV_VAR = "REPRO_SCHEDULER_BACKEND"

#: Accepted backend names.
BACKEND_CHOICES = ("auto", "python", "numpy", "native")

#: Minimum compiled op count at which ``"auto"`` prefers the numpy backend.
#: Below this, the fixed per-evaluation array overhead (index arithmetic,
#: slice copies) exceeds what vectorising the duration table saves; the
#: constant was calibrated with ``benchmarks/perf`` replay scenarios.
AUTO_NUMPY_MIN_OPS = 256

#: Bound on :class:`ReplayTable`'s per-changed-set gather cache.  An
#: annealer proposing random swaps on a large host can visit a huge number
#: of distinct qubit pairs; the cache is pure memoisation (entries are
#: recomputed exactly on re-miss), so evicting the oldest entries changes
#: wall time only, never results.
GATHER_CACHE_MAX_ENTRIES = 256


def resolve_backend(requested: str = "auto", num_ops: Optional[int] = None) -> str:
    """Resolve a backend request to ``"python"``, ``"numpy"`` or ``"native"``.

    ``"auto"`` first defers to the :data:`BACKEND_ENV_VAR` environment
    variable (which may itself say ``auto``); a still-unresolved ``auto``
    picks ``native`` whenever the kernel is (or can be) built, at any op
    count; else ``numpy`` when it is importable and the op list is long
    enough (:data:`AUTO_NUMPY_MIN_OPS`; skipped when ``num_ops`` is
    ``None``), else ``python``.  All three resolutions are bit-identical
    by contract, so ``auto`` never changes any output — only wall time.

    An explicit ``"numpy"``/``"native"`` request (argument or environment
    variable) raises when that backend is unavailable — silently falling
    back would hide a misconfigured deployment; ``auto`` degrades silently
    instead.
    """
    if requested not in BACKEND_CHOICES:
        raise ReproError(
            f"unknown scheduler backend {requested!r}; "
            f"choose one of {BACKEND_CHOICES}"
        )
    if requested == "auto":
        from_env = os.environ.get(BACKEND_ENV_VAR, "").strip()
        if from_env:
            if from_env not in BACKEND_CHOICES:
                raise ReproError(
                    f"invalid {BACKEND_ENV_VAR}={from_env!r}; "
                    f"choose one of {BACKEND_CHOICES}"
                )
            requested = from_env
    if requested == "auto":
        if _native.available():
            return "native"
        if NUMPY_AVAILABLE and (num_ops is None or num_ops >= AUTO_NUMPY_MIN_OPS):
            return "numpy"
        return "python"
    if requested == "numpy" and not NUMPY_AVAILABLE:
        raise ReproError(
            "the numpy scheduler backend was requested but numpy is not "
            "importable; install numpy or use backend='python'"
        )
    if requested == "native" and not _native.available():
        raise ReproError(
            "the native scheduler backend was requested but the kernel is "
            f"unavailable ({_native.unavailable_reason()}); "
            "use backend='auto' to fall back silently"
        )
    return requested


# String-addressable backend registry (see repro.registry): building an
# entry resolves the request to a concrete backend name, so e.g.
# SCHEDULER_BACKENDS.build("auto") returns "native", "numpy" or "python".
from functools import partial as _partial

from repro.registry import SCHEDULER_BACKENDS

SCHEDULER_BACKENDS.add(
    "auto", resolve_backend,
    description="defer to REPRO_SCHEDULER_BACKEND, then pick the "
                "profitable backend",
)
SCHEDULER_BACKENDS.add(
    "python", _partial(resolve_backend, "python"),
    description="pure-Python reference evaluation loop",
)
SCHEDULER_BACKENDS.add(
    "numpy", _partial(resolve_backend, "numpy"),
    description="vectorised duration tables (requires numpy)",
)
SCHEDULER_BACKENDS.add(
    "native", _partial(resolve_backend, "native"),
    description="compiled C replay kernel (built on demand, needs a C "
                "compiler at first use)",
)


def pair_delay_matrix(environment, nodes: Sequence) -> "Optional[_np.ndarray]":
    """Dense ``W`` matrix: ``matrix[i, j] = environment.pair_delay(nodes[i], nodes[j])``.

    The diagonal holds the single-qubit delays (``pair_delay(v, v)``
    degenerates to them), so the matrix reproduces the evaluator's pure
    Python ``_pair_weight`` for *every* index pair, including the degenerate
    ones a caller can produce by overriding two qubits onto one node.

    The underlying flat table comes from
    :meth:`~repro.hardware.environment.PhysicalEnvironment.pair_delay_table`
    — cached per calibration on the environment, shared zero-copy with the
    native backend — so the returned array is marked read-only; rebind
    (``table.pair = table.pair * 2``) instead of mutating in place.
    """
    if _np is None:  # pragma: no cover - callers gate on NUMPY_AVAILABLE
        return None
    count = len(nodes)
    flat = environment.pair_delay_table(tuple(nodes))
    matrix = _np.frombuffer(flat, dtype=_np.float64).reshape(count, count)
    matrix.flags.writeable = False
    return matrix


class ReplayTable:
    """The compiled flat-array form of an evaluator's op list.

    Parameters
    ----------
    ops:
        The evaluator's compiled operations: ``(qubit_a, qubit_b, relative)``
        triples with ``qubit_b == -1`` for single-qubit operations.
    num_qubits:
        Number of circuit qubits (op indices are below this).
    single_delays:
        Per-environment-node single-qubit delays, indexed by node index.
    pair_matrix:
        Dense node-pair delay matrix from :func:`pair_delay_matrix`.
    """

    __slots__ = (
        "num_ops",
        "ops_a",
        "ops_b_safe",
        "is_two",
        "relative",
        "single",
        "pair",
        "touched",
        "_gathered",
        "_gather_cache",
    )

    def __init__(
        self,
        ops: Sequence[Tuple[int, int, float]],
        num_qubits: int,
        single_delays: Sequence[float],
        pair_matrix: "_np.ndarray",
    ) -> None:
        if _np is None:  # pragma: no cover - constructed only when available
            raise ReproError("numpy is required to build a ReplayTable")
        self.num_ops = len(ops)
        ops_a = _np.fromiter((op[0] for op in ops), dtype=_np.intp, count=self.num_ops)
        ops_b = _np.fromiter((op[1] for op in ops), dtype=_np.intp, count=self.num_ops)
        self.ops_a = ops_a
        self.is_two = ops_b >= 0
        # Clamp the -1 sentinel so fancy indexing never wraps; the values
        # read through clamped slots are discarded by the ``where`` mask.
        self.ops_b_safe = _np.where(self.is_two, ops_b, 0)
        self.relative = _np.fromiter(
            (op[2] for op in ops), dtype=_np.float64, count=self.num_ops
        )
        self.single = _np.asarray(single_delays, dtype=_np.float64)
        self.pair = pair_matrix
        touched: List[List[int]] = [[] for _ in range(num_qubits)]
        for index, (a, b, _relative) in enumerate(ops):
            touched[a].append(index)
            if b >= 0:
                touched[b].append(index)
        self.touched = [_np.asarray(indices, dtype=_np.intp) for indices in touched]
        # Per-qubit pre-gathered op columns (indices, endpoints, two-qubit
        # mask, relative durations), so a candidate move pays no per-call
        # fancy indexing to collect the ops it affects.  The cache extends
        # the same idea to recurring multi-qubit changed sets (swaps).
        self._gathered = [
            (
                indices,
                self.ops_a[indices],
                self.ops_b_safe[indices],
                self.is_two[indices],
                self.relative[indices],
            )
            for indices in self.touched
        ]
        self._gather_cache: Dict[Tuple[int, ...], Tuple] = {}

    # -- duration tables -----------------------------------------------------

    def nodes_array(self, nodes: Sequence[int]) -> "_np.ndarray":
        """A node-assignment list as an index array."""
        return _np.asarray(nodes, dtype=_np.intp)

    def durations(self, nodes: "_np.ndarray") -> "_np.ndarray":
        """The full duration table under a node assignment, vectorised.

        Element ``i`` is exactly the pure Python evaluator's
        ``weight * relative`` for op ``i``: the same IEEE-754 double
        multiplication of the same operands, hence the same bits.
        """
        placed_a = nodes[self.ops_a]
        weights = _np.where(
            self.is_two,
            self.pair[placed_a, nodes[self.ops_b_safe]],
            self.single[placed_a],
        )
        return weights * self.relative

    def changed_durations(
        self,
        base_nodes: "_np.ndarray",
        changed: Mapping[int, int],
    ) -> Tuple[List[int], List[float]]:
        """Recomputed durations of every op touching a changed qubit.

        Returns parallel lists ``(op_indices, durations)`` — the vectorised
        replacement for the pure Python path's per-operation delay lookups.
        The caller scatters them over a copy of the recorded base durations,
        which stay bit-identical for unaffected operations by construction.
        """
        if len(changed) == 1:
            affected, ops_a, ops_b, is_two, relative = self._gathered[
                next(iter(changed))
            ]
        else:
            # Ops shared by two changed qubits appear once per qubit; the
            # duplicates are harmless (both occurrences compute the same
            # value from the same ``nodes`` array) and skipping the dedup
            # keeps the per-move fixed cost down.
            key = tuple(sorted(changed))
            cached = self._gather_cache.get(key)
            if cached is None:
                columns = [self._gathered[index] for index in changed]
                cached = tuple(
                    _np.concatenate([column[part] for column in columns])
                    for part in range(5)
                )
                # Bounded memoisation: a long annealing run on a large host
                # can propose a huge number of distinct swap pairs; evict
                # the oldest entry (dicts iterate in insertion order) so the
                # cache never grows without limit.  Eviction is invisible to
                # results — a re-miss recomputes exactly the same arrays.
                if len(self._gather_cache) >= GATHER_CACHE_MAX_ENTRIES:
                    del self._gather_cache[next(iter(self._gather_cache))]
                self._gather_cache[key] = cached
            affected, ops_a, ops_b, is_two, relative = cached
        if not affected.size:
            return [], []
        nodes = base_nodes.copy()
        for index, target in changed.items():
            nodes[index] = target
        placed_a = nodes[ops_a]
        weights = _np.where(
            is_two,
            self.pair[placed_a, nodes[ops_b]],
            self.single[placed_a],
        )
        return affected.tolist(), (weights * relative).tolist()

    # -- checkpoint matrices -------------------------------------------------

    def checkpoint_matrix(
        self, checkpoints: Sequence[Sequence[float]], num_qubits: int
    ) -> "_np.ndarray":
        """Stack busy-time checkpoints into one ``(count, num_qubits)`` matrix."""
        if not checkpoints:
            return _np.empty((0, num_qubits), dtype=_np.float64)
        return _np.asarray(checkpoints, dtype=_np.float64)
