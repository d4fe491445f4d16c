"""Circuit runtime models.

Two runtime models are implemented, both taken from Section 3 of the paper.

Asynchronous (default)
    "Gates from the next level can start being executed before execution of
    the current level has completed."  The runtime is computed by the
    dynamic-programming pass the paper spells out: keep a per-qubit busy time,
    advance it gate by gate, and return the maximum at the end.

Sequential levels
    Levels are executed strictly one after the other; the runtime is the sum
    over levels of the slowest gate in each level.  The paper notes its theory
    and implementation also support this model, so it is provided for
    completeness and used in a few ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, Qubit
from repro.circuits.levelize import levelize
from repro.core.stats import STATS
from repro.hardware.environment import Node, PhysicalEnvironment
from repro.timing import _native, _replay
from repro.timing.gate_times import (
    MAX_INTERACTION_USES,
    Placement,
    cap_interaction_runs,
    gate_operating_time,
    validate_placement,
)


@dataclass(frozen=True)
class ScheduleStep:
    """State of the schedule after one gate, for trace reporting (Table 1)."""

    gate: Gate
    operating_time: float
    qubit_times: Dict[Qubit, float]


@dataclass(frozen=True)
class Schedule:
    """Full result of scheduling a placed circuit."""

    runtime: float
    steps: Tuple[ScheduleStep, ...]
    placement: Dict[Qubit, Node]

    @property
    def busiest_qubit(self) -> Optional[Qubit]:
        """The qubit that finishes last (``None`` only when there are no qubits).

        A circuit whose gates are all free records no steps, but its qubits
        still exist (with zero busy time); ties — including the all-zero
        case — resolve to the first qubit in placement order.
        """
        final = self.final_qubit_times()
        if not final:
            return None
        return max(final, key=final.get)

    def final_qubit_times(self) -> Dict[Qubit, float]:
        """Per-qubit busy time at the end of the circuit.

        When no step was recorded (every gate free, or no gates at all) the
        placement's qubits are reported with zero busy time rather than
        being silently dropped.
        """
        if not self.steps:
            return {qubit: 0.0 for qubit in self.placement}
        return dict(self.steps[-1].qubit_times)


def circuit_runtime(
    circuit: QuantumCircuit,
    placement: Placement,
    environment: PhysicalEnvironment,
    apply_interaction_cap: bool = False,
    validate: bool = True,
) -> float:
    """Runtime of a placed circuit under the asynchronous model.

    This is the paper's dynamic-programming algorithm: every qubit carries a
    busy time; a single-qubit gate extends its qubit's time; a two-qubit gate
    synchronises both qubits at the later of their times and then extends
    both by the gate's operating time.  The circuit runtime is the maximum
    busy time over all qubits.

    Parameters
    ----------
    apply_interaction_cap:
        When set, consecutive two-qubit gates on the same pair are first
        capped at :data:`~repro.timing.gate_times.MAX_INTERACTION_USES`
        relative-duration units (Section 6 of the paper).
    validate:
        When set (default), the placement is checked to be an injective map
        of all circuit qubits into the environment.
    """
    if validate:
        validate_placement(placement, circuit, environment)
    gates: Sequence[Gate] = circuit.gates
    if apply_interaction_cap:
        gates = cap_interaction_runs(gates, MAX_INTERACTION_USES)

    time: Dict[Qubit, float] = {q: 0.0 for q in circuit.qubits}
    for gate in gates:
        duration = gate_operating_time(gate, placement, environment)
        if gate.is_two_qubit:
            a, b = gate.qubits
            start = max(time[a], time[b])
            finish = start + duration
            time[a] = finish
            time[b] = finish
        else:
            qubit = gate.qubits[0]
            time[qubit] += duration
    return max(time.values()) if time else 0.0


def schedule(
    circuit: QuantumCircuit,
    placement: Placement,
    environment: PhysicalEnvironment,
    apply_interaction_cap: bool = False,
    include_free_gates: bool = False,
) -> Schedule:
    """Like :func:`circuit_runtime` but recording a per-gate trace.

    The trace reproduces Table 1 of the paper: after each timed gate it
    records every qubit's busy time.  Free gates (zero operating time) are
    skipped from the trace by default, matching the paper's presentation
    ("single qubit rotations around Z axis are ignored since their
    contribution to the runtime is zero"), but still advance nothing anyway.
    """
    validate_placement(placement, circuit, environment)
    gates: Sequence[Gate] = circuit.gates
    if apply_interaction_cap:
        gates = cap_interaction_runs(gates, MAX_INTERACTION_USES)

    time: Dict[Qubit, float] = {q: 0.0 for q in circuit.qubits}
    steps: List[ScheduleStep] = []
    for gate in gates:
        duration = gate_operating_time(gate, placement, environment)
        if gate.is_two_qubit:
            a, b = gate.qubits
            start = max(time[a], time[b])
            finish = start + duration
            time[a] = finish
            time[b] = finish
        else:
            qubit = gate.qubits[0]
            time[qubit] += duration
        if duration > 0 or include_free_gates:
            steps.append(ScheduleStep(gate, duration, dict(time)))
    runtime = max(time.values()) if time else 0.0
    return Schedule(runtime, tuple(steps), dict(placement))


def sequential_level_runtime(
    circuit: QuantumCircuit,
    placement: Placement,
    environment: PhysicalEnvironment,
    validate: bool = True,
) -> float:
    """Runtime when logic levels must be executed strictly sequentially.

    Each level costs as much as its slowest gate; the circuit costs the sum
    of its level costs.  Always at least the asynchronous runtime.
    """
    if validate:
        validate_placement(placement, circuit, environment)
    total = 0.0
    for level in levelize(circuit):
        if not level:
            continue
        total += max(
            gate_operating_time(gate, placement, environment) for gate in level
        )
    return total


class RuntimeEvaluator:
    """Fast repeated asynchronous-runtime evaluation of one circuit.

    The hill-climbing fine tuner evaluates the *same* subcircuit under
    thousands of slightly different placements.  :func:`circuit_runtime`
    pays for the interaction-run capping, the gate-object attribute walks
    and the delay-table lookups on every call; this evaluator pays for them
    once:

    * the (optionally capped) gate list is compiled to integer-indexed
      ``(qubit_a, qubit_b, relative_duration)`` triples, with free
      single-qubit gates dropped (they cannot move any busy time);
    * environment delays are memoised per node-index pair, so the canonical
      pair construction (with its ``repr`` calls) happens at most once per
      distinct pair;
    * :meth:`set_base` runs the full dynamic program once, storing the
      per-operation durations and periodic busy-time checkpoints, after
      which :meth:`runtime_with` re-schedules a *move* (one or two qubits
      re-placed) by restoring the last checkpoint before the first affected
      operation and replaying only the tail — with unaffected operations
      reusing their recorded base durations.

    Because the replay performs bit-for-bit the same float operations as a
    full evaluation, results are exactly — not approximately — equal to
    :func:`circuit_runtime`; ``full_recompute=True`` turns on a debug
    assertion of that parity on every incremental evaluation.

    Two execution backends implement the same evaluation (see
    :mod:`repro.timing._replay`):

    ``"python"``
        The always-available reference: one loop over the op triples with
        lazily memoised delay lookups.
    ``"native"``
        The whole recurrence — duration lookups, checkpoint restore,
        monotone cutoff — runs inside a small C kernel compiled on demand
        (see :mod:`repro.timing._native`).  Results are float-for-float
        identical to the python backend — the same IEEE-754 operations on
        the same operands in the same order — so backend choice never
        changes any output.  The kernel can also run a whole hill climb in
        one call (:meth:`hill_climb`).  Requires a C compiler at first use;
        an explicit request fails with a one-line error when the build is
        unavailable.
    ``"auto"`` (default)
        Defers to the ``REPRO_SCHEDULER_BACKEND`` environment variable,
        then picks native whenever its kernel builds, else python,
        whatever the op count.

    In ``full_recompute`` mode the native backend additionally
    cross-checks every full evaluation against the pure Python loop, so
    the parity contract is enforced between backends as well as between
    incremental and full evaluation.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        environment: PhysicalEnvironment,
        apply_interaction_cap: bool = False,
        checkpoint_interval: int = 16,
        full_recompute: bool = False,
        backend: str = "auto",
    ) -> None:
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")
        gates: Sequence[Gate] = circuit.gates
        if apply_interaction_cap:
            gates = cap_interaction_runs(gates, MAX_INTERACTION_USES)
        self.full_recompute = full_recompute
        self._checkpoint_interval = checkpoint_interval
        self._environment = environment
        self._env_version = getattr(environment, "cache_version", 0)
        self._qubits: List[Qubit] = list(circuit.qubits)
        self._qubit_index: Dict[Qubit, int] = {
            qubit: index for index, qubit in enumerate(self._qubits)
        }
        self._node_index: Dict[Node, int] = {
            node: index for index, node in enumerate(environment.nodes)
        }
        self._nodes = environment.nodes
        self._single_delay: List[float] = [
            environment.single_qubit_delay(node) for node in environment.nodes
        ]
        self._pair_cache: Dict[int, float] = {}
        self._num_env_nodes = len(self._nodes)

        ops: List[Tuple[int, int, float]] = []
        touched: List[List[int]] = [[] for _ in self._qubits]
        for gate in gates:
            if gate.is_two_qubit:
                a = self._qubit_index[gate.qubits[0]]
                b = self._qubit_index[gate.qubits[1]]
                touched[a].append(len(ops))
                touched[b].append(len(ops))
                ops.append((a, b, gate.duration))
            else:
                if gate.duration == 0.0:
                    continue  # adds exactly 0.0 to one busy time
                a = self._qubit_index[gate.qubits[0]]
                touched[a].append(len(ops))
                ops.append((a, -1, gate.duration))
        self._ops = ops
        self._first_touch: List[int] = [
            indices[0] if indices else len(ops) for indices in touched
        ]

        #: Resolved evaluation backend: ``"python"`` or ``"native"``.
        self.backend: str = _replay.resolve_backend(backend)
        self._native: Optional[_native.NativeReplay] = None
        if self.backend == "native":
            self._native = _native.NativeReplay(
                ops,
                len(self._qubits),
                self._single_delay,
                environment.pair_delay_table(),
                self._num_env_nodes,
                checkpoint_interval,
                self._first_touch,
            )

        # Base-placement state (populated by set_base).
        self._base_nodes: Optional[List[int]] = None
        self._base_durations: List[float] = []
        self._checkpoints: List[List[float]] = []
        self.base_runtime: float = 0.0
        # Locally accumulated counters, flushed to STATS in batches so the
        # per-evaluation instrumentation cost stays negligible.
        self._pending_incremental = 0
        self._pending_skipped = 0
        self._pending_replayed = 0

    def flush_stats(self) -> None:
        """Flush locally accumulated counters to :data:`~repro.core.stats.STATS`."""
        if self._pending_incremental:
            STATS.increment("scheduler.incremental_evals", self._pending_incremental)
            STATS.increment("scheduler.ops_skipped", self._pending_skipped)
            STATS.increment("scheduler.ops_replayed", self._pending_replayed)
            self._pending_incremental = 0
            self._pending_skipped = 0
            self._pending_replayed = 0

    # -- delay lookups ------------------------------------------------------

    def _pair_weight(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        key = i * self._num_env_nodes + j
        weight = self._pair_cache.get(key)
        if weight is None:
            weight = self._environment.pair_delay(self._nodes[i], self._nodes[j])
            self._pair_cache[key] = weight
        return weight

    def _placement_to_indices(self, placement: Placement) -> List[int]:
        node_index = self._node_index
        return [node_index[placement[qubit]] for qubit in self._qubits]

    def _check_environment_fresh(self) -> None:
        """Refuse to produce costs from stale delay snapshots.

        The evaluator captures single-qubit delays eagerly and pair delays
        lazily; if the environment was recalibrated (``set_pair_delay`` et
        al.) after construction, those snapshots silently disagree with
        :func:`circuit_runtime`.  Detect it via the environment's cache
        version instead.
        """
        if getattr(self._environment, "cache_version", 0) != self._env_version:
            raise RuntimeError(
                "the environment was recalibrated after this RuntimeEvaluator "
                "was built; construct a new evaluator for the updated delays"
            )

    # -- full evaluation ----------------------------------------------------

    def _run_full(
        self,
        nodes: List[int],
        durations_out: Optional[List[float]] = None,
        checkpoints_out: Optional[List[List[float]]] = None,
    ) -> float:
        if self._native is not None:
            # set_base() records durations/checkpoints inside the native
            # state instead of through these out-params.
            result = self._native.run_full(nodes)
            if self.full_recompute:
                reference = self._run_full_python(nodes)
                assert result == reference, (
                    f"native backend runtime {result!r} diverged from the "
                    f"pure Python reference {reference!r}"
                )
            return result
        return self._run_full_python(nodes, durations_out, checkpoints_out)

    def _run_full_python(
        self,
        nodes: List[int],
        durations_out: Optional[List[float]] = None,
        checkpoints_out: Optional[List[List[float]]] = None,
    ) -> float:
        times = [0.0] * len(self._qubits)
        interval = self._checkpoint_interval
        single = self._single_delay
        pair_weight = self._pair_weight
        for index, (a, b, relative) in enumerate(self._ops):
            if checkpoints_out is not None and index % interval == 0:
                checkpoints_out.append(times[:])
            if b < 0:
                duration = single[nodes[a]] * relative
                times[a] += duration
            else:
                duration = pair_weight(nodes[a], nodes[b]) * relative
                finish = max(times[a], times[b]) + duration
                times[a] = finish
                times[b] = finish
            if durations_out is not None:
                durations_out.append(duration)
        return max(times) if times else 0.0

    def runtime(self, placement: Placement) -> float:
        """Full runtime of ``placement`` (exactly :func:`circuit_runtime`)."""
        self._check_environment_fresh()
        STATS.increment("scheduler.full_evals")
        return self._run_full(self._placement_to_indices(placement))

    # -- incremental evaluation ---------------------------------------------

    def set_base(self, placement: Placement) -> float:
        """Record ``placement`` as the base of later :meth:`runtime_with` calls."""
        self._check_environment_fresh()
        STATS.increment("scheduler.full_evals")
        self._base_nodes = self._placement_to_indices(placement)
        self._base_durations = []
        self._checkpoints = []
        if self._native is not None:
            # The native state records base durations and checkpoints in its
            # own buffers, not through the python-side out-params.
            result = self._native.set_base(self._base_nodes)
            if self.full_recompute:
                reference = self._run_full_python(self._base_nodes)
                assert result == reference, (
                    f"native backend runtime {result!r} diverged from the "
                    f"pure Python reference {reference!r}"
                )
            self.base_runtime = result
            return result
        self.base_runtime = self._run_full(
            self._base_nodes,
            durations_out=self._base_durations,
            checkpoints_out=self._checkpoints,
        )
        return self.base_runtime

    def runtime_with(
        self,
        overrides: Mapping[Qubit, Node],
        limit: Optional[float] = None,
    ) -> float:
        """Runtime of the base placement with a few qubits re-placed.

        ``overrides`` maps the moved qubits to their new nodes (typically one
        qubit, or two for a swap).  Requires a prior :meth:`set_base`.

        ``limit`` is a branch-and-bound cutoff: per-qubit busy times only
        ever grow, so as soon as any busy time reaches ``limit`` the final
        runtime is guaranteed to be at least ``limit`` and the replay stops,
        returning ``inf``.  Callers that only compare the result against
        ``limit`` (the hill climber rejecting non-improving moves) lose no
        information; callers needing the exact value must leave it unset.
        """
        base_nodes = self._base_nodes
        if base_nodes is None:
            raise RuntimeError("set_base() must be called before runtime_with()")
        self._check_environment_fresh()
        qubit_index = self._qubit_index
        node_index = self._node_index
        changed: Dict[int, int] = {}
        for qubit, node in overrides.items():
            index = qubit_index[qubit]
            target = node_index[node]
            if base_nodes[index] != target:
                changed[index] = target
        total_ops = len(self._ops)
        if not changed:
            return self.base_runtime
        first = min(self._first_touch[index] for index in changed)
        if first >= total_ops:
            # None of the moved qubits is ever scheduled; nothing changes.
            return self.base_runtime

        interval = self._checkpoint_interval
        checkpoint = first // interval
        start = checkpoint * interval
        self._pending_incremental += 1
        self._pending_skipped += start
        self._pending_replayed += total_ops - start

        if self._native is not None:
            return self._replay_tail_native(
                changed, start, total_ops, overrides, limit
            )

        times = self._checkpoints[checkpoint][:] if self._checkpoints else []
        if not times:
            times = [0.0] * len(self._qubits)
        single = self._single_delay
        pair_cache = self._pair_cache
        env_nodes = self._num_env_nodes
        base_durations = self._base_durations
        ops = self._ops
        changed_get = changed.get
        cutoff = None if self.full_recompute else limit
        for index in range(start, total_ops):
            a, b, relative = ops[index]
            if b < 0:
                if a in changed:
                    finish = times[a] + single[changed[a]] * relative
                else:
                    finish = times[a] + base_durations[index]
                times[a] = finish
            else:
                if a in changed or b in changed:
                    node_a = changed_get(a, base_nodes[a])
                    node_b = changed_get(b, base_nodes[b])
                    if node_a > node_b:
                        node_a, node_b = node_b, node_a
                    key = node_a * env_nodes + node_b
                    weight = pair_cache.get(key)
                    if weight is None:
                        weight = self._pair_weight(node_a, node_b)
                    duration = weight * relative
                else:
                    duration = base_durations[index]
                time_a = times[a]
                time_b = times[b]
                finish = (time_a if time_a >= time_b else time_b) + duration
                times[a] = finish
                times[b] = finish
            if cutoff is not None and finish >= cutoff:
                # Busy times are monotone, so the final runtime is >= finish:
                # this move can never beat the incumbent.
                self._pending_replayed -= total_ops - 1 - index
                return float("inf")
        result = max(times) if times else 0.0

        if self.full_recompute:
            self._assert_full_recompute_parity(result, changed, overrides)
        return result

    def _replay_tail_native(
        self,
        changed: Dict[int, int],
        start: int,
        total_ops: int,
        overrides: Mapping[Qubit, Node],
        limit: Optional[float],
    ) -> float:
        """The incremental tail replay inside the native kernel.

        Checkpoint restore, per-op duration recomputation and the monotone
        cutoff all happen in C; the kernel reports the op index at which the
        cutoff fired so the replayed-ops accounting stays identical to the
        pure Python path.
        """
        cutoff = None if self.full_recompute else limit
        result, stop_index = self._native.replay_tail(changed, start, cutoff)
        if stop_index >= 0:
            # Busy times are monotone, so the final runtime is >= the
            # cutoff: this move can never beat the incumbent.
            self._pending_replayed -= total_ops - 1 - stop_index
            return float("inf")
        if self.full_recompute:
            self._assert_full_recompute_parity(result, changed, overrides)
        return result

    # -- whole hill climb ---------------------------------------------------

    def hill_climb(
        self,
        placement: Placement,
        movable_qubits: Sequence[Qubit],
        allowed_nodes: Sequence[Node],
        max_rounds: int,
    ) -> Tuple[Placement, float]:
        """Run :func:`~repro.core.fine_tuning.hill_climb_incremental` in one kernel call.

        Native backend only.  Re-bases on ``placement``, then the kernel
        makes the Python loop's moves in the Python loop's order, scores
        each with the incumbent as cutoff and re-bases on every accepted
        move, so the result, the evaluator's final base and the scheduler
        counters all equal that loop's.  No move is cross-checked against a
        full evaluation, so ``full_recompute`` callers keep the loop.  Every
        qubit and node is translated to an index first, so an unknown one
        raises ``KeyError`` before the kernel runs.  Returns the improved
        copy of ``placement`` (same key order) and its cost.
        """
        native = self._native
        if native is None:
            raise RuntimeError(
                f"hill_climb() needs the native backend, not {self.backend!r}"
            )
        qubit_index = self._qubit_index
        node_index = self._node_index
        keys = [qubit_index[qubit] for qubit in placement]
        movable = [qubit_index[qubit] for qubit in movable_qubits]
        allowed = [node_index[node] for node in allowed_nodes]
        cost, self.base_runtime, base_nodes, counts = native.hill_climb(
            keys, movable, allowed, max_rounds, self.set_base(placement)
        )
        self._base_nodes = base_nodes
        accepted, evals, skipped, replayed = counts
        # One re-basing full evaluation per accepted move, as set_base.
        STATS.increment("scheduler.full_evals", accepted)
        self._pending_incremental += evals
        self._pending_skipped += skipped
        self._pending_replayed += replayed
        nodes = self._nodes
        climbed = {
            qubit: nodes[base_nodes[index]] for qubit, index in zip(placement, keys)
        }
        return climbed, cost

    def _assert_full_recompute_parity(
        self,
        result: float,
        changed: Dict[int, int],
        overrides: Mapping[Qubit, Node],
    ) -> None:
        """Debug gate: incremental == full, and (on native) native == python."""
        nodes = list(self._base_nodes)
        for index, target in changed.items():
            nodes[index] = target
        # _run_full itself cross-checks native against the python reference
        # in full_recompute mode, so one call gates both parity contracts.
        full = self._run_full(nodes)
        assert result == full, (
            f"incremental runtime {result!r} diverged from full "
            f"recomputation {full!r} for overrides {dict(overrides)!r}"
        )


def runtime_lower_bound(
    circuit: QuantumCircuit,
    environment: PhysicalEnvironment,
) -> float:
    """A placement-independent lower bound on the asynchronous runtime.

    Every two-qubit gate costs at least ``T(G)`` times the smallest pair
    delay of the environment, and gates sharing a qubit cannot overlap, so
    the busiest qubit's total work under the best conceivable placement is a
    valid lower bound.  Used in tests and to report optimality gaps.
    """
    finite = environment.finite_pairs()
    if not finite:
        return 0.0
    best_pair = min(finite.values())
    best_single = min(
        environment.single_qubit_delay(node) for node in environment.nodes
    )
    per_qubit: Dict[Qubit, float] = {q: 0.0 for q in circuit.qubits}
    for gate in circuit:
        weight = best_pair if gate.is_two_qubit else best_single
        cost = weight * gate.duration
        for qubit in gate.qubits:
            per_qubit[qubit] += cost
    return max(per_qubit.values()) if per_qubit else 0.0
