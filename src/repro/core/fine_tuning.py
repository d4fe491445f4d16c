"""Hill-climbing fine tuning of a workspace placement.

After a monomorphism fixes where the interacting qubits go, the paper's fine
tuning step "shuffles the solution taking the actual numbers that represent
the length of each gate (including single qubit gates) into account": for
every qubit that takes part in a two-qubit gate of the workspace, try every
alternative physical node (moving to a free node, or swapping with the qubit
currently there) and keep the change whenever the scheduled runtime improves.
The sweep is repeated until no improvement is found or a round budget is
exhausted.

Two execution paths implement the same search:

* the generic :func:`hill_climb`, which accepts an arbitrary cost function,
  climbs one start and re-evaluates every candidate placement from
  scratch;
* the incremental path used by the placer, :func:`hill_climb_starts`,
  driven by a :class:`~repro.timing.scheduler.RuntimeEvaluator` — each
  candidate move re-schedules only the operations after the first one
  that touches a moved qubit, reusing recorded busy-time checkpoints and
  per-operation durations for the untouched prefix (on the native backend
  every climb of a workspace runs in one kernel call).

Both paths enumerate candidates in the same order and accept the first
improving move, and the incremental evaluator is bit-for-bit equal to a full
evaluation (``full_recompute=True`` asserts this on every step), so they
return identical placements.  The incremental path climbs a workspace's
whole start set at once and merges climbs that converge: a start that
reaches a climb state an earlier start passed through takes that start's
result, and each distinct climbed placement is returned once.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Qubit
from repro.core._bitset import canonical_order
from repro.hardware.environment import Node, PhysicalEnvironment
from repro.timing.scheduler import RuntimeEvaluator, circuit_runtime

Placement = Dict[Qubit, Node]
CostFunction = Callable[[Placement], float]


def default_cost_function(
    subcircuit: QuantumCircuit,
    environment: PhysicalEnvironment,
    apply_interaction_cap: bool = True,
) -> CostFunction:
    """Cost of a placement = scheduled runtime of the workspace subcircuit."""

    def cost(placement: Placement) -> float:
        return circuit_runtime(
            subcircuit,
            placement,
            environment,
            apply_interaction_cap=apply_interaction_cap,
            validate=False,
        )

    return cost


def _candidate_moves(
    placement: Placement,
    qubit: Qubit,
    allowed_nodes: Sequence[Node],
) -> Iterable[Placement]:
    """All placements reachable by re-assigning ``qubit`` to another node."""
    current_node = placement[qubit]
    node_to_qubit = {node: q for q, node in placement.items()}
    for node in allowed_nodes:
        if node == current_node:
            continue
        candidate = dict(placement)
        occupant = node_to_qubit.get(node)
        candidate[qubit] = node
        if occupant is not None:
            candidate[occupant] = current_node
        yield candidate


def hill_climb(
    placement: Placement,
    cost_function: CostFunction,
    movable_qubits: Sequence[Qubit],
    allowed_nodes: Sequence[Node],
    max_rounds: int = 10,
) -> Tuple[Placement, float]:
    """Greedy improvement of ``placement`` by single-qubit reassignments.

    Returns the improved placement and its cost.  The search accepts the
    first improving move per qubit (matching the paper's description: "if it
    is [better], change the way qubit q_i is placed, otherwise move on to the
    next qubit") and sweeps until a full round makes no change or the round
    budget runs out.
    """
    best = dict(placement)
    best_cost = cost_function(best)
    for _ in range(max_rounds):
        improved = False
        for qubit in movable_qubits:
            for candidate in _candidate_moves(best, qubit, allowed_nodes):
                candidate_cost = cost_function(candidate)
                if candidate_cost < best_cost:
                    best = candidate
                    best_cost = candidate_cost
                    improved = True
                    break
        if not improved:
            break
    return best, best_cost


#: A climb state: the placement (as its item set), the round index and
#: ``2 * movable position + improved-this-round flag``.
_State = Tuple[FrozenSet[Tuple[Qubit, Node]], int, int]


def _climb(
    best: Placement,
    cost: float,
    evaluator: RuntimeEvaluator,
    movable_qubits: Sequence[Qubit],
    allowed_nodes: Sequence[Node],
    max_rounds: int,
    states: Dict[_State, int],
    start: int,
) -> Tuple[float, int]:
    """One climb of :func:`hill_climb_starts` from the evaluator's base.

    ``best`` is the base placement, updated in place, and ``cost`` its
    runtime.  Returns ``(final cost, start)``, or ``(cost, owner)`` when
    the climb reaches a state that the earlier start ``owner`` passed
    through; every new state is stored in ``states`` with ``start``.
    """
    row = frozenset(best.items())
    for round_index in range(max_rounds):
        improved = False
        for position, qubit in enumerate(movable_qubits):
            node_to_qubit = {node: q for q, node in best.items()}
            if len(node_to_qubit) == len(best):
                state = (row, round_index, 2 * position + improved)
                owner = states.setdefault(state, start)
                if owner != start:
                    return cost, owner
            current_node = best[qubit]
            for node in allowed_nodes:
                if node == current_node:
                    continue
                occupant = node_to_qubit.get(node)
                if occupant is None:
                    overrides = {qubit: node}
                else:
                    overrides = {qubit: node, occupant: current_node}
                # Rejected moves only need to be known to be >= the
                # incumbent, so the evaluator may stop scheduling early.
                candidate_cost = evaluator.runtime_with(overrides, limit=cost)
                if candidate_cost < cost:
                    best.update(overrides)
                    evaluator.set_base(best)
                    cost = candidate_cost
                    improved = True
                    row = frozenset(best.items())
                    break
        if not improved:
            break
    return cost, start


def hill_climb_starts(
    placements: Sequence[Placement],
    evaluator: RuntimeEvaluator,
    movable_qubits: Sequence[Qubit],
    allowed_nodes: Sequence[Node],
    max_rounds: int = 10,
) -> List[Tuple[Placement, float]]:
    """:func:`hill_climb` from every start, with delta-cost moves and merges.

    Candidate moves are scored through ``evaluator.runtime_with`` — a swap
    of two qubits re-schedules only the levels after the first affected
    operation — instead of a full :func:`circuit_runtime` per candidate.
    Enumeration order and the first-improvement acceptance rule are exactly
    those of :func:`hill_climb`, and the evaluator's incremental results are
    bitwise equal to full evaluations, so each start lands on the
    placement :func:`hill_climb` finds at the same cost.

    The starts share one memo of climb states.  Before each movable
    qubit, while the placement puts one qubit on each node, the state is
    the placement, the round index and ``(position, improved this
    round)``.  The incumbent is always the placement's exact runtime, and
    with one qubit per node the occupant of a node does not depend on key
    order, so the rest of the climb is fixed by the state: a start that
    reaches a state an earlier start passed through stops and takes that
    start's final placement and cost.

    Returns each distinct final placement once, with its cost, in
    first-occurrence order and in its first start's key order.  The
    evaluator ends on the last start's final placement.  This loop is the
    reference for the native backend's one-call climb
    (:meth:`~repro.timing.scheduler.RuntimeEvaluator.hill_climb`).
    """
    states: Dict[_State, int] = {}
    finals: List[Tuple[Placement, float]] = []
    distinct: Set[FrozenSet[Tuple[Qubit, Node]]] = set()
    results: List[Tuple[Placement, float]] = []
    for start, placement in enumerate(placements):
        best = dict(placement)
        cost, owner = _climb(
            best, evaluator.set_base(best), evaluator, movable_qubits,
            allowed_nodes, max_rounds, states, start,
        )
        if owner != start:
            final, cost = finals[owner]
            if start == len(placements) - 1 and best != final:
                evaluator.set_base(final)
            best = final
        else:
            row = frozenset(best.items())
            if row not in distinct:
                distinct.add(row)
                results.append((best, cost))
        finals.append((best, cost))
    evaluator.flush_stats()
    return results


def fine_tune_workspace_placement(
    subcircuit: QuantumCircuit,
    placements: Sequence[Placement],
    environment: PhysicalEnvironment,
    allowed_nodes: Sequence[Node],
    apply_interaction_cap: bool = True,
    max_rounds: int = 10,
    evaluator: Optional[RuntimeEvaluator] = None,
    full_recompute: bool = False,
) -> List[Tuple[Placement, float]]:
    """Fine tune every start placement of a workspace with the runtime cost.

    Returns each distinct climbed placement once, with its cost, in
    first-occurrence order and in its first start's key order.  On the
    native backend all starts climb in one kernel call
    (:meth:`~repro.timing.scheduler.RuntimeEvaluator.hill_climb`);
    otherwise :func:`hill_climb_starts` climbs them.

    ``evaluator`` lets the placer share one compiled
    :class:`~repro.timing.scheduler.RuntimeEvaluator` across a workspace's
    candidate sets (without one, one is built on the process's backend);
    ``full_recompute`` turns on the evaluator's parity assertion (every
    incremental cost is checked against a from-scratch evaluation — a
    debugging aid, not a production mode) for this call and keeps the
    python loop.
    """
    movable: List[Qubit] = canonical_order(
        {q for gate in subcircuit if gate.is_two_qubit for q in gate.qubits}
    )
    if not movable:
        movable = list(subcircuit.used_qubits())
    allowed = list(allowed_nodes)
    if evaluator is None:
        evaluator = RuntimeEvaluator(
            subcircuit,
            environment,
            apply_interaction_cap=apply_interaction_cap,
            full_recompute=full_recompute,
        )
    checked = evaluator.full_recompute
    if evaluator.backend == "native" and not (checked or full_recompute):
        return evaluator.hill_climb(placements, movable, allowed, max_rounds)
    evaluator.full_recompute = checked or full_recompute
    try:
        return hill_climb_starts(placements, evaluator, movable, allowed, max_rounds)
    finally:
        evaluator.full_recompute = checked
