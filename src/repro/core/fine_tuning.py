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

* the generic :func:`hill_climb`, which accepts an arbitrary cost function
  and re-evaluates every candidate placement from scratch;
* the incremental path used by the placer, driven by a
  :class:`~repro.timing.scheduler.RuntimeEvaluator` — each candidate move
  re-schedules only the operations after the first one that touches a moved
  qubit, reusing recorded busy-time checkpoints and per-operation durations
  for the untouched prefix (on the native backend every climb of a
  workspace runs in one kernel call).

Both paths enumerate candidates in the same order and accept the first
improving move, and the incremental evaluator is bit-for-bit equal to a full
evaluation (``full_recompute=True`` asserts this on every step), so they
return identical placements.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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


def hill_climb_incremental(
    placement: Placement,
    evaluator: RuntimeEvaluator,
    movable_qubits: Sequence[Qubit],
    allowed_nodes: Sequence[Node],
    max_rounds: int = 10,
) -> Tuple[Placement, float]:
    """The same greedy search as :func:`hill_climb`, with delta-cost moves.

    Candidate moves are scored through ``evaluator.runtime_with`` — a swap
    of two qubits re-schedules only the levels after the first affected
    operation — instead of a full :func:`circuit_runtime` per candidate.
    Enumeration order and the first-improvement acceptance rule are exactly
    those of :func:`hill_climb`, and the evaluator's incremental results are
    bitwise equal to full evaluations, so both searches land on the same
    placement at the same cost.  This loop is the reference for the native
    backend's one-call climb
    (:meth:`~repro.timing.scheduler.RuntimeEvaluator.hill_climb`).
    """
    best = dict(placement)
    best_cost = evaluator.set_base(best)
    for _ in range(max_rounds):
        improved = False
        for qubit in movable_qubits:
            current_node = best[qubit]
            node_to_qubit = {node: q for q, node in best.items()}
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
                candidate_cost = evaluator.runtime_with(overrides, limit=best_cost)
                if candidate_cost < best_cost:
                    best.update(overrides)
                    evaluator.set_base(best)
                    best_cost = candidate_cost
                    improved = True
                    break
        if not improved:
            break
    evaluator.flush_stats()
    return best, best_cost


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

    Returns one ``(placement, cost)`` per start, in order.  On the native
    backend all starts climb in one kernel call
    (:meth:`~repro.timing.scheduler.RuntimeEvaluator.hill_climb`);
    otherwise :func:`hill_climb_incremental` runs once per start.

    ``evaluator`` lets the placer share one compiled
    :class:`~repro.timing.scheduler.RuntimeEvaluator` across a workspace's
    candidate sets (without one, one is built on the process's backend);
    ``full_recompute`` turns on the evaluator's parity assertion (every
    incremental cost is checked against a from-scratch evaluation — a
    debugging aid, not a production mode) and keeps the python loop.
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
    elif full_recompute:
        evaluator.full_recompute = True

    if evaluator.backend == "native" and not evaluator.full_recompute:
        return evaluator.hill_climb(placements, movable, allowed, max_rounds)
    return [
        hill_climb_incremental(placement, evaluator, movable, allowed, max_rounds)
        for placement in placements
    ]
