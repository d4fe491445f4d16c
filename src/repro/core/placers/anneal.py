"""The simulated-annealing placement engine (Enola-style, deterministic).

Refines the greedy seed (:mod:`repro.core.placers.greedy`) with a
fixed-budget simulated annealer in the style of Enola's
``SAPlacerPartial`` (SNIPPETS.md Snippet 1):

* **geometric temperature schedule** from ``T0 = 0.25 * seed cost`` down
  to ``T0 / 1000`` over the iteration budget;
* **moves**: pick a random interacting qubit, then either a host
  neighbour of one of its interaction partners' nodes (local move,
  3/4 of proposals — the only moves that keep interactions adjacent on
  hosts whose non-adjacent pairs are infinitely slow) or any host node
  (exploration); occupied targets swap occupants;
* **incremental delta cost** via the checkpointed
  :class:`~repro.timing.scheduler.RuntimeEvaluator`: each proposal
  re-schedules only the operations after the first one that touches a
  moved qubit, with an early-exit ``limit`` of ``current + 20 * T``
  (moves that expensive have acceptance probability < 2e-9, so cutting
  the replay short cannot change any acceptance decision);
* **uphill acceptance** with probability ``exp(-delta / T)``;
* **best-ever tracking** seeded with the greedy placement, so the
  annealer is never worse than its seed by construction.

On the native scheduler backend each restart runs in one kernel call
(:meth:`~repro.timing.scheduler.RuntimeEvaluator.anneal`), draw for draw
and byte for byte the same as :func:`anneal_loop`, the Python loop that
stays the reference and runs on the python backend, with
``full_recompute`` and under ``sequential_levels``.  Local-move targets
come from the working graph's
:class:`~repro.core._bitset.NeighbourTable`, shared by every workspace
and restart.

Determinism: the RNG is a private :class:`random.Random` seeded from
SHA-256 of ``(spec seed, workspace index)`` — never the ``random``
module's global state — and every tie-break is value-ordered, so the
same ``anneal:SEEDxITERS`` spec yields the same placement regardless of
``PYTHONHASHSEED``, ``--jobs``, scheduler backend or shard layout.

A spec names one seed (``anneal``, ``anneal:SEED``) or several
(``anneal:SEED1,SEED2,...``): :class:`AnnealPlacer` runs one independent
anneal per seed from the same greedy seed placement and keeps the best
row, with cost ties broken by the placements' canonical node-index
signatures — the portfolio mode for hosts where a single annealing
trajectory gets stuck.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.core._bitset import NeighbourTable, canonical_order
from repro.core.placement import _stage_runtime
from repro.core.placers.base import Placement, WorkspacePlacer
from repro.core.placers.greedy import greedy_candidate
from repro.core.stats import STATS
from repro.exceptions import PlacementError

#: Default iteration budget per workspace (the ITERS of ``anneal:SEEDxITERS``).
DEFAULT_ITERATIONS = 2000

#: Largest iteration budget: the native kernel counts proposals in an int64.
MAX_ITERATIONS = 2**63 - 1

#: Fraction of proposals drawn from a partner node's host neighbourhood.
_LOCAL_MOVE_FRACTION = 0.75

#: Early-exit margin: proposals costing more than ``current + 20 * T`` have
#: acceptance probability below exp(-20) ~ 2e-9 and are rejected unscored.
_LIMIT_TEMPERATURES = 20.0


def _derive_seed(seed: int, workspace_index: int) -> int:
    """A process-independent RNG seed for one workspace's anneal."""
    digest = hashlib.sha256(
        f"placer.anneal:{seed}:{workspace_index}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big")


class AnnealPlacer(WorkspacePlacer):
    """Greedy-seeded simulated annealing, best of one restart per seed.

    Runs one independent anneal per seed over the *same* greedy seed
    placement (computed once per workspace) and keeps the best row; a
    one-seed portfolio returns its only restart's row unchanged.  Ties on
    cost break deterministically by the placements' node-index signatures
    in :func:`canonical_order` — never by seed-list order — so the same
    spec yields the same placement regardless of ``PYTHONHASHSEED``,
    worker count, scheduler backend or shard layout, and the portfolio is
    never worse than a single restart of any listed seed by construction.
    """

    provides_multiple_candidates = False

    def __init__(
        self,
        seeds: Sequence[int] = (0,),
        iterations: int = DEFAULT_ITERATIONS,
    ) -> None:
        if not seeds:
            raise PlacementError("anneal needs at least one restart seed")
        for seed in seeds:
            if seed < 0:
                raise PlacementError(
                    f"anneal seed must be non-negative, got {seed}"
                )
        if iterations < 0:
            raise PlacementError(
                f"anneal iteration budget must be non-negative, got {iterations}"
            )
        if iterations > MAX_ITERATIONS:
            raise PlacementError(
                f"anneal iteration budget must be at most {MAX_ITERATIONS} "
                f"(the native kernel's int64 limit), got {iterations}"
            )
        self.seeds = tuple(seeds)
        self.iterations = iterations

    def workspace_candidates(
        self,
        workspace,
        subcircuit,
        circuit,
        context,
        environment,
        options,
        previous: Optional[Placement],
        evaluator,
    ) -> List[Tuple[Placement, float]]:
        seed_placement, seed_runtime = greedy_candidate(
            workspace, subcircuit, circuit, context, environment, options,
            previous, evaluator,
        )
        movable = canonical_order(
            {q for gate in subcircuit if gate.is_two_qubit for q in gate.qubits}
        )
        if (
            not movable
            or self.iterations == 0
            or not math.isfinite(seed_runtime)
            or seed_runtime <= 0.0
        ):
            return [(seed_placement, seed_runtime)]
        rows = (
            self._anneal(
                seed, workspace, subcircuit, context, environment, options,
                seed_placement, seed_runtime, movable, evaluator,
            )
            for seed in self.seeds
        )
        best, best_cost = next(rows)
        for placement, cost in rows:
            if cost < best_cost or (
                cost == best_cost
                and _signature(placement, context) < _signature(best, context)
            ):
                best, best_cost = placement, cost
        STATS.increment("placer.anneal_restarts", len(self.seeds))
        return [(best, best_cost)]

    def _anneal(
        self,
        seed: int,
        workspace,
        subcircuit,
        context,
        environment,
        options,
        seed_placement: Placement,
        seed_runtime: float,
        movable,
        evaluator,
    ) -> Tuple[Placement, float]:
        rng = random.Random(_derive_seed(seed, workspace.index))
        pattern = workspace.interaction_graph
        partners = {
            qubit: canonical_order(pattern.neighbors(qubit))
            for qubit in movable
            if qubit in pattern
        }
        table = context.neighbour_table
        if (
            evaluator is not None
            and evaluator.backend == "native"
            and not evaluator.full_recompute
        ):
            t0, alpha = _schedule(seed_runtime, self.iterations)
            best, best_cost, counts = evaluator.anneal(
                rng, seed_placement, seed_runtime, movable, partners, table,
                iterations=self.iterations,
                t0=t0,
                alpha=alpha,
                local_fraction=_LOCAL_MOVE_FRACTION,
                limit_temperatures=_LIMIT_TEMPERATURES,
            )
        else:
            best, best_cost, counts = anneal_loop(
                rng, seed_placement, seed_runtime, movable, partners, table,
                self.iterations, evaluator,
                lambda candidate: _stage_runtime(
                    subcircuit, candidate, environment, options, None
                ),
            )
        accepted, rejected, delta_evals = counts
        STATS.increment("placer.anneal_steps", self.iterations)
        STATS.increment("placer.moves_accepted", accepted)
        STATS.increment("placer.moves_rejected", rejected)
        STATS.increment("placer.delta_evals", delta_evals)
        return best, best_cost


def _signature(placement: Placement, context) -> Tuple[int, ...]:
    """A placement's node indices in canonical qubit order (the tie-break)."""
    node_order = context.node_order
    return tuple(node_order[placement[qubit]] for qubit in canonical_order(placement))


def _schedule(start_cost: float, iterations: int) -> Tuple[float, float]:
    """``(T0, alpha)``: the geometric schedule from ``T0`` to ``T0 / 1000``."""
    t0 = 0.25 * start_cost
    t_end = t0 * 1e-3
    alpha = (t_end / t0) ** (1.0 / (iterations - 1)) if iterations > 1 else 1.0
    return t0, alpha


def anneal_loop(
    rng: random.Random,
    start: Placement,
    start_cost: float,
    movable: Sequence,
    partners: Mapping,
    table: NeighbourTable,
    iterations: int,
    evaluator=None,
    full_cost: Optional[Callable[[Placement], float]] = None,
) -> Tuple[Placement, float, Tuple[int, int, int]]:
    """One annealing restart in Python: the reference of the native kernel.

    Anneals ``start`` (cost ``start_cost``) for ``iterations`` proposals
    drawn from ``rng``: a movable qubit, then, for a qubit with
    ``partners``, a local move to a host neighbour (``table``) of a
    partner's node with probability :data:`_LOCAL_MOVE_FRACTION`, else a
    global move to any node of ``table.graph_nodes``.  Moves are scored
    through ``evaluator.runtime_with`` (re-based on every accepted move)
    or, without an evaluator, by ``full_cost`` of the whole candidate.
    Returns the best placement (``start``'s key order), its cost and the
    accepted, rejected and scored move counts.
    :meth:`~repro.timing.scheduler.RuntimeEvaluator.anneal` runs this loop
    in one native call, draw for draw.
    """
    allowed = table.graph_nodes
    current = dict(start)
    current_cost = start_cost
    best = dict(start)
    best_cost = start_cost
    node_to_qubit = {node: q for q, node in current.items()}
    if evaluator is not None:
        evaluator.set_base(current)

    temperature, alpha = _schedule(start_cost, iterations)
    accepted = rejected = delta_evals = 0

    for _ in range(iterations):
        qubit = movable[rng.randrange(len(movable))]
        current_node = current[qubit]
        qubit_partners = partners.get(qubit)
        target = None
        if qubit_partners and rng.random() < _LOCAL_MOVE_FRACTION:
            anchor = current[
                qubit_partners[rng.randrange(len(qubit_partners))]
            ]
            neighbours = table.neighbours(anchor)
            if neighbours:
                target = neighbours[rng.randrange(len(neighbours))]
        if target is None:
            target = allowed[rng.randrange(len(allowed))]
        if target == current_node:
            rejected += 1
            temperature *= alpha
            continue
        occupant = node_to_qubit.get(target)
        if occupant is None:
            overrides = {qubit: target}
        else:
            overrides = {qubit: target, occupant: current_node}
        delta_evals += 1
        if evaluator is not None:
            value = evaluator.runtime_with(
                overrides,
                limit=current_cost + _LIMIT_TEMPERATURES * temperature,
            )
        else:
            candidate = dict(current)
            candidate.update(overrides)
            value = full_cost(candidate)
        accept = value <= current_cost
        if not accept and math.isfinite(value):
            accept = rng.random() < math.exp(
                -(value - current_cost) / temperature
            )
        if accept:
            current.update(overrides)
            node_to_qubit[target] = qubit
            if occupant is None:
                del node_to_qubit[current_node]
            else:
                node_to_qubit[current_node] = occupant
            current_cost = value
            if evaluator is not None:
                evaluator.set_base(current)
            if value < best_cost:
                best = dict(current)
                best_cost = value
            accepted += 1
        else:
            rejected += 1
        temperature *= alpha

    if evaluator is not None:
        evaluator.flush_stats()
    return best, best_cost, (accepted, rejected, delta_evals)
