"""Independent checks of the program's outputs, and their fingerprints.

:func:`check_placement` re-derives what a correct
:class:`~repro.core.result.PlacementResult` must satisfy from the logical
circuit and the environment alone, using no placer code:

* every SWAP acts on a pair whose delay is at most the result's threshold,
  and every other two-qubit gate on a pair with a finite delay (fine tuning
  may move a workspace gate onto a slower pair when that lowers the
  runtime, e.g. ``qft:5`` on trans-crotonic acid at threshold 1000 runs a
  CPHASE on C1-C3, delay 1050);
* every stage placement is injective;
* token-simulating each swap stage's layers carries stage ``i``'s
  placement to stage ``i + 1``'s;
* the physical circuit is each stage's logical gates remapped through
  that stage's placement, followed by the stage's SWAP layers.

Fingerprints are SHA-256 digests of canonical JSON, compared with
``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Iterable, List, Mapping, Sequence

#: Row fields that vary run to run (wall time, per-process cache counters).
VOLATILE_ROW_FIELDS = ("software_runtime_seconds", "counters")


def check_placement(result, circuit, environment) -> List[str]:
    """Everything wrong with ``result``; an empty list means it is correct."""
    problems: List[str] = []
    stages, swaps = result.stages, result.swap_stages
    if not stages:
        return ["no stages"]
    if len(swaps) != len(stages) - 1:
        problems.append(f"{len(stages)} stages but {len(swaps)} swap stages")
    qubits = set(circuit.qubits)
    allowed = set(result.placement_nodes)
    for stage in stages:
        nodes = list(stage.placement.values())
        if set(stage.placement) != qubits:
            problems.append(f"stage {stage.index} does not place every qubit")
        if len(set(nodes)) != len(nodes):
            problems.append(f"stage {stage.index} placement is not injective")
        if not set(nodes) <= allowed:
            problems.append(f"stage {stage.index} uses nodes outside the "
                            "working graph")

    for swap in swaps:
        for layer in swap.routing.layers:
            for a, b in layer:
                if not environment.pair_delay(a, b) <= result.threshold:
                    problems.append(f"SWAP on ({a}, {b}) exceeds threshold "
                                    f"{result.threshold:g}")
    for gate in result.physical_circuit.gates:
        if len(gate.qubits) == 2 and not math.isfinite(
                environment.pair_delay(*gate.qubits)):
            problems.append(f"gate {gate.name} on {gate.qubits} has no "
                            "finite delay")

    for swap in swaps[:len(stages) - 1]:
        before, after = stages[swap.index], stages[swap.index + 1]
        token = {node: qubit for qubit, node in before.placement.items()}
        for layer in swap.routing.layers:
            touched = [node for pair in layer for node in pair]
            if len(set(touched)) != len(touched):
                problems.append(f"swap stage {swap.index} has a layer "
                                "touching one node twice")
            for a, b in layer:
                qa, qb = token.pop(a, None), token.pop(b, None)
                if qa is not None:
                    token[b] = qa
                if qb is not None:
                    token[a] = qb
        carried = {qubit: node for node, qubit in token.items()}
        if carried != after.placement:
            problems.append(f"swap stage {swap.index} does not deliver "
                            f"stage {swap.index + 1}'s placement")

    expected = []
    logical = circuit.gates
    for index, stage in enumerate(stages):
        mapping = stage.placement
        expected += [(g.name, tuple(mapping.get(q, q) for q in g.qubits),
                      g.duration, g.angle)
                     for g in logical[stage.start:stage.stop]]
        if index < len(swaps):
            expected += [("SWAP", (a, b), 3.0, None)
                         for layer in swaps[index].routing.layers
                         for a, b in layer]
    if stages[0].start != 0 or stages[-1].stop != len(logical) or any(
            prev.stop != nxt.start for prev, nxt in zip(stages, stages[1:])):
        problems.append("stages do not tile the logical circuit")
    actual = [(g.name, tuple(g.qubits), g.duration, g.angle)
              for g in result.physical_circuit.gates]
    if actual != expected:
        problems.append("physical circuit is not the remapped logical "
                        "circuit plus its swap layers")
    if not (math.isfinite(result.total_runtime) and result.total_runtime > 0):
        problems.append(f"total runtime {result.total_runtime!r}")
    return problems


def digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def placement_record(result) -> Dict[str, Any]:
    """The deterministic content of one placement, JSON-safe."""
    return {
        "threshold": result.threshold,
        "total_runtime": result.total_runtime,
        "stages": [[stage.start, stage.stop, sorted(
            [str(q), str(n)] for q, n in stage.placement.items())]
            for stage in result.stages],
        "swap_layers": [[[str(a), str(b)] for a, b in layer]
                        for swap in result.swap_stages
                        for layer in swap.routing.layers],
    }


def outcome_record(outcome) -> Dict[str, Any]:
    """The deterministic fields of an in-process experiment outcome."""
    return {
        "label": outcome.label,
        "feasible": outcome.feasible,
        "runtime_seconds": outcome.runtime_seconds,
        "num_subcircuits": outcome.num_subcircuits,
        "error_type": outcome.error_type,
    }


def row_records(rows: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """``--output json`` rows with the run-to-run varying fields removed."""
    return [{key: value for key, value in row.items()
             if key not in VOLATILE_ROW_FIELDS} for row in rows]


def rows_consistent(rows: Sequence[Mapping[str, Any]]) -> List[str]:
    """Internal consistency of CLI rows (the part checkable without stages)."""
    problems = []
    for row in rows:
        if row.get("failure"):
            problems.append(f"row {row.get('index')} failed: {row['failure']}")
        elif row["feasible"]:
            runtime = row["runtime_seconds"]
            if not (isinstance(runtime, float) and runtime > 0
                    and row["num_subcircuits"] >= 1):
                problems.append(f"row {row.get('index')} has runtime "
                                f"{runtime!r}")
        elif row["error_type"] not in ("ThresholdError", "PlacementError"):
            problems.append(f"row {row.get('index')} infeasible with "
                            f"{row['error_type']}")
    return problems
