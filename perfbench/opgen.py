"""Seeded operation lists for the three benchmark workloads.

A workload is a fixed list of *slots* (op kind, circuit family and size,
environment); every round runs each slot once, in an order the seed
shuffles, and the seed also orders the instance seeds each random circuit
cycles through.  So any whole number of rounds has the same mix of op sizes
whatever the seed, which keeps run-to-run spread low, while the circuits
themselves differ from seed to seed.  Slots that cannot run at any
threshold (more qubits than the host) or that exceed
:data:`MAX_TWO_QUBIT_GATES` are rejected when the list is generated,
before any op is timed.

Generation uses only ``random.Random`` over fixed, ordered tables, so the
op list is byte-identical across processes and ``PYTHONHASHSEED`` values
(``python3 perfbench/opgen.py WORKLOAD SEED`` prints it).

An op is a plain dict; ``op["key"]`` names it in ``golden.json``.
"""

from __future__ import annotations

import json
import random
import sys
from typing import Callable, Dict, List, Sequence, Tuple

WORKLOADS = ("molecule_sweep", "large_host_anneal", "cold_cli")

#: Slots with more two-qubit gates than this are rejected as too large.
MAX_TWO_QUBIT_GATES = 48

#: Rounds generated per run; far more than any run can execute.
ROUNDS = 60

#: Instance seeds a random circuit is drawn from.
SEEDS = (0, 1, 2, 3)

# (environments, circuit specs): every admissible pair is a slot.  ``{s}``
# in a spec is the drawn instance seed.
Group = Tuple[Sequence[str], Sequence[str]]

MOLECULE_GROUPS: Tuple[Group, ...] = (
    # trans-crotonic acid (7 qubits): ~0.1 s per sweep.
    (("trans-crotonic-acid",),
     ("qft6", "qft:5", "qft:7", "aqft:6", "aqft:7", "cat:6", "cat:7",
      "random:6x18x{s}", "random:7x21x{s}")),
    # histidine (12 qubits): 0.2-0.5 s per sweep, mostly hill climbing.
    (("histidine",),
     ("pseudo-cat-state", "steane-x/z1", "steane-x/z2", "cat:8", "cat:9",
      "cat:10", "cat:11", "cat:12", "qft:7", "qft:8", "aqft9", "aqft:10",
      "aqft:11", "random:8x24x{s}")),
)

LATTICE_GROUPS: Tuple[Group, ...] = (
    (("grid:24x24", "grid:28x28", "grid:32x32", "grid:40x40"),
     ("random-chain:12x36x{s}", "random-chain:16x48x{s}")),
)

#: cold_cli rounds: (process kind, circuit, environment) slots.  Molecule
#: ``place`` runs the exact engine at the default threshold; the lattice
#: ``place`` uses the greedy placer, where routing is most of the work.
CLI_SLOTS: Tuple[Tuple[str, str, str], ...] = (
    ("place", "random:4x12x{s}", "boc-glycine-fluoride"),
    ("place", "random:5x15x{s}", "pentafluorobutadienyl-iron"),
    ("place", "random:6x18x{s}", "trans-crotonic-acid"),
    ("place", "random:7x21x{s}", "trans-crotonic-acid"),
    ("place-greedy", "random:12x40x{s}", "grid:6x6"),
    ("place-greedy", "random:12x40x{s}", "grid:6x6"),
    ("sweep-jobs2", "random:6x18x{s}", "trans-crotonic-acid"),
    ("shard", "random:6x18x{s}", "trans-crotonic-acid"),
)

# (qubits, two-qubit gates) of a circuit spec and the qubit count of an
# environment spec; supplied by the caller so this module stays free of
# the program under test.
CircuitShape = Callable[[str], Tuple[int, int]]
HostSize = Callable[[str], int]
Slot = Tuple[str, str, str]


def slots(workload: str, shape: CircuitShape, host_size: HostSize) -> List[Slot]:
    """The admissible (kind, circuit spec, environment) slots of a workload."""
    if workload == "cold_cli":
        candidates = list(CLI_SLOTS)
    elif workload in ("molecule_sweep", "large_host_anneal"):
        kind = "sweep" if workload == "molecule_sweep" else "anneal"
        groups = MOLECULE_GROUPS if workload == "molecule_sweep" else LATTICE_GROUPS
        candidates = [(kind, circuit, environment)
                      for environments, circuits in groups
                      for environment in environments for circuit in circuits]
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose one of {WORKLOADS}")
    admitted = []
    for kind, circuit, environment in candidates:
        qubits, two_qubit_gates = shape(circuit.format(s=SEEDS[0]))
        if (qubits <= host_size(environment)
                and two_qubit_gates <= MAX_TWO_QUBIT_GATES):
            admitted.append((kind, circuit, environment))
    return admitted


def ops_for(kind: str, circuit: str, environment: str) -> List[Dict]:
    """The processes (or the single in-process op) of one op group.

    A ``shard`` group is the four-process plan -> run x2 -> merge round
    trip; its argv use ``{dir}`` for the group's private directory.  The
    last op of a group carries ``last``: its output is what gets checked.
    """
    base = {"kind": kind, "circuit": circuit, "environment": environment,
            "key": f"{kind} {circuit} {environment}"}
    if kind in ("sweep", "anneal"):  # in-process ops
        return [dict(base, last=True)]
    if kind == "place":
        argv = [["place", circuit, environment, "--output", "json"]]
    elif kind == "place-greedy":
        argv = [["place", circuit, environment, "--placer", "greedy",
                 "--output", "json"]]
    elif kind == "sweep-jobs2":
        argv = [["sweep", circuit, environment, "--jobs", "2",
                 "--output", "json"]]
    else:
        argv = [
            ["shard", "plan", circuit, environment, "--shards", "2",
             "--out-dir", "{dir}"],
            ["shard", "run", "--shard-file", "{dir}/shard-0.pkl",
             "--out", "{dir}/out-0.json"],
            ["shard", "run", "--shard-file", "{dir}/shard-1.pkl",
             "--out", "{dir}/out-1.json"],
            ["shard", "merge", "--plan", "{dir}/plan.json",
             "{dir}/out-0.json", "{dir}/out-1.json", "--output", "json"],
        ]
    return [dict(base, argv=args, last=i == len(argv) - 1)
            for i, args in enumerate(argv)]


def generate(workload: str, seed: int, shape: CircuitShape,
             host_size: HostSize) -> List[List[Dict]]:
    """The seeded op rounds of ``workload`` (see the module docstring)."""
    rng = random.Random(f"{workload}:{seed}")
    admitted = slots(workload, shape, host_size)
    # Each slot takes every instance seed once per len(SEEDS) rounds, in a
    # drawn order, so no run is richer in one instance than another.
    instance_seeds = [[s for _ in range(0, ROUNDS, len(SEEDS))
                       for s in rng.sample(SEEDS, len(SEEDS))]
                      for _ in admitted]
    rounds = []
    for index in range(ROUNDS):
        groups = [ops_for(kind, circuit.format(s=instance_seeds[i][index]),
                          environment)
                  for i, (kind, circuit, environment) in enumerate(admitted)]
        rng.shuffle(groups)
        rounds.append([op for group in groups for op in group])
    return rounds


def universe(workload: str, shape: CircuitShape,
             host_size: HostSize) -> List[List[Dict]]:
    """Every op group a seed can draw: what ``golden.json`` records."""
    keys = set()
    groups = []
    for kind, circuit, environment in slots(workload, shape, host_size):
        for seed in SEEDS:
            group = ops_for(kind, circuit.format(s=seed), environment)
            if group[0]["key"] not in keys:
                keys.add(group[0]["key"])
                groups.append(group)
    return groups


def registry_shape() -> Tuple[CircuitShape, HostSize]:
    """Circuit shape and host size looked up through the program's registry."""
    from repro import load_circuit, load_environment

    shapes: Dict[str, Tuple[int, int]] = {}
    sizes: Dict[str, int] = {}

    def shape(spec: str) -> Tuple[int, int]:
        if spec not in shapes:
            circuit = load_circuit(spec)
            shapes[spec] = circuit.num_qubits, circuit.num_two_qubit_gates
        return shapes[spec]

    def host_size(spec: str) -> int:
        if spec not in sizes:
            sizes[spec] = load_environment(spec).num_qubits
        return sizes[spec]

    return shape, host_size


if __name__ == "__main__":
    name, seed_text = sys.argv[1], sys.argv[2]
    print(json.dumps(generate(name, int(seed_text), *registry_shape()),
                     sort_keys=True))
