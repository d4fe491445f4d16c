"""repro — quantum circuit placement.

A from-scratch Python reproduction of

    D. Maslov, S. M. Falconer, M. Mosca,
    "Quantum Circuit Placement",
    DAC 2007 / IEEE TCAD 27(4):752-763, 2008.

The package maps the logical qubits of a quantum circuit onto the physical
qubits (nuclei) of a physical environment so that the scheduled runtime of
the circuit is minimised, splitting the circuit into subcircuits placeable
along the fastest interactions and gluing them with SWAP stages.

Typical use — the unified workload API (see ``docs/api.md``)::

    from repro import RunConfig, Session

    cfg = RunConfig(circuit="qft:7", environment="trans-crotonic-acid",
                    thresholds=(50, 100, 200))
    session = Session(cfg)
    print(session.place().placement.summary())   # one placement
    print(session.sweep().table())               # the Table-3 style row

Circuits and environments are addressed by registry spec strings
(:data:`repro.registry.CIRCUITS` / :data:`repro.registry.ENVIRONMENTS`):
named entries such as ``qft6`` or ``histidine``, parameterised families
such as ``qft:7``, ``chain:12`` or ``grid:4x4``, or file paths.  A
:class:`RunConfig` round-trips through canonical JSON (``--config
run.json`` on the CLI) and is embedded in shard plans, so the same run
description works from Python, the command line and a shard payload.

The lower-level building blocks remain available::

    from repro import place_circuit, PlacementOptions
    from repro.circuits.library import qft_circuit
    from repro.hardware import trans_crotonic_acid

    result = place_circuit(qft_circuit(6),
                           trans_crotonic_acid(),
                           PlacementOptions(threshold=200))
    print(result.summary())
"""

from repro.api import GridResult, PlaceResult, Session, SweepResult
from repro.circuits import QuantumCircuit
from repro.config import RunConfig
from repro.core import (
    PlacementOptions,
    PlacementResult,
    QuantumCircuitPlacer,
    place_circuit,
)
from repro.exceptions import (
    CircuitError,
    ConfigError,
    PlacementError,
    RegistryError,
    ReproError,
    RoutingError,
    ShardFormatError,
    ThresholdError,
    UnknownSpecError,
)
from repro.hardware import PhysicalEnvironment
from repro.registry import (
    CIRCUITS,
    ENVIRONMENTS,
    PLACERS,
    SHARD_STRATEGIES,
    load_circuit,
    load_environment,
)

__version__ = "1.1.0"

__all__ = [
    "QuantumCircuit",
    "PhysicalEnvironment",
    "place_circuit",
    "QuantumCircuitPlacer",
    "PlacementOptions",
    "PlacementResult",
    "RunConfig",
    "Session",
    "PlaceResult",
    "SweepResult",
    "GridResult",
    "CIRCUITS",
    "ENVIRONMENTS",
    "PLACERS",
    "SHARD_STRATEGIES",
    "load_circuit",
    "load_environment",
    "ReproError",
    "CircuitError",
    "PlacementError",
    "RoutingError",
    "ThresholdError",
    "RegistryError",
    "UnknownSpecError",
    "ConfigError",
    "ShardFormatError",
    "__version__",
]
