"""Exception hierarchy for the quantum circuit placement library.

Every error raised by this package derives from :class:`ReproError`, so
applications can catch a single base class.  More specific subclasses are
raised close to where the problem is detected and carry enough context in
their message to diagnose the failure without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class CircuitError(ReproError):
    """Raised for malformed circuits or gates (bad qubit indices, arity...)."""


class GateError(CircuitError):
    """Raised when a gate is constructed or used inconsistently."""


class EnvironmentError_(ReproError):
    """Raised for malformed physical environments.

    The trailing underscore avoids shadowing the (deprecated) builtin
    ``EnvironmentError`` alias of ``OSError``.
    """


class ThresholdError(EnvironmentError_):
    """Raised when a threshold produces an unusable adjacency graph."""


class PlacementError(ReproError):
    """Raised when a placement cannot be constructed.

    Typical causes: the circuit uses more qubits than the environment
    provides, or the adjacency graph is disconnected so no monomorphism and
    no routing path exists for some interaction.
    """


class MonomorphismError(PlacementError):
    """Raised when no subgraph monomorphism exists for a workspace."""


class RoutingError(ReproError):
    """Raised when a permutation cannot be realised over an adjacency graph."""


class ExperimentError(ReproError):
    """Raised by the experiment runner for misconfigured cell grids.

    Typical cause: asking for multi-process execution with specs that
    cannot be pickled (lambda factories, closures over local state).
    """


class ShardFormatError(ExperimentError):
    """Raised when a shard, plan or outcome-shard file cannot be read back.

    Wraps every low-level failure mode — missing file, truncated pickle or
    JSON, foreign format tag, payload-checksum mismatch, a malformed or
    unsupported row — in one exception whose single-line message names
    the offending path and the cause, so shard workers and the merge step
    fail with an actionable error instead of a raw
    ``pickle``/``json``/``EOFError`` traceback.
    """


class RegistryError(ReproError):
    """Raised for misuse of a named registry (duplicate or invalid names)."""


class UnknownSpecError(RegistryError):
    """Raised when a registry spec string does not resolve to an entry.

    The message is a single line listing the valid registry names, so CLI
    surfaces can show it verbatim (``repro-place`` exits with code 2).
    """


class ConfigError(ReproError):
    """Raised for invalid :class:`repro.config.RunConfig` values or files.

    Like :class:`UnknownSpecError`, this marks a caller/usage mistake
    rather than an internal failure; the CLI exits with code 2.
    """


class SimulationError(ReproError):
    """Raised by the statevector simulator (e.g. too many qubits)."""


class SerializationError(ReproError):
    """Raised when parsing or writing circuit / environment files fails."""
