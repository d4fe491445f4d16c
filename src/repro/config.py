"""The canonical, serialisable description of one run: :class:`RunConfig`.

Every entry point of this package — :func:`repro.core.placement.place_circuit`
via :meth:`repro.api.Session.place`, the Table-3 sweeps, the shard
pipeline, the CLI — consumes the same frozen :class:`RunConfig`: circuit
and environment registry specs (see :mod:`repro.registry`), the placement
options, and the execution shape (jobs, shards, output format).  A config
round-trips through canonical JSON byte-for-byte, is accepted by every
CLI command as ``--config run.json``, and is embedded in shard plans so a
shard file describes the run it belongs to.

The JSON schema (see ``docs/api.md``)::

    {
      "format": "repro-run-config",
      "schema_version": 1,
      "circuit": "qft:7",
      "environment": "trans-crotonic-acid",
      "thresholds": [50, 100, 200] | null,
      "options": { ... PlacementOptions fields ... },
      "jobs": 1,
      "shards": 1,
      "shard_index": null,
      "strategy": "round-robin",
      "output": "text"
    }

Unknown keys are rejected (a typo in a config file must not be silently
ignored), and all values are validated on construction, so an invalid
file fails with a one-line :class:`~repro.exceptions.ConfigError` before
any work starts.  Files written before the cell-retry layer was removed
carry ``"retries": 0`` and ``"cell_timeout": null``; those no-op values
are read and dropped, and any other value is refused (``docs/api.md``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.config import PlacementOptions
from repro.exceptions import ConfigError, ReproError
from repro.registry import SHARD_STRATEGIES

#: Format tag written into (and checked in) serialised configs.
CONFIG_FORMAT = "repro-run-config"

#: Schema version of the serialised form.
CONFIG_SCHEMA_VERSION = 1

#: Accepted CLI/Session output formats.
OUTPUT_FORMATS = ("text", "json")


#: Keys of the removed cell-retry layer, with the no-op value every file
#: written before its removal carries.
_REMOVED_KEYS = (("retries", 0), ("cell_timeout", None))


def check_execution(jobs: object) -> None:
    """Validate a run's worker count.

    The rule and message of :class:`RunConfig`'s ``jobs`` field, shared
    with ``shard run``, whose flags build no :class:`RunConfig`.  A bad
    value raises :class:`ConfigError`.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(f"jobs must be a positive integer, got {jobs!r}")


def _drop_removed_keys(data: Dict[str, Any]) -> None:
    """Remove the cell-retry keys from ``data`` if they hold no-op values.

    Any other value asks for retries or a timeout, which no longer exist;
    running without them would silently differ from what the file asks
    for, so such a value raises :class:`ConfigError` instead.
    """
    for key, inert in _REMOVED_KEYS:
        if key not in data:
            continue
        value = data.pop(key)
        if value != inert or type(value) is not type(inert):
            raise ConfigError(
                f"run-config key {key!r} is {value!r}, but cell retries "
                "and timeouts were removed; delete the key"
            )


def _options_to_dict(options: PlacementOptions) -> Dict[str, Any]:
    return dataclasses.asdict(options)


def _options_from_dict(data: Mapping[str, Any]) -> PlacementOptions:
    known = {f.name for f in dataclasses.fields(PlacementOptions)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(
            f"unknown placement option(s) {unknown}; valid options: "
            + ", ".join(sorted(known))
        )
    try:
        return PlacementOptions(**dict(data))
    except ReproError as exc:
        raise ConfigError(f"invalid placement options: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"malformed placement options: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one run, in one frozen value.

    Attributes
    ----------
    circuit:
        Circuit registry spec (``qft6``, ``qft:7``, ``hidden-stage:32``)
        or a ``.qc``/``.txt`` circuit file path.
    environment:
        Environment registry spec (``trans-crotonic-acid``, ``chain:12``,
        ``grid:4x4``) or an environment ``.json`` file path.
    thresholds:
        Sweep threshold values; ``None`` selects the paper's list
        (:data:`repro.hardware.threshold_graph.PAPER_THRESHOLDS`).
    options:
        The full :class:`~repro.core.config.PlacementOptions` (including
        the single-placement ``threshold`` and ``scheduler_backend``).
    jobs:
        Local worker processes per grid execution.
    shards / shard_index / strategy:
        The deterministic grid partition: total shard count, the one
        shard this invocation executes (``None`` = whole grid), and the
        :data:`repro.registry.SHARD_STRATEGIES` entry used to partition.
    output:
        ``"text"`` (human-readable tables) or ``"json"`` (canonical
        machine-readable rows + counters).
    """

    circuit: str
    environment: str
    thresholds: Optional[Tuple[float, ...]] = None
    options: PlacementOptions = field(default_factory=PlacementOptions)
    jobs: int = 1
    shards: int = 1
    shard_index: Optional[int] = None
    strategy: str = "round-robin"
    output: str = "text"

    def __post_init__(self) -> None:
        if not isinstance(self.circuit, str) or not self.circuit:
            raise ConfigError(f"circuit must be a non-empty spec string, got {self.circuit!r}")
        if not isinstance(self.environment, str) or not self.environment:
            raise ConfigError(
                f"environment must be a non-empty spec string, got {self.environment!r}"
            )
        if self.thresholds is not None:
            if isinstance(self.thresholds, str):
                # A bare string would silently iterate character by
                # character ("234" -> 2.0, 3.0, 4.0); reject it outright.
                raise ConfigError(
                    f"thresholds must be a list of numbers, got the string "
                    f"{self.thresholds!r}"
                )
            try:
                raw = tuple(self.thresholds)
                # float(True) is 1.0: a JSON true must not pass as a threshold.
                if any(isinstance(value, bool) for value in raw):
                    raise TypeError
                values = tuple(float(value) for value in raw)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"thresholds must be a list of numbers, got {self.thresholds!r}"
                ) from None
            if not values:
                raise ConfigError("thresholds cannot be an empty list (use null)")
            if any(not value > 0 for value in values):  # rejects NaN too
                raise ConfigError(f"thresholds must be positive, got {values}")
            object.__setattr__(self, "thresholds", values)
        if not isinstance(self.options, PlacementOptions):
            raise ConfigError(
                f"options must be PlacementOptions, got {type(self.options).__name__}"
            )
        check_execution(self.jobs)
        if isinstance(self.shards, bool) or not isinstance(self.shards, int) \
                or self.shards < 1:
            raise ConfigError(f"shards must be a positive integer, got {self.shards!r}")
        if self.shard_index is not None:
            if isinstance(self.shard_index, bool) \
                    or not isinstance(self.shard_index, int):
                raise ConfigError(
                    f"shard_index must be an integer (or null), got "
                    f"{self.shard_index!r}"
                )
            if not 0 <= self.shard_index < self.shards:
                raise ConfigError(
                    f"shard_index {self.shard_index!r} out of range for "
                    f"{self.shards} shard(s); valid indices: 0..{self.shards - 1}"
                )
        canonical = str(self.strategy).replace("_", "-").lower()
        if canonical not in SHARD_STRATEGIES:
            raise ConfigError(
                f"unknown shard strategy {self.strategy!r}; valid strategies: "
                + ", ".join(SHARD_STRATEGIES.names())
            )
        object.__setattr__(self, "strategy", canonical)
        if self.output not in OUTPUT_FORMATS:
            raise ConfigError(
                f"unknown output format {self.output!r}; valid formats: "
                + ", ".join(OUTPUT_FORMATS)
            )

    # -- derived views -------------------------------------------------------

    def replace(self, **changes) -> "RunConfig":
        """A copy with some fields changed (validated like a fresh config)."""
        return dataclasses.replace(self, **changes)

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # Shard-input files pickle the plan's config; one written before
        # the cell-retry layer was removed follows the same rule as a file.
        state = dict(state)
        _drop_removed_keys(state)
        self.__dict__.update(state)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-safe canonical form (self-describing)."""
        return {
            "format": CONFIG_FORMAT,
            "schema_version": CONFIG_SCHEMA_VERSION,
            "circuit": self.circuit,
            "environment": self.environment,
            "thresholds": (
                list(self.thresholds) if self.thresholds is not None else None
            ),
            "options": _options_to_dict(self.options),
            "jobs": self.jobs,
            "shards": self.shards,
            "shard_index": self.shard_index,
            "strategy": self.strategy,
            "output": self.output,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        """Rebuild a config from :meth:`to_dict` (unknown keys rejected)."""
        if not isinstance(data, Mapping):
            raise ConfigError(f"run config must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        declared_format = data.pop("format", CONFIG_FORMAT)
        if declared_format != CONFIG_FORMAT:
            raise ConfigError(
                f"not a run config (expected format {CONFIG_FORMAT!r}, "
                f"got {declared_format!r})"
            )
        data.pop("schema_version", None)
        _drop_removed_keys(data)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown run-config key(s) {unknown}; valid keys: "
                + ", ".join(sorted(known))
            )
        if "options" in data and not isinstance(data["options"], PlacementOptions):
            if data["options"] is None:
                data.pop("options")
            elif isinstance(data["options"], Mapping):
                data["options"] = _options_from_dict(data["options"])
            else:
                raise ConfigError(
                    f"options must be an object, got {data['options']!r}"
                )
        if data.get("thresholds") is None:
            data.pop("thresholds", None)
        try:
            return cls(**data)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed run config: {exc}") from exc

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, fixed separators, newline)."""
        from repro.analysis.serialization import dump_json

        return dump_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """Parse a config from its canonical (or any) JSON encoding."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"run config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        """Write the canonical JSON form to ``path`` (atomically)."""
        from repro.analysis.serialization import atomic_write_text

        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        """Read a config file written by :meth:`save` (or by hand)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        try:
            return cls.from_json(text)
        except ConfigError as exc:
            raise ConfigError(f"config file {path!r}: {exc}") from exc
