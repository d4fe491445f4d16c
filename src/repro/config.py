"""The canonical, serialisable description of one run: :class:`RunConfig`.

Every entry point of this package — :func:`repro.core.placement.place_circuit`
via :meth:`repro.api.Session.place`, the Table-3 sweeps, the shard
pipeline, the CLI — consumes the same frozen :class:`RunConfig`: circuit
and environment registry specs (see :mod:`repro.registry`), the placement
options, and the execution shape (jobs, the shard count ``shard plan``
deals the grid's cells out to, output format).  A config
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
      "output": "text"
    }

Unknown keys are rejected (a typo in a config file must not be silently
ignored), and all values are validated on construction, so an invalid
file fails with a one-line :class:`~repro.exceptions.ConfigError` before
any work starts.  Files written before the cell-retry layer was removed
carry ``"retries": 0`` and ``"cell_timeout": null``; files written before
``sweep`` stopped running single shards carry ``"shard_index": null`` and
a ``"strategy"`` naming one of the two removed shard strategies; options
objects written before the scheduler backend became a property of the
process carry ``"auto"`` as their backend.  Those no-op values are read
and dropped, and any other value is refused (``docs/api.md``).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.config import REMOVED_BACKEND_OPTION, PlacementOptions
from repro.exceptions import ConfigError, ReproError
from repro.timing._replay import BACKEND_ENV_VAR

#: Format tag written into (and checked in) serialised configs.
CONFIG_FORMAT = "repro-run-config"

#: Schema version of the serialised form.
CONFIG_SCHEMA_VERSION = 1

#: Accepted CLI/Session output formats.
OUTPUT_FORMATS = ("text", "json")


def _is(inert: Any) -> Callable[[Any], bool]:
    """Whether a value is ``inert``, type included (``0.0`` is not ``0``)."""
    return lambda value: value == inert and type(value) is type(inert)


def _old_strategy(value: Any) -> bool:
    """Whether a value names a removed shard strategy in a spelling the old
    validator accepted (any case, ``_`` for ``-``); both dealt the cells
    of every grid this program builds out by index."""
    return isinstance(value, str) and value.replace("_", "-").lower() in (
        "round-robin", "cost-balanced",
    )


#: Keys removed from the run config, and from its options object: each
#: with the test for the no-op value files written before the removal
#: carry, and why any other value is refused.
_NO_RETRIES = "cell retries and timeouts were removed"
_REMOVED_KEYS = (
    ("retries", _is(0), _NO_RETRIES),
    ("cell_timeout", _is(None), _NO_RETRIES),
    ("shard_index", _is(None),
     "sweep no longer runs one shard: write the shard files with "
     "'shard plan' and run each with 'shard run'"),
    ("strategy", _old_strategy,
     "cells are dealt out to shards by index, the one partition rule"),
)
_REMOVED_OPTIONS = (
    (REMOVED_BACKEND_OPTION, _is("auto"),
     f"the scheduler backend is chosen per process by {BACKEND_ENV_VAR}"),
)


def check_execution(jobs: object) -> None:
    """Validate a run's worker count.

    The rule and message of :class:`RunConfig`'s ``jobs`` field, which
    :class:`~repro.analysis.runner.ExperimentRunner` applies too.  A bad
    value raises :class:`ConfigError`.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(f"jobs must be a positive integer, got {jobs!r}")


def check_thresholds(thresholds: Tuple[float, ...]) -> None:
    """Validate a sweep's threshold values.

    The rule and message of :class:`RunConfig`'s ``thresholds`` field,
    which the sweep functions of :mod:`repro.analysis.sweep` apply too.
    A value that is not a positive finite number (NaN included) raises
    :class:`ConfigError`.
    """
    if any(not 0 < value < math.inf for value in thresholds):  # NaN too
        raise ConfigError(
            f"thresholds must be positive finite numbers, got {thresholds}"
        )


def _drop_removed_keys(
    data: Dict[str, Any],
    removed: Tuple[Tuple[str, Callable[[Any], bool], str], ...],
    kind: str,
) -> None:
    """Remove the ``removed`` keys from ``data`` if they hold no-op values.

    Any other value asks for something this program no longer does per
    run (retries, a timeout, one shard, one scheduler backend); running
    without it would silently differ from what the file asks for, so such
    a value raises :class:`ConfigError` instead.
    """
    for key, is_inert, reason in removed:
        if key not in data:
            continue
        value = data.pop(key)
        if not is_inert(value):
            raise ConfigError(
                f"{kind} key {key!r} is {value!r}, but {reason}; "
                "delete the key"
            )


def _options_to_dict(options: PlacementOptions) -> Dict[str, Any]:
    return dataclasses.asdict(options)


def _options_from_dict(data: Mapping[str, Any]) -> PlacementOptions:
    data = dict(data)
    _drop_removed_keys(data, _REMOVED_OPTIONS, "placement-option")
    known = {f.name for f in dataclasses.fields(PlacementOptions)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(
            f"unknown placement option(s) {unknown}; valid options: "
            + ", ".join(sorted(known))
        )
    try:
        return PlacementOptions(**data)
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
        the single-placement ``threshold``).
    jobs:
        Local worker processes per grid execution.
    shards:
        The shard count ``shard plan`` deals the sweep grid's cells out
        to, cell ``i`` to shard ``i % shards``; ``sweep`` refuses more
        than one.
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
            check_thresholds(values)
            object.__setattr__(self, "thresholds", values)
        if not isinstance(self.options, PlacementOptions):
            raise ConfigError(
                f"options must be PlacementOptions, got {type(self.options).__name__}"
            )
        check_execution(self.jobs)
        if isinstance(self.shards, bool) or not isinstance(self.shards, int) \
                or self.shards < 1:
            raise ConfigError(f"shards must be a positive integer, got {self.shards!r}")
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
        # Shard-input files pickle the plan's config; one written before a
        # field was removed follows the same rule as a file.
        state = dict(state)
        _drop_removed_keys(state, _REMOVED_KEYS, "run-config")
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
        _drop_removed_keys(data, _REMOVED_KEYS, "run-config")
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
