"""Named registries with parameterised string specs.

Every workload ingredient in this package — benchmark circuits, molecule
and synthetic-architecture environments, placers — is addressable by a
short string *spec*, so one canonical description of a run
(:class:`repro.config.RunConfig`) works identically from Python, the CLI,
a config file and a shard payload.

Spec grammar
------------

::

    spec   ::= name [":" params]
    params ::= param ("x" param)*
    param  ::= integer | integer ("," integer)+

``name`` is a registered entry name (letters, digits, ``.``, ``_``,
``-`` and ``/``); ``params`` are non-negative integers separated by
``x``.  Examples: ``qft6`` (a plain named entry), ``qft:7`` (the 7-qubit
QFT), ``chain:12`` (a 12-node chain), ``grid:4x4`` (a 4-by-4 lattice).
A parameter position may hold a comma-separated *list* of integers —
but only for entries that declare the position list-valued
(``RegistryEntry.list_params``); everything else rejects lists at
validation time.  Example: ``anneal:3,5,9`` (a multi-restart annealer
portfolio over three seeds).

Registries
----------

:data:`CIRCUITS`
    Benchmark circuits (:mod:`repro.circuits.library`): the paper's named
    circuits plus parameterised families (``qft:N``, ``aqft:N``,
    ``cat:N``, ``hidden-stage:NxSEED``).
:data:`ENVIRONMENTS`
    Physical environments: the NMR molecule data set
    (:mod:`repro.hardware.molecules`) plus the synthetic architectures
    (:mod:`repro.hardware.architectures`: ``chain:N``, ``ring:N``,
    ``grid:RxC``, ``complete:N``, ``star:N``, ``heavy-hex:D``).
:data:`PLACERS`
    Placement engines (:mod:`repro.core.placers`): the exact exhaustive
    search (``exact``, the default), the greedy seeding pass (``greedy``)
    and the simulated annealer (``anneal``, ``anneal:SEED``,
    ``anneal:SEEDxITERS``, multi-restart ``anneal:S1,S2,...``); entries
    build :class:`repro.core.placers.base.WorkspacePlacer` instances, the
    engines :func:`repro.core.placement.place_circuit` runs.

Each registry lazily imports its providing modules on first use, so
``repro.registry`` itself stays import-light and free of cycles.

:func:`load_circuit` and :func:`load_environment` are the module-level
loaders shared by the CLI, the :class:`repro.api.Session` façade and the
sharding factories: ``functools.partial(load_circuit, "qft:7")`` pickles
by reference, so experiment grids built from them fingerprint identically
in any process (see ``docs/parallelism.md``).
"""

from __future__ import annotations

import importlib
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

from repro.exceptions import RegistryError, UnknownSpecError

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.circuits.circuit import QuantumCircuit
    from repro.hardware.environment import PhysicalEnvironment

#: Registered names: at least one character; no ``:`` (the spec separator)
#: and no whitespace.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._/-]*$")


#: One parsed spec parameter: a plain integer, or (for positions an entry
#: declares in ``list_params``) a comma-list tuple of integers.
ParamValue = Union[int, Tuple[int, ...]]


@dataclass(frozen=True)
class RegistryEntry:
    """One registered factory.

    ``min_params``/``max_params`` bound how many ``x``-separated integer
    parameters the spec may carry after the colon; ``(0, 0)`` entries are
    plain names that reject any parameters.  ``list_params`` names the
    zero-based positions that additionally accept a comma-separated
    integer list (passed to the factory as a tuple); every other position
    rejects lists at validation time.
    """

    name: str
    factory: Callable
    min_params: int = 0
    max_params: int = 0
    description: str = ""
    list_params: Tuple[int, ...] = ()

    @property
    def parameterised(self) -> bool:
        return self.max_params > 0

    def spec_form(self) -> str:
        """The spec shape for help/error text, e.g. ``grid:NxM``."""
        if not self.parameterised:
            return self.name
        placeholders = ("N", "M", "K", "L")[: self.max_params]
        required = placeholders[: self.min_params] or placeholders[:1]
        return f"{self.name}:" + "x".join(required)


def _parse_int(spec: str, token: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise UnknownSpecError(
            f"spec {spec!r}: parameter {token!r} is not an integer "
            "(grammar: name[:IntxIntx...], comma-lists where supported)"
        ) from None
    if value < 0:
        # Zero is legitimate (e.g. the seed in hidden-stage:8x0);
        # undersized values a family cannot build raise the factory's
        # own domain error instead.
        raise UnknownSpecError(
            f"spec {spec!r}: parameter {value} must be non-negative"
        )
    return value


def parse_spec(spec: str) -> Tuple[str, Tuple[ParamValue, ...]]:
    """Split a spec string into ``(name, params)``.

    A parameter is a non-negative integer, or a comma-separated list of
    them (parsed to a tuple — accepted only by entries whose
    ``list_params`` declares the position, enforced in
    :meth:`Registry.validate`).  Raises :class:`UnknownSpecError` for
    syntactically invalid specs (empty name, non-integer or negative
    parameters).
    """
    if not isinstance(spec, str) or not spec:
        raise UnknownSpecError(f"empty or non-string spec {spec!r}")
    name, sep, params_text = spec.partition(":")
    if not name:
        raise UnknownSpecError(f"spec {spec!r} has no name before ':'")
    if not sep:
        return name, ()
    params: List[ParamValue] = []
    for token in params_text.split("x"):
        if "," in token:
            params.append(
                tuple(_parse_int(spec, item) for item in token.split(","))
            )
        else:
            params.append(_parse_int(spec, token))
    return name, tuple(params)


class Registry:
    """A named registry of factories addressable by spec strings.

    Parameters
    ----------
    kind:
        Human-readable singular noun for error messages ("circuit",
        "environment", ...).
    providers:
        Module names imported lazily before the first lookup, so the
        modules that register entries need not be imported up front.
    """

    def __init__(self, kind: str, providers: Tuple[str, ...] = ()) -> None:
        self.kind = kind
        self._providers = providers
        self._populated = not providers
        self._entries: Dict[str, RegistryEntry] = {}

    # -- registration -------------------------------------------------------

    def register(
        self,
        name: str,
        *,
        min_params: int = 0,
        max_params: Optional[int] = None,
        description: str = "",
        overwrite: bool = False,
    ) -> Callable[[Callable], Callable]:
        """Decorator registering ``factory`` under ``name``.

        ``max_params`` defaults to ``min_params``.  Registering an existing
        name raises :class:`RegistryError` unless ``overwrite`` is set.
        """

        def decorator(factory: Callable) -> Callable:
            self.add(
                name,
                factory,
                min_params=min_params,
                max_params=max_params,
                description=description,
                overwrite=overwrite,
            )
            return factory

        return decorator

    def add(
        self,
        name: str,
        factory: Callable,
        *,
        min_params: int = 0,
        max_params: Optional[int] = None,
        description: str = "",
        overwrite: bool = False,
        list_params: Tuple[int, ...] = (),
    ) -> RegistryEntry:
        """Register ``factory`` under ``name`` (imperative form)."""
        if max_params is None:
            max_params = min_params
        if any(position < 0 or position >= max_params for position in list_params):
            raise RegistryError(
                f"{self.kind} {name!r}: list_params positions {list_params!r} "
                f"must fall below max_params ({max_params})"
            )
        if not _NAME_RE.match(name or ""):
            raise RegistryError(
                f"invalid {self.kind} name {name!r}: names use letters, "
                "digits, '.', '_', '-' and '/', and cannot contain ':'"
            )
        if min_params < 0 or max_params < min_params:
            raise RegistryError(
                f"{self.kind} {name!r}: invalid parameter bounds "
                f"({min_params}, {max_params})"
            )
        if not callable(factory):
            raise RegistryError(f"{self.kind} {name!r}: factory is not callable")
        if name in self._entries and not overwrite:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; pass "
                "overwrite=True to replace it"
            )
        entry = RegistryEntry(
            name=name,
            factory=factory,
            min_params=min_params,
            max_params=max_params,
            description=description,
            list_params=tuple(list_params),
        )
        self._entries[name] = entry
        return entry

    # -- lookup -------------------------------------------------------------

    def _ensure_populated(self) -> None:
        if self._populated:
            return
        # Mark populated only after every provider imported: a failed
        # import must stay retryable (and keep raising its real error)
        # instead of leaving a silently partial registry.  Re-entrant
        # lookups during a provider's import are safe — import_module
        # returns the in-progress module without re-executing it.
        for module in self._providers:
            importlib.import_module(module)
        self._populated = True

    def names(self) -> List[str]:
        """All registered names, sorted."""
        self._ensure_populated()
        return sorted(self._entries)

    def entries(self) -> List[RegistryEntry]:
        """All entries, sorted by name."""
        self._ensure_populated()
        return [self._entries[name] for name in sorted(self._entries)]

    def spec_forms(self) -> List[str]:
        """Every entry's spec shape (plain names first, then families)."""
        entries = self.entries()
        return [e.spec_form() for e in entries if not e.parameterised] + [
            e.spec_form() for e in entries if e.parameterised
        ]

    def __contains__(self, name: str) -> bool:
        self._ensure_populated()
        return name in self._entries

    def entry(self, name: str) -> RegistryEntry:
        """The entry registered under ``name`` (exact, no parameters)."""
        self._ensure_populated()
        try:
            return self._entries[name]
        except KeyError:
            raise self.unknown(name) from None

    def unknown(self, spec: str) -> UnknownSpecError:
        """The one-line unknown-spec error listing every valid name."""
        return UnknownSpecError(
            f"unknown {self.kind} {spec!r}; valid specs: "
            + ", ".join(self.spec_forms())
        )

    def validate(self, spec: str) -> RegistryEntry:
        """Check that a spec parses and resolves, without calling its factory.

        Used where a spec is stored for later (``PlacementOptions.placer``,
        config files) so that typos fail at construction time with the
        spec-listing :class:`UnknownSpecError` rather than mid-run.
        """
        name, params = parse_spec(spec)
        self._ensure_populated()
        entry = self._entries.get(name)
        if entry is None:
            raise self.unknown(spec)
        if not entry.min_params <= len(params) <= entry.max_params:
            if entry.max_params == 0:
                raise UnknownSpecError(
                    f"{self.kind} {name!r} takes no parameters "
                    f"(got {spec!r})"
                )
            raise UnknownSpecError(
                f"{self.kind} spec {spec!r} needs between {entry.min_params} "
                f"and {entry.max_params} parameter(s), as in "
                f"{entry.spec_form()!r}"
            )
        for position, value in enumerate(params):
            if isinstance(value, tuple) and position not in entry.list_params:
                raise UnknownSpecError(
                    f"{self.kind} spec {spec!r}: parameter {position + 1} "
                    "does not accept a comma-separated list"
                )
        return entry

    def build(self, spec: str) -> Any:
        """Resolve a spec string and invoke its factory.

        ``name`` entries are called with no arguments; parameterised
        entries receive the parsed integer parameters positionally.
        """
        entry = self.validate(spec)
        _, params = parse_spec(spec)
        return entry.factory(*params)


#: Benchmark circuits (named + parameterised families).
CIRCUITS = Registry("circuit", providers=("repro.circuits.library",))

#: Physical environments (molecules + synthetic architectures).
ENVIRONMENTS = Registry(
    "environment",
    providers=("repro.hardware.molecules", "repro.hardware.architectures"),
)

#: Placement engines; building an entry returns a ``WorkspacePlacer``.
PLACERS = Registry("placer", providers=("repro.core.placers",))


# ---------------------------------------------------------------------------
# Module-level loaders (picklable partial targets)
# ---------------------------------------------------------------------------


def load_circuit(spec: str) -> "QuantumCircuit":
    """A circuit from a registry spec, or from a ``.qc``/``.txt`` file.

    The canonical circuit loader behind every string-addressed surface
    (CLI arguments, :class:`repro.config.RunConfig`, sweep factories).
    """
    if spec.endswith(".qc") or spec.endswith(".txt"):
        from repro.circuits import qasm

        return qasm.load(spec)
    return CIRCUITS.build(spec)


def load_environment(spec: str) -> "PhysicalEnvironment":
    """An environment from a registry spec, or from a ``.json`` file."""
    if spec.endswith(".json"):
        from repro.hardware import io as hardware_io

        return hardware_io.load(spec)
    return ENVIRONMENTS.build(spec)


def as_circuit_factory(circuit: Union[str, Callable[[], Any]]) -> Callable[[], Any]:
    """Coerce a circuit spec string (or pass through a factory callable).

    String specs become ``partial(load_circuit, spec)`` — module-level and
    hence picklable, so grids built from them serialise (and fingerprint)
    identically in any process.
    """
    if isinstance(circuit, str):
        from functools import partial

        return partial(load_circuit, circuit)
    if callable(circuit):
        return circuit
    raise UnknownSpecError(
        f"expected a circuit spec string or factory, got {circuit!r}"
    )


def as_environment_factory(environment: Union[str, Callable[[], Any]]) -> Callable[[], Any]:
    """Coerce an environment spec string (or pass through a factory)."""
    if isinstance(environment, str):
        from functools import partial

        return partial(load_environment, environment)
    if callable(environment):
        return environment
    raise UnknownSpecError(
        f"expected an environment spec string or factory, got {environment!r}"
    )
