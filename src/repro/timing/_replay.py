"""Backend resolution for the scheduler replay engine.

The :class:`~repro.timing.scheduler.RuntimeEvaluator` compiles a circuit's
gate list into integer-indexed operations and replays them thousands of
times during hill-climbing fine tuning.  Two backends run that replay
under a *bit-identical* contract: ``python``, the always-available
reference loop in :mod:`repro.timing.scheduler`, and ``native``, a small
C kernel compiled on demand (its build shim and array plumbing live in
:mod:`repro.timing._native`).  Which one runs is a property of the
process: ``auto`` picks native when the kernel builds and python
otherwise, and only the ``REPRO_SCHEDULER_BACKEND`` environment variable
overrides that (pool workers and CLI subprocesses inherit it).  This
module resolves a backend request — ``auto`` or, for the parity tests
and benchmarks that run the reference, an explicit name.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.exceptions import ConfigError, ReproError
from repro.timing import _native

#: Environment variable consulted when a backend request is ``"auto"``.
BACKEND_ENV_VAR = "REPRO_SCHEDULER_BACKEND"

#: Accepted backend names.
BACKEND_CHOICES = ("auto", "python", "native")


def backend_from_env() -> Optional[str]:
    """The backend :data:`BACKEND_ENV_VAR` names, or ``None`` when unset.

    An unknown value raises a one-line
    :class:`~repro.exceptions.ConfigError` listing the choices, so a
    misconfigured deployment is refused before any work starts instead of
    failing inside every cell.
    """
    value = os.environ.get(BACKEND_ENV_VAR, "").strip()
    if not value:
        return None
    if value not in BACKEND_CHOICES:
        raise ConfigError(
            f"invalid {BACKEND_ENV_VAR}={value!r}; choose one of "
            f"{BACKEND_CHOICES} ('auto' picks native when its kernel "
            "builds, else python)"
        )
    return value


def resolve_backend(requested: str = "auto") -> str:
    """Resolve a backend request to ``"python"`` or ``"native"``.

    ``"auto"`` first defers to :func:`backend_from_env` (which may itself
    say ``auto``); a still-unresolved ``auto`` picks ``native`` whenever
    the kernel is (or can be) built, else ``python``, whatever the op
    count.  Both resolutions are bit-identical by contract, so ``auto``
    never changes any output — only wall time.

    An explicit ``"native"`` request (argument or environment variable)
    raises when the kernel is unavailable — silently falling back would
    hide a misconfigured deployment; ``auto`` degrades silently instead.
    """
    if requested not in BACKEND_CHOICES:
        raise ReproError(
            f"unknown scheduler backend {requested!r}; "
            f"choose one of {BACKEND_CHOICES}"
        )
    if requested == "auto":
        requested = backend_from_env() or "auto"
    if requested == "auto":
        return "native" if _native.available() else "python"
    if requested == "native" and not _native.available():
        raise ReproError(
            "the native scheduler backend was requested but the kernel is "
            f"unavailable ({_native.unavailable_reason()}); "
            "use backend='auto' to fall back silently"
        )
    return requested
