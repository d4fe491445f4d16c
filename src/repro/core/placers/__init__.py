"""Pluggable placement engines (:data:`repro.registry.PLACERS`).

Each engine is a :class:`~repro.core.placers.base.WorkspacePlacer` whose
module owns its candidate search; :func:`repro.core.placement.place_circuit`
builds the one ``options.placer`` names.  Importing this package registers
the engine portfolio:

``exact``
    The paper's exhaustive monomorphism search + fine tuning — the
    default.
``greedy``
    One-shot interaction-weight greedy seeding: no search tree, the
    cheap baseline and the annealer's initial mapping.
``anneal`` / ``anneal:SEED`` / ``anneal:SEEDxITERS``
    Deterministic greedy-seeded simulated annealing with incremental
    delta costs — the engine for hosts where exact search is infeasible
    (1000+-node grids).  ``SEED`` defaults to 0, ``ITERS`` to
    :data:`repro.core.placers.anneal.DEFAULT_ITERATIONS`.
``anneal:SEED1,SEED2,...``
    Multi-restart portfolio: one independent anneal per listed seed from
    the same greedy seed placement, best row wins (cost ties broken by
    canonical node-index signature); a single seed is the one-restart
    portfolio.  An optional second parameter still sets the per-restart
    iteration budget (``anneal:3,5,9x500``).

See ``docs/placers.md`` for when to use which and the determinism
contract.
"""

from __future__ import annotations

from typing import Tuple, Union

from repro.core.placers.anneal import DEFAULT_ITERATIONS, AnnealPlacer
from repro.core.placers.base import WorkspacePlacer
from repro.core.placers.exact import ExactPlacer
from repro.core.placers.greedy import GreedyPlacer
from repro.registry import PLACERS


def anneal_instance(
    seeds: Union[int, Tuple[int, ...]] = 0,
    iterations: int = DEFAULT_ITERATIONS,
) -> AnnealPlacer:
    """The ``anneal[:SEED[xITERS]]`` / ``anneal:S1,S2,...`` registry factory."""
    return AnnealPlacer(seeds if isinstance(seeds, tuple) else (seeds,), iterations)


PLACERS.add(
    "exact",
    ExactPlacer,
    description="exhaustive monomorphism search + fine tuning "
    "(the paper's engine; default)",
)
PLACERS.add(
    "greedy",
    GreedyPlacer,
    description="one-shot interaction-weight greedy seeding (cheap baseline)",
)
PLACERS.add(
    "anneal",
    anneal_instance,
    min_params=0,
    max_params=2,
    list_params=(0,),
    description="greedy-seeded deterministic simulated annealing "
    f"(optional seed or comma-list of restart seeds, default 0, and "
    f"iteration budget, default {DEFAULT_ITERATIONS})",
)

__all__ = [
    "WorkspacePlacer",
    "ExactPlacer",
    "GreedyPlacer",
    "AnnealPlacer",
    "DEFAULT_ITERATIONS",
    "anneal_instance",
]
