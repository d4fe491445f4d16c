"""Lightweight global performance counters for the placement engine.

The hot paths of the placer (monomorphism search, adjacency-graph caching,
incremental cost evaluation) report what they did through a single global
:class:`Counters` registry so that benchmarks — and curious users — can see
*why* a run was fast or slow: how many search-tree nodes the monomorphism
enumerator visited, how often the environment's adjacency cache hit, and how
much scheduling work the incremental evaluator skipped.

Counting is deliberately simple: plain integer counters behind plain
attribute-free function calls, with hot loops expected to accumulate locally
and flush once (see :mod:`repro.core.monomorphism`), so the instrumentation
itself stays off the profile.

Counters are process-local.  Multi-process experiment runs (see
:mod:`repro.analysis.runner`) take a :meth:`Counters.snapshot` around each
cell inside the worker, ship the plain-dict delta back with the result, and
:meth:`Counters.merge` it into the parent registry — so ``STATS`` in the
coordinating process reports the aggregate work of the whole run, not just
the parent's share.

Counter names used by the engine
--------------------------------

``monomorphism.searches``
    Number of enumeration runs (one per ``iter_monomorphisms`` exhaustion).
``monomorphism.nodes_explored``
    Search-tree nodes visited (candidate assignments tried).
``monomorphism.mappings_yielded``
    Complete mappings produced.
``monomorphism.host_encodings``
    Bitset host encodings built (cache misses of the host-encoding cache).
``monomorphism.host_encoding_hits``
    Host encodings reused from the cache.
``environment.adjacency_cache_hits`` / ``environment.adjacency_cache_misses``
    Reuse vs. construction of per-threshold adjacency graphs.
``environment.component_cache_hits`` / ``environment.component_cache_misses``
    Reuse vs. construction of per-threshold largest-component subgraphs.
``scheduler.full_evals`` / ``scheduler.incremental_evals``
    Full-circuit versus delta cost evaluations.
``placer.anneal_steps``
    Simulated-annealing iterations run (:mod:`repro.core.placers.anneal`;
    the configured budget, summed over workspaces).
``placer.moves_accepted`` / ``placer.moves_rejected``
    Annealing move proposals accepted (downhill or uphill-by-luck)
    versus rejected (including no-op proposals).
``placer.delta_evals``
    Annealing move proposals actually scored (delta-cost evaluations;
    no-op proposals are rejected unscored).
``scheduler.ops_replayed`` / ``scheduler.ops_skipped``
    Scheduled operations re-executed versus skipped by checkpoint restore.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional


class Counters:
    """A named-counter registry (monotonic integers, explicit reset)."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of ``name`` (zero if never incremented)."""
        return self._counts.get(name, 0)

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, int]:
        """A copy of all counters, optionally restricted to a name prefix."""
        if prefix is None:
            return dict(self._counts)
        return {k: v for k, v in self._counts.items() if k.startswith(prefix)}

    def reset(self, names: Optional[Iterable[str]] = None) -> None:
        """Reset the given counters (all of them when ``names`` is ``None``)."""
        if names is None:
            self._counts.clear()
            return
        for name in names:
            self._counts.pop(name, None)

    def merge(self, counts: Mapping[str, int]) -> None:
        """Add a counter snapshot (e.g. a worker's delta) into this registry.

        Merging is plain per-name addition, so folding worker deltas in any
        completion order yields the same totals — the property the parallel
        experiment runner relies on for deterministic aggregate counters.
        """
        for name, value in counts.items():
            if value:
                self._counts[name] = self._counts.get(name, 0) + value

    def delta_since(self, baseline: Mapping[str, int]) -> Dict[str, int]:
        """Per-counter difference against an earlier :meth:`snapshot`."""
        result: Dict[str, int] = {}
        for name, value in self._counts.items():
            diff = value - baseline.get(name, 0)
            if diff:
                result[name] = diff
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"Counters({inner})"


#: The process-wide counter registry used by the placement engine.
STATS = Counters()
