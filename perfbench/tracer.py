"""Outside-in per-layer tracing for the benchmark.

The program has no spans of its own, so the tracer wraps each layer's
public functions from outside, at every name they are bound to inside the
``repro`` package (the defining module and each module that imported the
name), so every caller goes through the wrapper and pickling by reference
still finds the same object.  Each call records a span (layer, start, end,
parent span, op id) in flat arrays held in memory until :meth:`summary`;
a layer's self time is its spans' durations minus their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# layer -> (module, attribute path) of the wrapped public functions.
LAYER_FUNCTIONS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("circuits", (("repro.registry", "load_circuit"),)),
    ("hardware", (
        ("repro.registry", "load_environment"),
        ("repro.hardware.environment", "PhysicalEnvironment.adjacency_graph"),
        ("repro.hardware.environment",
         "PhysicalEnvironment.largest_component_graph"),
        ("repro.hardware.environment",
         "PhysicalEnvironment.minimal_connecting_threshold"),
        ("repro.hardware.environment", "PhysicalEnvironment.pair_delay_table"),
    )),
    ("workspace", (("repro.core.workspace", "extract_workspaces"),)),
    ("monomorphism", (
        ("repro.core.monomorphism", "find_monomorphisms"),
        ("repro.core.monomorphism", "has_monomorphism"),
    )),
    ("placers", (("repro.core.placers.base", "WorkspacePlacer.candidates"),)),
    ("fine_tuning", (
        ("repro.core.fine_tuning", "fine_tune_workspace_placement"),
    )),
    ("timing", (
        ("repro.timing.scheduler", "RuntimeEvaluator.__init__"),
        ("repro.timing.scheduler", "RuntimeEvaluator.set_base"),
        ("repro.timing.scheduler", "RuntimeEvaluator.runtime"),
        ("repro.timing.scheduler", "RuntimeEvaluator.runtime_with"),
        ("repro.timing.scheduler", "circuit_runtime"),
    )),
    ("routing", (
        ("repro.routing.bubble", "route_permutation"),
        ("repro.routing.permutation", "required_permutation"),
        ("repro.routing.swap_circuit", "swap_stage_runtime"),
    )),
    ("placement", (("repro.core.placement", "place_circuit"),)),
    ("runner", (
        ("repro.analysis.runner", "ExperimentRunner.run"),
        ("repro.analysis.runner", "ExperimentRunner.iter_outcomes"),
    )),
    ("sharding", (
        ("repro.analysis.sharding", "ShardPlan.build"),
        ("repro.analysis.sharding", "execute_shard"),
        ("repro.analysis.sharding", "merge_shards"),
        ("repro.analysis.sharding", "write_shard"),
        ("repro.analysis.sharding", "read_shard"),
        ("repro.analysis.sharding", "write_outcome_shard"),
        ("repro.analysis.sharding", "read_outcome_shard"),
    )),
    ("serialization", (
        ("repro.analysis.serialization", "dump_json"),
        ("repro.analysis.serialization", "outcome_to_dict"),
    )),
    ("cli", (("repro.cli", "main"),)),
)

LAYERS = tuple(layer for layer, _ in LAYER_FUNCTIONS)

# Counts taken from wrapped calls' return values: name -> (function, count).
RESULT_COUNTS: Dict[str, Tuple[str, Callable[[object], int]]] = {
    "workspace.workspaces": ("extract_workspaces", len),
    "routing.swap_layers": ("route_permutation",
                            lambda routing: len(routing.layers)),
}

#: Modules imported before wrapping, so lazily imported callers bind the
#: wrapped names too.
EAGER_MODULES = (
    "repro", "repro.cli", "repro.core.placers.exact",
    "repro.core.placers.greedy", "repro.core.placers.anneal",
)


class Tracer:
    """Span recorder; :meth:`install` wraps, :meth:`uninstall` restores."""

    def __init__(self) -> None:
        self.op = -1
        self._layer = array("b")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self.counts: Dict[str, int] = {name: 0 for name in RESULT_COUNTS}
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer_id: int, fn: Callable,
              count: Optional[Tuple[str, Callable]]) -> Callable:
        layers, parents, ops = self._layer, self._parent, self._op
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        def open_span() -> int:
            index = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(clock())
            ends.append(0.0)
            stack.append(index)
            return index

        def close_span(index: int) -> None:
            ends[index] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    index = open_span()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        close_span(index)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        for module in EAGER_MODULES:
            importlib.import_module(module)
        counted = {fn: (name, how) for name, (fn, how) in RESULT_COUNTS.items()}
        packages = [module for name, module in sorted(sys.modules.items())
                    if name == "repro" or name.startswith("repro.")]
        for layer_id, (layer, targets) in enumerate(LAYER_FUNCTIONS):
            for module_name, path in targets:
                owner: object = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for name in owners:
                    owner = getattr(owner, name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(owner, attr, classmethod(
                        self._wrap(layer_id, raw.__func__, None)))
                    continue
                wrapped = self._wrap(layer_id, raw, counted.get(attr))
                if owners:  # a method: the class attribute is the only name
                    self._patch(owner, attr, wrapped)
                    continue
                for module in packages:
                    for name, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, name, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """``<layer>.calls``, ``<layer>.self_s``, result counts, ``top_s``.

        ``top_s`` is the summed duration of spans without a parent: the
        share of the traced ops' wall time that some layer accounts for.
        """
        if self._stack:
            raise RuntimeError("summary() called with spans still open")
        durations = [end - start for start, end in zip(self._start, self._end)]
        own = list(durations)
        top = 0.0
        for index, parent in enumerate(self._parent):
            if parent >= 0:
                own[parent] -= durations[index]
            else:
                top += durations[index]
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for index, layer_id in enumerate(self._layer):
            calls[layer_id] += 1
            self_s[layer_id] += own[index]
        out: Dict[str, float] = {"top_s": top}
        for layer_id, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = calls[layer_id]
            out[f"{layer}.self_s"] = self_s[layer_id]
        out.update(self.counts)
        return out
