"""Run one benchmark workload in this process and print its result as JSON.

Started by ``run.py`` (never by hand) with a hermetic environment and
``--launch`` set to the ``time.monotonic()`` stamp taken just before this
process was spawned, so ``setup_s`` covers interpreter start, ``import
repro``, the native-kernel probe and input generation.

Modes:

* ``--probe``: import the program, build or load the native kernel and
  print the resolved scheduler backend;
* ``--setup-only``: set up and print ``setup_s``;
* default: set up, run the workload's ops in a closed loop (one op at a
  time) for ``--seconds`` and at least :data:`MIN_OPS` ops, check every
  output, and print the measurements.  With ``--trace 1`` every op runs
  once untraced and once traced, and the traced runs give the per-layer
  figures;
* ``--record-golden``: run every op any seed can draw once and write the
  fingerprints to ``golden.json``.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

#: The p80 latency needs ten samples beyond it, so every end-to-end run
#: completes at least this many ops, even past ``--seconds``.
MIN_OPS = 50

#: No run keeps starting rounds after this many seconds.
HARD_CAP_S = 120.0

#: STATS counter prefix -> the layer that counts it.
COUNTER_LAYERS = {"monomorphism": "monomorphism", "environment": "hardware",
                  "scheduler": "timing", "placer": "placers"}

#: Per-process spans around the traced layers: interpreter start before
#: the first line, ``import repro``, and finalization after the last line.
PROCESS_SPANS = ("process.start_s", "import.s", "process.exit_s")

#: Errors a placement may legitimately raise: the paper's N/A cells.
EXPECTED_ERRORS = ("ThresholdError", "PlacementError")


class Tally:
    """Per-phase measurements of a closed loop over ops."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.log_runtime = 0.0
        self.placements = 0

    def fail(self, op: Dict, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{op['key']}: {problem}")

    def placed(self, runtime_units: float) -> None:
        self.log_runtime += math.log(runtime_units)
        self.placements += 1


def closed_loop(rounds: List[List[Dict]], run_op: Callable[[Dict, Tally], None],
                seconds: float, min_ops: int) -> Tally:
    """Run whole rounds until ``seconds`` and ``min_ops`` are both reached."""
    tally = Tally()
    start = time.perf_counter()
    for ops in rounds:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(tally.latencies) >= min_ops) \
                or elapsed >= HARD_CAP_S:
            break
        for op in ops:
            run_op(op, tally)
    return tally


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


class InProcess:
    """molecule_sweep and large_host_anneal, driven through ``repro``."""

    def __init__(self, golden: Optional[Dict[str, str]]) -> None:
        import repro
        from repro.analysis import runner

        self.repro = repro
        self.golden = golden
        self.captured: List[Tuple[Any, Any, Any]] = []
        self._runner = runner
        self._original = None

    def capture(self) -> None:
        """Keep each placement the runner makes, for checking after the op."""
        original = self._runner.place_circuit
        captured = self.captured

        def place_circuit(circuit, environment, options=None):
            result = original(circuit, environment, options)
            captured.append((result, circuit, environment))
            return result

        self._original = original
        self._runner.place_circuit = place_circuit

    def release(self) -> None:
        self._runner.place_circuit = self._original

    def execute(self, op: Dict) -> Tuple[List[Tuple[Any, Any, Any]], Any]:
        repro = self.repro
        if op["kind"] == "sweep":
            config = repro.RunConfig(circuit=op["circuit"],
                                     environment=op["environment"])
            return [], repro.Session(config).sweep()
        environment = repro.load_environment(op["environment"])
        circuit = repro.load_circuit(op["circuit"])
        options = repro.PlacementOptions(threshold=10.0, placer="anneal")
        result = repro.place_circuit(circuit, environment, options)
        return [(result, circuit, environment)], None

    def fingerprint(self, placements, sweep) -> Tuple[str, List[str]]:
        from checker import (check_placement, digest, outcome_record,
                             placement_record)

        problems = []
        for result, circuit, environment in placements:
            problems += check_placement(result, circuit, environment)
        record: Dict[str, Any] = {
            "placements": [placement_record(r) for r, _, _ in placements]}
        if sweep is not None:
            record["outcomes"] = [outcome_record(o) for o in sweep.outcomes]
            problems += [f"{o.label}: {o.error_type}" for o in sweep.outcomes
                         if not o.feasible
                         and o.error_type not in EXPECTED_ERRORS]
        return digest(record), problems

    def run_op(self, op: Dict, tally: Tally) -> None:
        tally.attempted += 1
        del self.captured[:]
        gc.collect()  # the last op's garbage is not this op's cost
        start = time.perf_counter()
        try:
            placements, sweep = self.execute(op)
        except Exception as error:  # a failed op, reported, not fatal
            tally.latencies.append(time.perf_counter() - start)
            tally.fail(op, f"{type(error).__name__}: {error}")
            return
        tally.latencies.append(time.perf_counter() - start)
        placements = placements + self.captured
        fingerprint, problems = self.fingerprint(placements, sweep)
        del self.captured[:]
        if self.golden is not None and self.golden.get(op["key"]) != fingerprint:
            problems.append("fingerprint differs from golden.json")
        if problems:
            tally.fail(op, "; ".join(problems[:3]))
        for result, _, _ in placements:
            tally.placed(result.total_runtime)
        op["fingerprint"] = fingerprint


# ---------------------------------------------------------------------------
# cold_cli: cold processes
# ---------------------------------------------------------------------------


class ColdCli:
    """Cold ``python -m repro`` processes, one after another."""

    def __init__(self, golden: Optional[Dict[str, str]], workdir: Path) -> None:
        import repro

        self.repro = repro
        self.golden = golden
        self.workdir = workdir
        self.traced = False
        self.traces: List[Dict] = []
        self._units: Dict[str, float] = {}
        self._groups = 0
        self._group_dir = workdir

    def time_unit(self, environment: str) -> float:
        if environment not in self._units:
            self._units[environment] = self.repro.load_environment(
                environment).time_unit_seconds
        return self._units[environment]

    def spawn(self, args: List[str]) -> Tuple[subprocess.CompletedProcess, float]:
        env = dict(os.environ)
        if self.traced:
            trace_file = self.workdir / "trace.json"
            env["PERFBENCH_TRACE_OUT"] = str(trace_file)
            argv = [sys.executable, str(HERE / "cli_launcher.py"), *args]
        else:
            argv = [sys.executable, "-m", "repro", *args]
        launch = time.monotonic()
        env["PERFBENCH_LAUNCH"] = repr(launch)
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        elapsed = time.monotonic() - launch
        if self.traced and proc.returncode == 0:
            trace = json.loads(trace_file.read_text())
            trace_file.unlink()
            trace["summary"]["process.exit_s"] = elapsed - trace.pop("end_s")
            self.traces.append(trace)
        return proc, elapsed

    def run_op(self, op: Dict, tally: Tally) -> None:
        from checker import digest, row_records, rows_consistent

        tally.attempted += 1
        if op["argv"][0] == "shard" and op["argv"][1] == "plan":
            self._groups += 1
            self._group_dir = self.workdir / f"group-{self._groups}"
        group_dir = str(self._group_dir)
        proc, elapsed = self.spawn(
            [arg.replace("{dir}", group_dir) for arg in op["argv"]])
        tally.latencies.append(elapsed)
        if op["last"] and op["kind"] == "shard":
            shutil.rmtree(group_dir, ignore_errors=True)
        if proc.returncode != 0:
            tally.fail(op, f"exit {proc.returncode}: "
                           f"{proc.stderr.strip().splitlines()[-1:]}")
            return
        if not op["last"]:
            return
        try:
            payload = json.loads(proc.stdout)
            rows = payload["rows"]
        except (ValueError, KeyError) as error:
            tally.fail(op, f"unreadable --output json: {error}")
            return
        record: Dict[str, Any] = {"rows": row_records(rows)}
        if "cells" in payload:
            record["cells"] = payload["cells"]
        problems = rows_consistent(rows)
        if op["kind"] == "shard" and not payload.get("plan_fingerprint"):
            problems.append("merged payload carries no plan fingerprint")
        fingerprint = digest(record)
        if self.golden is not None and self.golden.get(op["key"]) != fingerprint:
            problems.append("fingerprint differs from golden.json")
        if problems:
            tally.fail(op, "; ".join(problems[:3]))
        unit = self.time_unit(op["environment"])
        for row in rows:
            if row["feasible"]:
                tally.placed(row["runtime_seconds"] / unit)
        op["fingerprint"] = fingerprint


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def end_to_end(tally: Tally, rss_mb: float) -> Dict[str, float]:
    deciles = statistics.quantiles(tally.latencies, n=10, method="inclusive")
    return {
        "ops_per_s": len(tally.latencies) / sum(tally.latencies),
        "op_s_p50": deciles[4],
        "op_s_p80": deciles[7],
        "placed_runtime_geomean": math.exp(
            tally.log_runtime / max(tally.placements, 1)),
        "peak_rss_mb": rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(summary: Dict[str, float], counters: Dict[str, int],
              busy_s: float, untraced_s: float) -> Dict[str, float]:
    """The traced per-layer metrics (see BENCHMARK.json ``per_layer``)."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))
    from bench_harness import TRACKED_COUNTERS

    out = {key: value for key, value in summary.items() if key != "top_s"}
    for name in TRACKED_COUNTERS:
        prefix, _, rest = name.partition(".")
        out[f"{COUNTER_LAYERS[prefix]}.{rest}"] = counters.get(name, 0)
    get = counters.get
    out["monomorphism.yield_ratio"] = _ratio(
        get("monomorphism.mappings_yielded", 0),
        get("monomorphism.nodes_explored", 0))
    out["hardware.adjacency_hit_rate"] = _ratio(
        get("environment.adjacency_cache_hits", 0),
        get("environment.adjacency_cache_hits", 0)
        + get("environment.adjacency_cache_misses", 0))
    out["timing.cutoff_ratio"] = _ratio(
        get("scheduler.ops_skipped", 0),
        get("scheduler.ops_skipped", 0) + get("scheduler.ops_replayed", 0))
    out["placers.accept_ratio"] = _ratio(
        get("placer.moves_accepted", 0),
        get("placer.moves_accepted", 0) + get("placer.moves_rejected", 0))
    out["trace.coverage"] = _ratio(summary["top_s"], busy_s)
    out["trace.overhead_s"] = busy_s - untraced_s
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(args, import_s: float, start_s: float, rounds) -> Dict:
    golden = json.loads(GOLDEN.read_text())[args.workload]
    cold = args.workload == "cold_cli"
    if cold:
        driver: Any = ColdCli(golden, Path(args.workdir))
    else:
        driver = InProcess(golden)
        driver.capture()
    warm = Tally()
    if not cold:  # lazy imports and first-call set-up, paid once per process
        driver.run_op(dict(rounds[0][0]), warm)
    if not args.trace:
        tally = closed_loop(rounds, driver.run_op, args.seconds, MIN_OPS)
        result = {"metrics": end_to_end(tally, peak_rss_mb(children=cold))}
        phases = [tally]
    else:
        from repro.core.stats import STATS
        from tracer import Tracer

        # Each op runs once untraced and once traced, alternating which
        # goes first, so warm-up and drift cancel out of trace.overhead_s.
        plain, traced = Tally(), Tally()
        tracer = Tracer()
        counters: Dict[str, int] = {}

        def run_traced(op: Dict) -> None:
            if cold:
                driver.traced = True
                driver.run_op(op, traced)
                driver.traced = False
                return
            driver.release()
            tracer.op = traced.attempted
            tracer.install()
            driver.capture()
            before = STATS.snapshot()
            driver.run_op(op, traced)
            for name, value in STATS.delta_since(before).items():
                counters[name] = counters.get(name, 0) + value
            driver.release()
            tracer.uninstall()
            driver.capture()

        group: List[Dict] = []
        pairs = [0]

        def run_pair(op: Dict, _: Tally) -> None:
            group.append(op)
            if not op.get("last", True):  # a shard round trip runs whole
                return
            traced_first = bool(pairs[0] % 2)
            pairs[0] += 1
            for run_traced_now in (traced_first, not traced_first):
                for member in group:
                    if run_traced_now:
                        run_traced(member)
                    else:
                        driver.run_op(member, plain)
            del group[:]

        closed_loop(rounds, run_pair, args.seconds, 0)
        if cold:
            summary, counters = merge_traces(driver.traces)
        else:
            summary = tracer.summary()
            summary["import.s"] = import_s
            summary["process.start_s"] = start_s
        result = {"metrics": per_layer(summary, counters, sum(traced.latencies),
                                       sum(plain.latencies))}
        phases = [plain, traced]
    phases.append(warm)
    result.update(
        attempted=sum(t.attempted for t in phases),
        failed=sum(t.failed for t in phases),
        problems=[p for t in phases for p in t.problems][:5],
        ops=len(phases[0].latencies),
    )
    return result


def merge_traces(traces: List[Dict]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Sum the launchers' per-process summaries and counter deltas."""
    summary: Dict[str, float] = {}
    counters: Dict[str, int] = {}
    for trace in traces:
        for key, value in trace["summary"].items():
            summary[key] = summary.get(key, 0) + value
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
    summary["top_s"] += sum(summary[key] for key in PROCESS_SPANS)
    return summary, counters


def record_golden(workdir: Path) -> None:
    """Fingerprint every op any seed can draw, and write ``golden.json``."""
    import opgen

    shape = opgen.registry_shape()
    golden: Dict[str, Dict[str, str]] = {}
    for workload in opgen.WORKLOADS:
        universe = opgen.universe(workload, *shape)
        if workload == "cold_cli":
            driver: Any = ColdCli(None, workdir)
        else:
            driver = InProcess(None)
            driver.capture()
        golden[workload] = {}
        for group in universe:
            tally = Tally()
            for op in group:
                driver.run_op(op, tally)
            if tally.failed:
                raise SystemExit(f"golden run failed: {tally.problems}")
            golden[workload][group[-1]["key"]] = group[-1]["fingerprint"]
        print(f"{workload}: {len(universe)} op groups", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    start_s = STARTED - args.launch
    began = time.perf_counter()
    import repro  # noqa: F401  (timed: the import every op depends on)
    import_s = time.perf_counter() - began
    from repro.timing import _native, _replay

    backend = _replay.resolve_backend("auto")
    if args.probe:
        print(json.dumps({"backend": backend, "native": _native.available(),
                          "reason": _native.unavailable_reason()}))
        return 0
    if args.record_golden:
        record_golden(Path(args.workdir))
        print(json.dumps({"golden": str(GOLDEN)}))
        return 0
    import opgen

    rounds = opgen.generate(args.workload, args.seed, *opgen.registry_shape())
    setup_s = time.monotonic() - args.launch
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = run_workload(args, import_s, start_s, rounds)
    result.update(setup_s=setup_s, backend=backend,
                  end_s=time.monotonic() - args.launch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
