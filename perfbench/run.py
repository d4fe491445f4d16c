"""End-to-end placement benchmark: ``python3 perfbench/run.py --workload W``.

Run from the repository root; without ``--workload`` it runs all three
workloads in turn.  Options: ``--workload`` (see below),
``--seed N`` (the op draw), ``--seconds S`` (timed phase; every run also
completes at least 50 ops so ``op_s_p80`` has ten samples beyond it) and
``--trace 0|1``.  ``--record-golden`` re-records ``golden.json``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the ``end_to_end`` metrics of
``BENCHMARK.json`` untraced, its ``per_layer`` metrics with ``--trace 1``.

Workloads (closed loop, one client: the next op starts when the last ends):

* ``molecule_sweep`` -- ``Session.sweep`` of seeded (circuit, molecule)
  pairs over the paper's six thresholds, exact engine, serial: the paper's
  Table 3.  Loads fine_tuning + timing (most of the time), workspace,
  monomorphism, placers, routing, placement, runner and in-process
  sharding on <=12-node hosts; bypasses cli, serialization and any large
  host.  Moved by ``timing.*``, ``fine_tuning.self_s`` and
  ``placement.self_s`` (``ops_per_s``, ``op_s_p50``).
* ``large_host_anneal`` -- seeded ``random-chain`` circuits placed with
  ``anneal`` at threshold 10 on a 576-1600 node lattice loaded fresh for
  each op.  Loads hardware (a sparse table built once per op), workspace
  and monomorphism (most of the time) and placers; bypasses fine_tuning,
  routing (one stage), runner, sharding, serialization and cli.  Moved by
  ``hardware``/``workspace``/``monomorphism.self_s`` (``op_s_p50``,
  ``peak_rss_mb``) and by ``placers.self_s`` a little.
* ``cold_cli`` -- cold ``python -m repro`` processes one after another:
  molecule ``place`` (exact), ``random:12x40xS`` on ``grid:6x6`` with the
  greedy placer (routing-heavy), one ``sweep --jobs 2`` and one ``shard
  plan -> run x2 -> merge`` per round.  ``import repro`` dominates each
  process; the only workload with the runner pool, shard files and JSON
  serialization.  Moved by ``import.s`` (``setup_s``, ``op_s_p50``) and by
  runner/sharding/serialization/routing self time (``ops_per_s``).

``setup_s`` is the median of several cold set-ups: interpreter start,
``import repro``, native-kernel probe against a warm cache and input
generation (for ``cold_cli``: a process that only imports ``repro``).

Runs are hermetic: inherited ``REPRO_*`` variables (scheduler backend,
fault plan) are dropped, ``PYTHONPATH`` is this checkout's ``src`` only,
and the native kernel is built into a run-private cache before timing.
The benchmark's figures are defined with the native kernel, so a run where
it cannot be built exits 1 rather than report python-backend numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("molecule_sweep", "large_host_anneal", "cold_cli")

#: Cold set-ups measured before and again after the timed phase;
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3


def hermetic_env(workdir: Path) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_NATIVE_CACHE"] = str(workdir / "native")
    return env


def run_worker(env: Dict[str, str], workdir: Path, args: List[str],
               timeout: float = 170) -> Dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir),
            *args]
    launch = time.monotonic()
    proc = subprocess.run(argv + ["--launch", repr(launch)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    wall_s = time.monotonic() - launch
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "end_s" in result:
        result["exit_s"] = wall_s - result["end_s"]
    return result


def cold_import_s(env: Dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro"], cwd=ROOT, env=env,
                   check=True, timeout=60)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is "
              "missing; run from a full checkout", file=sys.stderr)
        return 2
    if not args.record_golden and args.workload is None:
        for workload in WORKLOADS:
            code = subprocess.run([
                sys.executable, str(Path(__file__).resolve()), "--workload",
                workload, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace)]).returncode
            if code:
                return code
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workdir = ROOT / ".perfbench_run" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        env = hermetic_env(workdir)
        probe = run_worker(env, workdir, ["--probe"])
        backend = (f"scheduler backend {probe['backend']}, native kernel "
                   f"{'available' if probe['native'] else 'unavailable'}")
        print(backend)
        if not probe["native"]:
            print(f"error: the native kernel did not build ({probe['reason']});"
                  " figures from the python backend are not comparable",
                  file=sys.stderr)
            return 1
        if args.record_golden:
            run_worker(env, workdir, ["--record-golden"], timeout=3600)
            return 0
        common = ["--workload", args.workload, "--seed", str(args.seed)]

        def setup_samples() -> List[float]:
            if args.trace:
                return []
            if args.workload == "cold_cli":
                return [cold_import_s(env) for _ in range(SETUP_SAMPLES)]
            return [run_worker(env, workdir, common + ["--setup-only"])
                    ["setup_s"] for _ in range(SETUP_SAMPLES)]

        setups = setup_samples()
        result = run_worker(env, workdir, common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
        setups += setup_samples()
        if result["backend"] != probe["backend"]:
            print("error: the workload resolved another scheduler backend "
                  "than the probe", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    measured = dict(result["metrics"])
    measured.setdefault("process.exit_s", result["exit_s"])
    if not args.trace:
        if args.workload != "cold_cli":
            setups.append(result["setup_s"])
        measured["setup_s"] = statistics.median(setups)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}

    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed {args.seed}: {result['ops']} ops timed, "
          f"{attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:g})")
    for problem in result["problems"]:
        print(f"  failure: {problem}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
