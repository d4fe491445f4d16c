#!/usr/bin/env python
"""Run the placement-engine performance benchmarks.

Produces ``BENCH_placement.json`` at the repository root: wall time,
monomorphism search-tree nodes explored, cache hit rates and incremental
scheduling counters for every named scenario in
``benchmarks/perf/bench_harness.py``, plus a fingerprint of each
scenario's outputs.

Usage::

    python scripts/run_bench.py                 # run + write BENCH_placement.json
    python scripts/run_bench.py --check         # compare against the committed
                                                # baseline; exit 1 on >20% regression
    python scripts/run_bench.py --check --update  # check, then refresh the baseline
    python scripts/run_bench.py --check --output /tmp/now.json
                                                # check, and keep the full report
    python scripts/run_bench.py --repeats 5 --output /tmp/bench.json
    python scripts/run_bench.py --backend python  # force a scheduler backend for
                                                  # every 'auto' evaluator
    python scripts/run_bench.py --check --scenarios monomorphism_micro \
        place_qec5_boc                            # gate a fast subset (CI)

The regression gate compares wall times (ignoring scenarios whose baseline
is under 150 ms — too noisy) and the deterministic counter metrics, both
with the same relative tolerance (``--tolerance``, default 0.20, or the
``REPRO_BENCH_TOLERANCE`` environment variable).  See
``docs/performance.md`` for how to read the report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "perf"))

import bench_harness  # noqa: E402  (path set up above)

from repro.analysis.serialization import atomic_write_text  # noqa: E402
from repro.timing._replay import BACKEND_CHOICES, BACKEND_ENV_VAR  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / "BENCH_placement.json"


def _lint_dirty_reason():
    """Why the tree fails the static-analysis gate, or ``None`` when clean.

    Re-baselining performance numbers while the lint gate is red would let
    the two ratchets drift apart — a perf baseline recorded on top of known
    determinism violations is not a baseline worth committing.
    """
    from repro.lint import (
        BASELINE_FILENAME,
        compare_to_baseline,
        lint_tree,
        load_baseline,
    )

    baseline = load_baseline(str(REPO_ROOT / BASELINE_FILENAME))
    fresh, stale = compare_to_baseline(lint_tree(str(REPO_ROOT)), baseline)
    if fresh:
        return f"{len(fresh)} new lint finding(s), e.g. {fresh[0].format()}"
    if stale:
        return f"stale lint baseline entries: {', '.join(stale)}"
    return None


def build_report(repeats: int, names=None) -> dict:
    results = bench_harness.run_all(repeats=repeats, names=names)
    return {
        "schema_version": 1,
        "description": "Placement-engine performance benchmarks "
        "(scripts/run_bench.py)",
        "python": platform.python_version(),
        "repeats": repeats,
        "scenarios": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the report (default: BENCH_placement.json); "
        "with --check, a path other than the baseline receives the full "
        "report whether the gate passes or fails",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="committed baseline to compare against with --check",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per scenario"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.20")),
        help="allowed relative regression before --check fails (default 0.20)",
    )
    parser.add_argument(
        "--backend",
        choices=list(BACKEND_CHOICES),
        default=None,
        help="force the scheduler evaluation backend for the whole run by "
        "setting REPRO_SCHEDULER_BACKEND (the explicit-backend replay_* "
        "scenarios are unaffected); outputs are bit-identical either way",
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="NAME",
        choices=list(bench_harness.SCENARIOS),
        help="run only these scenarios (default: all); with --check the "
        "baseline comparison is restricted to the same subset — used by "
        "scripts/ci_check.sh to gate the fast micro scenarios in CI",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the baseline instead of overwriting it; "
        "exit 1 if any tracked benchmark regressed beyond the tolerance",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="with --check: rewrite the baseline after reporting",
    )
    args = parser.parse_args(argv)
    # With --check only an explicitly named report file is written (the
    # baseline itself only with --update); without it the report goes to
    # --output, by default the baseline.
    report_path = args.output
    if args.check and report_path is not None:
        if report_path.resolve() == args.baseline.resolve():
            report_path = None
    elif not args.check and report_path is None:
        report_path = DEFAULT_BASELINE

    if args.update and args.scenarios is not None:
        print(
            "error: --update with --scenarios would write a partial "
            "baseline; run the full suite to refresh it",
            file=sys.stderr,
        )
        return 2
    if (
        args.scenarios is not None
        and not args.check
        and report_path.resolve() == DEFAULT_BASELINE.resolve()
    ):
        print(
            "error: --scenarios without --check would overwrite the full "
            "baseline with a partial report; pass --output or --check",
            file=sys.stderr,
        )
        return 2

    writes_baseline = args.update or (
        not args.check and report_path.resolve() == DEFAULT_BASELINE.resolve()
    )
    if writes_baseline:
        reason = _lint_dirty_reason()
        if reason is not None:
            print(
                f"error: refusing to re-baseline while the static-analysis "
                f"gate fails ({reason}); run `python -m repro.lint --check` "
                "and fix the findings first",
                file=sys.stderr,
            )
            return 2

    if args.backend is not None:
        os.environ[BACKEND_ENV_VAR] = args.backend

    report = build_report(args.repeats, names=args.scenarios)
    text = json.dumps(report, indent=1, sort_keys=False) + "\n"
    if args.check and report_path is not None:
        atomic_write_text(report_path, text)
        print(f"wrote {report_path}")
    scenarios = report["scenarios"]
    width = max(len(name) for name in scenarios)
    for name, data in scenarios.items():
        explored = data["metrics"].get("monomorphism.nodes_explored", 0)
        print(
            f"{name:<{width}}  {data['wall_time_s']*1000:9.2f} ms  "
            f"nodes={explored:>8}  "
            f"adj-hit={data['metrics'].get('adjacency_cache_hit_rate', 0.0):.2f}"
        )

    # Worker-count, backend and shard independence are correctness
    # properties, not timings — never write (or pass) a baseline in which
    # parallel runs, the native backend or the sharded round trip changed
    # output.
    consistency = bench_harness.parallel_consistency_failures(scenarios)
    consistency += bench_harness.replay_consistency_failures(scenarios)
    consistency += bench_harness.sharded_consistency_failures(scenarios)
    consistency += bench_harness.placer_consistency_failures(scenarios)
    if consistency:
        print("\nCONSISTENCY FAILURES:", file=sys.stderr)
        for failure in consistency:
            print(f"  {failure}", file=sys.stderr)
        return 1

    if args.check:
        if not args.baseline.exists():
            print(f"error: baseline {args.baseline} not found", file=sys.stderr)
            return 2
        baseline = json.loads(args.baseline.read_text())
        if args.scenarios is not None:
            # A subset run can only be compared against the matching
            # subset of the baseline; the scenarios that were not run are
            # not "missing", they were not requested.  But a *requested*
            # scenario absent from the baseline would silently gate
            # nothing — that is an error, not a pass.
            selected = set(args.scenarios)
            baseline_scenarios = baseline.get("scenarios", baseline)
            unbaselined = sorted(selected - set(baseline_scenarios))
            if unbaselined:
                print(
                    f"error: scenario(s) {unbaselined} not in the baseline "
                    f"{args.baseline}; re-record it with the full suite "
                    "before gating on them",
                    file=sys.stderr,
                )
                return 2
            baseline = {
                "scenarios": {
                    name: data
                    for name, data in baseline_scenarios.items()
                    if name in selected
                }
            }
        failures = bench_harness.check_results(
            baseline, scenarios, tolerance=args.tolerance
        )
        if failures:
            print("\nREGRESSIONS:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"\nOK: no benchmark regressed more than {args.tolerance:.0%}")
        if args.update:
            atomic_write_text(args.baseline, text)
            print(f"baseline updated: {args.baseline}")
        return 0

    atomic_write_text(report_path, text)
    print(f"\nwrote {report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
