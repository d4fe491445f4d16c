#!/usr/bin/env bash
# Tier-1-equivalent smoke gate, suitable for a CI job.
#
# Runs, in order:
#   0. the static-analysis gate: `python -m repro.lint --check`, and the
#      mypy typing tiers of mypy.ini when mypy is installed — fail-fast,
#      before any test process is spawned (docs/static-analysis.md);
#   1. the tier-1 test suite (`pytest -x -q`; bench-marked tests excluded
#      via pytest.ini);
#   2. a 2-shard plan -> run -> merge round trip through the CLI, asserting
#      the merged sweep table is byte-identical to the serial `sweep`
#      output — the sharded pipeline's end-to-end contract;
#   3. a RunConfig round-trip smoke: a flag-based `place --output json` run
#      re-described as a repro.config.RunConfig and re-run via `--config`
#      must produce identical deterministic fields — the unified workload
#      API's config contract (docs/api.md);
#   4. a fault-injection smoke: the same 2-shard sweep with an injected
#      worker crash (recovered by --retries) and a corrupted outcome
#      shard (recovered by `shard replan` + re-run, with `shard run
#      --resume` exercising the checkpoint journal), asserting the
#      recovered merge is byte-identical to the serial table;
#   5. a heuristic-placer smoke: the same `--placer anneal:SEEDxITERS`
#      sweep run twice in separate processes must be byte-identical —
#      the seeded annealer's determinism contract (docs/placers.md);
#   6. the scheduler-facing tier-1 subset — including fine tuning and the
#      backend parity tests in tests/test_replay_backends.py — once per
#      scheduler backend: under REPRO_SCHEDULER_BACKEND=native (build the
#      compiled replay kernel on demand, whose climbs then run as one
#      kernel call each; skipped, with a log line, on hosts without a C
#      compiler) and under REPRO_SCHEDULER_BACKEND=python, the reference
#      loop and the only fallback `auto` has where the kernel does not
#      build — both sides of the bit-identity contract
#      (docs/performance.md);
#   7. the benchmark regression gate on the fast scenarios
#      (`run_bench.py --check --scenarios ...`), which also re-checks the
#      deterministic counters and output fingerprints against the
#      committed BENCH_placement.json (including the exact-vs-anneal
#      ablation, the replay backend-consistency scenario and the
#      1,024-node `large_host_anneal`, which gates the sparse large-host
#      set-up and same-seed anneal determinism; its 4,096-node
#      `large_host_grid64` twin is left to the full run).
#
# Usage: scripts/ci_check.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
PYTHON="${PYTHON:-python}"

echo "== 0/7 static-analysis gate =="
"$PYTHON" -m repro.lint --check
if "$PYTHON" -c "import mypy" > /dev/null 2>&1; then
    "$PYTHON" -m mypy --config-file mypy.ini
else
    echo "mypy not installed; skipping the typing tier (lint gate still ran)"
fi

echo "== 1/7 tier-1 test suite =="
"$PYTHON" -m pytest -x -q

echo "== 2/7 sharded plan -> run -> merge round trip =="
WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

SWEEP_ARGS=(error-correction-encoding acetyl-chloride --thresholds 50 100 200 1000)
"$PYTHON" -m repro.cli sweep "${SWEEP_ARGS[@]}" > "$WORK_DIR/serial.txt"
"$PYTHON" -m repro.cli shard plan "${SWEEP_ARGS[@]}" \
    --shards 2 --out-dir "$WORK_DIR/shards"
"$PYTHON" -m repro.cli shard run --shard-file "$WORK_DIR/shards/shard-0.pkl" \
    --out "$WORK_DIR/outcomes-0.json"
"$PYTHON" -m repro.cli shard run --shard-file "$WORK_DIR/shards/shard-1.pkl" \
    --out "$WORK_DIR/outcomes-1.json"
"$PYTHON" -m repro.cli shard merge --plan "$WORK_DIR/shards/plan.json" \
    "$WORK_DIR/outcomes-0.json" "$WORK_DIR/outcomes-1.json" > "$WORK_DIR/merged.txt"
if ! diff "$WORK_DIR/serial.txt" "$WORK_DIR/merged.txt"; then
    echo "FAIL: merged shard output differs from the serial sweep" >&2
    exit 1
fi
echo "merged output byte-identical to serial sweep"

echo "== 3/7 run-config round-trip smoke =="
"$PYTHON" -m repro.cli place error-correction-encoding acetyl-chloride \
    --output json > "$WORK_DIR/place-flags.json"
"$PYTHON" - "$WORK_DIR" <<'PYEOF'
import sys
from repro.config import RunConfig

work_dir = sys.argv[1]
RunConfig(
    circuit="error-correction-encoding",
    environment="acetyl-chloride",
    output="json",
).save(f"{work_dir}/run.json")
PYEOF
"$PYTHON" -m repro.cli place --config "$WORK_DIR/run.json" \
    > "$WORK_DIR/place-config.json"
"$PYTHON" - "$WORK_DIR" <<'PYEOF'
import json
import sys

work_dir = sys.argv[1]

def deterministic(path):
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    payload.pop("counters", None)
    for row in payload.get("rows", []):
        row.pop("software_runtime_seconds", None)
        row.pop("counters", None)
    return payload

flags = deterministic(f"{work_dir}/place-flags.json")
config = deterministic(f"{work_dir}/place-config.json")
if flags != config:
    raise SystemExit(
        "FAIL: --config run differs from the flag-based run in "
        "deterministic fields"
    )
print("config round trip: deterministic fields identical")
PYEOF

echo "== 4/7 fault-injection smoke =="
FAULT_DIR="$WORK_DIR/fault"
mkdir -p "$FAULT_DIR"
# Worker crash on cell 0's first attempt: --retries must recover to the
# exact serial table through the resilient (process-per-attempt) path.
REPRO_FAULT_PLAN="0:kill" "$PYTHON" -m repro.cli sweep "${SWEEP_ARGS[@]}" \
    --retries 2 > "$FAULT_DIR/faulted-sweep.txt"
if ! diff "$WORK_DIR/serial.txt" "$FAULT_DIR/faulted-sweep.txt"; then
    echo "FAIL: sweep with injected crash + retries differs from serial" >&2
    exit 1
fi
# Corrupt shard 1's outcome file as it is written; a strict merge must
# fail closed on the checksum, then replan + re-run + resume recovers.
"$PYTHON" -m repro.cli shard run --shard-file "$WORK_DIR/shards/shard-0.pkl" \
    --out "$FAULT_DIR/outcomes-0.json" --checkpoint "$FAULT_DIR/ckpt-0.jsonl"
REPRO_FAULT_PLAN="out:1" "$PYTHON" -m repro.cli shard run \
    --shard-file "$WORK_DIR/shards/shard-1.pkl" \
    --out "$FAULT_DIR/outcomes-1.json"
if "$PYTHON" -m repro.cli shard merge --plan "$WORK_DIR/shards/plan.json" \
    "$FAULT_DIR/outcomes-0.json" "$FAULT_DIR/outcomes-1.json" \
    > /dev/null 2> "$FAULT_DIR/merge-err.txt"; then
    echo "FAIL: merge accepted a corrupted outcome shard" >&2
    exit 1
fi
grep -q "outcomes-1.json" "$FAULT_DIR/merge-err.txt"
"$PYTHON" -m repro.cli shard replan --plan "$WORK_DIR/shards/plan.json" \
    --out-dir "$FAULT_DIR/recovery" \
    "$FAULT_DIR/outcomes-0.json" "$FAULT_DIR/outcomes-1.json" > /dev/null
# Resume shard 0 from its journal (all cells already done -> no re-work)
# and re-run the replanned shard 1 input.
"$PYTHON" -m repro.cli shard run --shard-file "$WORK_DIR/shards/shard-0.pkl" \
    --out "$FAULT_DIR/outcomes-0.json" \
    --checkpoint "$FAULT_DIR/ckpt-0.jsonl" --resume
"$PYTHON" -m repro.cli shard run \
    --shard-file "$FAULT_DIR/recovery/shard-1.pkl" \
    --out "$FAULT_DIR/recovered-1.json"
"$PYTHON" -m repro.cli shard merge --plan "$WORK_DIR/shards/plan.json" \
    "$FAULT_DIR/outcomes-0.json" "$FAULT_DIR/recovered-1.json" \
    > "$FAULT_DIR/recovered-merge.txt"
if ! diff "$WORK_DIR/serial.txt" "$FAULT_DIR/recovered-merge.txt"; then
    echo "FAIL: recovered merge differs from the serial sweep" >&2
    exit 1
fi
echo "fault injection: crash, corruption, replan and resume all recovered"

echo "== 5/7 heuristic-placer determinism smoke =="
ANNEAL_ARGS=(sweep random:8x20x5 grid:4x4 --thresholds 10 20
             --placer anneal:7x150)
"$PYTHON" -m repro.cli "${ANNEAL_ARGS[@]}" > "$WORK_DIR/anneal-a.txt"
"$PYTHON" -m repro.cli "${ANNEAL_ARGS[@]}" > "$WORK_DIR/anneal-b.txt"
if ! diff "$WORK_DIR/anneal-a.txt" "$WORK_DIR/anneal-b.txt"; then
    echo "FAIL: same-seed anneal sweeps differ across processes" >&2
    exit 1
fi
echo "anneal sweep byte-identical across processes"

echo "== 6/7 scheduler backend subsets =="
SCHEDULER_TESTS=(tests/test_replay_backends.py tests/test_scheduler.py
                 tests/test_incremental_scheduler.py tests/test_fine_tuning.py
                 tests/test_placers.py)
if "$PYTHON" - <<'PYEOF'
from repro.timing import _native

if _native.available():
    raise SystemExit(0)
print(f"native kernel unavailable: {_native.unavailable_reason()}")
raise SystemExit(1)
PYEOF
then
    REPRO_SCHEDULER_BACKEND=native "$PYTHON" -m pytest -x -q \
        "${SCHEDULER_TESTS[@]}"
    echo "scheduler-facing tier-1 subset green under the native backend"
else
    echo "skipping the native-backend subset (no C toolchain on this host)"
fi
REPRO_SCHEDULER_BACKEND=python "$PYTHON" -m pytest -x -q "${SCHEDULER_TESTS[@]}"
echo "scheduler-facing tier-1 subset green under the python backend"

echo "== 7/7 fast benchmark regression gate =="
"$PYTHON" scripts/run_bench.py --check --repeats 1 \
    --scenarios monomorphism_micro place_qec5_boc place_phaseest_crotonic \
    exact_vs_anneal replay_native large_host_anneal

echo "ci_check: all gates passed"
