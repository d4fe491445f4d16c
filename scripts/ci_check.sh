#!/usr/bin/env bash
# Tier-1-equivalent smoke gate, suitable for a CI job.
#
# Runs, in order:
#   0. the static-analysis gate: `python -m repro.lint --check`, and the
#      mypy typing tiers of mypy.ini when mypy is installed — fail-fast,
#      before any test process is spawned (docs/static-analysis.md);
#   1. the tier-1 test suite (`pytest -x -q`; bench-marked tests excluded
#      via pytest.ini), then tests/test_routing_equivalence.py,
#      tests/test_extraction_equivalence.py and
#      tests/test_graph_equivalence.py again under PYTHONHASHSEED=1 and
#      PYTHONHASHSEED=12345: sets of str and tuple labels iterate
#      differently per hash seed, and the router, workspace extraction,
#      placement completion, the in-house graph type and the environment's
#      derived graphs (the stages that used to depend on it or on
#      networkx) must match their networkx references under each;
#   2. a 2-shard plan -> run -> merge round trip, with shard 1 run under
#      REPRO_SCHEDULER_BACKEND=python so the merge crosses backends, and
#      a `sweep --jobs 2` run (its grid has 3 distinct cells, so the
#      process pool runs) through the CLI, asserting both tables are
#      byte-identical to the serial `sweep` output — the sharded
#      pipeline's, the backends' and the worker pool's end-to-end
#      contract — and that merging a half-length copy of one outcome
#      shard fails closed with an error naming the file;
#   3. a RunConfig round-trip smoke: a flag-based `place --output json` run
#      re-described as a repro.config.RunConfig and re-run via `--config`
#      must produce identical deterministic fields — the unified workload
#      API's config contract (docs/api.md);
#   4. a heuristic-placer smoke: the same `--placer anneal:SEEDxITERS`
#      sweep run twice in separate processes must be byte-identical —
#      the seeded annealer's determinism contract (docs/placers.md) — and
#      once more under REPRO_SCHEDULER_BACKEND=python, the Python anneal
#      loop, must match the native kernel's run byte for byte (the native
#      side is skipped, with a log line, on hosts without a C compiler);
#   5. the scheduler-facing tier-1 subset — including fine tuning, the
#      backend parity tests in tests/test_replay_backends.py and the
#      native-anneal parity suite in tests/test_anneal_parity.py — once
#      per scheduler backend: under REPRO_SCHEDULER_BACKEND=native (build
#      the compiled replay kernel on demand, whose climbs and anneals then
#      run as one kernel call each; skipped, with a log line, on hosts
#      without a C compiler) and under REPRO_SCHEDULER_BACKEND=python,
#      the reference loop and the only fallback `auto` has where the
#      kernel does not build — both sides of the bit-identity contract
#      (docs/performance.md);
#   6. the benchmark regression gate on the fast scenarios
#      (`run_bench.py --check --scenarios ...`), which also re-checks the
#      deterministic counters and output fingerprints against the
#      committed BENCH_placement.json (including the exact-vs-anneal
#      ablation, the replay backend-consistency scenario, the
#      `sweep_qft8_histidine` sweep, which does the most fine-tuning
#      climbs of any scenario and so gates the batched climb's counters
#      and fingerprint through the sweep and lookahead path, and the
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

echo "== 0/6 static-analysis gate =="
"$PYTHON" -m repro.lint --check
if "$PYTHON" -c "import mypy" > /dev/null 2>&1; then
    "$PYTHON" -m mypy --config-file mypy.ini
else
    echo "mypy not installed; skipping the typing tier (lint gate still ran)"
fi

echo "== 1/6 tier-1 test suite =="
"$PYTHON" -m pytest -x -q
for HASH_SEED in 1 12345; do
    PYTHONHASHSEED="$HASH_SEED" "$PYTHON" -m pytest -x -q \
        tests/test_routing_equivalence.py tests/test_extraction_equivalence.py \
        tests/test_graph_equivalence.py
done
echo "routing, extraction and graph equivalence suites green under PYTHONHASHSEED=1 and 12345"

echo "== 2/6 sharded plan -> run -> merge round trip and --jobs 2 sweep =="
WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

SWEEP_ARGS=(error-correction-encoding acetyl-chloride --thresholds 50 100 200 1000)
"$PYTHON" -m repro.cli sweep "${SWEEP_ARGS[@]}" > "$WORK_DIR/serial.txt"
"$PYTHON" -m repro.cli shard plan "${SWEEP_ARGS[@]}" \
    --shards 2 --out-dir "$WORK_DIR/shards"
"$PYTHON" -m repro.cli shard run --shard-file "$WORK_DIR/shards/shard-0.pkl" \
    --out "$WORK_DIR/outcomes-0.json"
REPRO_SCHEDULER_BACKEND=python "$PYTHON" -m repro.cli shard run \
    --shard-file "$WORK_DIR/shards/shard-1.pkl" --out "$WORK_DIR/outcomes-1.json"
"$PYTHON" -m repro.cli shard merge --plan "$WORK_DIR/shards/plan.json" \
    "$WORK_DIR/outcomes-0.json" "$WORK_DIR/outcomes-1.json" > "$WORK_DIR/merged.txt"
if ! diff "$WORK_DIR/serial.txt" "$WORK_DIR/merged.txt"; then
    echo "FAIL: merged shard output differs from the serial sweep" >&2
    exit 1
fi
echo "merged output (shard 1 on the python backend) byte-identical to serial sweep"
# A truncated outcome shard must fail the merge closed, naming the file.
TRUNCATED="$WORK_DIR/truncated-1.json"
head -c "$(( $(wc -c < "$WORK_DIR/outcomes-1.json") / 2 ))" \
    "$WORK_DIR/outcomes-1.json" > "$TRUNCATED"
if "$PYTHON" -m repro.cli shard merge --plan "$WORK_DIR/shards/plan.json" \
    "$WORK_DIR/outcomes-0.json" "$TRUNCATED" \
    > /dev/null 2> "$WORK_DIR/merge-err.txt"; then
    echo "FAIL: merge accepted a truncated outcome shard" >&2
    exit 1
fi
if ! grep -q "^error: .*truncated-1.json" "$WORK_DIR/merge-err.txt"; then
    echo "FAIL: the merge error does not name the truncated file:" >&2
    cat "$WORK_DIR/merge-err.txt" >&2
    exit 1
fi
echo "merge of a truncated outcome shard failed closed"
"$PYTHON" -m repro.cli sweep "${SWEEP_ARGS[@]}" --jobs 2 > "$WORK_DIR/jobs2.txt"
if ! diff "$WORK_DIR/serial.txt" "$WORK_DIR/jobs2.txt"; then
    echo "FAIL: sweep --jobs 2 output differs from the serial sweep" >&2
    exit 1
fi
echo "sweep --jobs 2 output byte-identical to serial sweep"

echo "== 3/6 run-config round-trip smoke =="
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

# Whether the native kernel builds here (steps 4 and 5 run it when it does).
if "$PYTHON" - <<'PYEOF'
from repro.timing import _native

if _native.available():
    raise SystemExit(0)
print(f"native kernel unavailable: {_native.unavailable_reason()}")
raise SystemExit(1)
PYEOF
then
    NATIVE=1
else
    NATIVE=0
fi

echo "== 4/6 heuristic-placer determinism smoke =="
ANNEAL_ARGS=(sweep random:8x20x5 grid:4x4 --thresholds 10 20
             --placer anneal:7x150)
"$PYTHON" -m repro.cli "${ANNEAL_ARGS[@]}" > "$WORK_DIR/anneal-a.txt"
"$PYTHON" -m repro.cli "${ANNEAL_ARGS[@]}" > "$WORK_DIR/anneal-b.txt"
if ! diff "$WORK_DIR/anneal-a.txt" "$WORK_DIR/anneal-b.txt"; then
    echo "FAIL: same-seed anneal sweeps differ across processes" >&2
    exit 1
fi
echo "anneal sweep byte-identical across processes"
REPRO_SCHEDULER_BACKEND=python "$PYTHON" -m repro.cli "${ANNEAL_ARGS[@]}" \
    > "$WORK_DIR/anneal-python.txt"
if [ "$NATIVE" = 1 ]; then
    REPRO_SCHEDULER_BACKEND=native "$PYTHON" -m repro.cli "${ANNEAL_ARGS[@]}" \
        > "$WORK_DIR/anneal-native.txt"
    if ! diff "$WORK_DIR/anneal-python.txt" "$WORK_DIR/anneal-native.txt"; then
        echo "FAIL: the native anneal differs from the python anneal loop" >&2
        exit 1
    fi
    echo "anneal sweep byte-identical under the native and python backends"
else
    echo "skipping the native anneal diff (no C toolchain on this host)"
fi

echo "== 5/6 scheduler backend subsets =="
SCHEDULER_TESTS=(tests/test_replay_backends.py tests/test_scheduler.py
                 tests/test_incremental_scheduler.py tests/test_fine_tuning.py
                 tests/test_placers.py tests/test_anneal_parity.py)
if [ "$NATIVE" = 1 ]; then
    REPRO_SCHEDULER_BACKEND=native "$PYTHON" -m pytest -x -q \
        "${SCHEDULER_TESTS[@]}"
    echo "scheduler-facing tier-1 subset green under the native backend"
else
    echo "skipping the native-backend subset (no C toolchain on this host)"
fi
REPRO_SCHEDULER_BACKEND=python "$PYTHON" -m pytest -x -q "${SCHEDULER_TESTS[@]}"
echo "scheduler-facing tier-1 subset green under the python backend"

echo "== 6/6 fast benchmark regression gate =="
"$PYTHON" scripts/run_bench.py --check --repeats 1 \
    --scenarios monomorphism_micro place_qec5_boc place_phaseest_crotonic \
    sweep_qft8_histidine exact_vs_anneal replay_native large_host_anneal

echo "ci_check: all gates passed"
