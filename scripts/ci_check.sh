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
#      contract — that merging a half-length copy of one outcome shard
#      fails closed with an error naming the file, and that merging the
#      two outcome shards against a 3-shard plan of the same grid (same
#      fingerprint, so only merge_shards' check against the plan can
#      tell) fails closed with one error line naming the shard count;
#   3. a RunConfig round-trip smoke: a flag-based `place --output json` run
#      re-described as a repro.config.RunConfig and re-run via `--config`
#      must produce identical deterministic fields — the unified workload
#      API's config contract (docs/api.md);
#   4. a heuristic-placer smoke: the same `--placer anneal:SEEDxITERS`
#      sweep run twice in separate processes must be byte-identical —
#      the seeded annealer's determinism contract (docs/placers.md) —
#      and so must the `anneal:7,7x150` portfolio, since one seed is the
#      one-restart portfolio and a repeated seed changes nothing; once
#      more under REPRO_SCHEDULER_BACKEND=python, the Python anneal loop
#      must match the native kernel's run byte for byte, and so must the
#      same anneal sweep and an exact `place qft:5` on `grid:8x8`, whose
#      pair-delay table is rows rather than the `grid:4x4` matrix (the
#      native sides are skipped, with a log line, on hosts without a C
#      compiler); an anneal budget of 2**63, beyond the kernel's int64
#      count, must be refused with exit 2 and one `error:` line; and the
#      exact `sweep qft:8 histidine --output json`, whose fine tuning
#      merges converging hill climbs, must give the same rows and the
#      same per-row and total work counters under both backends (only
#      `software_runtime_seconds` and the `scheduler.pair_matrix_cache_*`
#      counters, which only native evaluators move, are dropped);
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
#      1,024-node `large_host_anneal` and its 4,096-node
#      `large_host_grid64` twin, which gate the sparse large-host set-up,
#      the pair-delay rows and same-seed anneal determinism).
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
# The same grid planned into 3 shards: its fingerprint matches the 2-shard
# outcomes, its shard count does not.
"$PYTHON" -m repro.cli shard plan "${SWEEP_ARGS[@]}" \
    --shards 3 --out-dir "$WORK_DIR/shards-3" > /dev/null
if "$PYTHON" -m repro.cli shard merge --plan "$WORK_DIR/shards-3/plan.json" \
    "$WORK_DIR/outcomes-0.json" "$WORK_DIR/outcomes-1.json" \
    > "$WORK_DIR/merge-3.txt" 2> "$WORK_DIR/merge-3-err.txt"; then
    echo "FAIL: merge accepted outcome shards of a 2-shard plan against a 3-shard plan" >&2
    exit 1
elif [ "$?" -ne 1 ] || [ -s "$WORK_DIR/merge-3.txt" ] \
    || [ "$(wc -l < "$WORK_DIR/merge-3-err.txt")" -ne 1 ] \
    || ! grep -q "^error: .*2 shard(s) but the plan has 3" "$WORK_DIR/merge-3-err.txt"; then
    echo "FAIL: the 3-shard plan merge did not fail with exit 1 and one error line naming the shard count:" >&2
    cat "$WORK_DIR/merge-3-err.txt" >&2
    exit 1
fi
echo "merge against a plan with another shard count failed closed"
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
ANNEAL_SWEEP=(sweep random:8x20x5 grid:4x4 --thresholds 10 20)
ANNEAL_ARGS=("${ANNEAL_SWEEP[@]}" --placer anneal:7x150)
"$PYTHON" -m repro.cli "${ANNEAL_ARGS[@]}" > "$WORK_DIR/anneal-a.txt"
"$PYTHON" -m repro.cli "${ANNEAL_ARGS[@]}" > "$WORK_DIR/anneal-b.txt"
if ! diff "$WORK_DIR/anneal-a.txt" "$WORK_DIR/anneal-b.txt"; then
    echo "FAIL: same-seed anneal sweeps differ across processes" >&2
    exit 1
fi
echo "anneal sweep byte-identical across processes"
"$PYTHON" -m repro.cli "${ANNEAL_SWEEP[@]}" --placer anneal:7,7x150 \
    > "$WORK_DIR/anneal-portfolio.txt"
if ! diff "$WORK_DIR/anneal-a.txt" "$WORK_DIR/anneal-portfolio.txt"; then
    echo "FAIL: the anneal:7,7x150 portfolio differs from anneal:7x150" >&2
    exit 1
fi
echo "anneal:7,7x150 portfolio byte-identical to anneal:7x150"
if "$PYTHON" -m repro.cli place error-correction-encoding acetyl-chloride \
    --placer anneal:0x9223372036854775808 \
    > "$WORK_DIR/budget.txt" 2> "$WORK_DIR/budget-err.txt"; then
    echo "FAIL: place accepted an anneal budget of 2**63" >&2
    exit 1
elif [ "$?" -ne 2 ] || [ -s "$WORK_DIR/budget.txt" ] \
    || [ "$(wc -l < "$WORK_DIR/budget-err.txt")" -ne 1 ] \
    || ! grep -q "^error: " "$WORK_DIR/budget-err.txt"; then
    echo "FAIL: an anneal budget of 2**63 did not exit 2 with one error line:" >&2
    cat "$WORK_DIR/budget-err.txt" >&2
    exit 1
fi
echo "an anneal budget of 2**63 refused with exit 2 and one error line"
# Run one CLI command under the python backend and, when the kernel
# builds, under the native one, and diff the two outputs.
backend_diff() {
    local what="$1"
    shift
    REPRO_SCHEDULER_BACKEND=python "$PYTHON" -m repro.cli "$@" \
        > "$WORK_DIR/backend-python.txt"
    if [ "$NATIVE" != 1 ]; then
        echo "skipping the native $what diff (no C toolchain on this host)"
        return
    fi
    REPRO_SCHEDULER_BACKEND=native "$PYTHON" -m repro.cli "$@" \
        > "$WORK_DIR/backend-native.txt"
    if ! diff "$WORK_DIR/backend-python.txt" "$WORK_DIR/backend-native.txt"; then
        echo "FAIL: the native $what differs from the python backend's" >&2
        exit 1
    fi
    echo "$what byte-identical under the native and python backends"
}
# grid:4x4's pair-delay table is a matrix; grid:8x8's is rows.
backend_diff "anneal sweep on grid:4x4" "${ANNEAL_ARGS[@]}"
backend_diff "anneal sweep on grid:8x8" sweep random:8x20x5 grid:8x8 \
    --thresholds 10 20 --placer anneal:7x150
backend_diff "exact place on grid:8x8" place qft:5 grid:8x8 --threshold 10
# The merged climbs skip the same moves on both backends: rows and work
# counters of the sweep must match, timings and the native-only pair-table
# cache counters aside.
REPRO_SCHEDULER_BACKEND=python "$PYTHON" -m repro.cli sweep qft:8 histidine \
    --output json > "$WORK_DIR/climb-python.json"
if [ "$NATIVE" = 1 ]; then
    REPRO_SCHEDULER_BACKEND=native "$PYTHON" -m repro.cli sweep qft:8 histidine \
        --output json > "$WORK_DIR/climb-native.json"
    "$PYTHON" - "$WORK_DIR" <<'PYEOF'
import json
import sys

work_dir = sys.argv[1]

def comparable(path):
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)

    def counters(values):
        return {
            name: value
            for name, value in values.items()
            if not name.startswith("scheduler.pair_matrix_cache_")
        }

    payload["counters"] = counters(payload.get("counters", {}))
    for row in payload.get("rows", []):
        row.pop("software_runtime_seconds", None)
        row["counters"] = counters(row.get("counters", {}))
    return payload

python = comparable(f"{work_dir}/climb-python.json")
native = comparable(f"{work_dir}/climb-native.json")
if python != native:
    raise SystemExit(
        "FAIL: sweep qft:8 histidine rows or work counters differ between "
        "the python and native backends"
    )
print(
    "sweep qft:8 histidine rows and work counters identical under both "
    f"backends ({python['counters']['scheduler.incremental_evals']} "
    "incremental evaluations)"
)
PYEOF
else
    echo "skipping the native climb-counter diff (no C toolchain on this host)"
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
    sweep_qft8_histidine exact_vs_anneal replay_native large_host_anneal \
    large_host_grid64

echo "ci_check: all gates passed"
