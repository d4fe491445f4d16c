/* Native kernel for the scheduler's busy-time recurrence.
 *
 * Compiled on demand by repro/timing/_native.py (cc -O2 -fPIC -shared
 * -ffp-contract=off) and loaded via ctypes as the "native" scheduler
 * backend.  The contract is *bit-identical* results with the
 * pure Python reference loop in repro/timing/scheduler.py: every duration
 * is the same IEEE-754 double multiply of the same operands, the
 * recurrence applies the same compare/add sequence in the same order, and
 * the final reduction mirrors CPython's max() (first element, replaced
 * only on strictly-greater comparison, so NaN handling matches too).
 *
 * -ffp-contract=off matters: a fused multiply-add of weight*relative+busy
 * rounds once where the Python loop rounds twice, which would break the
 * bit-identity contract on the very first op.  x86-64 SSE2 doubles are
 * IEEE-754 binary64, the same representation CPython floats use.
 *
 * repro_anneal also calls libm's exp(), the function CPython's math.exp
 * calls, so the shim links -lm explicitly.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* A single op: endpoints a/b (qubit indices; b < 0 marks a single-qubit
 * op) and the relative duration.  Delays are looked up per evaluation in
 * `single` (per node) or the pair-delay table below, exactly like the
 * Python reference loop. */

/* The environment's PairDelayTable (repro/hardware/environment.py): the
 * delay of every node pair, the diagonal included, either as a
 * num_nodes ^ 2 row-major `matrix`, or, when `matrix` is NULL, as one row
 * per node -- entries row_start[a]..row_start[a + 1] - 1 of row_node and
 * row_delay, sorted by node -- with `default_delay` for every pair no row
 * lists.  Both layouts hold the same double for every pair. */
typedef struct {
    int64_t num_nodes;
    double default_delay;
    const double *matrix;
    const int64_t *row_start;
    const int32_t *row_node;
    const double *row_delay;
} repro_pair_table;

#if defined(__GNUC__)
#define REPRO_INLINE static inline __attribute__((always_inline))
#else
#define REPRO_INLINE static inline
#endif

/* The delay of node pair (a, b) in the given layout.  The ctx entry
 * points test the layout once per call and run a copy of their loop
 * inlined with a constant `dense`, so no lookup tests it again. */
REPRO_INLINE double pair_delay(const repro_pair_table *pairs, int32_t a,
                               int32_t b, int dense)
{
    int64_t low, high, end;
    if (dense) {
        return pairs->matrix[(int64_t)a * pairs->num_nodes + b];
    }
    /* Binary search for the first entry of row a at or after node b. */
    low = pairs->row_start[a];
    end = pairs->row_start[a + 1];
    high = end;
    while (low < high) {
        int64_t middle = low + (high - low) / 2;
        if (pairs->row_node[middle] < b) {
            low = middle + 1;
        } else {
            high = middle;
        }
    }
    if (low < end && pairs->row_node[low] == b) {
        return pairs->row_delay[low];
    }
    return pairs->default_delay;
}

static double final_max(const double *times, int64_t num_qubits)
{
    /* CPython max(): keep the first element, replace on item > best. */
    double best;
    int64_t q;
    if (num_qubits <= 0) {
        return 0.0;
    }
    best = times[0];
    for (q = 1; q < num_qubits; q++) {
        if (times[q] > best) {
            best = times[q];
        }
    }
    return best;
}

/* Full evaluation under the node assignment `nodes` (qubit -> node
 * index).  Optionally records the per-op duration table and the periodic
 * busy-time checkpoints (one row of num_qubits doubles every `interval`
 * ops, written *before* the op at that index is applied, starting at op
 * 0) that the incremental tail replay later restores.  `times` is a
 * caller-owned scratch buffer of num_qubits doubles (zeroed here).
 * `dense` is 1 when the pair table is a matrix, a constant at each call
 * site (see repro_ctx_full).  Returns the circuit runtime. */
REPRO_INLINE double repro_replay_full(
    int64_t num_ops,
    const int32_t *ops_a,
    const int32_t *ops_b,
    const double *relative,
    const int32_t *nodes,
    const double *single,
    const repro_pair_table *pairs,
    int64_t num_qubits,
    int64_t interval,
    double *durations_out,
    double *checkpoints_out,
    double *times,
    int dense)
{
    /* A local copy, so the table's fields stay in registers. */
    const repro_pair_table table = *pairs;
    int64_t i, checkpoint = 0;
    for (i = 0; i < num_qubits; i++) {
        times[i] = 0.0;
    }
    for (i = 0; i < num_ops; i++) {
        int32_t a = ops_a[i];
        int32_t b = ops_b[i];
        double duration;
        if (checkpoints_out != NULL && i % interval == 0) {
            memcpy(checkpoints_out + checkpoint * num_qubits, times,
                   (size_t)num_qubits * sizeof(double));
            checkpoint++;
        }
        if (b < 0) {
            duration = single[nodes[a]] * relative[i];
            times[a] = times[a] + duration;
        } else {
            double time_a = times[a];
            double time_b = times[b];
            double finish;
            duration = pair_delay(&table, nodes[a], nodes[b], dense) * relative[i];
            finish = (time_a >= time_b ? time_a : time_b) + duration;
            times[a] = finish;
            times[b] = finish;
        }
        if (durations_out != NULL) {
            durations_out[i] = duration;
        }
    }
    return final_max(times, num_qubits);
}

/* Incremental tail replay: restore the checkpoint row covering `start`,
 * then replay ops start..num_ops-1.  Ops touching a changed qubit
 * (changed_flag[q] != 0, new node changed_target[q]) recompute their
 * duration from the delay tables; unaffected ops reuse base_durations.
 * With has_cutoff, the replay stops as soon as any busy time reaches
 * `cutoff` (busy times are monotone, so the final runtime is at least
 * that); *stop_index_out records the stopping op for the caller's
 * replayed-ops accounting, or -1 when the tail ran to completion.
 * `dense` is as in repro_replay_full.  Returns the runtime, or +inf on
 * cutoff. */
REPRO_INLINE double repro_replay_tail(
    int64_t start,
    int64_t num_ops,
    const int32_t *ops_a,
    const int32_t *ops_b,
    const double *relative,
    const double *base_durations,
    const int32_t *base_nodes,
    const int8_t *changed_flag,
    const int32_t *changed_target,
    const double *single,
    const repro_pair_table *pairs,
    int64_t num_qubits,
    const double *checkpoint_row,
    double cutoff,
    int32_t has_cutoff,
    double *times,
    int64_t *stop_index_out,
    int dense)
{
    const repro_pair_table table = *pairs;
    int64_t i;
    *stop_index_out = -1;
    if (checkpoint_row != NULL) {
        memcpy(times, checkpoint_row, (size_t)num_qubits * sizeof(double));
    } else {
        for (i = 0; i < num_qubits; i++) {
            times[i] = 0.0;
        }
    }
    for (i = start; i < num_ops; i++) {
        int32_t a = ops_a[i];
        int32_t b = ops_b[i];
        double finish;
        if (b < 0) {
            double duration;
            if (changed_flag[a]) {
                duration = single[changed_target[a]] * relative[i];
            } else {
                duration = base_durations[i];
            }
            finish = times[a] + duration;
            times[a] = finish;
        } else {
            double duration;
            double time_a, time_b;
            if (changed_flag[a] || changed_flag[b]) {
                int32_t node_a = changed_flag[a] ? changed_target[a] : base_nodes[a];
                int32_t node_b = changed_flag[b] ? changed_target[b] : base_nodes[b];
                duration = pair_delay(&table, node_a, node_b, dense) * relative[i];
            } else {
                duration = base_durations[i];
            }
            time_a = times[a];
            time_b = times[b];
            finish = (time_a >= time_b ? time_a : time_b) + duration;
            times[a] = finish;
            times[b] = finish;
        }
        if (has_cutoff && finish >= cutoff) {
            *stop_index_out = i;
            return HUGE_VAL; /* +inf, matching the Python float("inf") */
        }
    }
    return final_max(times, num_qubits);
}

/* Per-evaluator context: every constant operand of the two loops above,
 * bound once on the Python side (repro/timing/_native.py keeps a ctypes
 * Structure with this exact layout).  The ctx entry points exist because
 * marshalling 13-18 ctypes arguments per call costs more than a short
 * incremental replay itself; with the context, a tail replay passes four
 * scalars.  They run the two loops above, so the float semantics are
 * identical by construction.  `pairs` points into the environment's one
 * shared table.  first_touch[q] is the index of the first op on qubit q
 * (num_ops when none); occupant is scratch of num_env_nodes entries used
 * only by repro_hill_climb and repro_anneal. */
typedef struct {
    int64_t num_ops;
    int64_t num_qubits;
    int64_t num_env_nodes;
    int64_t interval;
    int64_t num_checkpoints;
    int64_t stop_index;
    const int32_t *ops_a;
    const int32_t *ops_b;
    const double *relative;
    const double *single_delays;
    repro_pair_table pairs;
    const int32_t *eval_nodes;
    int32_t *base_nodes;
    int8_t *changed_flag;
    int32_t *changed_target;
    double *base_durations;
    double *checkpoints;
    double *times;
    const int64_t *first_touch;
    int32_t *occupant;
} repro_replay_ctx;

/* Full evaluation through the context.  record != 0 evaluates the base
 * nodes and fills the duration/checkpoint tables; record == 0 evaluates
 * eval_nodes with no recording (the plain run_full path).  The table's
 * layout is tested once here: each branch is its own copy of the loop. */
double repro_ctx_full(repro_replay_ctx *ctx, int32_t record)
{
    const int32_t *nodes = record ? ctx->base_nodes : ctx->eval_nodes;
    double *durations = record ? ctx->base_durations : NULL;
    double *checkpoints = record ? ctx->checkpoints : NULL;
    if (ctx->pairs.matrix != NULL) {
        return repro_replay_full(
            ctx->num_ops, ctx->ops_a, ctx->ops_b, ctx->relative, nodes,
            ctx->single_delays, &ctx->pairs, ctx->num_qubits, ctx->interval,
            durations, checkpoints, ctx->times, 1);
    }
    return repro_replay_full(
        ctx->num_ops, ctx->ops_a, ctx->ops_b, ctx->relative, nodes,
        ctx->single_delays, &ctx->pairs, ctx->num_qubits, ctx->interval,
        durations, checkpoints, ctx->times, 0);
}

/* Incremental tail replay through the context; the checkpoint row is
 * derived from `start` here instead of being passed as a pointer.  The
 * stop index lands in ctx->stop_index.  The layout is tested once, as in
 * repro_ctx_full. */
double repro_ctx_tail(repro_replay_ctx *ctx, int64_t start, double cutoff,
                      int32_t has_cutoff)
{
    int64_t checkpoint = start / ctx->interval;
    const double *row =
        checkpoint < ctx->num_checkpoints
            ? ctx->checkpoints + checkpoint * ctx->num_qubits
            : NULL;
    if (ctx->pairs.matrix != NULL) {
        return repro_replay_tail(
            start, ctx->num_ops, ctx->ops_a, ctx->ops_b, ctx->relative,
            ctx->base_durations, ctx->base_nodes, ctx->changed_flag,
            ctx->changed_target, ctx->single_delays, &ctx->pairs,
            ctx->num_qubits, row, cutoff, has_cutoff, ctx->times,
            &ctx->stop_index, 1);
    }
    return repro_replay_tail(
        start, ctx->num_ops, ctx->ops_a, ctx->ops_b, ctx->relative,
        ctx->base_durations, ctx->base_nodes, ctx->changed_flag,
        ctx->changed_target, ctx->single_delays, &ctx->pairs,
        ctx->num_qubits, row, cutoff, has_cutoff, ctx->times,
        &ctx->stop_index, 0);
}

/* Score re-placing `qubit` (base node `current`) on `node`, and `other`
 * (when >= 0, the qubit on `node`) on `current`, against the base
 * recorded by repro_ctx_full(ctx, 1), as RuntimeEvaluator.runtime_with
 * does with `cutoff` as its limit: the base runtime when neither qubit is
 * ever scheduled, else repro_ctx_tail's replay from the checkpoint before
 * the first op that touches one of them (+inf once the cutoff fires).
 * counts[0..2] gain the incremental evaluation, the ops skipped and the
 * ops replayed, counted as runtime_with counts them. */
static double score_move(
    repro_replay_ctx *ctx,
    int32_t qubit,
    int32_t node,
    int32_t other,
    int32_t current,
    double base_runtime,
    double cutoff,
    int64_t *counts)
{
    int64_t first = ctx->first_touch[qubit];
    int64_t start;
    double result;
    if (other >= 0 && ctx->first_touch[other] < first) {
        first = ctx->first_touch[other];
    }
    if (first >= ctx->num_ops) {
        return base_runtime;
    }
    start = first / ctx->interval * ctx->interval;
    counts[0]++;
    counts[1] += start;
    counts[2] += ctx->num_ops - start;
    ctx->changed_flag[qubit] = 1;
    ctx->changed_target[qubit] = node;
    if (other >= 0) {
        ctx->changed_flag[other] = 1;
        ctx->changed_target[other] = current;
    }
    result = repro_ctx_tail(ctx, start, cutoff, 1);
    ctx->changed_flag[qubit] = 0;
    if (other >= 0) {
        ctx->changed_flag[other] = 0;
    }
    if (ctx->stop_index >= 0) {
        counts[2] -= ctx->num_ops - 1 - ctx->stop_index;
    }
    return result;
}

/* The merge memo of one repro_hill_climb call: an open-addressing hash
 * table (linear probing, at most half full) whose keys are a node row
 * (num_qubits node indices, kept in `rows`) plus a round index and a step.
 * A climb state is (row, round, 2 * movable position + improved-this-round
 * flag) and maps to the start that first passed through it; a start's
 * final row is keyed with round and step -1 and maps to the first start
 * that ended on it.  Both live in one table and one row store, allocated
 * per call. */
typedef struct {
    uint64_t hash; /* the key's hash with bit 0 set; 0 marks a free slot */
    int64_t round;
    int64_t step;
    int64_t row;   /* offset of the key's row in `rows` */
    int64_t owner; /* the start the key leads to */
} memo_slot;

typedef struct {
    memo_slot *slots;
    int64_t capacity; /* a power of two */
    int64_t count;
    int32_t *rows;
    int64_t rows_used; /* entries */
    int64_t rows_capacity;
    int64_t width; /* num_qubits */
} climb_memo;

static uint64_t mix64(uint64_t x)
{
    /* The splitmix64 finalizer. */
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

static uint64_t row_hash(const int32_t *row, int64_t width)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    int64_t i;
    for (i = 0; i < width; i++) {
        hash = (hash ^ (uint32_t)row[i]) * 0x100000001b3ULL;
    }
    return hash;
}

static uint64_t key_hash(uint64_t row, int64_t round, int64_t step)
{
    return mix64(row ^ mix64((uint64_t)round * 0x9e3779b97f4a7c15ULL +
                             (uint64_t)step)) |
           1U;
}

static int memo_init(climb_memo *memo, int64_t width)
{
    memo->capacity = 256;
    memo->count = 0;
    memo->rows_used = 0;
    memo->rows_capacity = 64 * (width > 0 ? width : 1);
    memo->width = width;
    memo->slots = calloc((size_t)memo->capacity, sizeof(memo_slot));
    memo->rows = malloc((size_t)memo->rows_capacity * sizeof(int32_t));
    return memo->slots != NULL && memo->rows != NULL ? 0 : -1;
}

static void memo_free(climb_memo *memo)
{
    free(memo->slots);
    free(memo->rows);
}

/* The slot holding the key, or the free slot where it would go. */
static memo_slot *memo_probe(const climb_memo *memo, uint64_t hash,
                             int64_t round, int64_t step, const int32_t *row)
{
    uint64_t mask = (uint64_t)memo->capacity - 1;
    uint64_t i = hash & mask;
    size_t row_bytes = (size_t)memo->width * sizeof(int32_t);
    for (;; i = (i + 1) & mask) {
        memo_slot *slot = memo->slots + i;
        if (slot->hash == 0 ||
            (slot->hash == hash && slot->round == round &&
             slot->step == step &&
             memcmp(memo->rows + slot->row, row, row_bytes) == 0)) {
            return slot;
        }
    }
}

/* Append `row` to the row store; returns its offset, or -1 when the store
 * cannot grow. */
static int64_t memo_store_row(climb_memo *memo, const int32_t *row)
{
    if (memo->rows_used + memo->width > memo->rows_capacity) {
        int64_t capacity = 2 * memo->rows_capacity;
        int32_t *rows = realloc(memo->rows, (size_t)capacity * sizeof(int32_t));
        if (rows == NULL) {
            return -1;
        }
        memo->rows = rows;
        memo->rows_capacity = capacity;
    }
    memcpy(memo->rows + memo->rows_used, row,
           (size_t)memo->width * sizeof(int32_t));
    memo->rows_used += memo->width;
    return memo->rows_used - memo->width;
}

/* Fill the free slot `slot` (from memo_probe) with a key; the table
 * doubles once it would be more than half full.  Returns -1 when it
 * cannot. */
static int memo_insert(climb_memo *memo, memo_slot *slot, uint64_t hash,
                       int64_t round, int64_t step, int64_t row, int64_t owner)
{
    slot->hash = hash;
    slot->round = round;
    slot->step = step;
    slot->row = row;
    slot->owner = owner;
    memo->count++;
    if (2 * memo->count > memo->capacity) {
        int64_t capacity = 2 * memo->capacity;
        uint64_t mask = (uint64_t)capacity - 1;
        memo_slot *slots = calloc((size_t)capacity, sizeof(memo_slot));
        int64_t i;
        if (slots == NULL) {
            return -1;
        }
        for (i = 0; i < memo->capacity; i++) {
            const memo_slot *old = memo->slots + i;
            uint64_t j = old->hash & mask;
            if (old->hash == 0) {
                continue;
            }
            while (slots[j].hash != 0) {
                j = (j + 1) & mask;
            }
            slots[j] = *old;
        }
        free(memo->slots);
        memo->slots = slots;
        memo->capacity = capacity;
    }
    return 0;
}

/* One first-improvement climb of start `start`, from the base placement
 * recorded by repro_ctx_full(ctx, 1).  Moves are enumerated exactly as
 * repro.core.fine_tuning.hill_climb_starts does: movable qubits in order,
 * allowed nodes in order, the current node skipped, and a taken node
 * swapped with its occupant -- the last qubit in placement-key order
 * (`keys`, num_qubits entries) on that node, rebuilt per movable qubit
 * like the Python node-to-qubit dict.  Each move is scored by score_move
 * with the incumbent as cutoff.  A strictly cheaper move is written into
 * base_nodes and re-based through repro_ctx_full(ctx, 1), and its cost
 * becomes the incumbent.  The climb stops after a round without a change
 * or after max_rounds rounds.
 *
 * Before each movable qubit, while the row is injective, the climb looks
 * its state -- (row, round, 2 * position + improved flag) -- up in
 * `memo`.  The incumbent is always the row's exact runtime, and with one
 * qubit per node the occupants do not depend on the key order, so the
 * rest of the climb is fixed by the state: a state an earlier start
 * passed through ends on that start's final row and cost, and the climb
 * stops there.  A new state is stored with `start` as its owner.
 *
 * *base_runtime holds the base runtime (and first incumbent) on entry and
 * the base runtime on return; counts gains the re-basing full
 * evaluations, then score_move's three counts.  Returns 0 with the final
 * cost in *cost_out, 1 with the earlier start in *owner_out, or -1 when
 * the memo cannot grow. */
static int climb(
    repro_replay_ctx *ctx,
    climb_memo *memo,
    int64_t start,
    const int32_t *keys,
    const int32_t *movable,
    int64_t num_movable,
    const int32_t *allowed,
    int64_t num_allowed,
    int64_t max_rounds,
    double *base_runtime,
    double *cost_out,
    int64_t *owner_out,
    int64_t *counts)
{
    int32_t *base = ctx->base_nodes;
    int32_t *occupant = ctx->occupant;
    double cost = *base_runtime;
    uint64_t hash = row_hash(base, ctx->num_qubits);
    int64_t row = -1; /* the row's offset in the memo, once stored */
    int64_t round, m, n;
    for (round = 0; round < max_rounds; round++) {
        int improved = 0;
        for (m = 0; m < num_movable; m++) {
            int32_t qubit = movable[m];
            int32_t current = base[qubit];
            int injective = 1;
            for (n = 0; n < ctx->num_env_nodes; n++) {
                occupant[n] = -1;
            }
            for (n = 0; n < ctx->num_qubits; n++) {
                int32_t *on_node = occupant + base[keys[n]];
                injective &= *on_node < 0;
                *on_node = keys[n];
            }
            if (injective) {
                int64_t step = 2 * m + improved;
                uint64_t key = key_hash(hash, round, step);
                memo_slot *slot = memo_probe(memo, key, round, step, base);
                if (slot->hash != 0) {
                    *owner_out = slot->owner;
                    return 1;
                }
                if (row < 0 && (row = memo_store_row(memo, base)) < 0) {
                    return -1;
                }
                if (memo_insert(memo, slot, key, round, step, row, start) < 0) {
                    return -1;
                }
            }
            for (n = 0; n < num_allowed; n++) {
                int32_t node = allowed[n];
                int32_t other;
                double candidate;
                if (node == current) {
                    continue;
                }
                other = occupant[node];
                candidate = score_move(ctx, qubit, node, other, current,
                                       *base_runtime, cost, counts + 1);
                if (candidate < cost) {
                    base[qubit] = node;
                    if (other >= 0) {
                        base[other] = current;
                    }
                    *base_runtime = repro_ctx_full(ctx, 1);
                    cost = candidate;
                    counts[0]++;
                    improved = 1;
                    hash = row_hash(base, ctx->num_qubits);
                    row = -1;
                    break;
                }
            }
        }
        if (!improved) {
            break;
        }
    }
    *cost_out = cost;
    return 0;
}

/* Climb a block of start placements in one call, with one merge memo.
 * Row r of `nodes` (num_qubits entries) holds start r's node index per
 * evaluator qubit, and row r of `keys` that start's qubit indices in
 * placement-key order.  Each row is copied into base_nodes, re-based
 * through repro_ctx_full(ctx, 1) (the first incumbent) and climbed as
 * above.  The final nodes overwrite the row and the final cost lands in
 * costs_out[r]; a merged start takes its earlier start's.  repeats_out[r]
 * is 1 when the final row equals an earlier start's final row, else 0.
 * counts_out[4] receives the four counts summed over all rows.  ctx is
 * left on the last row's final base (re-based once more when the last
 * start merged before reaching it), whose runtime lands in
 * *base_runtime_out (0.0 when num_starts is 0).  Returns 0, or -1 when
 * the memo cannot be allocated (the rows are then partly climbed). */
int32_t repro_hill_climb(
    repro_replay_ctx *ctx,
    int64_t num_starts,
    int32_t *nodes,
    const int32_t *keys,
    const int32_t *movable,
    int64_t num_movable,
    const int32_t *allowed,
    int64_t num_allowed,
    int64_t max_rounds,
    double *costs_out,
    int8_t *repeats_out,
    double *base_runtime_out,
    int64_t *counts_out)
{
    size_t row_bytes = (size_t)ctx->num_qubits * sizeof(int32_t);
    double base_runtime = 0.0;
    climb_memo memo;
    int64_t r;
    for (r = 0; r < 4; r++) {
        counts_out[r] = 0;
    }
    if (memo_init(&memo, ctx->num_qubits) < 0) {
        memo_free(&memo);
        return -1;
    }
    for (r = 0; r < num_starts; r++) {
        int32_t *row = nodes + r * ctx->num_qubits;
        int64_t owner = -1;
        int status;
        memcpy(ctx->base_nodes, row, row_bytes);
        base_runtime = repro_ctx_full(ctx, 1);
        counts_out[0]++;
        status = climb(
            ctx, &memo, r, keys + r * ctx->num_qubits, movable, num_movable,
            allowed, num_allowed, max_rounds, &base_runtime, costs_out + r,
            &owner, counts_out);
        if (status < 0) {
            memo_free(&memo);
            return -1;
        }
        if (status == 1) {
            memcpy(row, nodes + owner * ctx->num_qubits, row_bytes);
            costs_out[r] = costs_out[owner];
            repeats_out[r] = 1;
            if (r == num_starts - 1 &&
                memcmp(ctx->base_nodes, row, row_bytes) != 0) {
                memcpy(ctx->base_nodes, row, row_bytes);
                base_runtime = repro_ctx_full(ctx, 1);
                counts_out[0]++;
            }
        } else {
            uint64_t key;
            memo_slot *slot;
            int64_t stored;
            memcpy(row, ctx->base_nodes, row_bytes);
            key = key_hash(row_hash(row, ctx->num_qubits), -1, -1);
            slot = memo_probe(&memo, key, -1, -1, row);
            repeats_out[r] = slot->hash != 0;
            if (slot->hash == 0 &&
                ((stored = memo_store_row(&memo, row)) < 0 ||
                 memo_insert(&memo, slot, key, -1, -1, stored, r) < 0)) {
                memo_free(&memo);
                return -1;
            }
        }
    }
    memo_free(&memo);
    *base_runtime_out = base_runtime;
    return 0;
}

/* Bit-exact mirror of CPython's random.Random (Modules/_randommodule.c):
 * the MT19937 generator over `mt`, 624 state words followed by the
 * position, exactly the integer tuple of Random.getstate()[1], so the
 * caller hands the state over with getstate() and takes it back with
 * setstate(). */
#define MT_N 624
#define MT_M 397

static uint32_t mt_next(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (mt[MT_N] >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* Random.randrange(n) for 0 < n < 2**31, i.e.
 * _randbelow_with_getrandbits(n): getrandbits(k) with k = n.bit_length()
 * (one word shifted right, k <= 32), redrawn while it is >= n. */
static int64_t mt_below(uint32_t *mt, int64_t n)
{
    int k = 0;
    uint32_t r;
    while ((n >> k) != 0) {
        k++;
    }
    do {
        r = mt_next(mt) >> (32 - k);
    } while ((int64_t)r >= n);
    return (int64_t)r;
}

/* Random.random(): 53 random bits from two words, as CPython builds it. */
static double mt_random(uint32_t *mt)
{
    uint32_t a = mt_next(mt) >> 5;
    uint32_t b = mt_next(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Word w of a little-endian bit row (bit j of the row is bit j % 64 of
 * word j / 64), read bytewise so the row layout is the same on any host. */
static uint64_t row_word(const uint8_t *row, int64_t w)
{
    const uint8_t *p = row + 8 * w;
    return (uint64_t)p[0] | (uint64_t)p[1] << 8 | (uint64_t)p[2] << 16 |
           (uint64_t)p[3] << 24 | (uint64_t)p[4] << 32 |
           (uint64_t)p[5] << 40 | (uint64_t)p[6] << 48 |
           (uint64_t)p[7] << 56;
}

static int64_t popcount64(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (int64_t)((x * 0x0101010101010101ULL) >> 56);
}

/* The number of set bits of a row of `words` words. */
static int64_t row_count(const uint8_t *row, int64_t words)
{
    int64_t w, count = 0;
    for (w = 0; w < words; w++) {
        uint64_t word = row_word(row, w);
        if (word) {
            count += popcount64(word);
        }
    }
    return count;
}

/* The position of the set bit of rank `k` (0 = lowest) in a row that has
 * more than k set bits. */
static int64_t row_select(const uint8_t *row, int64_t k)
{
    int64_t w = 0, bit = 0;
    uint64_t word;
    for (;; w++) {
        int64_t count;
        word = row_word(row, w);
        if (!word) {
            continue;
        }
        count = popcount64(word);
        if (k < count) {
            break;
        }
        k -= count;
    }
    while (k--) {
        word &= word - 1;
    }
    while (!(word & 1)) {
        word >>= 1;
        bit++;
    }
    return 64 * w + bit;
}

/* One restart of repro.core.placers.anneal.anneal_loop, the reference it
 * mirrors draw for draw and operation for operation.
 *
 * `nodes` holds the start row (num_qubits distinct node indices) on entry
 * and the best-ever row on return.  The start is recorded as the base
 * (repro_ctx_full(ctx, 1)), seeds the node -> qubit table (ctx->occupant,
 * -1 on a free node) and `start_cost` is the first incumbent.
 * Every iteration draws, from the generator `mt`:
 *   - movable position m = randrange(num_movable);
 *   - when that qubit has partners (partner_start[m]..partner_start[m+1]
 *     in `partners`), random() < local_fraction picks a local move: a
 *     partner by randrange, then, when the partner's node has host
 *     neighbours, one of them by randrange, in node order -- `rows` holds
 *     one bit row of `row_words` words per host node in node order,
 *     `canon_node` maps node order to node indices (num_canon entries),
 *     and node_canon (num_env_nodes entries of scratch) is filled here
 *     with the inverse;
 *   - otherwise the target is allowed[randrange(num_allowed)].
 * A target equal to the qubit's node is rejected unscored.  Otherwise
 * the move (a swap when the target is taken) is scored by score_move with
 * cutoff cost + limit_temperatures * T and accepted when it costs at most
 * the current cost, or, when finite, with the Metropolis probability
 * random() < exp(-(value - cost) / T).  An accepted move re-bases, and
 * replaces the best row when strictly cheaper.  T starts at t0 and is
 * multiplied by alpha after every iteration.  counts_out[6] receives the
 * accepted and rejected moves, the scored moves, then score_move's three
 * counts; *base_runtime_out the final base's runtime.  Returns the best
 * cost. */
double repro_anneal(
    repro_replay_ctx *ctx,
    uint32_t *mt,
    int32_t *nodes,
    const int32_t *movable,
    int64_t num_movable,
    const int64_t *partner_start,
    const int32_t *partners,
    const uint8_t *rows,
    int64_t row_words,
    const int32_t *canon_node,
    int64_t num_canon,
    int32_t *node_canon,
    const int32_t *allowed,
    int64_t num_allowed,
    int64_t iterations,
    double start_cost,
    double t0,
    double alpha,
    double local_fraction,
    double limit_temperatures,
    double *base_runtime_out,
    int64_t *counts_out)
{
    int32_t *base = ctx->base_nodes;
    int32_t *occupant = ctx->occupant;
    size_t row_bytes = (size_t)ctx->num_qubits * sizeof(int32_t);
    double cost = start_cost, best_cost = start_cost, temperature = t0;
    double base_runtime;
    int64_t step, n;
    for (n = 0; n < 6; n++) {
        counts_out[n] = 0;
    }
    for (n = 0; n < ctx->num_env_nodes; n++) {
        node_canon[n] = -1;
        occupant[n] = -1;
    }
    for (n = 0; n < num_canon; n++) {
        node_canon[canon_node[n]] = (int32_t)n;
    }
    memcpy(base, nodes, row_bytes);
    for (n = 0; n < ctx->num_qubits; n++) {
        occupant[base[n]] = (int32_t)n;
    }
    base_runtime = repro_ctx_full(ctx, 1);
    for (step = 0; step < iterations; step++) {
        int64_t m = mt_below(mt, num_movable);
        int32_t qubit = movable[m];
        int32_t current = base[qubit];
        int64_t first_partner = partner_start[m];
        int64_t num_partners = partner_start[m + 1] - first_partner;
        int32_t target = -1;
        int32_t other;
        double value;
        int accept;
        if (num_partners > 0 && mt_random(mt) < local_fraction) {
            int32_t anchor =
                base[partners[first_partner + mt_below(mt, num_partners)]];
            const uint8_t *row =
                rows + (int64_t)node_canon[anchor] * row_words * 8;
            int64_t degree = row_count(row, row_words);
            if (degree > 0) {
                target = canon_node[row_select(row, mt_below(mt, degree))];
            }
        }
        if (target < 0) {
            target = allowed[mt_below(mt, num_allowed)];
        }
        if (target == current) {
            counts_out[1]++;
            temperature *= alpha;
            continue;
        }
        other = occupant[target];
        counts_out[2]++;
        value = score_move(ctx, qubit, target, other, current, base_runtime,
                           cost + limit_temperatures * temperature,
                           counts_out + 3);
        accept = value <= cost;
        if (!accept && isfinite(value)) {
            accept = mt_random(mt) < exp(-(value - cost) / temperature);
        }
        if (accept) {
            base[qubit] = target;
            occupant[target] = qubit;
            if (other >= 0) {
                base[other] = current;
            }
            occupant[current] = other;
            cost = value;
            base_runtime = repro_ctx_full(ctx, 1);
            if (value < best_cost) {
                memcpy(nodes, base, row_bytes);
                best_cost = value;
            }
            counts_out[0]++;
        } else {
            counts_out[1]++;
        }
        temperature *= alpha;
    }
    *base_runtime_out = base_runtime;
    return best_cost;
}
