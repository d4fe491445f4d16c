/* Native kernel for the scheduler's busy-time recurrence.
 *
 * Compiled on demand by repro/timing/_native.py (cc -O2 -fPIC -shared
 * -ffp-contract=off) and loaded via ctypes as the "native" entry of
 * SCHEDULER_BACKENDS.  The contract is *bit-identical* results with the
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
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* A single op: endpoints a/b (qubit indices; b < 0 marks a single-qubit
 * op) and the relative duration.  Delays are looked up per evaluation in
 * `single` (per node) or the dense `pair` matrix (num_env_nodes ^ 2,
 * row-major), exactly like the Python reference loop. */

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
 * Returns the circuit runtime. */
double repro_replay_full(
    int64_t num_ops,
    const int32_t *ops_a,
    const int32_t *ops_b,
    const double *relative,
    const int32_t *nodes,
    const double *single,
    const double *pair,
    int64_t num_env_nodes,
    int64_t num_qubits,
    int64_t interval,
    double *durations_out,
    double *checkpoints_out,
    double *times)
{
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
            duration =
                pair[(int64_t)nodes[a] * num_env_nodes + nodes[b]] * relative[i];
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
 * Returns the runtime, or +inf on cutoff. */
double repro_replay_tail(
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
    const double *pair,
    int64_t num_env_nodes,
    int64_t num_qubits,
    const double *checkpoint_row,
    double cutoff,
    int32_t has_cutoff,
    double *times,
    int64_t *stop_index_out)
{
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
                duration =
                    pair[(int64_t)node_a * num_env_nodes + node_b] * relative[i];
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
 * scalars.  They delegate to the reference entry points, so the float
 * semantics are identical by construction.  first_touch[q] is the index
 * of the first op on qubit q (num_ops when none); occupant is scratch of
 * num_env_nodes entries used only by repro_hill_climb. */
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
    const double *pair;
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
 * eval_nodes with no recording (the plain run_full path). */
double repro_ctx_full(repro_replay_ctx *ctx, int32_t record)
{
    return repro_replay_full(
        ctx->num_ops, ctx->ops_a, ctx->ops_b, ctx->relative,
        record ? ctx->base_nodes : ctx->eval_nodes,
        ctx->single_delays, ctx->pair, ctx->num_env_nodes, ctx->num_qubits,
        ctx->interval,
        record ? ctx->base_durations : NULL,
        record ? ctx->checkpoints : NULL,
        ctx->times);
}

/* Incremental tail replay through the context; the checkpoint row is
 * derived from `start` here instead of being passed as a pointer.  The
 * stop index lands in ctx->stop_index. */
double repro_ctx_tail(repro_replay_ctx *ctx, int64_t start, double cutoff,
                      int32_t has_cutoff)
{
    int64_t checkpoint = start / ctx->interval;
    const double *row =
        checkpoint < ctx->num_checkpoints
            ? ctx->checkpoints + checkpoint * ctx->num_qubits
            : NULL;
    return repro_replay_tail(
        start, ctx->num_ops, ctx->ops_a, ctx->ops_b, ctx->relative,
        ctx->base_durations, ctx->base_nodes, ctx->changed_flag,
        ctx->changed_target, ctx->single_delays, ctx->pair,
        ctx->num_env_nodes, ctx->num_qubits, row, cutoff, has_cutoff,
        ctx->times, &ctx->stop_index);
}

/* The whole first-improvement search of
 * repro.core.fine_tuning.hill_climb_incremental in one call, starting from
 * the base placement recorded by repro_ctx_full(ctx, 1).  Moves are
 * enumerated exactly as the Python loop does: movable qubits in order,
 * allowed nodes in order, the current node skipped, and a taken node
 * swapped with its occupant -- the last qubit in placement-key order
 * (`keys`) on that node, rebuilt per movable qubit like the Python
 * node-to-qubit dict.  A move costs the base runtime when no moved qubit
 * is ever scheduled, else repro_ctx_tail's replay with the incumbent as
 * cutoff.  A strictly cheaper move is written into base_nodes and
 * re-based through repro_ctx_full(ctx, 1), and its cost becomes the
 * incumbent.  The climb stops after a round without a change or after
 * max_rounds rounds.  *base_runtime holds the base runtime (and first
 * incumbent) on entry and the final base runtime on return; counts_out
 * receives accepted moves, incremental evaluations, ops skipped and ops
 * replayed, counted as RuntimeEvaluator.runtime_with counts them.
 * Returns the final incumbent cost. */
double repro_hill_climb(
    repro_replay_ctx *ctx,
    const int32_t *keys,
    int64_t num_keys,
    const int32_t *movable,
    int64_t num_movable,
    const int32_t *allowed,
    int64_t num_allowed,
    int64_t max_rounds,
    double *base_runtime,
    int64_t *counts_out)
{
    int32_t *base = ctx->base_nodes;
    int32_t *occupant = ctx->occupant;
    double cost = *base_runtime;
    int64_t accepted = 0, evals = 0, skipped = 0, replayed = 0;
    int64_t round, m, n;
    for (round = 0; round < max_rounds; round++) {
        int improved = 0;
        for (m = 0; m < num_movable; m++) {
            int32_t qubit = movable[m];
            int32_t current = base[qubit];
            for (n = 0; n < ctx->num_env_nodes; n++) {
                occupant[n] = -1;
            }
            for (n = 0; n < num_keys; n++) {
                occupant[base[keys[n]]] = keys[n];
            }
            for (n = 0; n < num_allowed; n++) {
                int32_t node = allowed[n];
                int32_t other;
                int64_t first;
                double candidate;
                if (node == current) {
                    continue;
                }
                other = occupant[node];
                first = ctx->first_touch[qubit];
                if (other >= 0 && ctx->first_touch[other] < first) {
                    first = ctx->first_touch[other];
                }
                if (first >= ctx->num_ops) {
                    candidate = *base_runtime;
                } else {
                    int64_t start = first / ctx->interval * ctx->interval;
                    evals++;
                    skipped += start;
                    replayed += ctx->num_ops - start;
                    ctx->changed_flag[qubit] = 1;
                    ctx->changed_target[qubit] = node;
                    if (other >= 0) {
                        ctx->changed_flag[other] = 1;
                        ctx->changed_target[other] = current;
                    }
                    candidate = repro_ctx_tail(ctx, start, cost, 1);
                    ctx->changed_flag[qubit] = 0;
                    if (other >= 0) {
                        ctx->changed_flag[other] = 0;
                    }
                    if (ctx->stop_index >= 0) {
                        replayed -= ctx->num_ops - 1 - ctx->stop_index;
                    }
                }
                if (candidate < cost) {
                    base[qubit] = node;
                    if (other >= 0) {
                        base[other] = current;
                    }
                    *base_runtime = repro_ctx_full(ctx, 1);
                    cost = candidate;
                    accepted++;
                    improved = 1;
                    break;
                }
            }
        }
        if (!improved) {
            break;
        }
    }
    counts_out[0] = accepted;
    counts_out[1] = evals;
    counts_out[2] = skipped;
    counts_out[3] = replayed;
    return cost;
}
