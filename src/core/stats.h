#ifndef DQR_CORE_STATS_H_
#define DQR_CORE_STATS_H_

#include <algorithm>
#include <cstdint>

#include "cp/search.h"
#include "obs/histogram.h"

namespace dqr::core {

// The RunStats field table. One X-macro drives the struct definition,
// the cross-instance merge (operator+=), and the Prometheus exporter
// (obs/metrics.cc) — adding a field here gets all three at once, so a
// field can never again be declared but silently dropped by the merge
// (the fate of mrp_updates/mrk_updates under the old hand-written +=).
//
//   X(type, name, init, AGG, "help")
//
// AGG is how operator+= folds the field across instances:
//   SUM   - additive counter
//   MAX   - high-water mark; the cluster is as bad as its worst member
//   AND   - boolean conjunction (completed)
//   QUERY - cluster-level fact assigned once by ExecuteQuery after the
//           merge (wall-clock times); += leaves it untouched
//   SUB   - nested cp::SearchStats, merged with its own +=
//   HIST  - mergeable obs value type (LatencyHistogram /
//           EstimatorAccuracy), merged with its own += (exact: buckets
//           align by construction)
//
// Semantics worth keeping in mind (formerly inline comments):
//  * first_result_s: seconds until a Validator confirmed the first result
//    (exact, or relaxed during relaxation); negative if none.
//  * main_search_s: seconds until every instance finished its main
//    (non-relaxed) search and drained its validator.
//  * main_busy_s: solver time actually spent searching shards (not
//    waiting at the barrier); the min/max spread across per_instance
//    entries is the work-stealing balance metric.
//  * peak_fail_bytes/count and peak_queue are *summed*: across instances
//    that is a cluster-wide footprint upper bound (each component may
//    peak at a different moment), NOT a high-water mark any single
//    component reached. The max_peak_* twins give the worst single
//    component. For the shared fail pool both views coincide and are set
//    once from the pool by ExecuteQuery.
//  * instances_lost / shards_requeued / replays_reclaimed /
//    candidates_revalidated are the failure-recovery audit counters; all
//    zero on a fault-free run.
//  * estimator_cache_*: behaviour of the bounds memos (BoundsCache) of
//    this thread's bundles — one memo per synopsis, shared by every
//    function reading it and counted once: hit/miss mix of synopsis
//    lookups, Insert-path evictions, and cold entries displaced so
//    restored fail-state snapshots always land (§4.2).
#define DQR_RUN_STATS_FIELDS(X)                                              \
  X(double, total_s, 0.0, QUERY,                                             \
    "Wall-clock seconds for the whole query")                                \
  X(double, first_result_s, -1.0, QUERY,                                     \
    "Seconds until the first confirmed result; negative if none")            \
  X(double, main_search_s, 0.0, QUERY,                                       \
    "Seconds until the main (non-relaxed) search drained everywhere")        \
  X(double, main_busy_s, 0.0, MAX,                                           \
    "Busiest instance's solver seconds spent searching shards")              \
  X(cp::SearchStats, main_search, {}, SUB,                                   \
    "Main-search tree statistics")                                           \
  X(cp::SearchStats, replay_search, {}, SUB,                                 \
    "Replay-search tree statistics")                                         \
  X(int64_t, shards_executed, 0, SUM,                                        \
    "Shards pulled from the shared pool during main search")                 \
  X(int64_t, replays_stolen, 0, SUM,                                         \
    "Replays of fails recorded by a different instance")                     \
  X(int64_t, fails_recorded, 0, SUM, "Fails recorded into the registry")     \
  X(int64_t, fails_discarded_at_record, 0, SUM,                              \
    "Fails rejected at record time (BRP already above MRP)")                 \
  X(int64_t, fails_discarded_at_pop, 0, SUM,                                 \
    "Fails rejected when popped (MRP improved meanwhile)")                   \
  X(int64_t, fails_dropped_full, 0, SUM,                                     \
    "Fails evicted by the max_recorded_fails cap")                           \
  X(int64_t, replays, 0, SUM, "Fail replays executed")                       \
  X(int64_t, replays_discarded, 0, SUM,                                      \
    "Replays popped but hopeless after re-check")                            \
  X(int64_t, speculative_replays, 0, SUM,                                    \
    "Replays run by the speculative solver")                                 \
  X(int64_t, peak_fail_bytes, 0, SUM,                                        \
    "Summed per-component peak bytes of recorded fail state")                \
  X(int64_t, peak_fail_count, 0, SUM,                                        \
    "Summed per-component peak recorded-fail count")                         \
  X(int64_t, max_peak_fail_bytes, 0, MAX,                                    \
    "Worst single component's peak bytes of recorded fail state")            \
  X(int64_t, max_peak_fail_count, 0, MAX,                                    \
    "Worst single component's peak recorded-fail count")                     \
  X(int64_t, candidates, 0, SUM, "Candidates emitted by solvers")            \
  X(int64_t, validated, 0, SUM, "Candidates exactly evaluated")              \
  X(int64_t, validate_batches, 0, SUM,                                       \
    "Multi-candidate exact-evaluation batches executed")                     \
  X(int64_t, validate_batched_candidates, 0, SUM,                            \
    "Candidates evaluated inside a multi-candidate batch")                   \
  X(int64_t, dropped_precheck, 0, SUM,                                       \
    "Candidates dropped by the pre-validation check")                        \
  X(int64_t, false_positives, 0, SUM,                                        \
    "Validated candidates whose exact penalty was nonzero")                  \
  X(int64_t, exact_results, 0, SUM, "Exact results confirmed")               \
  X(int64_t, relaxed_accepted, 0, SUM,                                       \
    "Relaxed results accepted into the tracked set")                         \
  X(int64_t, duplicates, 0, SUM, "Duplicate results rejected")               \
  X(int64_t, peak_queue, 0, SUM,                                             \
    "Summed per-validator peak queue depth")                                 \
  X(int64_t, max_peak_queue, 0, MAX, "Deepest single validator queue")       \
  X(int64_t, instances_lost, 0, SUM,                                         \
    "Instances declared dead by the lease-timeout detector")                 \
  X(int64_t, shards_requeued, 0, SUM,                                        \
    "In-flight shards of dead instances returned to the pool")               \
  X(int64_t, replays_reclaimed, 0, SUM,                                      \
    "Leased replay fails of dead instances reclaimed")                       \
  X(int64_t, candidates_revalidated, 0, SUM,                                 \
    "Orphaned candidates re-validated by a survivor")                        \
  X(int64_t, estimator_cache_hits, 0, SUM,                                   \
    "BoundsCache hits, one memo per solver and synopsis")                    \
  X(int64_t, estimator_cache_misses, 0, SUM,                                 \
    "BoundsCache misses: bounds derived, once per memo")                     \
  X(int64_t, estimator_cache_evictions, 0, SUM,                              \
    "BoundsCache Insert-path evictions")                                     \
  X(int64_t, estimator_cache_restore_evictions, 0, SUM,                      \
    "BoundsCache evictions forced by fail-state Restore")                    \
  X(int64_t, mrp_updates, 0, SUM, "MRP tightenings broadcast")               \
  X(int64_t, mrk_updates, 0, SUM, "MRK tightenings broadcast")               \
  X(int64_t, shared_memo_hits, 0, SUM,                                       \
    "Cross-query shared bounds-memo hits (L2 behind BoundsCache)")           \
  X(int64_t, shared_memo_misses, 0, SUM,                                     \
    "Cross-query shared bounds-memo misses")                                 \
  X(int64_t, shared_memo_evictions, 0, SUM,                                  \
    "Cross-query shared bounds-memo evictions")                              \
  X(int64_t, answer_cache_exact_hits, 0, SUM,                                \
    "Queries answered from the semantic cache by exact fingerprint match")   \
  X(int64_t, answer_cache_subsumption_hits, 0, SUM,                          \
    "Queries answered by subsumption from a looser cached answer")           \
  X(int64_t, answer_cache_warm_starts, 0, SUM,                               \
    "Queries executed with cached solutions seeding the result tracker")     \
  X(int64_t, pool_tasks, 0, SUM,                                             \
    "Engine loops dispatched onto the shared worker pool")                   \
  X(int64_t, pool_spawn_avoided, 0, SUM,                                     \
    "Pool dispatches served by an already-warm worker (no thread spawn)")    \
  X(int64_t, pool_overflow_spawns, 0, SUM,                                   \
    "Pool dispatches that fell back to a transient overflow thread")         \
  X(double, admission_wait_s, 0.0, QUERY,                                    \
    "Seconds the query waited for admission to the engine session")          \
  X(obs::LatencyHistogram, query_latency, {}, HIST,                          \
    "End-to-end query latency (ns)")                                         \
  X(obs::LatencyHistogram, bound_latency, {}, HIST,                          \
    "Uncached synopsis bounds-query latency (ns); profiled runs only")       \
  X(obs::LatencyHistogram, steal_latency, {}, HIST,                          \
    "Gap between finishing one shard and stealing the next (ns); "           \
    "profiled runs only")                                                    \
  X(obs::LatencyHistogram, admission_wait, {}, HIST,                         \
    "Admission-gate wait latency (ns)")                                      \
  X(obs::EstimatorAccuracy, estimator_accuracy, {}, HIST,                    \
    "Predicted-vs-actual bound tightness per synopsis level; "               \
    "profiled runs only")                                                    \
  X(bool, completed, true, AND,                                              \
    "False iff the run was cancelled or the fail cap dropped a fail "       \
    "within the final MRP")

// Per-field merge operations, selected by the AGG tag.
#define DQR_STATS_AGG_SUM(name) name += o.name;
#define DQR_STATS_AGG_MAX(name) name = std::max(name, o.name);
#define DQR_STATS_AGG_AND(name) name = name && o.name;
#define DQR_STATS_AGG_QUERY(name) /* assigned once by ExecuteQuery */
#define DQR_STATS_AGG_SUB(name) name += o.name;
#define DQR_STATS_AGG_HIST(name) name += o.name;

// Execution statistics of one refined query, aggregated over all
// instances. Times are wall-clock seconds.
struct RunStats {
#define DQR_STATS_DECLARE(type, name, init, agg, help) type name = init;
  DQR_RUN_STATS_FIELDS(DQR_STATS_DECLARE)
#undef DQR_STATS_DECLARE

  RunStats& operator+=(const RunStats& o) {
#define DQR_STATS_MERGE(type, name, init, agg, help) DQR_STATS_AGG_##agg(name)
    DQR_RUN_STATS_FIELDS(DQR_STATS_MERGE)
#undef DQR_STATS_MERGE
    return *this;
  }
};

}  // namespace dqr::core

#endif  // DQR_CORE_STATS_H_
