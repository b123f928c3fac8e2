#ifndef DQR_CORE_OPTIONS_H_
#define DQR_CORE_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/solution.h"
#include "cp/search.h"

namespace dqr::exec {
class TimerWheel;
class WorkerPool;
}  // namespace dqr::exec

namespace dqr::obs {
class Profile;
class Trace;
}  // namespace dqr::obs

namespace dqr::core {

class PenaltyModel;
class RankModel;
struct FaultPlan;

// What the engine does when the query yields more than k results (§3.2).
enum class ConstrainMode {
  // No constraining: every exact result is returned (the manual "Off"
  // baseline of Table 4).
  kNone,
  // Scalar ranking: top-k by RK(r) with the dynamic BRK >= MRK constraint.
  kRank,
  // Vector domination: the skyline of non-dominated results (may exceed k).
  kSkyline,
};

// Replay scheduling for recorded fails.
enum class ReplayOrder {
  // Priority queue on BRP — the paper's utility-based approach.
  kBestFirst,
  // Encounter order — the "search through the fail" ablation of §5.3,
  // shown there to be up to orders of magnitude slower.
  kFifo,
};

// Ordering of the Solver -> Validator candidate queue.
enum class ValidatorQueueOrder {
  kFifo,
  // Priority on BRP (§4.2): more promising candidates validate first,
  // shrinking MRP faster and improving Solver-side pruning.
  kBrpPriority,
};

// Strategy for computing constraint-function estimates when a fail is
// recorded (§4.2 "Computing functions at fails").
enum class FailEvalMode {
  // Evaluate every C^r function at the failed node immediately.
  kFull,
  // Record only what the search already computed; missing estimates are
  // derived lazily if/when the fail is replayed.
  kLazy,
};

// One incremental progress notification, streamed while a query runs
// (the serve front end's PHASE / BOUND frames ride on these).
enum class ProgressKind {
  // The collecting -> constraining flip (§3.2). Emitted at most once.
  kPhaseConstraining,
  // MRP tightened: `value` is the new bound (monotone non-increasing).
  kMrp,
  // MRK tightened: `value` is the new bound (monotone non-decreasing).
  kMrk,
};

struct ProgressEvent {
  ProgressKind kind = ProgressKind::kMrp;
  double value = 0.0;  // the new bound; unused for the phase flip
};

// All knobs of the dynamic refinement framework. The defaults mirror the
// paper's defaults (alpha = 0.5, RRD = 1.0 i.e. no partial relaxation,
// lazy fail evaluation, UDF state saving on, BRP-sorted validator queue).
// The knobs settable from a QUERY frame or a fuzz config have their key
// and domain in one table, DQR_ENGINE_KNOBS (core/knobs.h).
struct RefineOptions {
  // Master switch; false reproduces plain Searchlight (the manual
  // baseline): no fail tracking, no dynamic constraints, all exact
  // results returned.
  bool enable = true;

  // --- relaxation (§3.1, §4.1) ---
  // Weight of the relaxation distance vs the violated-constraint count in
  // RP(r) = alpha * RD(r) + (1 - alpha) * VC(r); in [0, 1].
  double alpha = 0.5;
  // Replay Relaxation Distance (§4.2): fraction of the allowed relaxation
  // interval actually applied when replaying a fail; in (0, 1].
  double replay_relaxation_distance = 1.0;
  FailEvalMode fail_eval = FailEvalMode::kLazy;
  // Save/restore function states (memoized bounds) at fails (§4.2).
  bool save_function_state = true;
  // Run speculative relaxation solvers while the main search is still in
  // progress and the validators are idle (§4.2).
  bool speculative = false;
  ReplayOrder replay_order = ReplayOrder::kBestFirst;
  // Memory guard: the registry holds at most this many fails; once it is
  // full every newly recorded fail is dropped, whatever its BRP. If a
  // dropped fail's BRP is within the final MRP it may have held a better
  // relaxation, so the run reports completed = false.
  int64_t max_recorded_fails = 1 << 20;

  // --- constraining (§3.2, §4.3) ---
  ConstrainMode constrain = ConstrainMode::kRank;

  // --- diversity (§3.3's "dynamic functions" extension, future work in
  //     the paper; implemented here as greedy result spacing) ---
  // When non-empty (one entry per decision variable), the final top-k is
  // additionally forced apart: two results conflict when
  // |p_i - q_i| < result_spacing[i] holds for *every* variable i, and
  // conflicting worse results are skipped greedily in quality order.
  // Avoids the "many overlapping intervals" outcome of Figure 1. A
  // spacing of 0 on a variable makes that coordinate never conflict
  // (effectively ignoring the whole spacing box through that variable);
  // use a large value to ignore a coordinate instead.
  // Applies to relaxation top-k and rank top-k (not skyline / plain
  // output). Selection is made from an oversampled pool of
  // diversity_pool_factor * k tracked results, so the filter is
  // best-effort: raise the factor for stronger separation. The factor
  // lies in [1, 2^20], and the pool of factor * k must fit in int64.
  std::vector<int64_t> result_spacing;
  int64_t diversity_pool_factor = 8;

  // --- customization (§3.3) ---
  // User-supplied penalty/ranking models; null means "build the paper's
  // defaults from the query". A custom model must be a PenaltyModel /
  // RankModel subclass covering exactly the query's constraints (see the
  // contract in penalty.h / rank.h) and must outlive the query execution.
  const PenaltyModel* custom_penalty = nullptr;
  const RankModel* custom_rank = nullptr;

  // --- warm start (cross-query semantic cache, DESIGN.md §9) ---
  // Known solutions of this very query: each point must lie inside the
  // query's domains and carry the exact function values at that point, in
  // constraint order (e.g. cached results of an overlapping query over
  // the same data). Before any search runs they are re-scored under this
  // query's penalty and rank models (their rp/rk fields are ignored) and
  // offered to the result tracker exactly as a validator would, so MRP,
  // MRK and the phase flip start where a schedule that validated them
  // first would put them, and results stay byte-identical to a cold run.
  std::vector<Solution> warm_results;

  // --- search heuristics ---
  // The Solver's decision process, tunable as in Searchlight. Heuristics
  // change the exploration order (and thus intermediate latencies), never
  // the final result set.
  cp::VarSelect var_select = cp::VarSelect::kWidestDomain;
  cp::ValueSplit value_split = cp::ValueSplit::kBisectLowFirst;

  // --- online answering ---
  // Invoked the moment a Validator confirms a result (an exact match, or
  // a relaxed result entering the current best-k) — Searchlight's online
  // output model: confirmed solutions stream to the user immediately.
  // Relaxed results streamed early may be superseded in the final top-k.
  // Called from validator threads concurrently; must be thread-safe and
  // cheap (it runs on the validation path). May be null.
  std::function<void(const Solution&)> on_result;
  // Invoked on strict MRP/MRK improvements and on the phase flip, after
  // the corresponding broadcast publish. Emissions are serialized and
  // per-kind monotone (an improvement superseded before its emission is
  // skipped, never delivered out of order). Called from validator
  // threads under a small coordinator mutex; must be thread-safe and
  // cheap. May be null. Progress streaming never changes query results.
  std::function<void(const ProgressEvent&)> on_progress;

  // --- engine / cluster ---
  // Simulated Searchlight instances, 1 to 64; the search space is
  // partitioned on variable 0 and each instance runs its own solver +
  // validator loops.
  int num_instances = 1;
  // Morsel-style work stealing: variable 0 is split into roughly
  // shards_per_instance * num_instances contiguous shards pushed into a
  // shared pool; instances pull shards until the pool drains, so a skewed
  // region no longer pins one instance while the others idle. 1 reproduces
  // the legacy static 1-slice-per-instance partitioning (the back-compat
  // escape hatch). The final result set is invariant under the shard count
  // — MRP/MRK monotonicity makes pruning scheduler-independent (see
  // DESIGN.md §3).
  int shards_per_instance = 8;
  ValidatorQueueOrder validator_queue = ValidatorQueueOrder::kBrpPriority;
  // Simulated broadcast latency for MRP/MRK updates between instances, in
  // microseconds, at most 10^6; 0 = immediate (single-node behaviour).
  int64_t broadcast_delay_us = 0;
  // Wall-clock budget in seconds; 0 = unlimited. When exceeded the query
  // is cancelled and the partial result returned with completed = false
  // (used for the USER-MAX ">1h" rows).
  double time_budget_s = 0.0;

  // --- failure model (see DESIGN.md §7) ---
  // Deterministic fault schedule (crash/stall/slow events keyed by
  // instance id and per-site event index); null = no injection. The plan
  // must outlive the query. Any crash event implies the failure detector.
  const FaultPlan* fault_plan = nullptr;
  // Run the heartbeat/lease failure detector even without a fault plan
  // (production posture; the zero-fault overhead is what
  // bench_fault_recovery measures). Off by default: a single-process
  // simulation cannot lose an instance unless faults are injected.
  bool enable_failure_detector = false;
  // Heartbeat cadence of the query slot's beat timer (also the failure
  // detector's sweep interval). The default gives ~10 missed beats before
  // the lease expires while keeping the beat timer's wakeups rare enough
  // to stay under the < 2% zero-fault overhead budget even on a single
  // hardware thread (see bench_fault_recovery).
  int64_t heartbeat_interval_us = 25000;
  // An instance whose last heartbeat is older than this is declared dead
  // and recovered (shard requeue, replay reclaim, candidate
  // revalidation). Must comfortably exceed the heartbeat interval; the
  // default tolerates heavy scheduler noise (sanitizer runs).
  int64_t lease_timeout_us = 250000;

  // --- reentrant execution (DESIGN.md §10) ---
  // The persistent worker pool the instance loops (solver / validator /
  // speculative) are dispatched onto as tasks. Null (the default) uses
  // the process-shared pool, exec::WorkerPool::Shared(). The final
  // result set is schedule-invariant (DESIGN.md §3), so the choice of
  // pool never changes the answer. The pool must outlive the query.
  exec::WorkerPool* worker_pool = nullptr;
  // Timer wheel hosting the query's periodic work: one heartbeat timer
  // per query slot, the failure-detector sweeps and the time-budget
  // watchdog. Null (the default) uses the process-shared wheel,
  // exec::TimerWheel::Shared().
  exec::TimerWheel* timer_wheel = nullptr;

  // --- observability (DESIGN.md §8) ---
  // Flight-recorder sink. Null (the default) disables tracing entirely —
  // every hook reduces to one predicted branch. When set, each engine
  // thread records spans/instants/counters into its own ring inside this
  // Trace; export with obs::WriteChromeTrace. The Trace must outlive the
  // query and may be shared across queries (each gets its own process
  // group in the export). Tracing never changes query results.
  obs::Trace* trace = nullptr;
  // Per-thread ring capacity in events (rounded up to a power of two).
  // On overflow the *oldest* events are overwritten, preserving the
  // newest trace_buffer_events per thread.
  int64_t trace_buffer_events = 1 << 16;
  // Per-query profiler sink. Null (the default) disables profiling: the
  // latency/accuracy hooks reduce to one predicted branch each, exactly
  // like tracing. When set, ExecuteQuery assembles a hierarchical
  // QueryProfile after the run — from `trace` if one was supplied, else
  // from the profile's own internal Trace — and the validator records
  // estimator-accuracy samples. Profiling never changes query results
  // (enforced by the fuzz `profile` dimension).
  obs::Profile* profile = nullptr;
};

}  // namespace dqr::core

#endif  // DQR_CORE_OPTIONS_H_
