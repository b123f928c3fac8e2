#include "core/instance.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/bundle.h"
#include "exec/worker_pool.h"
#include "core/fail_registry.h"
#include "core/fault.h"
#include "cp/search.h"
#include "obs/trace.h"
#include "searchlight/candidate.h"
#include "searchlight/candidate_queue.h"

namespace dqr::core {
namespace {

using searchlight::Candidate;
using searchlight::CandidateQueue;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Idle back-off of the speculative solver while the validator is busy.
constexpr auto kSpeculationNap = std::chrono::microseconds(200);
// The Solver blocks once this many candidates wait for validation.
constexpr size_t kValidatorQueueCapacity = 1024;

// Folds a thread-local bundle's memo-cache counters into that thread's
// RunStats when the bundle's scope ends — including the early returns the
// fault-injection paths take.
class MemoStatsGuard {
 public:
  MemoStatsGuard(const ConstraintBundle* bundle, RunStats* stats)
      : bundle_(bundle), stats_(stats) {}
  MemoStatsGuard(const MemoStatsGuard&) = delete;
  MemoStatsGuard& operator=(const MemoStatsGuard&) = delete;
  ~MemoStatsGuard() {
    const cp::FunctionMemoStats m = bundle_->MemoStats();
    stats_->estimator_cache_hits += m.hits;
    stats_->estimator_cache_misses += m.misses;
    stats_->estimator_cache_evictions += m.evictions;
    stats_->estimator_cache_restore_evictions += m.restore_evictions;
    stats_->shared_memo_hits += m.shared_hits;
    stats_->shared_memo_misses += m.shared_misses;
    stats_->shared_memo_evictions += m.shared_evictions;
  }

 private:
  const ConstraintBundle* bundle_;
  RunStats* stats_;
};

}  // namespace

struct InstanceRunner::Impl {
  explicit Impl(InstanceConfig config)
      : cfg(std::move(config)),
        queue(cfg.options->validator_queue ==
                      ValidatorQueueOrder::kBrpPriority
                  ? CandidateQueue::Order::kPriority
                  : CandidateQueue::Order::kFifo,
              kValidatorQueueCapacity) {
    DQR_CHECK(cfg.query != nullptr && cfg.options != nullptr);
    DQR_CHECK(cfg.penalty != nullptr && cfg.rank != nullptr);
    DQR_CHECK(cfg.coordinator != nullptr && cfg.registry != nullptr);
    DQR_CHECK(cfg.pool != nullptr);
    for (const searchlight::QueryConstraint& qc : cfg.query->constraints) {
      relaxable.push_back(qc.relaxable ? 1 : 0);
    }
    all_known.assign(cfg.query->constraints.size(), 1);
  }

  // ------------------------------------------------------------------
  // Search listener shared by the main search and replays.

  class RefineListener : public cp::SearchListener {
   public:
    RefineListener(Impl* impl, ConstraintBundle* bundle, bool replay_mode,
                   RunStats* stats, obs::ThreadTracer tracer)
        : impl_(*impl),
          bundle_(*bundle),
          replay_mode_(replay_mode),
          stats_(*stats),
          tracer_(tracer) {}

    void OnFail(cp::FailInfo info) override {
      impl_.HandleFail(bundle_, std::move(info), tracer_);
    }

    bool OnNode(const cp::DomainBox& box,
                const std::vector<Interval>& estimates) override {
      (void)box;
      // Deliberately untraced: OnNode fires once per search node and
      // would swamp the ring with no analytical payoff.
      return impl_.CheckNode(estimates, replay_mode_);
    }

    void OnSolution(const std::vector<int64_t>& point,
                    const std::vector<Interval>& estimates) override {
      impl_.EmitCandidate(point, estimates, stats_, tracer_);
    }

   private:
    Impl& impl_;
    ConstraintBundle& bundle_;
    bool replay_mode_;
    RunStats& stats_;
    obs::ThreadTracer tracer_;
  };

  // ------------------------------------------------------------------
  // Failure model (DESIGN.md §7).

  bool crashed() const {
    return crashed_.load(std::memory_order_acquire);
  }

  // Kills this instance cooperatively: all loops unwind at their next
  // check, the validator queue rejects and releases everybody, and the
  // heartbeat stops *last* — everything recovery must see (the candidate
  // stash, the aborted queue) is published before death can be detected.
  void CrashSelf() {
    bool expected = false;
    if (!crashed_.compare_exchange_strong(expected, true)) return;
    spec_stop.store(true, std::memory_order_relaxed);
    queue.Abort();
    beating.store(false, std::memory_order_release);
  }

  // Solver-side hook. Returns true when this instance is (now) crashed.
  bool MaybeInjectFault(FaultSite site, obs::ThreadTracer& tracer) {
    if (cfg.injector == nullptr) return crashed();
    const std::optional<FaultDecision> decision =
        cfg.injector->OnEvent(cfg.id, site);
    if (decision.has_value()) {
      if (decision->action == FaultAction::kCrash) {
        tracer.Instant(obs::EventName::kCrash,
                       static_cast<double>(static_cast<int>(site)));
        CrashSelf();
      } else if (decision->delay_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(decision->delay_us));
      }
    }
    return crashed();
  }

  // Validator-side hook. On a crash the in-flight candidate is stashed
  // for the harvester *before* CrashSelf makes death detectable, so it
  // can never slip through the recovery sweep.
  bool InjectValidateFault(Candidate& cand, obs::ThreadTracer& tracer) {
    if (cfg.injector == nullptr) return false;
    const std::optional<FaultDecision> decision =
        cfg.injector->OnEvent(cfg.id, FaultSite::kCandidateValidate);
    if (!decision.has_value()) return false;
    if (decision->action == FaultAction::kCrash) {
      tracer.Instant(obs::EventName::kCrash,
                     static_cast<double>(static_cast<int>(
                         FaultSite::kCandidateValidate)));
      {
        std::lock_guard<std::mutex> lock(stash_mu);
        stash.push_back(std::move(cand));
      }
      CrashSelf();
      return true;
    }
    if (decision->delay_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(decision->delay_us));
    }
    return false;
  }

  // Moves orphaned candidates of dead instances into our own validator
  // queue (counted as re-validations).
  void SweepOrphans(RunStats& stats) {
    while (std::optional<Candidate> orphan =
               cfg.coordinator->PopOrphan()) {
      if (!queue.PushIfOpen(*orphan)) {
        // Our own queue died under us (concurrent crash): hand it back.
        std::vector<Candidate> back;
        back.push_back(std::move(*orphan));
        cfg.coordinator->DepositOrphans(std::move(back));
        return;
      }
      ++stats.candidates_revalidated;
    }
  }

  // ------------------------------------------------------------------
  // Solver-side logic.

  bool RefinementActive() const {
    return cfg.options->enable && cfg.query->k > 0;
  }

  // Best-first replaying uses fail utility (BRP vs MRP) for ordering,
  // discarding, and interval tightening. The FIFO ablation replays fails
  // as encountered with maximal relaxation — the paper's "immediate
  // search resume" baseline, shown in §5.3 to be up to orders of
  // magnitude slower.
  bool UtilityReplays() const {
    return cfg.options->replay_order == ReplayOrder::kBestFirst;
  }

  double ReplayMrp() const {
    return UtilityReplays() ? cfg.coordinator->CurrentMrp() : 1.0;
  }

  void HandleFail(ConstraintBundle& bundle, cp::FailInfo info,
                  obs::ThreadTracer& tracer) {
    if (crashed()) return;
    if (!RefinementActive()) return;
    if (cfg.coordinator->CurrentPhase() == QueryPhase::kConstraining) {
      return;  // §4.3: constraining needs no fails
    }
    // A violated hard (non-relaxable) constraint kills the sub-tree for
    // good: nothing to replay.
    for (const int c : info.violated) {
      if (!relaxable[static_cast<size_t>(c)]) return;
    }
    if (cfg.options->fail_eval == FailEvalMode::kFull) {
      // Evaluate the estimates the fail-fast check skipped, now.
      for (size_t c = 0; c < info.evaluated.size(); ++c) {
        if (info.evaluated[c]) continue;
        info.estimates[c] = bundle.at(static_cast<int>(c))
                                .function()
                                .Estimate(info.box);
        info.evaluated[c] = 1;
      }
    }
    const double brp =
        cfg.penalty->BestPenalty(info.estimates, info.evaluated);
    if (std::isinf(brp)) return;  // can never yield an acceptable result

    // The fail is about to enter the shared pool — the kFailRecord fault
    // window. A crash here loses the record, but the whole shard (or
    // leased replay) it belongs to is re-executed by the recovery, which
    // regenerates it.
    if (MaybeInjectFault(FaultSite::kFailRecord, tracer)) return;

    FailRecord record;
    record.box = std::move(info.box);
    record.estimates = std::move(info.estimates);
    record.evaluated = std::move(info.evaluated);
    record.violated = std::move(info.violated);
    record.depth = info.depth;
    record.brp = brp;
    record.origin = cfg.id;
    if (cfg.options->save_function_state) {
      record.states = bundle.SaveStates(record.box);
    }
    cfg.registry->Record(std::move(record), ReplayMrp());
    tracer.Instant(obs::EventName::kFailRecord, brp);
  }

  bool CheckNode(const std::vector<Interval>& estimates, bool replay_mode) {
    if (crashed()) return false;  // prune everything: cooperative unwind
    if (!RefinementActive()) return true;
    const QueryPhase phase = cfg.coordinator->CurrentPhase();
    if (phase == QueryPhase::kConstraining) {
      if (cfg.options->constrain == ConstrainMode::kRank) {
        // The dynamic constraint BRK(r) >= MRK (§4.3).
        if (cfg.rank->BestRank(estimates) <
            cfg.coordinator->CurrentMrk()) {
          return false;
        }
      } else if (cfg.options->constrain == ConstrainMode::kSkyline) {
        if (cfg.coordinator->SkylineDominatesBox(
                cfg.rank->BestCornerForSkyline(estimates))) {
          return false;
        }
      }
    }
    if (replay_mode && UtilityReplays()) {
      // Replayed sub-trees carry relaxed bounds; prune against the
      // up-to-date MRP (the paper's per-node check, §4.1). The FIFO
      // ablation ("searching through the fail", §5.3) skips this: it
      // takes no utility information into account.
      if (cfg.penalty->BestPenalty(estimates, all_known) >
          cfg.coordinator->CurrentMrp()) {
        return false;
      }
    }
    return true;
  }

  void EmitCandidate(const std::vector<int64_t>& point,
                     const std::vector<Interval>& estimates,
                     RunStats& stats, obs::ThreadTracer& tracer) {
    Candidate cand;
    cand.point = point;
    cand.estimates = estimates;
    cand.brp = cfg.penalty->BestPenalty(estimates, all_known);
    cand.brk = cfg.rank->BestRank(estimates);
    cand.priority =
        cfg.coordinator->CurrentPhase() == QueryPhase::kConstraining
            ? -cand.brk
            : cand.brp;
    ++stats.candidates;
    tracer.Instant(obs::EventName::kCandidateEnqueue, cand.priority);
    queue.Push(std::move(cand));
  }

  struct ReplayOutcome {
    bool completed = true;
    bool discarded = false;
  };

  // Replays one recorded fail: restores state, completes lazy estimates,
  // re-checks BRP against the (possibly improved) MRP, installs relaxed
  // bounds tightened by MRP and RRD, and re-runs the search from the
  // fail's box.
  ReplayOutcome ReplayOne(ConstraintBundle& bundle,
                          RefineListener& listener, FailRecord& fail,
                          const std::atomic<bool>* cancel,
                          RunStats& stats) {
    ReplayOutcome outcome;
    bundle.ClearStates();
    if (cfg.options->save_function_state) bundle.RestoreStates(fail);
    bundle.CompleteEstimates(&fail);

    const double mrp = ReplayMrp();
    const double brp = cfg.penalty->BestPenalty(fail.estimates, all_known);
    if (brp > mrp) {
      outcome.discarded = true;
      ++stats.replays_discarded;
      return outcome;
    }

    // Which constraints actually need relaxation at this box, judged
    // against the *original* bounds.
    int must_violate = 0;
    std::vector<int> to_relax;
    for (int c = 0; c < bundle.size(); ++c) {
      const Interval& est = fail.estimates[static_cast<size_t>(c)];
      const Interval& bounds = bundle.at(c).original_bounds();
      if (bounds.Intersects(est)) continue;
      if (!relaxable[static_cast<size_t>(c)]) {
        // Hard constraint is hopeless here (can happen under lazy
        // recording, when it was not evaluated at fail time).
        outcome.discarded = true;
        ++stats.replays_discarded;
        return outcome;
      }
      to_relax.push_back(c);
      ++must_violate;
    }
    const double vc =
        cfg.penalty->num_relaxable() == 0
            ? 0.0
            : static_cast<double>(must_violate) /
                  cfg.penalty->num_relaxable();
    const double allowed_rd = cfg.penalty->MaxAllowedDistance(mrp, vc);

    for (const int c : to_relax) {
      const Interval& est = fail.estimates[static_cast<size_t>(c)];
      const Interval& orig = bundle.at(c).original_bounds();
      const double w = cfg.penalty->spec(c).weight;
      const double rd_c =
          w > 0.0 ? std::min(allowed_rd / w, 1.0) : 1.0;
      const Interval widest = cfg.penalty->RelaxedBounds(c, rd_c);
      const double rrd = cfg.options->replay_relaxation_distance;
      Interval effective = orig;
      if (est.hi < orig.lo) {
        // Relax the lower side: at most to the MRP-allowed bound, no
        // further than the recorded estimate, by the RRD fraction; and
        // always far enough that the fail's box stops failing (progress).
        const double target = std::max(widest.lo, est.lo);
        double lo = orig.lo - rrd * (orig.lo - target);
        lo = std::min(lo, est.hi);
        effective.lo = lo;
      } else {
        DQR_CHECK(est.lo > orig.hi);
        const double target = std::min(widest.hi, est.hi);
        double hi = orig.hi + rrd * (target - orig.hi);
        hi = std::max(hi, est.lo);
        effective.hi = hi;
      }
      bundle.at(c).SetEffectiveBounds(effective);
    }

    cp::SearchOptions search_opts;
    search_opts.fail_fast = true;
    search_opts.var_select = cfg.options->var_select;
    search_opts.value_split = cfg.options->value_split;
    search_opts.cancel = cancel;
    cp::SearchTree tree(fail.box, bundle.pointers(), &listener,
                        search_opts);
    const cp::SearchStats tree_stats = tree.Run();
    stats.replay_search += tree_stats;
    ++stats.replays;
    bundle.ResetEffectiveBounds();
    outcome.completed = tree_stats.completed;
    return outcome;
  }

  // ------------------------------------------------------------------
  // Engine loops (each runs as one pool task).

  // Pulls and executes shards until the pool drains, the query is
  // cancelled, or this instance crashes. shards_executed counts only
  // *fully* executed shards: a shard interrupted by a crash stays leased
  // to us and is requeued (and counted) by the failure detector.
  void RunShardLoop(ConstraintBundle& bundle, RefineListener& listener,
                    const cp::SearchOptions& search_opts,
                    obs::ThreadTracer& tracer) {
    const Stopwatch busy;
    // Steal latency (profiled runs): the gap between finishing one shard
    // and successfully popping the next, i.e. contention on the shared
    // pool. Resets every loop entry, so barrier waits between rounds are
    // never misattributed as steal time.
    const bool profiled = cfg.options->profile != nullptr;
    int64_t last_shard_end_ns = -1;
    while (!crashed()) {
      std::optional<cp::IntDomain> shard =
          cfg.coordinator->PopShard(cfg.id);
      if (!shard.has_value()) break;
      if (profiled && last_shard_end_ns >= 0) {
        solver_stats.steal_latency.Record(obs::TraceRing::Now() -
                                          last_shard_end_ns);
      }
      tracer.Instant(obs::EventName::kShardPickup,
                     static_cast<double>(shard->lo));
      if (MaybeInjectFault(FaultSite::kShardPickup, tracer)) break;
      cp::DomainBox slice = cfg.query->domains;
      slice[0] = *shard;
      cp::SearchTree tree(std::move(slice), bundle.pointers(), &listener,
                          search_opts);
      {
        obs::SpanScope span = tracer.Scope(obs::EventName::kShardExecute);
        solver_stats.main_search += tree.Run();
      }
      if (profiled) last_shard_end_ns = obs::TraceRing::Now();
      if (crashed()) break;
      ++solver_stats.shards_executed;
    }
    solver_stats.main_busy_s += busy.ElapsedSeconds();
  }

  // Replays leased fails from the shared pool until it drains. Leases
  // keep the registry the owner: a crash mid-replay abandons the lease
  // and the detector re-pools the record for a surviving instance.
  void RunReplayLoop(ConstraintBundle& bundle, RefineListener& listener,
                     obs::ThreadTracer& tracer) {
    while (!crashed() && !cfg.coordinator->cancelled()) {
      FailRecord* fail = cfg.registry->Lease(ReplayMrp(), cfg.id);
      if (fail == nullptr) break;
      tracer.Instant(obs::EventName::kReplayPop, fail->brp);
      const bool stolen = fail->origin != cfg.id;
      if (stolen) {
        tracer.Instant(obs::EventName::kReplaySteal,
                       static_cast<double>(fail->origin));
      }
      ReplayOutcome outcome;
      {
        obs::SpanScope span = tracer.Scope(obs::EventName::kReplayExecute);
        outcome = ReplayOne(bundle, listener, *fail,
                            &cfg.coordinator->cancel_flag(), solver_stats);
      }
      // Counted like `replays`: a fail discarded at re-check was never
      // replayed, stolen or not.
      if (stolen && !outcome.discarded) ++solver_stats.replays_stolen;
      if (crashed()) {
        cfg.registry->AbandonLease(cfg.id, fail);
        break;
      }
      cfg.registry->Commit(cfg.id, fail);
    }
  }

  void StopSpeculation() {
    spec_stop.store(true, std::memory_order_relaxed);
    spec_task.Wait();
  }

  void SolverMain() {
    obs::ThreadTracer tracer =
        obs::MakeTracer(cfg.options->trace, cfg.id, obs::ThreadRole::kSolver,
                        cfg.options->trace_buffer_events, cfg.trace_epoch);
    ConstraintBundle bundle(*cfg.query);
    MemoStatsGuard memo_guard(&bundle, &solver_stats);
    // Profiled runs route uncached synopsis bound-query timings from the
    // UDF miss paths (dqr_searchlight cannot see RunStats) into this
    // thread's own stats via a thread-local sink.
    obs::ScopedLatencySink bound_sink(cfg.options->profile != nullptr
                                          ? &solver_stats.bound_latency
                                          : nullptr);
    RefineListener main_listener(this, &bundle, /*replay_mode=*/false,
                                 &solver_stats, tracer);

    cp::SearchOptions search_opts;
    search_opts.fail_fast = true;
    search_opts.var_select = cfg.options->var_select;
    search_opts.value_split = cfg.options->value_split;
    search_opts.cancel = &cfg.coordinator->cancel_flag();

    // Work stealing: pull variable-0 shards from the shared pool until it
    // drains. The barrier can bounce us back to work when a dead
    // instance's shard is requeued or its candidates need re-validation.
    while (true) {
      RunShardLoop(bundle, main_listener, search_opts, tracer);
      if (crashed()) break;
      // Stop speculation before the quiescence barrier: the relaxation
      // decision must not race with speculative replays.
      StopSpeculation();
      obs::SpanScope barrier = tracer.Scope(obs::EventName::kBarrierWait);
      SweepOrphans(solver_stats);
      // The relaxation decision needs the confirmed result count: drain
      // our validator before declaring ourselves quiescent.
      queue.WaitDrained();
      if (crashed()) break;
      if (cfg.coordinator->AwaitMainSearchDone(cfg.id)) break;
    }
    StopSpeculation();
    if (crashed()) return;  // queue aborted; recovery is the detector's
    main_done_s = cfg.coordinator->ElapsedSeconds();

    // All instances base the decision on the same frozen snapshot, so the
    // cluster takes one branch even while results keep arriving during
    // the replay phase.
    const bool relax_needed =
        RefinementActive() && !cfg.coordinator->cancelled() &&
        cfg.coordinator->main_exact_count() < cfg.query->k;
    if (relax_needed) {
      tracer.Instant(obs::EventName::kPhaseRelaxing);
      RefineListener replay_listener(this, &bundle, /*replay_mode=*/true,
                                     &solver_stats, tracer);
      while (true) {
        // The shared pool hands every instance the globally
        // most-promising fail, whoever recorded it.
        RunReplayLoop(bundle, replay_listener, tracer);
        if (crashed()) break;
        obs::SpanScope barrier = tracer.Scope(obs::EventName::kBarrierWait);
        SweepOrphans(solver_stats);
        queue.WaitDrained();
        if (crashed()) break;
        if (cfg.coordinator->AwaitQueryDone(cfg.id, /*replaying=*/true)) {
          break;
        }
      }
    } else {
      // Not needed: free the recorded fails ("stops tracking fails").
      // Every instance takes the same branch after the barrier, so the
      // shared clear is idempotent across them.
      cfg.registry->Clear();
      while (true) {
        SweepOrphans(solver_stats);
        queue.WaitDrained();
        if (crashed()) break;
        if (cfg.coordinator->AwaitQueryDone(cfg.id, /*replaying=*/false)) {
          break;
        }
      }
    }
    if (crashed()) return;
    queue.Close();
    cfg.coordinator->RetireInstance(cfg.id);
    beating.store(false, std::memory_order_release);
  }

  void ValidatorMain() {
    obs::ThreadTracer tracer =
        obs::MakeTracer(cfg.options->trace, cfg.id,
                        obs::ThreadRole::kValidator,
                        cfg.options->trace_buffer_events, cfg.trace_epoch);
    ConstraintBundle bundle(*cfg.query);
    MemoStatsGuard memo_guard(&bundle, &validator_stats);
    // Candidates validate in batches: the fault hook and pre-validation
    // check run per candidate in pop order, then the survivors are
    // evaluated together — one (SIMD) pass per constraint over the base
    // data instead of one per candidate — and finished in pop order.
    constexpr size_t kValidateBatch = 8;
    std::vector<Candidate> batch;
    std::vector<size_t> survivors;
    while (queue.PopBatch(kValidateBatch, &batch)) {
      survivors.clear();
      size_t crashed_at = batch.size();
      for (size_t i = 0; i < batch.size(); ++i) {
        if (InjectValidateFault(batch[i], tracer)) {
          crashed_at = i;
          break;
        }
        if (!PrecheckDrop(batch[i])) survivors.push_back(i);
      }
      if (crashed_at < batch.size()) {
        // The hook stashed batch[crashed_at] itself; park the prechecked-
        // but-unevaluated survivors and the untouched tail too, so
        // recovery revalidates everything this batch popped but never
        // finished. Precheck drops are final: their best case cannot
        // qualify under the current (or any tighter) MRP/MRK, so a
        // revalidation elsewhere could only drop them again.
        std::lock_guard<std::mutex> lock(stash_mu);
        for (size_t i : survivors) stash.push_back(std::move(batch[i]));
        for (size_t i = crashed_at + 1; i < batch.size(); ++i) {
          stash.push_back(std::move(batch[i]));
        }
        break;
      }
      if (!survivors.empty()) {
        obs::SpanScope span = tracer.Scope(obs::EventName::kValidate);
        std::vector<const std::vector<int64_t>*> points;
        points.reserve(survivors.size());
        for (size_t i : survivors) points.push_back(&batch[i].point);
        std::vector<std::vector<double>> values =
            bundle.EvaluateAllBatch(points);
        if (survivors.size() >= 2) {
          ++validator_stats.validate_batches;
          validator_stats.validate_batched_candidates +=
              static_cast<int64_t>(survivors.size());
        }
        for (size_t k = 0; k < survivors.size(); ++k) {
          FinishCandidate(batch[survivors[k]], std::move(values[k]),
                          bundle, tracer);
        }
      }
      queue.FinishedN(batch.size());
    }
  }

  // Pre-validation check (§4): avoid the expensive exact evaluation if
  // the candidate's best case already cannot qualify. Returns true when
  // the candidate was dropped (and counted). Safe to run before earlier
  // candidates of the same batch finish: MRP/MRK only tighten over time,
  // so checking earlier can only drop fewer candidates, and any dropped
  // candidate would also be rejected by the tracker at insertion time.
  bool PrecheckDrop(const Candidate& cand) {
    if (!RefinementActive()) return false;
    RunStats& stats = validator_stats;
    const QueryPhase phase = cfg.coordinator->CurrentPhase();
    if (phase == QueryPhase::kCollecting &&
        cand.brp > cfg.coordinator->CurrentMrp()) {
      ++stats.dropped_precheck;
      return true;
    }
    if (phase == QueryPhase::kConstraining) {
      if (cfg.options->constrain == ConstrainMode::kRank &&
          cand.brk < cfg.coordinator->CurrentMrk()) {
        ++stats.dropped_precheck;
        return true;
      }
      if (cfg.options->constrain == ConstrainMode::kSkyline &&
          cfg.coordinator->SkylineDominatesBox(
              cfg.rank->BestCornerForSkyline(cand.estimates))) {
        ++stats.dropped_precheck;
        return true;
      }
    }
    return false;
  }

  // Publishes one exactly evaluated candidate — penalty/rank, tracker
  // insertion, progress and tracing — with the per-constraint values
  // precomputed by the batch evaluation.
  void FinishCandidate(const Candidate& cand, std::vector<double> values,
                       ConstraintBundle& bundle, obs::ThreadTracer& tracer) {
    RunStats& stats = validator_stats;
    const bool refined = RefinementActive();
    const QueryPhase phase = cfg.coordinator->CurrentPhase();

    ++stats.validated;
    Solution solution;
    solution.point = cand.point;
    solution.values = std::move(values);
    solution.rp = cfg.penalty->Penalty(solution.values);
    solution.rk = cfg.rank->Rank(solution.values);
    if (solution.rp != 0.0) {
      ++stats.false_positives;
      tracer.Instant(obs::EventName::kFalsePositive, solution.rp);
    }

    // Estimator-accuracy ledger (profiled runs): this is the one place
    // the predicted interval and the exact value exist side by side. A
    // "wasted" candidate is one the estimator let through that exact
    // evaluation then penalized.
    if (cfg.options->profile != nullptr &&
        cand.estimates.size() == solution.values.size()) {
      const bool wasted = solution.rp != 0.0;
      for (size_t c = 0; c < solution.values.size(); ++c) {
        const Interval& est = cand.estimates[c];
        if (est.empty() || !std::isfinite(est.lo) || !std::isfinite(est.hi)) {
          continue;
        }
        const cp::ConstraintFunction& fn =
            bundle.at(static_cast<int>(c)).function();
        stats.estimator_accuracy.Record(
            fn.EstimateLevel(cand.point), est.lo, est.hi,
            solution.values[c], fn.value_range().width(), wasted);
      }
    }

    if (solution.rp == 0.0) ++stats.exact_results;
    const double rp = solution.rp;
    const double rk = solution.rk;
    const std::optional<AddOutcome> outcome = cfg.coordinator->Admit(
        std::move(solution), refined, phase, cfg.options->on_result);
    if (!outcome.has_value()) return;
    switch (*outcome) {
      case AddOutcome::kAcceptedExact:
        tracer.Instant(obs::EventName::kResultExact, rk);
        break;
      case AddOutcome::kAcceptedRelaxed:
        ++stats.relaxed_accepted;
        tracer.Instant(obs::EventName::kResultRelaxed, rp);
        break;
      case AddOutcome::kRejected:
        break;
      case AddOutcome::kDuplicate:
        ++stats.duplicates;
        break;
    }
    // Sampled MRP/MRK + the collecting -> constraining flip, observed
    // from the validator that just published. The extra coordinator reads
    // happen only with tracing on, keeping the disabled path untouched.
    if (tracer.enabled() && refined) {
      const double mrp = cfg.coordinator->CurrentMrp();
      const double mrk = cfg.coordinator->CurrentMrk();
      if (std::isfinite(mrp)) tracer.Counter(obs::EventName::kMrp, mrp);
      if (std::isfinite(mrk)) tracer.Counter(obs::EventName::kMrk, mrk);
      if (phase == QueryPhase::kCollecting &&
          cfg.coordinator->CurrentPhase() == QueryPhase::kConstraining) {
        tracer.Instant(obs::EventName::kPhaseConstraining);
      }
    }
  }

  void SpeculativeMain() {
    obs::ThreadTracer tracer =
        obs::MakeTracer(cfg.options->trace, cfg.id,
                        obs::ThreadRole::kSpeculative,
                        cfg.options->trace_buffer_events, cfg.trace_epoch);
    ConstraintBundle bundle(*cfg.query);
    MemoStatsGuard memo_guard(&bundle, &spec_stats);
    obs::ScopedLatencySink bound_sink(cfg.options->profile != nullptr
                                          ? &spec_stats.bound_latency
                                          : nullptr);
    RefineListener listener(this, &bundle, /*replay_mode=*/true,
                            &spec_stats, tracer);
    while (!spec_stop.load(std::memory_order_relaxed)) {
      if (!RefinementActive() ||
          cfg.coordinator->CurrentPhase() != QueryPhase::kCollecting ||
          queue.size() != 0) {
        std::this_thread::sleep_for(kSpeculationNap);
        continue;
      }
      FailRecord* fail = cfg.registry->Lease(ReplayMrp(), cfg.id);
      if (fail == nullptr) {
        std::this_thread::sleep_for(kSpeculationNap);
        continue;
      }
      tracer.Instant(obs::EventName::kReplayPop, fail->brp);
      if (fail->origin != cfg.id) {
        ++spec_stats.replays_stolen;
        tracer.Instant(obs::EventName::kReplaySteal,
                       static_cast<double>(fail->origin));
      }
      ReplayOutcome outcome;
      {
        obs::SpanScope span = tracer.Scope(obs::EventName::kReplayExecute);
        outcome = ReplayOne(bundle, listener, *fail, &spec_stop, spec_stats);
      }
      ++spec_stats.speculative_replays;
      if (!outcome.completed || crashed()) {
        // Interrupted mid-replay: hand the fail back for the regular
        // replay phase (re-exploration is deduplicated by the tracker).
        cfg.registry->Requeue(cfg.id, fail);
      } else {
        cfg.registry->Commit(cfg.id, fail);
      }
    }
  }

  RunStats CollectStats() const {
    RunStats total;
    total += solver_stats;
    total += validator_stats;
    total += spec_stats;
    // Fail-pool stats live on the shared registry and are attached once at
    // the cluster level by ExecuteQuery; only per-instance gauges here.
    total.peak_queue = queue.peak_size();
    total.max_peak_queue = queue.peak_size();
    total.main_search_s = main_done_s;
    for (const exec::TaskHandle* task :
         {&solver_task, &validator_task, &spec_task}) {
      if (!task->valid()) continue;
      ++total.pool_tasks;
      if (task->warm_start()) {
        ++total.pool_spawn_avoided;
      } else {
        ++total.pool_overflow_spawns;
      }
    }
    return total;
  }

  // ------------------------------------------------------------------

  InstanceConfig cfg;
  CandidateQueue queue;
  std::vector<char> relaxable;
  std::vector<char> all_known;

  // Engine loops as completion handles of their pool tasks.
  exec::TaskHandle solver_task;
  exec::TaskHandle validator_task;
  exec::TaskHandle spec_task;
  bool started = false;
  std::atomic<bool> spec_stop{false};
  std::atomic<bool> crashed_{false};
  // Read by the slot's heartbeat timer (InstanceRunner::beating).
  std::atomic<bool> beating{true};

  // The validator's in-flight candidate at crash time, parked for the
  // failure detector's harvest.
  std::mutex stash_mu;
  std::vector<Candidate> stash;

  // Written by exactly one thread each; read after Join().
  RunStats solver_stats;
  RunStats validator_stats;
  RunStats spec_stats;
  double main_done_s = 0.0;
};

InstanceRunner::InstanceRunner(InstanceConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

InstanceRunner::~InstanceRunner() {
  if (impl_->started) Join();
}

void InstanceRunner::Start() {
  Impl* impl = impl_.get();
  impl->started = true;
  exec::WorkerPool* pool = impl->cfg.pool;
  if (impl->cfg.options->speculative) {
    impl->spec_task = pool->Dispatch([impl] { impl->SpeculativeMain(); });
  }
  impl->solver_task = pool->Dispatch([impl] { impl->SolverMain(); });
  impl->validator_task = pool->Dispatch([impl] { impl->ValidatorMain(); });
}

void InstanceRunner::Join() {
  impl_->solver_task.Wait();
  impl_->spec_task.Wait();
  impl_->validator_task.Wait();
}

bool InstanceRunner::crashed() const { return impl_->crashed(); }

bool InstanceRunner::beating() const {
  return impl_->beating.load(std::memory_order_acquire);
}

std::vector<searchlight::Candidate> InstanceRunner::HarvestOrphans() {
  std::vector<Candidate> out = impl_->queue.TakeAll();
  std::lock_guard<std::mutex> lock(impl_->stash_mu);
  for (Candidate& c : impl_->stash) out.push_back(std::move(c));
  impl_->stash.clear();
  return out;
}

RunStats InstanceRunner::stats() const { return impl_->CollectStats(); }

}  // namespace dqr::core
