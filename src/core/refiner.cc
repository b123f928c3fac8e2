#include "core/refiner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <utility>

#include "common/check.h"
#include "core/coordinator.h"
#include "core/fail_registry.h"
#include "core/fault.h"
#include "core/instance.h"
#include "core/knobs.h"
#include "core/model_builders.h"
#include "core/penalty.h"
#include "core/rank.h"
#include "cp/function.h"
#include "exec/timer_wheel.h"
#include "exec/worker_pool.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace dqr::core {
namespace {

// Sweep cadence of the failure detector: nowhere near heartbeat
// granularity — a quarter of the lease keeps the detection-latency bound
// at ~1.25x the lease timeout while the sweep's lock traffic stays
// negligible.
int64_t SweepIntervalUs(int64_t heartbeat_interval_us,
                        int64_t lease_timeout_us) {
  return std::max(heartbeat_interval_us, lease_timeout_us / 4);
}

// One sweep state machine of the lease-timeout failure detector
// (DESIGN.md §7): a periodic pass over the instances' heartbeat slots.
// An instance whose last beat is older than the lease timeout is
// declared dead and its in-flight work is recovered — the leased shard
// back into the pool, abandoned replay leases back into the registry,
// queued/in-flight candidates into the coordinator's orphan depot for
// re-validation by a survivor.
//
// Tick() runs on the shared timer wheel, whose callbacks are serialized;
// dead_ is unsynchronized on that contract.
class DetectorSweep {
 public:
  DetectorSweep(Coordinator* coordinator, FailRegistry* registry,
                std::vector<std::unique_ptr<InstanceRunner>>* runners,
                int64_t timeout_us, obs::ThreadTracer tracer)
      : coordinator_(coordinator),
        registry_(registry),
        runners_(runners),
        tracer_(tracer),
        timeout_ns_(timeout_us * 1000) {}

  void Tick() {
    // Beats are aged against the freshest live beat, not the clock: one
    // timer beats every live instance, so a stalled wheel (a descheduled
    // or CPU-throttled process) leaves all beats equally old instead of
    // getting every instance, survivors included, declared dead.
    int64_t freshest = std::numeric_limits<int64_t>::min();
    for (int i = 0; i < coordinator_->num_instances(); ++i) {
      if (coordinator_->IsMonitorable(i)) {
        freshest = std::max(freshest, coordinator_->LastHeartbeatNs(i));
      }
    }
    bool changed = false;
    for (int i = 0; i < coordinator_->num_instances(); ++i) {
      if (dead_.count(i) != 0) {
        // A dying thread may abandon its replay lease after we declared
        // it dead; keep re-polling until everything is re-pooled.
        if (const int64_t n = registry_->ReclaimFrom(i); n > 0) {
          changed = true;
          tracer_.Instant(obs::EventName::kLeaseReclaim,
                          static_cast<double>(n));
        }
        continue;
      }
      if (!coordinator_->IsMonitorable(i)) continue;
      if (freshest - coordinator_->LastHeartbeatNs(i) < timeout_ns_) {
        continue;
      }
      dead_.insert(i);
      tracer_.Instant(obs::EventName::kInstanceDead,
                      static_cast<double>(i));
      if (const int64_t n = registry_->ReclaimFrom(i); n > 0) {
        changed = true;
        tracer_.Instant(obs::EventName::kLeaseReclaim,
                        static_cast<double>(n));
      }
      // Deposit the orphans *before* DeclareDead shrinks the live count:
      // the barriers must see the recovered work no later than the
      // membership change, or they could complete without it.
      std::vector<searchlight::Candidate> orphans =
          (*runners_)[static_cast<size_t>(i)]->HarvestOrphans();
      if (!orphans.empty()) {
        coordinator_->DepositOrphans(std::move(orphans));
      }
      coordinator_->DeclareDead(i);
      changed = true;
    }
    if (changed) coordinator_->NotifyWorkChanged();
  }

 private:
  Coordinator* coordinator_;
  FailRegistry* registry_;
  std::vector<std::unique_ptr<InstanceRunner>>* runners_;
  obs::ThreadTracer tracer_;
  const int64_t timeout_ns_;
  std::set<int> dead_;
};

Status ValidateInputs(const searchlight::QuerySpec& query,
                      const RefineOptions& options) {
  if (query.domains.empty()) {
    return InvalidArgumentError("query has no decision variables");
  }
  for (const cp::IntDomain& d : query.domains) {
    if (d.empty()) {
      return InvalidArgumentError("decision variable domain is empty");
    }
  }
  if (query.k < 0) {
    return InvalidArgumentError("result cardinality k must be >= 0");
  }
  for (const searchlight::QueryConstraint& qc : query.constraints) {
    if (qc.make_function == nullptr) {
      return InvalidArgumentError("constraint lacks a function factory");
    }
    if (std::isnan(qc.bounds.lo) || std::isnan(qc.bounds.hi)) {
      return InvalidArgumentError("constraint bounds must not be NaN");
    }
    if (qc.bounds.empty()) {
      return InvalidArgumentError("constraint bounds are empty");
    }
    // Written so that NaN, for which every comparison is false, fails.
    if (!(qc.relax_weight >= 0.0 && qc.relax_weight <= 1.0)) {
      return InvalidArgumentError("relax weight must lie in [0, 1]");
    }
  }
  if (Status status = CheckKnobs(options, query.k); !status.ok()) {
    return status;
  }
  if (options.max_recorded_fails <= 0) {
    return InvalidArgumentError("max_recorded_fails must be positive");
  }
  if (!options.result_spacing.empty() &&
      options.result_spacing.size() != query.domains.size()) {
    return InvalidArgumentError(
        "result_spacing must have one entry per decision variable");
  }
  if (options.trace != nullptr && options.trace_buffer_events <= 0) {
    return InvalidArgumentError("trace_buffer_events must be positive");
  }
  for (const Solution& warm : options.warm_results) {
    if (warm.point.size() != query.domains.size()) {
      return InvalidArgumentError(
          "warm result needs one coordinate per decision variable");
    }
    if (warm.values.size() != query.constraints.size()) {
      return InvalidArgumentError(
          "warm result needs one value per constraint");
    }
    for (size_t i = 0; i < warm.point.size(); ++i) {
      if (!query.domains[i].Contains(warm.point[i])) {
        return InvalidArgumentError("warm result lies outside the domains");
      }
    }
    for (const double v : warm.values) {
      if (!std::isfinite(v)) {
        return InvalidArgumentError("warm result values must be finite");
      }
    }
  }
  if (options.heartbeat_interval_us <= 0) {
    return InvalidArgumentError("heartbeat_interval_us must be positive");
  }
  if (options.lease_timeout_us <= options.heartbeat_interval_us) {
    return InvalidArgumentError(
        "lease_timeout_us must exceed heartbeat_interval_us");
  }
  if (options.fault_plan != nullptr) {
    for (const FaultEvent& e : options.fault_plan->events) {
      if (e.instance < 0) {
        return InvalidArgumentError("fault event instance must be >= 0");
      }
      if (e.at_index < 0) {
        return InvalidArgumentError("fault event at_index must be >= 0");
      }
      if (e.delay_us < 0) {
        return InvalidArgumentError("fault event delay_us must be >= 0");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Result<RunResult> ExecuteQuery(const searchlight::QuerySpec& query,
                               const RefineOptions& options) {
  if (Status status = ValidateInputs(query, options); !status.ok()) {
    return status;
  }
  // Profiling without a caller-supplied trace records into the profile's
  // private Trace; re-enter with it patched in so everything below can
  // assume `options.trace` is the one ring sink.
  if (options.profile != nullptr && options.trace == nullptr) {
    RefineOptions profiled = options;
    profiled.trace = &options.profile->internal_trace();
    return ExecuteQuery(query, profiled);
  }
  // Each query gets its own trace epoch so successive queries recorded
  // into one Trace export as separate process groups. The epoch is
  // pinned explicitly on every ring this query creates: with concurrent
  // queries sharing one Trace, the implicit "current epoch" cursor
  // belongs to whichever query began last.
  int trace_epoch = -1;
  if (options.trace != nullptr) trace_epoch = options.trace->BeginQuery();

  // Reentrant execution (DESIGN.md §10): the instance loops run as tasks
  // on a worker pool and all periodic work rides a timer wheel — the
  // process-shared ones unless the caller supplies its own.
  exec::WorkerPool* pool = options.worker_pool != nullptr
                               ? options.worker_pool
                               : &exec::WorkerPool::Shared();
  exec::TimerWheel* wheel = options.timer_wheel != nullptr
                                ? options.timer_wheel
                                : &exec::TimerWheel::Shared();

  Result<PenaltyModel> penalty_result =
      BuildPenaltyModel(query, options.alpha);
  if (!penalty_result.ok()) return penalty_result.status();
  Result<RankModel> rank_result = BuildRankModel(query);
  if (!rank_result.ok()) return rank_result.status();
  const PenaltyModel default_penalty = std::move(penalty_result).value();
  const RankModel default_rank = std::move(rank_result).value();

  // §3.3 customization: user-supplied models replace the defaults.
  const PenaltyModel& penalty = options.custom_penalty != nullptr
                                    ? *options.custom_penalty
                                    : default_penalty;
  const RankModel& rank = options.custom_rank != nullptr
                              ? *options.custom_rank
                              : default_rank;
  if (penalty.num_constraints() !=
          static_cast<int>(query.constraints.size()) ||
      rank.num_constraints() !=
          static_cast<int>(query.constraints.size())) {
    return InvalidArgumentError(
        "custom model does not cover the query's constraints");
  }

  // Refinement is governed by the effective cardinality: disabling the
  // framework reproduces plain Searchlight (every exact result returned).
  const int64_t effective_k = options.enable ? query.k : 0;
  const ConstrainMode mode =
      effective_k > 0 ? options.constrain : ConstrainMode::kNone;

  // Partition the search space on variable 0 into contiguous shards for
  // the shared work-stealing pool: shards_per_instance shards per instance
  // (capped by the domain size), pulled by instances until the pool
  // drains. shards_per_instance == 1 degenerates to the legacy static
  // 1-slice-per-instance split (same chunk arithmetic).
  const cp::IntDomain& split_dom = query.domains.front();
  const int64_t dom_size = std::max<int64_t>(1, split_dom.size());
  const int instances = static_cast<int>(
      std::min<int64_t>(options.num_instances, dom_size));
  const int64_t want_shards = std::min<int64_t>(
      dom_size,
      static_cast<int64_t>(options.shards_per_instance) * instances);
  std::vector<cp::IntDomain> shards;
  const int64_t chunk = (split_dom.size() + want_shards - 1) / want_shards;
  for (int64_t lo = split_dom.lo; lo <= split_dom.hi; lo += chunk) {
    shards.emplace_back(lo, std::min(split_dom.hi, lo + chunk - 1));
  }

  ResultTracker::Diversity diversity;
  if (effective_k > 0 && !options.result_spacing.empty()) {
    diversity.spacing = options.result_spacing;
    diversity.pool_k = effective_k * options.diversity_pool_factor;
  }
  Coordinator coordinator(instances, effective_k, mode, &rank,
                          options.broadcast_delay_us,
                          std::move(diversity));
  if (options.on_progress) {
    coordinator.SetProgressSink(options.on_progress);
  }
  // Warm start (DESIGN.md §9): the known solutions are re-scored under
  // this query's models and admitted as if validated before any search
  // ran, so every bound below derives from tracker contents.
  for (const Solution& warm : options.warm_results) {
    Solution seeded;
    seeded.point = warm.point;
    seeded.values = warm.values;
    seeded.rp = penalty.Penalty(seeded.values);
    seeded.rk = rank.Rank(seeded.values);
    coordinator.Admit(std::move(seeded), effective_k > 0,
                      coordinator.CurrentPhase(), options.on_result);
  }
  coordinator.SeedShards(std::move(shards));
  // The cluster-wide replay pool: every instance records fails into it and
  // replays the globally most-promising ones out of it.
  FailRegistry registry(options.replay_order, options.max_recorded_fails);
  coordinator.AttachRegistry(&registry);

  // Failure model: an injector when a fault plan is supplied, and the
  // heartbeat/lease detector whenever faults are possible or the caller
  // wants the production posture measured.
  const bool inject_faults =
      options.fault_plan != nullptr && !options.fault_plan->empty();
  const bool detect_failures =
      inject_faults || options.enable_failure_detector;
  std::unique_ptr<FaultInjector> injector;
  if (inject_faults) {
    injector =
        std::make_unique<FaultInjector>(*options.fault_plan, instances);
  }

  std::vector<std::unique_ptr<InstanceRunner>> runners;
  runners.reserve(static_cast<size_t>(instances));
  for (int i = 0; i < instances; ++i) {
    InstanceConfig config;
    config.id = i;
    config.query = &query;
    config.options = &options;
    config.penalty = &penalty;
    config.rank = &rank;
    config.coordinator = &coordinator;
    config.registry = &registry;
    config.injector = injector.get();
    config.pool = pool;
    config.trace_epoch = trace_epoch;
    runners.push_back(std::make_unique<InstanceRunner>(std::move(config)));
  }

  {
    std::unique_ptr<DetectorSweep> sweep;
    exec::TimerWheel::TimerId budget_timer = 0;
    exec::TimerWheel::TimerId beat_timer = 0;
    exec::TimerWheel::TimerId sweep_timer = 0;
    Coordinator* coord = &coordinator;
    // The watchdog: a one-shot that cancels the query when the wall-clock
    // budget expires.
    if (options.time_budget_s > 0.0) {
      budget_timer =
          wheel->AddOnce(static_cast<int64_t>(options.time_budget_s * 1e6),
                         [coord] { coord->Cancel(); });
    }
    // Lease timeouts are measured per slot: the clock starts when this
    // query actually begins running, not when the coordinator was built
    // (admission queueing can separate the two arbitrarily).
    coordinator.ResetHeartbeats();
    for (auto& runner : runners) runner->Start();
    if (detect_failures) {
      // One slot timer beats every live instance — with Q concurrent
      // queries of I instances each, Q periodic timers on the shared
      // wheel. Firings skip instances whose beating() is false, which is
      // how the detector sees them die; a crashing instance clears it
      // only once everything recovery must see is published.
      std::vector<obs::ThreadTracer> beat_tracers;
      for (int i = 0; i < instances; ++i) {
        beat_tracers.push_back(obs::MakeTracer(
            options.trace, i, obs::ThreadRole::kHeartbeat,
            options.trace_buffer_events, trace_epoch));
      }
      auto* runners_ptr = &runners;
      beat_timer = wheel->AddPeriodic(
          options.heartbeat_interval_us,
          [coord, runners_ptr, beat_tracers]() mutable {
            for (size_t i = 0; i < runners_ptr->size(); ++i) {
              if (!(*runners_ptr)[i]->beating()) continue;
              coord->Heartbeat(static_cast<int>(i));
              beat_tracers[i].Instant(obs::EventName::kHeartbeat);
            }
          });
      sweep = std::make_unique<DetectorSweep>(
          &coordinator, &registry, &runners, options.lease_timeout_us,
          obs::MakeTracer(options.trace, /*instance=*/-1,
                          obs::ThreadRole::kDetector,
                          options.trace_buffer_events, trace_epoch));
      DetectorSweep* sweep_ptr = sweep.get();
      sweep_timer = wheel->AddPeriodic(
          SweepIntervalUs(options.heartbeat_interval_us,
                          options.lease_timeout_us),
          [sweep_ptr] { sweep_ptr->Tick(); });
    }
    for (auto& runner : runners) runner->Join();
    // Cancel quiesces: after these return the wheel can no longer touch
    // the coordinator, registry or runners this scope owns.
    if (budget_timer != 0) wheel->Cancel(budget_timer);
    if (beat_timer != 0) wheel->Cancel(beat_timer);
    if (sweep_timer != 0) wheel->Cancel(sweep_timer);
  }

  // Settle accounts for crashes the detector never got to see: when the
  // last instances die together every thread exits and Join returns
  // before any lease can time out, so nobody was left to declare them.
  // This is the same (idempotent) transition the detector would have
  // made; with any survivor the barriers cannot complete around an
  // undetected crash, so this sweep only fires on total-loss runs.
  for (int i = 0; i < instances; ++i) {
    if (runners[static_cast<size_t>(i)]->crashed()) {
      coordinator.DeclareDead(i);
      registry.ReclaimFrom(i);
    }
  }

  RunResult result;
  result.trace_epoch = trace_epoch;
  result.results = coordinator.tracker().FinalResults();
  for (const auto& runner : runners) {
    result.per_instance.push_back(runner->stats());
    result.stats += result.per_instance.back();
  }
  result.stats.total_s = coordinator.ElapsedSeconds();
  result.stats.first_result_s = coordinator.first_result_s();
  result.stats.main_search_s = 0.0;
  for (const auto& runner : runners) {
    result.stats.main_search_s =
        std::max(result.stats.main_search_s, runner->stats().main_search_s);
  }
  result.stats.exact_results = coordinator.tracker().exact_count();
  result.stats.mrp_updates = coordinator.tracker().mrp_updates();
  result.stats.mrk_updates = coordinator.tracker().mrk_updates();
  // The replay pool is shared, so its gauges are cluster-level facts: the
  // summed and max views coincide by construction.
  result.stats.fails_discarded_at_record = registry.discarded_at_record();
  result.stats.fails_discarded_at_pop = registry.discarded_at_pop();
  result.stats.fails_dropped_full = registry.dropped_full();
  // Recovery counters are cluster-level facts (candidates_revalidated is
  // per-instance and already aggregated above).
  result.stats.instances_lost = coordinator.instances_lost();
  result.stats.shards_requeued = coordinator.shards_requeued();
  result.stats.replays_reclaimed = registry.reclaimed();
  result.stats.peak_fail_bytes = registry.peak_state_bytes();
  result.stats.peak_fail_count = registry.peak_size();
  result.stats.max_peak_fail_bytes = registry.peak_state_bytes();
  result.stats.max_peak_fail_count = registry.peak_size();
  // A fail the cap dropped may hold a relaxation within the final MRP,
  // one the answer would then be missing.
  result.stats.completed = result.stats.completed &&
                           !coordinator.cancelled() &&
                           registry.min_dropped_brp() >
                               coordinator.tracker().Mrp();
  result.stats.query_latency.RecordSeconds(result.stats.total_s);
  if (options.profile != nullptr) {
    options.profile->Assemble(*options.trace, trace_epoch, result.stats);
  }
  return result;
}

}  // namespace dqr::core
