#include "exec/engine_session.h"

#include "obs/profile.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"

namespace dqr::exec {

EngineSession::EngineSession(EngineSessionOptions options)
    : pool_(options.pool != nullptr ? options.pool : &WorkerPool::Shared()),
      wheel_(options.wheel != nullptr ? options.wheel
                                      : &TimerWheel::Shared()),
      max_concurrent_(ResolveCount(options.max_concurrent_queries,
                                   "DQR_MAX_CONCURRENT_QUERIES", 4096, 8)),
      // The in-flight task budget: admitting up to 2x the worker count
      // keeps the pool saturated (engine tasks block on queues/barriers
      // a lot) while bounding overflow spawns.
      task_capacity_(2 * std::max(1, pool_->thread_count())) {}

int64_t EngineSession::TaskDemand(const core::RefineOptions& options) {
  // Solver + validator per instance, plus the speculative loop. The
  // heartbeat/detector/watchdog ride the timer wheel, not the pool.
  const int64_t per_instance = options.speculative ? 3 : 2;
  return per_instance * std::max(1, options.num_instances);
}

double EngineSession::Admit(int64_t demand) {
  Stopwatch wait;
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t ticket = next_ticket_++;
  const auto admissible = [&] {
    if (ticket != serving_) return false;  // strict FIFO: no overtaking
    if (active_ == 0) return true;         // progress guarantee
    return active_ < max_concurrent_ &&
           tasks_in_flight_ + demand <= task_capacity_;
  };
  const bool waited = !admissible();
  if (waited) {
    ++queued_;
    cv_.wait(lock, admissible);
  }
  ++serving_;
  ++active_;
  peak_ = std::max(peak_, active_);
  tasks_in_flight_ += demand;
  ++admitted_;
  const double waited_s = waited ? wait.ElapsedSeconds() : 0.0;
  wait_s_ += waited_s;
  max_wait_s_ = std::max(max_wait_s_, waited_s);
  // The next ticket may be admissible now (several slots can run
  // concurrently); wake the queue to re-check.
  cv_.notify_all();
  return waited_s;
}

void EngineSession::Release(int64_t demand) {
  std::lock_guard<std::mutex> lock(mu_);
  --active_;
  tasks_in_flight_ -= demand;
  cv_.notify_all();
}

template <typename RunFn>
Result<core::RunResult> EngineSession::RunInSlot(
    const core::RefineOptions& options, RunFn run) {
  core::RefineOptions opts = options;
  opts.worker_pool = pool_;
  opts.timer_wheel = wheel_;
  const int64_t demand = TaskDemand(opts);
  const double waited_s = Admit(demand);
  Result<core::RunResult> result = run(opts);
  Release(demand);
  // The engine cannot time its own admission: stamp the wait on the
  // stats and, if profiling, on the already-assembled profile.
  if (result.ok()) {
    result.value().stats.admission_wait_s = waited_s;
    result.value().stats.admission_wait.RecordSeconds(waited_s);
    if (opts.profile != nullptr) opts.profile->RecordAdmissionWait(waited_s);
  }
  return result;
}

Result<core::RunResult> EngineSession::Execute(
    const searchlight::QuerySpec& query,
    const core::RefineOptions& options) {
  return RunInSlot(options, [&](const core::RefineOptions& opts) {
    return core::ExecuteQuery(query, opts);
  });
}

Result<core::RunResult> EngineSession::ExecuteCached(
    cache::SemanticCache* cache, const cache::CachedQuery& cq,
    const core::RefineOptions& options, cache::CacheOutcome* outcome) {
  // A hit needs no engine task: it is answered here, ahead of admission.
  Result<cache::CacheResolution> resolution =
      cache::ResolveQueryCached(cache, cq, options);
  if (resolution.ok() && resolution.value().answer.has_value()) {
    return cache::ExecuteResolved(cache, cq, options,
                                  std::move(resolution).value(), outcome);
  }
  // Anything else is admitted, then resolved again: a query that queued
  // behind an identical one hits once that one has stored its answer.
  return RunInSlot(options, [&](const core::RefineOptions& opts) {
    return cache::ExecuteQueryCached(cache, cq, opts, outcome);
  });
}

SessionStats EngineSession::stats() const {
  SessionStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.active_slots = active_;
    out.peak_slots = peak_;
    out.queries_admitted = admitted_;
    out.queries_queued = queued_;
    out.admission_wait_s = wait_s_;
    out.max_admission_wait_s = max_wait_s_;
    out.tasks_in_flight = tasks_in_flight_;
  }
  out.pool = pool_->stats();
  return out;
}

EngineSession& EngineSession::Shared() {
  static EngineSession* session = new EngineSession();
  return *session;
}

}  // namespace dqr::exec
