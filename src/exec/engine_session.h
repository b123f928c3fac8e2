#ifndef DQR_EXEC_ENGINE_SESSION_H_
#define DQR_EXEC_ENGINE_SESSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "cache/semantic_cache.h"
#include "common/status.h"
#include "core/options.h"
#include "core/refiner.h"
#include "exec/timer_wheel.h"
#include "exec/worker_pool.h"
#include "searchlight/query.h"

namespace dqr::exec {

struct EngineSessionOptions {
  // Null = the process-shared pool / wheel.
  WorkerPool* pool = nullptr;
  TimerWheel* wheel = nullptr;
  // Query slots allowed to run at once; <= 0 resolves the
  // DQR_MAX_CONCURRENT_QUERIES environment knob, defaulting to 8.
  int max_concurrent_queries = 0;
};

// Session-level counters (admission + a pool snapshot). Admission counts
// executed queries only; cache hits of ExecuteCached never enter it.
struct SessionStats {
  int active_slots = 0;       // queries executing right now (gauge)
  int peak_slots = 0;         // high-water mark of active_slots
  int64_t queries_admitted = 0;
  int64_t queries_queued = 0;  // admissions that had to wait
  double admission_wait_s = 0.0;  // summed wait of all admissions
  double max_admission_wait_s = 0.0;  // worst single admission wait
  int64_t tasks_in_flight = 0;    // pool-task demand of active slots
  PoolStats pool;
};

// The multi-query front end (DESIGN.md §10): N concurrent Execute /
// ExecuteCached calls multiplex over one persistent WorkerPool + shared
// TimerWheel with admission control. Every executed query runs in a
// *query slot* with fully isolated per-query state — the coordinator,
// fail registry, replay pool and DelayedBroadcast epochs are constructed
// per call inside ExecuteQuery, so slots share only the scheduler and
// results stay byte-identical to a query run alone.
//
// Admission control is FIFO with a task-demand gate: a query needs
// instances * (2 + speculative) pool tasks, and the head of the queue is
// admitted once (a) a slot is free under max_concurrent_queries and
// (b) its demand fits the pool's in-flight task budget — or the session
// is empty, which guarantees progress for queries wider than the pool.
// FIFO means no query can be starved by a stream of later, smaller ones.
// It orders executed queries only: a cache hit of ExecuteCached is
// answered before admission, so it may overtake queued misses.
class EngineSession {
 public:
  explicit EngineSession(EngineSessionOptions options = {});

  EngineSession(const EngineSession&) = delete;
  EngineSession& operator=(const EngineSession&) = delete;

  // ExecuteQuery in this session's slot discipline. Thread-safe; blocks
  // in admission when the session is full. The returned stats carry
  // admission_wait_s and the pool_* dispatch counters.
  Result<core::RunResult> Execute(const searchlight::QuerySpec& query,
                                  const core::RefineOptions& options);

  // ExecuteQueryCached, resolved before admission: a hit returns at once
  // (admission_wait_s 0, no slot held, not in SessionStats). Anything else
  // is admitted and runs ExecuteQueryCached, whose second resolve lets a
  // query queued behind an identical one hit on that one's answer.
  Result<core::RunResult> ExecuteCached(cache::SemanticCache* cache,
                                        const cache::CachedQuery& cq,
                                        const core::RefineOptions& options,
                                        cache::CacheOutcome* outcome = nullptr);

  SessionStats stats() const;
  int max_concurrent_queries() const { return max_concurrent_; }

  // Pool tasks a query with these options occupies while running
  // (solver + validator per instance, plus the speculative loop) — the
  // demand unit of both the session's admission gate and any tenant
  // scheduler layered above it (serve's deficit round-robin charges
  // tenants in exactly these units, so "fair share of work" and "fair
  // share of the pool" coincide).
  static int64_t TaskDemand(const core::RefineOptions& options);

  // The process-wide session over the shared pool/wheel (never
  // destroyed, same lifetime policy as WorkerPool::Shared()).
  static EngineSession& Shared();

 private:
  // Admits the query, runs `run` on this session's pool and wheel,
  // releases the slot and stamps the admission wait on the result.
  template <typename RunFn>
  Result<core::RunResult> RunInSlot(const core::RefineOptions& options,
                                    RunFn run);
  // Blocks until this query may run; returns its wait in seconds.
  double Admit(int64_t demand);
  void Release(int64_t demand);

  WorkerPool* pool_;
  TimerWheel* wheel_;
  int max_concurrent_;
  int64_t task_capacity_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_ticket_ = 0;  // issued to arrivals
  uint64_t serving_ = 0;      // ticket currently allowed to admit
  int active_ = 0;
  int peak_ = 0;
  int64_t tasks_in_flight_ = 0;
  int64_t admitted_ = 0;
  int64_t queued_ = 0;
  double wait_s_ = 0.0;
  double max_wait_s_ = 0.0;
};

}  // namespace dqr::exec

#endif  // DQR_EXEC_ENGINE_SESSION_H_
