#ifndef DQR_CORE_INSTANCE_H_
#define DQR_CORE_INSTANCE_H_

#include <memory>
#include <vector>

#include "cp/domain.h"
#include "core/coordinator.h"
#include "core/fail_registry.h"
#include "core/fault.h"
#include "core/options.h"
#include "core/penalty.h"
#include "core/rank.h"
#include "core/stats.h"
#include "searchlight/candidate.h"
#include "searchlight/query.h"

namespace dqr::exec {
class WorkerPool;
}  // namespace dqr::exec

namespace dqr::core {

// Construction parameters of one simulated Searchlight instance. All
// pointers are borrowed and must outlive the runner.
struct InstanceConfig {
  int id = 0;
  const searchlight::QuerySpec* query = nullptr;
  const RefineOptions* options = nullptr;
  const PenaltyModel* penalty = nullptr;
  const RankModel* rank = nullptr;
  Coordinator* coordinator = nullptr;
  // The cluster-wide replay pool, shared by every instance.
  FailRegistry* registry = nullptr;
  // Deterministic fault injection (null = no faults); shared by the
  // cluster, counters are per (instance, site).
  FaultInjector* injector = nullptr;
  // The pool the solver/validator/speculative loops run on as tasks
  // (DESIGN.md §10); required.
  exec::WorkerPool* pool = nullptr;
  // Trace epoch this instance's rings pin to; -1 = the trace's current
  // epoch (fine only while queries never overlap in time).
  int trace_epoch = -1;
};

// One simulated cluster instance: a Solver task and a Validator task
// connected by a bounded candidate queue, plus an optional speculative
// relaxation task (§4.2), all running on the configured worker pool.
// The Solver pulls main-search shards from the coordinator's shared pool
// until it drains (morsel-style work stealing), then — if the global
// query still lacks k results — replays the globally most-promising
// recorded fails from the shared registry until it drains.
class InstanceRunner {
 public:
  explicit InstanceRunner(InstanceConfig config);
  ~InstanceRunner();

  InstanceRunner(const InstanceRunner&) = delete;
  InstanceRunner& operator=(const InstanceRunner&) = delete;

  // Dispatches the instance's loops onto the pool; call once.
  void Start();
  // Blocks until all loops finish (the validator queue is closed and
  // drained).
  void Join();

  // True once this instance died to an injected crash (its loops stop
  // cooperatively and it no longer touches shared state).
  bool crashed() const;

  // True while the query slot's heartbeat timer should beat for this
  // instance. Cleared last on a crash — after the validator queue is
  // aborted and the in-flight candidates are stashed — so the failure
  // detector can never harvest before everything it must recover is
  // published; also cleared on normal retirement.
  bool beating() const;

  // Failure detector hook: removes every candidate this (dead) instance
  // still had queued or in flight, for re-validation elsewhere.
  std::vector<searchlight::Candidate> HarvestOrphans();

  // This instance's statistics; valid after Join().
  RunStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dqr::core

#endif  // DQR_CORE_INSTANCE_H_
