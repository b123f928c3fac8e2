#ifndef DQR_SERVE_TENANT_H_
#define DQR_SERVE_TENANT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace dqr::serve {

// Per-tenant resource budget. A tenant not explicitly configured uses
// the defaults below (weight 1, unbounded queue/demand).
struct TenantConfig {
  // Relative share of execution slots under contention; must be > 0.
  // A weight-8 tenant completes ~8x the pool-task demand of a weight-1
  // tenant while both keep their queues saturated.
  double weight = 1.0;
  // Queries this tenant may have admitted-or-queued at once; further
  // submissions are rejected immediately (kResourceExhausted). <= 0
  // means unlimited.
  int64_t max_in_flight = 0;
  // Largest single-query task demand (EngineSession::TaskDemand units)
  // this tenant may submit; oversized queries are rejected. <= 0 means
  // unlimited.
  int64_t max_task_demand = 0;
};

struct TenantStats {
  int64_t submitted = 0;   // Acquire calls (incl. rejected)
  int64_t granted = 0;     // Acquire calls that got a slot
  int64_t completed = 0;   // Release calls
  int64_t rejected = 0;    // budget rejections
  int64_t queue_depth = 0;     // waiting in Acquire right now (gauge)
  int64_t in_flight = 0;       // granted but not released (gauge)
  int64_t completed_demand = 0;  // summed task demand of completions
  double admission_wait_s = 0.0;      // summed Acquire wait
  double max_admission_wait_s = 0.0;  // worst single Acquire wait
  double weight = 1.0;
};

// Weighted fair admission across tenants: deficit round-robin (DRR)
// layered above the EngineSession's FIFO gate. The scheduler hands out
// `slots` concurrent grants (sized to the session's
// max_concurrent_queries so its own FIFO queue stays shallow and the
// DRR order is what reaches the engine). Each tenant has a deficit
// counter in task-demand units; a round-robin pump visits tenants in a
// fixed (lexicographic) ring order and grants a tenant's head query
// when its deficit covers the query's demand. When a full pass over
// non-empty queues grants nothing, every non-empty queue's deficit is
// topped up by quantum * weight — so over time each backlogged tenant's
// granted demand converges to its weight share, and a light tenant is
// served at least once per Σweights/weight_i top-ups (no starvation).
// Tenants with empty queues have their deficit reset to zero: an idle
// tenant does not bank credit (classic DRR, keeps latency bounded).
//
// Demand is measured in EngineSession::TaskDemand units, the same unit
// the session's admission gate charges, so "fair share of grants"
// equals "fair share of the worker pool".
class TenantScheduler {
 public:
  // `slots`: concurrent grants allowed; <= 0 means 1.
  explicit TenantScheduler(int slots);

  TenantScheduler(const TenantScheduler&) = delete;
  TenantScheduler& operator=(const TenantScheduler&) = delete;

  // Sets (or replaces) `tenant`'s budget. Unconfigured tenants are
  // created on first Acquire with default TenantConfig. Weight must be
  // > 0.
  Status Configure(const std::string& tenant, const TenantConfig& config);

  // Blocks until `tenant` is granted a slot for a query of `demand`
  // task units, and returns the seconds waited. Fails fast (without
  // queueing) when the tenant's max_in_flight or max_task_demand budget
  // is exceeded (kResourceExhausted), and fails with kCancelled for
  // all waiters when Shutdown is called.
  Result<double> Acquire(const std::string& tenant, int64_t demand);

  // Returns the slot of a granted query. `demand` must match Acquire's.
  void Release(const std::string& tenant, int64_t demand);

  // Wakes every waiter with kCancelled; later Acquires also fail.
  void Shutdown();

  // Testing hooks: while paused, no grants are made, so a test can
  // enqueue a known backlog and then observe the exact DRR grant order.
  void Pause();
  void Resume();

  // The most recent kGrantLogCapacity grants' tenant names, oldest
  // first (testing). Bounded so a long-lived server's memory stays flat.
  static constexpr size_t kGrantLogCapacity = 1024;
  std::vector<std::string> GrantLog() const;

  TenantStats StatsFor(const std::string& tenant) const;
  std::map<std::string, TenantStats> Stats() const;

  int slots() const { return slots_; }

 private:
  struct Waiter {
    int64_t demand = 0;
    uint64_t seq = 0;      // FIFO order within the tenant
    bool granted = false;
    bool cancelled = false;
  };
  struct Tenant {
    TenantConfig config;
    TenantStats stats;
    std::deque<Waiter*> queue;
    double deficit = 0.0;
  };

  // Grants as many queued queries as slots and deficits allow; tops up
  // deficits when a full pass stalls. Caller holds mu_.
  void Pump();
  Tenant& GetTenant(const std::string& name);

  const int slots_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  // std::map: stable lexicographic iteration is the DRR ring order.
  std::map<std::string, Tenant> tenants_;
  std::deque<std::string> grant_log_;
  int64_t active_ = 0;
  uint64_t next_seq_ = 0;
  double quantum_ = 1.0;  // max demand seen; DRR's O(1) service bound
  bool paused_ = false;
  bool shutdown_ = false;
};

}  // namespace dqr::serve

#endif  // DQR_SERVE_TENANT_H_
