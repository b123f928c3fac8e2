#include "serve/tenant.h"

#include <algorithm>

#include "common/stopwatch.h"

namespace dqr::serve {

TenantScheduler::TenantScheduler(int slots)
    : slots_(slots > 0 ? slots : 1) {}

TenantScheduler::Tenant& TenantScheduler::GetTenant(
    const std::string& name) {
  Tenant& t = tenants_[name];
  if (t.stats.weight != t.config.weight) {
    t.stats.weight = t.config.weight;
  }
  return t;
}

Status TenantScheduler::Configure(const std::string& tenant,
                                  const TenantConfig& config) {
  if (!(config.weight > 0.0)) {
    return InvalidArgumentError("tenant '" + tenant +
                                "' weight must be > 0, got " +
                                std::to_string(config.weight));
  }
  std::lock_guard<std::mutex> lock(mu_);
  Tenant& t = tenants_[tenant];
  t.config = config;
  t.stats.weight = config.weight;
  return Status::Ok();
}

void TenantScheduler::Pump() {
  if (paused_ || shutdown_) return;
  bool granted_any = true;
  while (active_ < slots_ && granted_any) {
    granted_any = false;
    bool any_backlog = false;
    // One DRR pass in ring order: grant every head whose deficit covers
    // its demand, while slots remain.
    for (auto& [name, t] : tenants_) {
      if (t.queue.empty()) {
        t.deficit = 0.0;  // idle tenants do not bank credit
        continue;
      }
      any_backlog = true;
      while (!t.queue.empty() && active_ < slots_ &&
             t.deficit >= static_cast<double>(t.queue.front()->demand)) {
        Waiter* w = t.queue.front();
        t.queue.pop_front();
        t.deficit -= static_cast<double>(w->demand);
        w->granted = true;
        ++active_;
        ++t.stats.granted;
        --t.stats.queue_depth;
        ++t.stats.in_flight;
        grant_log_.push_back(name);
        if (grant_log_.size() > kGrantLogCapacity) grant_log_.pop_front();
        granted_any = true;
      }
      if (active_ >= slots_) break;
    }
    if (!any_backlog) return;
    if (!granted_any && active_ < slots_) {
      // Stalled: no head is affordable. Top up every backlogged tenant
      // by quantum * weight and try again — this is the DRR round
      // boundary, and the only place credit is issued.
      for (auto& [name, t] : tenants_) {
        (void)name;
        if (!t.queue.empty()) {
          t.deficit += quantum_ * t.config.weight;
        }
      }
      granted_any = true;  // retry the pass with fresh credit
    }
  }
}

Result<double> TenantScheduler::Acquire(const std::string& tenant,
                                        int64_t demand) {
  demand = std::max<int64_t>(1, demand);
  Stopwatch wait;
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) {
    return CancelledError("tenant scheduler is shut down");
  }
  Tenant& t = GetTenant(tenant);
  ++t.stats.submitted;
  if (t.config.max_task_demand > 0 && demand > t.config.max_task_demand) {
    ++t.stats.rejected;
    return ResourceExhaustedError(
        "tenant '" + tenant + "' query demand " + std::to_string(demand) +
        " exceeds max_task_demand " +
        std::to_string(t.config.max_task_demand));
  }
  const int64_t occupancy = t.stats.in_flight + t.stats.queue_depth;
  if (t.config.max_in_flight > 0 && occupancy >= t.config.max_in_flight) {
    ++t.stats.rejected;
    return ResourceExhaustedError(
        "tenant '" + tenant + "' is at max_in_flight " +
        std::to_string(t.config.max_in_flight));
  }
  quantum_ = std::max(quantum_, static_cast<double>(demand));
  Waiter w;
  w.demand = demand;
  w.seq = next_seq_++;
  t.queue.push_back(&w);
  ++t.stats.queue_depth;
  Pump();
  // This Pump may have granted other tenants' waiters too (a top-up
  // round credits everyone); wake them.
  cv_.notify_all();
  if (!w.granted) {
    cv_.wait(lock, [&] { return w.granted || w.cancelled; });
  }
  if (w.cancelled) {
    return CancelledError("tenant scheduler shut down while '" + tenant +
                          "' was queued");
  }
  const double waited_s = wait.ElapsedSeconds();
  t.stats.admission_wait_s += waited_s;
  t.stats.max_admission_wait_s =
      std::max(t.stats.max_admission_wait_s, waited_s);
  return waited_s;
}

void TenantScheduler::Release(const std::string& tenant, int64_t demand) {
  demand = std::max<int64_t>(1, demand);
  std::lock_guard<std::mutex> lock(mu_);
  Tenant& t = tenants_[tenant];
  --active_;
  --t.stats.in_flight;
  ++t.stats.completed;
  t.stats.completed_demand += demand;
  Pump();
  cv_.notify_all();
}

void TenantScheduler::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  for (auto& [name, t] : tenants_) {
    (void)name;
    for (Waiter* w : t.queue) {
      w->cancelled = true;
      --t.stats.queue_depth;
    }
    t.queue.clear();
  }
  cv_.notify_all();
}

void TenantScheduler::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void TenantScheduler::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  Pump();
  cv_.notify_all();
}

std::vector<std::string> TenantScheduler::GrantLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {grant_log_.begin(), grant_log_.end()};
}

TenantStats TenantScheduler::StatsFor(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return TenantStats{};
  return it->second.stats;
}

std::map<std::string, TenantStats> TenantScheduler::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, TenantStats> out;
  for (const auto& [name, t] : tenants_) out[name] = t.stats;
  return out;
}

}  // namespace dqr::serve
