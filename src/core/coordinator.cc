#include "core/coordinator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "core/fail_registry.h"

namespace dqr::core {

void DelayedBroadcast::Publish(double value) {
  if (delay_us_ <= 0) {
    visible_.store(value, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back(
      Pending{Clock::now() + std::chrono::microseconds(delay_us_), value});
  if (pending_.size() == 1) {
    next_due_ns_.store(ToNs(pending_.front().at),
                       std::memory_order_release);
  }
}

double DelayedBroadcast::Read() const {
  if (delay_us_ <= 0) return visible_.load(std::memory_order_relaxed);
  // Fast path: nothing pending, or the oldest pending update is not due
  // yet — a pure atomic read, no mutex on the hot MRP/MRK check.
  const int64_t due = next_due_ns_.load(std::memory_order_acquire);
  if (ToNs(Clock::now()) < due) {
    return visible_.load(std::memory_order_relaxed);
  }
  // Slow path (a flip is due): publish every elapsed update.
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = Clock::now();
  while (!pending_.empty() && pending_.front().at <= now) {
    visible_.store(pending_.front().value, std::memory_order_relaxed);
    pending_.pop_front();
  }
  next_due_ns_.store(pending_.empty() ? kIdle : ToNs(pending_.front().at),
                     std::memory_order_release);
  return visible_.load(std::memory_order_relaxed);
}

Coordinator::Coordinator(int num_instances, int64_t k, ConstrainMode mode,
                         const RankModel* rank_model,
                         int64_t broadcast_delay_us)
    : Coordinator(num_instances, k, mode, rank_model, broadcast_delay_us,
                  ResultTracker::Diversity{}) {}

Coordinator::Coordinator(int num_instances, int64_t k, ConstrainMode mode,
                         const RankModel* rank_model,
                         int64_t broadcast_delay_us,
                         ResultTracker::Diversity diversity)
    : num_instances_(num_instances),
      tracker_(k, mode, rank_model, std::move(diversity)),
      mrp_(1.0, broadcast_delay_us),
      mrk_(-std::numeric_limits<double>::infinity(), broadcast_delay_us),
      heartbeat_ns_(new std::atomic<int64_t>[static_cast<size_t>(
          std::max(1, num_instances))]),
      shard_lease_(static_cast<size_t>(std::max(1, num_instances))),
      state_(static_cast<size_t>(std::max(1, num_instances)),
             InstanceState::kLive),
      main_arrived_flag_(static_cast<size_t>(std::max(1, num_instances)), 0),
      query_arrived_flag_(static_cast<size_t>(std::max(1, num_instances)),
                          0),
      live_count_(num_instances) {
  // Seed every slot with "now" so an instance whose threads are still
  // starting up is not instantly stale.
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  for (int i = 0; i < std::max(1, num_instances); ++i) {
    heartbeat_ns_[static_cast<size_t>(i)].store(now,
                                                std::memory_order_relaxed);
  }
}

void Coordinator::ResetHeartbeats() {
  // Re-seed every slot with "now": lease timeouts must be measured from
  // the moment *this query slot* actually starts running, not from
  // coordinator construction — under a multi-query session a slot can
  // sit in the admission queue long enough that construction-time seeds
  // would look instantly stale to the detector.
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  for (int i = 0; i < std::max(1, num_instances_); ++i) {
    heartbeat_ns_[static_cast<size_t>(i)].store(now,
                                                std::memory_order_relaxed);
  }
}

bool Coordinator::SkylineDominatesBox(
    const std::vector<double>& corner) const {
  return tracker_.SkylineDominatesBox(corner);
}

std::optional<AddOutcome> Coordinator::Admit(
    Solution solution, bool refined, QueryPhase phase,
    const std::function<void(const Solution&)>& on_result) {
  if (solution.rp != 0.0 && (!refined || std::isinf(solution.rp) ||
                             phase == QueryPhase::kConstraining)) {
    return std::nullopt;  // plain mode and constraining accept exact only
  }
  Solution streamed;
  if (on_result) streamed = solution;
  const AddOutcome outcome = tracker_.Add(std::move(solution));
  if (outcome == AddOutcome::kDuplicate) return outcome;
  const bool accepted = outcome != AddOutcome::kRejected;
  if (accepted) NoteResult();
  PublishProgress();
  if (accepted && on_result) on_result(streamed);
  return outcome;
}

void Coordinator::PublishProgress() {
  const double mrp = tracker_.Mrp();
  const double mrk = tracker_.Mrk();
  mrp_.Publish(mrp);
  mrk_.Publish(mrk);
  if (!progress_sink_) return;
  // Snapshot the phase outside the lock (tracker state), then emit under
  // progress_mu_: the lock both serializes sink calls and makes each
  // emitted bound strictly better than the previous one of its kind —
  // concurrent validators publishing out of order collapse to a clean
  // monotone stream.
  const bool constraining = tracker_.phase() == QueryPhase::kConstraining;
  std::lock_guard<std::mutex> lock(progress_mu_);
  if (constraining && !emitted_constraining_) {
    emitted_constraining_ = true;
    progress_sink_(
        ProgressEvent{ProgressKind::kPhaseConstraining, 0.0});
  }
  if (mrp < emitted_mrp_) {
    emitted_mrp_ = mrp;
    progress_sink_(ProgressEvent{ProgressKind::kMrp, mrp});
  }
  if (mrk > emitted_mrk_) {
    emitted_mrk_ = mrk;
    progress_sink_(ProgressEvent{ProgressKind::kMrk, mrk});
  }
}

void Coordinator::NoteResult() {
  bool expected = false;
  if (have_first_.compare_exchange_strong(expected, true)) {
    first_result_s_.store(clock_.ElapsedSeconds());
  }
}

void Coordinator::SeedShards(std::vector<cp::IntDomain> shards) {
  std::lock_guard<std::mutex> lock(mu_);
  DQR_CHECK(shards_.empty());
  shards_.assign(shards.begin(), shards.end());
  shards_seeded_ = static_cast<int64_t>(shards_.size());
}

std::optional<cp::IntDomain> Coordinator::PopShard(int instance) {
  std::lock_guard<std::mutex> lock(mu_);
  DQR_CHECK(instance >= 0 && instance < num_instances_);
  // Asking for the next shard completes the previous one: its lease ends
  // whether or not a new shard is available.
  shard_lease_[static_cast<size_t>(instance)].reset();
  if (cancelled() || shards_.empty()) {
    work_cv_.notify_all();  // the cleared lease may complete a barrier
    return std::nullopt;
  }
  cp::IntDomain shard = shards_.front();
  shards_.pop_front();
  shard_lease_[static_cast<size_t>(instance)] = shard;
  return shard;
}

bool Coordinator::NoShardLeasedLocked() const {
  for (const auto& lease : shard_lease_) {
    if (lease.has_value()) return false;
  }
  return true;
}

void Coordinator::FinishMainLocked() {
  main_done_ = true;
  main_exact_count_ = tracker_.exact_count();
  work_cv_.notify_all();
}

bool Coordinator::AwaitMainSearchDone(int instance) {
  std::unique_lock<std::mutex> lock(mu_);
  DQR_CHECK(instance >= 0 && instance < num_instances_);
  main_arrived_flag_[static_cast<size_t>(instance)] = 1;
  ++main_arrived_;
  work_cv_.notify_all();
  while (true) {
    if (state_[static_cast<size_t>(instance)] != InstanceState::kLive) {
      // Declared dead while parked here (our arrival was discounted by
      // DeclareDead); release the thread so it can unwind.
      return true;
    }
    if (main_done_) return true;
    if (cancelled()) {
      FinishMainLocked();
      return true;
    }
    if (!shards_.empty() || !orphans_.empty()) {
      // Recovered work reappeared; withdraw and go back to working.
      main_arrived_flag_[static_cast<size_t>(instance)] = 0;
      --main_arrived_;
      return false;
    }
    if (main_arrived_ >= live_count_ && NoShardLeasedLocked()) {
      FinishMainLocked();
      return true;
    }
    work_cv_.wait(lock);
  }
}

int64_t Coordinator::main_exact_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return main_exact_count_;
}

bool Coordinator::AwaitQueryDone(int instance, bool replaying) {
  std::unique_lock<std::mutex> lock(mu_);
  DQR_CHECK(instance >= 0 && instance < num_instances_);
  query_arrived_flag_[static_cast<size_t>(instance)] = 1;
  ++query_arrived_;
  work_cv_.notify_all();
  while (true) {
    if (state_[static_cast<size_t>(instance)] != InstanceState::kLive) {
      return true;  // dead-at-barrier: see AwaitMainSearchDone
    }
    if (query_done_) return true;
    if (cancelled()) {
      query_done_ = true;
      work_cv_.notify_all();
      return true;
    }
    const bool replay_pending =
        replaying && registry_ != nullptr && registry_->size() > 0;
    if (!orphans_.empty() || replay_pending) {
      query_arrived_flag_[static_cast<size_t>(instance)] = 0;
      --query_arrived_;
      return false;
    }
    const bool leases_out =
        replaying && registry_ != nullptr && registry_->leased_count() > 0;
    if (query_arrived_ >= live_count_ && !leases_out) {
      query_done_ = true;
      work_cv_.notify_all();
      return true;
    }
    // `leases_out` can only clear through Commit/Requeue by a live
    // replayer (whose later arrival notifies) or through the detector
    // reclaiming a dead instance's leases (NotifyWorkChanged).
    work_cv_.wait(lock);
  }
}

void Coordinator::AttachRegistry(FailRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  registry_ = registry;
}

void Coordinator::Heartbeat(int instance) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  heartbeat_ns_[static_cast<size_t>(instance)].store(
      now, std::memory_order_relaxed);
}

int64_t Coordinator::LastHeartbeatNs(int instance) const {
  return heartbeat_ns_[static_cast<size_t>(instance)].load(
      std::memory_order_relaxed);
}

bool Coordinator::IsMonitorable(int instance) const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_[static_cast<size_t>(instance)] == InstanceState::kLive;
}

bool Coordinator::DeclareDead(int instance) {
  std::lock_guard<std::mutex> lock(mu_);
  DQR_CHECK(instance >= 0 && instance < num_instances_);
  if (state_[static_cast<size_t>(instance)] != InstanceState::kLive) {
    return false;
  }
  state_[static_cast<size_t>(instance)] = InstanceState::kDead;
  --live_count_;
  ++instances_lost_;
  // If the dead instance was parked at a barrier, its arrival no longer
  // counts (the live instances alone must reach quiescence).
  if (main_arrived_flag_[static_cast<size_t>(instance)]) {
    main_arrived_flag_[static_cast<size_t>(instance)] = 0;
    --main_arrived_;
  }
  if (query_arrived_flag_[static_cast<size_t>(instance)]) {
    query_arrived_flag_[static_cast<size_t>(instance)] = 0;
    --query_arrived_;
  }
  // The in-flight shard (if any) goes back to the front of the pool: it
  // was next in line when the dead instance took it.
  auto& lease = shard_lease_[static_cast<size_t>(instance)];
  if (lease.has_value()) {
    shards_.push_front(*lease);
    lease.reset();
    ++shards_requeued_;
  }
  if (live_count_ <= 0) {
    // Nobody left to finish the query.
    cancel_.store(true, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  return true;
}

void Coordinator::RetireInstance(int instance) {
  std::lock_guard<std::mutex> lock(mu_);
  state_[static_cast<size_t>(instance)] = InstanceState::kRetired;
}

void Coordinator::NotifyWorkChanged() {
  std::lock_guard<std::mutex> lock(mu_);
  work_cv_.notify_all();
}

void Coordinator::DepositOrphans(
    std::vector<searchlight::Candidate> orphans) {
  if (orphans.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (searchlight::Candidate& c : orphans) {
    orphans_.push_back(std::move(c));
  }
  work_cv_.notify_all();
}

std::optional<searchlight::Candidate> Coordinator::PopOrphan() {
  std::lock_guard<std::mutex> lock(mu_);
  if (orphans_.empty()) return std::nullopt;
  searchlight::Candidate c = std::move(orphans_.front());
  orphans_.pop_front();
  return c;
}

int64_t Coordinator::instances_lost() const {
  std::lock_guard<std::mutex> lock(mu_);
  return instances_lost_;
}

int64_t Coordinator::shards_requeued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_requeued_;
}

void Coordinator::Cancel() {
  cancel_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  work_cv_.notify_all();
}

}  // namespace dqr::core
