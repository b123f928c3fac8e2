#ifndef DQR_CORE_COORDINATOR_H_
#define DQR_CORE_COORDINATOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/stopwatch.h"
#include "core/options.h"
#include "core/rank.h"
#include "core/tracker.h"
#include "cp/domain.h"
#include "searchlight/candidate.h"

namespace dqr::core {

class FailRegistry;

// A scalar whose published updates become visible to readers only after a
// configurable delay — the stand-in for Searchlight's asynchronous MRP/MRK
// broadcasts between cluster instances ("MRP is (asynchronously) updated
// for all Solvers/Validators", §4.1). Delay 0 uses a lock-free fast path.
//
// Delayed mode is also contention-free in the common case: readers check
// an atomic "when is the oldest pending update due" timestamp and take the
// mutex only when a flip is actually due. The flip itself happens on the
// first Read() at or after the due time (reads pull updates visible; an
// idle Publish side never needs to push them), so a value published before
// instant t is guaranteed visible to every Read() from t + delay on.
class DelayedBroadcast {
 public:
  DelayedBroadcast(double initial, int64_t delay_us)
      : delay_us_(delay_us), visible_(initial) {}

  void Publish(double value);
  double Read() const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Pending {
    Clock::time_point at;
    double value;
  };

  // Sentinel for "nothing pending": any clock reading compares below it.
  static constexpr int64_t kIdle = std::numeric_limits<int64_t>::max();

  static int64_t ToNs(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  const int64_t delay_us_;
  mutable std::atomic<double> visible_;
  // Due time (steady-clock ns) of pending_.front(), kIdle when empty. The
  // hot-path read gate: while now < next_due_ns_ nothing can flip and
  // Read() is two atomic loads.
  mutable std::atomic<int64_t> next_due_ns_{kIdle};
  mutable std::mutex mu_;          // guards pending_ (delayed mode only)
  mutable std::deque<Pending> pending_;
};

// Shared per-query state across all simulated instances: the global result
// tracker, the (possibly delayed) MRP/MRK views, the shard pool instances
// steal main-search work from, the quiescence barriers that gate the
// relaxation decision and query completion, cancellation, first-result
// timing, and — for the instance-failure model (DESIGN.md §7) — shard
// leases, heartbeats, the dead-instance bookkeeping and the orphaned
// candidate depot.
class Coordinator {
 public:
  Coordinator(int num_instances, int64_t k, ConstrainMode mode,
              const RankModel* rank_model, int64_t broadcast_delay_us);
  Coordinator(int num_instances, int64_t k, ConstrainMode mode,
              const RankModel* rank_model, int64_t broadcast_delay_us,
              ResultTracker::Diversity diversity);

  ResultTracker& tracker() { return tracker_; }
  const ResultTracker& tracker() const { return tracker_; }

  // Views of MRP/MRK as an instance would see them over the interconnect.
  double CurrentMrp() const { return mrp_.Read(); }
  double CurrentMrk() const { return mrk_.Read(); }

  // Phase reads go straight to the tracker: a stale "collecting" view only
  // records extra fails, never loses results.
  QueryPhase CurrentPhase() const { return tracker_.phase(); }

  // Streaming progress sink (RefineOptions::on_progress). Call once
  // before the instances start. PublishProgress then forwards strict
  // MRP/MRK improvements and the one-time phase flip to the sink, under
  // a dedicated mutex so emissions are serialized and per-kind monotone.
  void SetProgressSink(std::function<void(const ProgressEvent&)> sink) {
    progress_sink_ = std::move(sink);
  }

  // True iff the sub-tree with the given best skyline corner is dominated
  // by the current skyline (skyline constraining's dynamic check).
  bool SkylineDominatesBox(const std::vector<double>& corner) const;

  // Offers an exactly scored solution to the tracker under the rule every
  // validated result follows: exact results always; relaxed ones only
  // while refining (`refined`), with a finite RP, in the collecting
  // `phase`. An accepted result is timestamped (NoteResult), broadcast
  // (PublishProgress) and streamed through `on_result` (may be empty).
  // Returns nullopt when the rule refused the solution before the tracker
  // saw it.
  std::optional<AddOutcome> Admit(
      Solution solution, bool refined, QueryPhase phase,
      const std::function<void(const Solution&)>& on_result);

  // Refreshes the broadcast MRP/MRK from the tracker and streams progress.
  void PublishProgress();

  // Records the first confirmed result's timestamp (idempotent).
  void NoteResult();
  double first_result_s() const { return first_result_s_.load(); }

  // --- work-stealing shard pool ---
  // Seeds the pool with the main search's variable-0 shards; call once
  // before the instances start. Shards are handed out lowest-first.
  void SeedShards(std::vector<cp::IntDomain> shards);
  // Pulls the next shard; nullopt once the pool is drained or the query is
  // cancelled. Never blocks. The returned shard stays leased to
  // `instance` until its next PopShard call (which marks the previous
  // shard finished). If the instance dies while leased, DeclareDead
  // requeues the shard.
  std::optional<cp::IntDomain> PopShard(int instance);
  int64_t shards_seeded() const { return shards_seeded_; }

  // Failure-aware end-of-main-search barrier. Returns true once every
  // *live* instance is quiescent and no shard is pooled, leased or
  // orphaned (the relaxation decision is then frozen — see
  // main_exact_count). Returns false when recovered work reappeared
  // (requeued shards / orphaned candidates): the caller must go back to
  // working and re-arrive later.
  bool AwaitMainSearchDone(int instance);
  // Confirmed exact results at the instant the main barrier completed;
  // every instance bases its relaxation decision on this one snapshot so
  // the cluster always takes the same branch.
  int64_t main_exact_count() const;

  // End-of-query barrier, same protocol as AwaitMainSearchDone. With
  // `replaying` the pool of recorded fails (including leased replays of
  // crashed instances, which the detector re-pools) must also be
  // exhausted before the query can complete.
  bool AwaitQueryDone(int instance, bool replaying);
  // Gives AwaitQueryDone its view of the shared replay pool.
  void AttachRegistry(FailRegistry* registry);

  // --- failure detection & recovery (DESIGN.md §7) ---
  void Heartbeat(int instance);
  int64_t LastHeartbeatNs(int instance) const;
  // Re-seeds every heartbeat slot with "now". Called right before the
  // instances start so lease timeouts measure from slot start, not
  // coordinator construction (which admission queueing can leave
  // arbitrarily far in the past).
  void ResetHeartbeats();
  // True while the instance is subject to failure detection (live; not
  // retired after normal completion, not already declared dead).
  bool IsMonitorable(int instance) const;
  // Declares the instance dead: requeues its leased shard (if any),
  // updates the live count, cancels the query if nobody is left, and
  // wakes the barriers. False if it was not live (idempotent).
  bool DeclareDead(int instance);
  // Normal completion: the instance stops heartbeating on purpose and
  // must no longer be monitored.
  void RetireInstance(int instance);
  // Wakes barrier waiters after out-of-band work changes (e.g. the
  // detector reclaimed leased replays into the registry).
  void NotifyWorkChanged();

  // Orphaned candidates of dead instances, awaiting re-validation by a
  // surviving instance.
  void DepositOrphans(std::vector<searchlight::Candidate> orphans);
  std::optional<searchlight::Candidate> PopOrphan();

  int num_instances() const { return num_instances_; }
  int64_t instances_lost() const;
  int64_t shards_requeued() const;

  const std::atomic<bool>& cancel_flag() const { return cancel_; }
  void Cancel();
  bool cancelled() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  double ElapsedSeconds() const { return clock_.ElapsedSeconds(); }

 private:
  enum class InstanceState { kLive, kDead, kRetired };

  // True when no live instance holds a shard lease.
  bool NoShardLeasedLocked() const;
  // Marks the main barrier complete and freezes the relaxation decision.
  void FinishMainLocked();

  const int num_instances_;
  ResultTracker tracker_;
  // Skyline dominance checks must see the tracker's skyline; they are
  // routed through ResultTracker (under its lock).
  DelayedBroadcast mrp_;
  DelayedBroadcast mrk_;
  // Progress streaming (SetProgressSink): the sink plus the last emitted
  // values, all guarded by progress_mu_ — emissions must be serialized
  // so a reordered pair of PublishProgress calls cannot stream a bound
  // that moves backwards.
  std::function<void(const ProgressEvent&)> progress_sink_;
  mutable std::mutex progress_mu_;
  double emitted_mrp_ = std::numeric_limits<double>::infinity();
  double emitted_mrk_ = -std::numeric_limits<double>::infinity();
  bool emitted_constraining_ = false;
  std::atomic<bool> cancel_{false};
  std::atomic<double> first_result_s_{-1.0};
  std::atomic<bool> have_first_{false};
  Stopwatch clock_;

  // Heartbeats are written by the slot's beat timer on every firing;
  // they bypass mu_ (plain atomics, one slot per instance).
  std::unique_ptr<std::atomic<int64_t>[]> heartbeat_ns_;

  // One mutex covers the shard pool, leases, barriers, orphan depot and
  // instance liveness: every recovery transition (death, requeue,
  // deposit) must be atomic against the barrier conditions.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<cp::IntDomain> shards_;
  int64_t shards_seeded_ = 0;
  std::vector<std::optional<cp::IntDomain>> shard_lease_;
  std::deque<searchlight::Candidate> orphans_;
  std::vector<InstanceState> state_;
  // Which instances currently count as "arrived" at each barrier; needed
  // to discount a dead instance's arrival.
  std::vector<char> main_arrived_flag_;
  std::vector<char> query_arrived_flag_;
  int live_count_;
  FailRegistry* registry_ = nullptr;
  int main_arrived_ = 0;
  bool main_done_ = false;
  int64_t main_exact_count_ = 0;
  int query_arrived_ = 0;
  bool query_done_ = false;
  int64_t instances_lost_ = 0;
  int64_t shards_requeued_ = 0;
};

}  // namespace dqr::core

#endif  // DQR_CORE_COORDINATOR_H_
