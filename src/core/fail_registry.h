#ifndef DQR_CORE_FAIL_REGISTRY_H_
#define DQR_CORE_FAIL_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/interval.h"
#include "cp/domain.h"
#include "cp/function.h"
#include "core/options.h"

namespace dqr::core {

// Everything saved when a search fail is caught (§4.1): the decision
// variable domains, the constraint estimates observed at the node (some
// possibly unevaluated under lazy recording), which constraints violated,
// and optionally the functions' reusable computation states.
struct FailRecord {
  cp::DomainBox box;
  std::vector<Interval> estimates;
  std::vector<char> evaluated;
  std::vector<int> violated;
  // states[c] is constraint c's saved state or null; empty when state
  // saving is off.
  std::vector<std::unique_ptr<cp::FunctionState>> states;
  // Best possible relaxation penalty of the sub-tree (the replay
  // priority).
  double brp = 0.0;
  int depth = 0;
  int64_t seq = 0;
  // Instance whose solver recorded the fail. With the shared replay pool
  // any instance may replay it; everything replay tightening needs (box,
  // estimates, states, brp) travels in the record, so `origin` is pure
  // provenance for the stolen-replay statistics.
  int origin = 0;

  // Approximate footprint for memory stats.
  int64_t MemoryBytes() const;
};

// The table of recorded fails, ordered for replay (§4.1): a priority queue
// on BRP (kBestFirst) or encounter order (kFifo, the ablated variant).
// Records with BRP above the current MRP are discarded eagerly at record
// time and lazily at pop time ("the MRP might have changed").
//
// Thread-safe: one registry is shared by the whole cluster as the global
// replay pool — every instance's solver records into it and every replayer
// (regular or speculative, on any instance) pops the globally
// most-promising fail, so MRP drops as fast as BRP ordering allows instead
// of each instance being limited to its own fails.
class FailRegistry {
 public:
  FailRegistry(ReplayOrder order, int64_t max_fails);

  // Stores `record` unless its BRP exceeds `mrp` (discarded) or the
  // registry is full (the newcomer is dropped and counted, whatever its
  // BRP — a memory guard, not expected at normal scale).
  void Record(FailRecord record, double mrp);

  // Removes and returns the next fail whose BRP is still within `mrp`;
  // fails that became hopeless are discarded on the way. nullopt when the
  // registry is exhausted.
  std::optional<FailRecord> Pop(double mrp);

  // --- leased replays (crash recovery; see DESIGN.md §7) ---
  // Like Pop, but the registry keeps ownership: the record moves into an
  // in-flight lease slot for `instance` and the returned pointer stays
  // valid (and exclusively the caller's to touch) until Commit / Requeue /
  // AbandonLease. nullptr when the pool is exhausted. If the instance
  // dies mid-replay its leases are reclaimed into the pool, so no
  // recorded fail is ever lost with the work that was replaying it.
  FailRecord* Lease(double mrp, int instance);
  // Replay finished: destroy the leased record.
  void Commit(int instance, FailRecord* record);
  // Replay interrupted (speculation shutdown): back into the pool.
  void Requeue(int instance, FailRecord* record);
  // Crash unwind: the dying instance relinquishes the lease without
  // destroying it. The record becomes eligible for ReclaimFrom; the
  // caller must not touch it afterwards.
  void AbandonLease(int instance, FailRecord* record);
  // Failure detector: moves `instance`'s abandoned leases back into the
  // pool. Returns how many were reclaimed by this call; leases the dying
  // instance has not abandoned yet are left for a later pass.
  int64_t ReclaimFrom(int instance);

  size_t size() const;
  size_t leased_count() const;
  void Clear();

  // --- statistics ---
  int64_t recorded() const;
  int64_t discarded_at_record() const;
  int64_t discarded_at_pop() const;
  int64_t dropped_full() const;
  // Lowest BRP among the dropped fails; +infinity when none was dropped.
  double min_dropped_brp() const;
  int64_t reclaimed() const;
  int64_t peak_size() const;
  int64_t state_bytes() const;
  int64_t peak_state_bytes() const;

 private:
  struct LeaseEntry {
    std::unique_ptr<FailRecord> record;
    bool abandoned = false;
  };

  // Heap position helpers (min-heap on (brp, seq)).
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  static bool Before(const FailRecord& a, const FailRecord& b) {
    return a.brp < b.brp || (a.brp == b.brp && a.seq < b.seq);
  }
  // Pops the next record regardless of MRP; false when empty.
  bool PopAnyLocked(FailRecord* out);
  // Puts a record (back) into the ordered pool, keeping its seq.
  void PushLocked(FailRecord record);
  // Locates instance's lease for `record`; aborts if absent.
  size_t FindLeaseLocked(int instance, const FailRecord* record) const;

  const ReplayOrder order_;
  const int64_t max_fails_;

  mutable std::mutex mu_;
  // kBestFirst: heap_ is a binary min-heap; kFifo: fifo_ in arrival order.
  std::vector<FailRecord> heap_;
  std::deque<FailRecord> fifo_;
  // In-flight replays keyed by instance id.
  std::unordered_map<int, std::vector<LeaseEntry>> leases_;
  size_t leased_count_ = 0;
  int64_t next_seq_ = 0;
  int64_t recorded_ = 0;
  int64_t discarded_at_record_ = 0;
  int64_t discarded_at_pop_ = 0;
  int64_t dropped_full_ = 0;
  double min_dropped_brp_ = std::numeric_limits<double>::infinity();
  int64_t reclaimed_ = 0;
  int64_t peak_size_ = 0;
  int64_t state_bytes_ = 0;
  int64_t peak_state_bytes_ = 0;
};

}  // namespace dqr::core

#endif  // DQR_CORE_FAIL_REGISTRY_H_
