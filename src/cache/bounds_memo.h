#ifndef DQR_CACHE_BOUNDS_MEMO_H_
#define DQR_CACHE_BOUNDS_MEMO_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/interval.h"

namespace dqr::cache {

// Derives the memo-space key of one (dataset, epoch) pair. A memo space
// must identify everything a cached interval depends on: the base data,
// the synopsis built over it, and the mutation epoch. Callers that run
// several synopsis configurations over the same dataset must fold the
// configuration into `dataset_id`.
uint64_t MemoSpaceKey(const std::string& dataset_id, uint64_t epoch);

// Per-dataset mutation epochs. Epochs start at 1 and only grow; bumping
// the epoch retires every memo space and cached answer keyed under the
// old one (they simply stop matching), which is how array mutation
// invalidates the semantic cache without scanning it.
class EpochRegistry {
 public:
  // Current epoch of `dataset_id` (1 if never bumped).
  uint64_t Current(const std::string& dataset_id) const;
  // Advances the epoch after a mutation; returns the new value.
  uint64_t Bump(const std::string& dataset_id);

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, uint64_t> epochs_;
};

// Cumulative counters of a SharedBoundsMemo.
struct SharedMemoStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
};

// The process-wide L2 behind each solver's searchlight::BoundsCache:
// synopsis window bounds keyed on (memo space, kind, lo, hi), shared by
// every function instance of every concurrent query over the same data.
// A window's bounds are a pure function of (synopsis, kind, window), so a
// hit returns exactly the interval the synopsis would recompute — reuse
// is value-identical, it only skips the (possibly artificially expensive)
// lookup.
//
// Thread-safe via sharded mutexes: a key hashes to one of `num_shards`
// independent shards, so concurrent queries contend only on colliding
// shards. Eviction is per-shard FIFO under a per-shard capacity.
class SharedBoundsMemo {
 public:
  explicit SharedBoundsMemo(size_t capacity_per_shard = size_t{1} << 14,
                            int num_shards = 16);

  // Copies the memoized interval into *out and returns true on a hit.
  bool Lookup(uint64_t space, int kind, int64_t lo, int64_t hi,
              Interval* out);
  // Publishes an interval; overwrites silently if present. Returns true
  // when an unrelated entry was evicted to make room.
  bool Insert(uint64_t space, int kind, int64_t lo, int64_t hi,
              const Interval& value);

  // Drops every entry of one memo space (epoch invalidation).
  void EraseSpace(uint64_t space);

  size_t size() const;
  SharedMemoStats stats() const;

 private:
  struct Key {
    uint64_t space;
    int kind;
    int64_t lo;
    int64_t hi;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.space * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(k.kind) + 0x9e3779b97f4a7c15ULL + (h << 6);
      h ^= static_cast<uint64_t>(k.lo) + 0x9e3779b97f4a7c15ULL + (h << 6);
      h ^= static_cast<uint64_t>(k.hi) + 0x9e3779b97f4a7c15ULL + (h << 6);
      return static_cast<size_t>(h ^ (h >> 29));
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Interval, KeyHash> map;
    // Insertion order over the map's keys; front = eviction candidate.
    std::deque<Key> fifo;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[KeyHash{}(key) % shards_.size()];
  }

  const size_t capacity_per_shard_;
  std::deque<Shard> shards_;  // deque: Shard is not movable (mutex)
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace dqr::cache

#endif  // DQR_CACHE_BOUNDS_MEMO_H_
