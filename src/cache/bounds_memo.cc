#include "cache/bounds_memo.h"

#include <algorithm>

#include "common/check.h"

namespace dqr::cache {
namespace {

// splitmix64 finalizer, the repo's standard bit mixer (common/rng.h).
uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t MemoSpaceKey(const std::string& dataset_id, uint64_t epoch) {
  uint64_t h = Mix(epoch);
  for (const char c : dataset_id) {
    h = Mix(h ^ static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

uint64_t EpochRegistry::Current(const std::string& dataset_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = epochs_.find(dataset_id);
  return it == epochs_.end() ? 1 : it->second;
}

uint64_t EpochRegistry::Bump(const std::string& dataset_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = epochs_.emplace(dataset_id, 2);
  if (!inserted) ++it->second;
  return it->second;
}

SharedBoundsMemo::SharedBoundsMemo(size_t capacity_per_shard, int num_shards)
    : capacity_per_shard_(std::max<size_t>(1, capacity_per_shard)),
      shards_(static_cast<size_t>(std::max(1, num_shards))) {}

bool SharedBoundsMemo::Lookup(uint64_t space, int kind, int64_t lo,
                              int64_t hi, Interval* out) {
  DQR_CHECK(out != nullptr);
  const Key key{space, kind, lo, hi};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  *out = it->second;
  return true;
}

bool SharedBoundsMemo::Insert(uint64_t space, int kind, int64_t lo,
                              int64_t hi, const Interval& value) {
  const Key key{space, kind, lo, hi};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto [it, inserted] = shard.map.emplace(key, value);
  if (!inserted) {
    it->second = value;
    return false;
  }
  shard.fifo.push_back(key);
  bool evicted = false;
  while (shard.map.size() > capacity_per_shard_) {
    DQR_CHECK(!shard.fifo.empty());
    shard.map.erase(shard.fifo.front());
    shard.fifo.pop_front();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    evicted = true;
  }
  return evicted;
}

void SharedBoundsMemo::EraseSpace(uint64_t space) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      it = it->first.space == space ? shard.map.erase(it) : std::next(it);
    }
    std::erase_if(shard.fifo,
                  [space](const Key& k) { return k.space == space; });
  }
}

size_t SharedBoundsMemo::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

SharedMemoStats SharedBoundsMemo::stats() const {
  SharedMemoStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dqr::cache
