#include "core/fail_registry.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace dqr::core {

int64_t FailRecord::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(FailRecord));
  bytes += static_cast<int64_t>(box.size() * sizeof(cp::IntDomain));
  bytes += static_cast<int64_t>(estimates.size() * sizeof(Interval));
  bytes += static_cast<int64_t>(evaluated.size());
  bytes += static_cast<int64_t>(violated.size() * sizeof(int));
  for (const auto& state : states) {
    if (state != nullptr) bytes += state->SizeBytes();
  }
  return bytes;
}

FailRegistry::FailRegistry(ReplayOrder order, int64_t max_fails)
    : order_(order), max_fails_(max_fails) {
  DQR_CHECK(max_fails_ > 0);
}

void FailRegistry::SiftUp(size_t i) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void FailRegistry::SiftDown(size_t i) {
  const size_t n = heap_.size();
  while (true) {
    const size_t left = 2 * i + 1;
    const size_t right = left + 1;
    size_t best = i;
    if (left < n && Before(heap_[left], heap_[best])) best = left;
    if (right < n && Before(heap_[right], heap_[best])) best = right;
    if (best == i) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void FailRegistry::PushLocked(FailRecord record) {
  state_bytes_ += record.MemoryBytes();
  peak_state_bytes_ = std::max(peak_state_bytes_, state_bytes_);
  if (order_ == ReplayOrder::kBestFirst) {
    heap_.push_back(std::move(record));
    SiftUp(heap_.size() - 1);
  } else {
    fifo_.push_back(std::move(record));
  }
  peak_size_ = std::max(
      peak_size_, static_cast<int64_t>(order_ == ReplayOrder::kBestFirst
                                           ? heap_.size()
                                           : fifo_.size()));
}

bool FailRegistry::PopAnyLocked(FailRecord* out) {
  if (order_ == ReplayOrder::kBestFirst) {
    if (heap_.empty()) return false;
    *out = std::move(heap_.front());
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
  } else {
    if (fifo_.empty()) return false;
    *out = std::move(fifo_.front());
    fifo_.pop_front();
  }
  state_bytes_ -= out->MemoryBytes();
  return true;
}

void FailRegistry::Record(FailRecord record, double mrp) {
  std::lock_guard<std::mutex> lock(mu_);
  if (record.brp > mrp) {
    ++discarded_at_record_;
    return;
  }
  const int64_t count =
      static_cast<int64_t>(order_ == ReplayOrder::kBestFirst
                               ? heap_.size()
                               : fifo_.size());
  if (count >= max_fails_) {
    ++dropped_full_;
    min_dropped_brp_ = std::min(min_dropped_brp_, record.brp);
    return;
  }
  record.seq = next_seq_++;
  ++recorded_;
  PushLocked(std::move(record));
}

std::optional<FailRecord> FailRegistry::Pop(double mrp) {
  std::lock_guard<std::mutex> lock(mu_);
  FailRecord record;
  while (PopAnyLocked(&record)) {
    if (record.brp > mrp) {
      // Became hopeless since it was recorded (MRP shrank).
      ++discarded_at_pop_;
      continue;
    }
    return record;
  }
  return std::nullopt;
}

FailRecord* FailRegistry::Lease(double mrp, int instance) {
  std::lock_guard<std::mutex> lock(mu_);
  FailRecord record;
  while (PopAnyLocked(&record)) {
    if (record.brp > mrp) {
      ++discarded_at_pop_;
      continue;
    }
    LeaseEntry entry;
    entry.record = std::make_unique<FailRecord>(std::move(record));
    FailRecord* out = entry.record.get();
    leases_[instance].push_back(std::move(entry));
    ++leased_count_;
    return out;
  }
  return nullptr;
}

size_t FailRegistry::FindLeaseLocked(int instance,
                                     const FailRecord* record) const {
  const auto it = leases_.find(instance);
  DQR_CHECK(it != leases_.end());
  for (size_t i = 0; i < it->second.size(); ++i) {
    if (it->second[i].record.get() == record) return i;
  }
  DQR_CHECK(false);  // not a live lease of this instance
  return 0;
}

void FailRegistry::Commit(int instance, FailRecord* record) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slots = leases_[instance];
  slots.erase(slots.begin() +
              static_cast<ptrdiff_t>(FindLeaseLocked(instance, record)));
  --leased_count_;
}

void FailRegistry::Requeue(int instance, FailRecord* record) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slots = leases_[instance];
  const size_t i = FindLeaseLocked(instance, record);
  PushLocked(std::move(*slots[i].record));
  slots.erase(slots.begin() + static_cast<ptrdiff_t>(i));
  --leased_count_;
}

void FailRegistry::AbandonLease(int instance, FailRecord* record) {
  std::lock_guard<std::mutex> lock(mu_);
  leases_[instance][FindLeaseLocked(instance, record)].abandoned = true;
}

int64_t FailRegistry::ReclaimFrom(int instance) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = leases_.find(instance);
  if (it == leases_.end()) return 0;
  int64_t count = 0;
  auto& slots = it->second;
  for (size_t i = 0; i < slots.size();) {
    if (!slots[i].abandoned) {
      ++i;  // still being unwound by the dying instance; next pass
      continue;
    }
    PushLocked(std::move(*slots[i].record));
    slots.erase(slots.begin() + static_cast<ptrdiff_t>(i));
    --leased_count_;
    ++count;
  }
  reclaimed_ += count;
  return count;
}

size_t FailRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return order_ == ReplayOrder::kBestFirst ? heap_.size() : fifo_.size();
}

size_t FailRegistry::leased_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return leased_count_;
}

int64_t FailRegistry::reclaimed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reclaimed_;
}

void FailRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  heap_.clear();
  fifo_.clear();
  state_bytes_ = 0;
}

int64_t FailRegistry::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}
int64_t FailRegistry::discarded_at_record() const {
  std::lock_guard<std::mutex> lock(mu_);
  return discarded_at_record_;
}
int64_t FailRegistry::discarded_at_pop() const {
  std::lock_guard<std::mutex> lock(mu_);
  return discarded_at_pop_;
}
int64_t FailRegistry::dropped_full() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_full_;
}
double FailRegistry::min_dropped_brp() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_dropped_brp_;
}
int64_t FailRegistry::peak_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_size_;
}
int64_t FailRegistry::state_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_bytes_;
}
int64_t FailRegistry::peak_state_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_state_bytes_;
}

}  // namespace dqr::core
