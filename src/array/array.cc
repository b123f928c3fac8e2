#include "array/array.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/simd.h"
#include "common/stopwatch.h"

namespace dqr::array {

Result<std::shared_ptr<Array>> Array::FromData(ArraySchema schema,
                                               std::vector<double> data) {
  if (schema.length < 0) {
    return InvalidArgumentError("array length must be non-negative");
  }
  if (schema.chunk_size <= 0) {
    return InvalidArgumentError("chunk size must be positive");
  }
  if (static_cast<int64_t>(data.size()) != schema.length) {
    return InvalidArgumentError("data size does not match schema length");
  }
  return std::shared_ptr<Array>(
      new Array(std::move(schema), std::move(data)));
}

Array::Array(ArraySchema schema, std::vector<double> data)
    : schema_(std::move(schema)) {
  const int64_t n = schema_.length;
  const int64_t cs = schema_.chunk_size;
  chunks_.reserve(static_cast<size_t>(schema_.num_chunks()));
  for (int64_t lo = 0; lo < n; lo += cs) {
    const int64_t hi = std::min(n, lo + cs);
    chunks_.emplace_back(data.begin() + lo, data.begin() + hi);
  }
}

double Array::At(int64_t pos) const {
  DQR_CHECK(pos >= 0 && pos < schema_.length);
  const int64_t chunk = pos / schema_.chunk_size;
  ChargeAccess(chunk, chunk, 1);
  return chunks_[static_cast<size_t>(chunk)]
                [static_cast<size_t>(pos % schema_.chunk_size)];
}

WindowAggregates Array::AggregateWindow(int64_t lo, int64_t hi) const {
  DQR_CHECK(lo >= 0 && lo < hi && hi <= schema_.length);
  const int64_t cs = schema_.chunk_size;
  WindowAggregates out;
  out.min = chunks_[static_cast<size_t>(lo / cs)]
                   [static_cast<size_t>(lo % cs)];
  out.max = out.min;

  int64_t pos = lo;
  while (pos < hi) {
    const int64_t chunk = pos / cs;
    const int64_t chunk_end = std::min(hi, (chunk + 1) * cs);
    const std::vector<double>& values = chunks_[static_cast<size_t>(chunk)];
    for (int64_t p = pos; p < chunk_end; ++p) {
      const double v = values[static_cast<size_t>(p % cs)];
      out.min = std::min(out.min, v);
      out.max = std::max(out.max, v);
      out.sum += v;
    }
    pos = chunk_end;
  }
  out.count = hi - lo;
  ChargeAccess(lo / cs, (hi - 1) / cs, hi - lo);
  return out;
}

void Array::MaxOverBatch(const int64_t* lo, const int64_t* hi, int64_t n,
                         double* out) const {
  const int64_t cs = schema_.chunk_size;
  for (int64_t k = 0; k < n; ++k) {
    const int64_t l = lo[k];
    const int64_t h = hi[k];
    DQR_CHECK(l >= 0 && l < h && h <= schema_.length);
    double mx = chunks_[static_cast<size_t>(l / cs)]
                       [static_cast<size_t>(l % cs)];
    int64_t pos = l;
    while (pos < h) {
      const int64_t chunk = pos / cs;
      const int64_t chunk_end = std::min(h, (chunk + 1) * cs);
      const std::vector<double>& values =
          chunks_[static_cast<size_t>(chunk)];
      mx = std::max(
          mx, simd::MaxReduce(values.data() + pos % cs, chunk_end - pos));
      pos = chunk_end;
    }
    out[k] = mx;
    ChargeAccess(l / cs, (h - 1) / cs, h - l);
  }
}

void Array::MinOverBatch(const int64_t* lo, const int64_t* hi, int64_t n,
                         double* out) const {
  const int64_t cs = schema_.chunk_size;
  for (int64_t k = 0; k < n; ++k) {
    const int64_t l = lo[k];
    const int64_t h = hi[k];
    DQR_CHECK(l >= 0 && l < h && h <= schema_.length);
    double mn = chunks_[static_cast<size_t>(l / cs)]
                       [static_cast<size_t>(l % cs)];
    int64_t pos = l;
    while (pos < h) {
      const int64_t chunk = pos / cs;
      const int64_t chunk_end = std::min(h, (chunk + 1) * cs);
      const std::vector<double>& values =
          chunks_[static_cast<size_t>(chunk)];
      mn = std::min(
          mn, simd::MinReduce(values.data() + pos % cs, chunk_end - pos));
      pos = chunk_end;
    }
    out[k] = mn;
    ChargeAccess(l / cs, (h - 1) / cs, h - l);
  }
}

void Array::ChargeAccess(int64_t first_chunk, int64_t last_chunk,
                         int64_t cells) const {
  const int64_t chunks = last_chunk - first_chunk + 1;
  chunks_touched_.fetch_add(chunks, std::memory_order_relaxed);
  cells_read_.fetch_add(cells, std::memory_order_relaxed);
  BusyWait(chunk_cost_ns_ * chunks);
}

AccessStats Array::GetAccessStats() const {
  AccessStats stats;
  stats.chunks_touched = chunks_touched_.load(std::memory_order_relaxed);
  stats.cells_read = cells_read_.load(std::memory_order_relaxed);
  return stats;
}

void Array::ResetAccessStats() {
  chunks_touched_.store(0, std::memory_order_relaxed);
  cells_read_.store(0, std::memory_order_relaxed);
}

std::vector<double> Array::Dump() const {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(schema_.length));
  for (const std::vector<double>& chunk : chunks_) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

}  // namespace dqr::array
