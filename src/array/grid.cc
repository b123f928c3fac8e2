#include "array/grid.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/simd.h"
#include "common/stopwatch.h"

namespace dqr::array {

Result<std::shared_ptr<Grid>> Grid::FromData(GridSchema schema,
                                             std::vector<double> data) {
  if (schema.rows < 0 || schema.cols < 0) {
    return InvalidArgumentError("grid extents must be non-negative");
  }
  if (schema.tile_size <= 0) {
    return InvalidArgumentError("tile size must be positive");
  }
  if (static_cast<int64_t>(data.size()) != schema.rows * schema.cols) {
    return InvalidArgumentError("data size does not match grid extents");
  }
  return std::shared_ptr<Grid>(new Grid(std::move(schema),
                                        std::move(data)));
}

Grid::Grid(GridSchema schema, std::vector<double> data)
    : schema_(std::move(schema)), data_(std::move(data)) {}

double Grid::At(int64_t row, int64_t col) const {
  DQR_CHECK(row >= 0 && row < schema_.rows);
  DQR_CHECK(col >= 0 && col < schema_.cols);
  ChargeAccess(1, 1);
  return data_[static_cast<size_t>(row * schema_.cols + col)];
}

WindowAggregates Grid::AggregateRect(int64_t r0, int64_t r1, int64_t c0,
                                     int64_t c1) const {
  DQR_CHECK(0 <= r0 && r0 < r1 && r1 <= schema_.rows);
  DQR_CHECK(0 <= c0 && c0 < c1 && c1 <= schema_.cols);
  WindowAggregates out;
  out.min = data_[static_cast<size_t>(r0 * schema_.cols + c0)];
  out.max = out.min;
  for (int64_t r = r0; r < r1; ++r) {
    const double* row = &data_[static_cast<size_t>(r * schema_.cols)];
    for (int64_t c = c0; c < c1; ++c) {
      const double v = row[c];
      out.min = std::min(out.min, v);
      out.max = std::max(out.max, v);
      out.sum += v;
    }
  }
  out.count = (r1 - r0) * (c1 - c0);

  const int64_t ts = schema_.tile_size;
  const int64_t tiles =
      ((r1 - 1) / ts - r0 / ts + 1) * ((c1 - 1) / ts - c0 / ts + 1);
  ChargeAccess(tiles, out.count);
  return out;
}

void Grid::MaxOverRectsBatch(const int64_t* r0, const int64_t* r1,
                             const int64_t* c0, const int64_t* c1,
                             int64_t n, double* out) const {
  const int64_t ts = schema_.tile_size;
  for (int64_t k = 0; k < n; ++k) {
    DQR_CHECK(0 <= r0[k] && r0[k] < r1[k] && r1[k] <= schema_.rows);
    DQR_CHECK(0 <= c0[k] && c0[k] < c1[k] && c1[k] <= schema_.cols);
    const int64_t width = c1[k] - c0[k];
    double mx = data_[static_cast<size_t>(r0[k] * schema_.cols + c0[k])];
    for (int64_t r = r0[k]; r < r1[k]; ++r) {
      const double* row =
          &data_[static_cast<size_t>(r * schema_.cols + c0[k])];
      mx = std::max(mx, simd::MaxReduce(row, width));
    }
    out[k] = mx;
    const int64_t tiles = ((r1[k] - 1) / ts - r0[k] / ts + 1) *
                          ((c1[k] - 1) / ts - c0[k] / ts + 1);
    ChargeAccess(tiles, (r1[k] - r0[k]) * width);
  }
}

void Grid::ChargeAccess(int64_t tiles, int64_t cells) const {
  tiles_touched_.fetch_add(tiles, std::memory_order_relaxed);
  cells_read_.fetch_add(cells, std::memory_order_relaxed);
  BusyWait(tile_cost_ns_ * tiles);
}

AccessStats Grid::GetAccessStats() const {
  AccessStats stats;
  stats.chunks_touched = tiles_touched_.load(std::memory_order_relaxed);
  stats.cells_read = cells_read_.load(std::memory_order_relaxed);
  return stats;
}

void Grid::ResetAccessStats() {
  tiles_touched_.store(0, std::memory_order_relaxed);
  cells_read_.store(0, std::memory_order_relaxed);
}

}  // namespace dqr::array
