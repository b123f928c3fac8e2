#include "data/grid_synthetic.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "searchlight/functions.h"

namespace dqr::data {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Result<std::shared_ptr<array::Grid>> GenerateGridSynthetic(
    const GridSyntheticOptions& options) {
  if (options.rows <= 0 || options.cols <= 0) {
    return InvalidArgumentError("grid extents must be positive");
  }
  if (options.region_size <= 0 || options.spike_size <= 0) {
    return InvalidArgumentError("region and spike sizes must be positive");
  }

  Rng rng(options.seed);
  std::vector<double> values(
      static_cast<size_t>(options.rows * options.cols));

  for (int64_t ry = 0; ry < options.rows; ry += options.region_size) {
    for (int64_t rx = 0; rx < options.cols; rx += options.region_size) {
      const int64_t ry1 = std::min(options.rows, ry + options.region_size);
      const int64_t rx1 = std::min(options.cols, rx + options.region_size);
      const double base = rng.Uniform(options.base_lo, options.base_hi);
      for (int64_t y = ry; y < ry1; ++y) {
        for (int64_t x = rx; x < rx1; ++x) {
          values[static_cast<size_t>(y * options.cols + x)] =
              base + options.noise_sigma * rng.NextGaussian();
        }
      }
      const int64_t spikes =
          static_cast<int64_t>(options.spikes_per_region) +
          (rng.NextDouble() < (options.spikes_per_region -
                               static_cast<int64_t>(
                                   options.spikes_per_region))
               ? 1
               : 0);
      for (int64_t s = 0; s < spikes; ++s) {
        const bool strong = rng.Bernoulli(options.strong_fraction);
        const double height =
            strong ? rng.Uniform(options.strong_height_lo,
                                 options.strong_height_hi)
                   : rng.Uniform(options.spike_height_lo,
                                 options.spike_height_hi);
        const int64_t sy = rng.UniformInt(
            ry, std::max(ry, ry1 - options.spike_size));
        const int64_t sx = rng.UniformInt(
            rx, std::max(rx, rx1 - options.spike_size));
        for (int64_t y = sy; y < std::min(ry1, sy + options.spike_size);
             ++y) {
          for (int64_t x = sx; x < std::min(rx1, sx + options.spike_size);
               ++x) {
            values[static_cast<size_t>(y * options.cols + x)] += height;
          }
        }
      }
    }
  }

  for (double& v : values) {
    v = std::clamp(v, options.value_lo, options.value_hi);
  }

  array::GridSchema schema;
  schema.name = "grid_synthetic";
  schema.attribute = "amp";
  schema.rows = options.rows;
  schema.cols = options.cols;
  schema.tile_size = options.tile_size;
  return array::Grid::FromData(std::move(schema), std::move(values));
}

Result<GridBundle> MakeGridDataset(int64_t rows, int64_t cols,
                                   uint64_t seed) {
  GridSyntheticOptions options;
  options.rows = rows;
  options.cols = cols;
  options.seed = seed;
  auto grid_result = GenerateGridSynthetic(options);
  if (!grid_result.ok()) return grid_result.status();
  std::shared_ptr<array::Grid> grid = std::move(grid_result).value();
  auto synopsis_result =
      synopsis::GridSynopsis::Build(*grid, synopsis::GridSynopsisOptions{});
  if (!synopsis_result.ok()) return synopsis_result.status();
  grid->ResetAccessStats();
  GridBundle bundle;
  bundle.grid = std::move(grid);
  bundle.synopsis = std::move(synopsis_result).value();
  return bundle;
}

searchlight::QuerySpec MakeGridQuery(const GridBundle& bundle,
                                     const GridQueryTuning& tuning) {
  DQR_CHECK(bundle.grid != nullptr && bundle.synopsis != nullptr);
  const int64_t rows = bundle.grid->rows();
  const int64_t cols = bundle.grid->cols();
  const int64_t margin = tuning.nbhd_width;
  DQR_CHECK(rows > tuning.extent_hi + 2);
  DQR_CHECK(cols > 2 * margin + tuning.extent_hi + 2);

  // Bounds: the 2-D analogue of S-SEL / S-LOS. Selective queries declare
  // tight hard ranges (relaxation stays selective even maximal).
  const Interval avg_bounds(150, 200);
  const Interval avg_range =
      tuning.selective ? Interval(140, 210) : Interval(50, 250);
  const double contrast_min = 112.0;
  const Interval contrast_range =
      tuning.selective ? Interval(64, 130) : Interval(0, 200);

  const auto relax = [&](const Interval& bounds, const Interval& range) {
    double lo = bounds.lo;
    double hi = bounds.hi;
    if (std::isfinite(lo)) {
      lo -= tuning.relax_fraction * std::max(0.0, lo - range.lo);
    }
    if (std::isfinite(hi)) {
      hi += tuning.relax_fraction * std::max(0.0, range.hi - hi);
    }
    return Interval(lo, hi);
  };

  searchlight::QuerySpec query;
  query.name = tuning.selective ? "G-SEL" : "G-LOS";
  query.k = tuning.k;
  query.domains = {
      cp::IntDomain(0, rows - tuning.extent_hi - 1),            // y
      cp::IntDomain(margin, cols - tuning.extent_hi - margin - 1),  // x
      cp::IntDomain(tuning.extent_lo, tuning.extent_hi),        // h
      cp::IntDomain(tuning.extent_lo, tuning.extent_hi),        // w
  };

  searchlight::GridFunctionContext base_ctx;
  base_ctx.grid = bundle.grid;
  base_ctx.synopsis = bundle.synopsis;
  base_ctx.estimate_cost_ns = tuning.estimate_cost_ns;

  {
    searchlight::QueryConstraint c;
    searchlight::GridFunctionContext ctx = base_ctx;
    ctx.value_range = avg_range;
    c.make_function = [ctx] {
      return std::make_unique<searchlight::RectAvgFunction>(ctx);
    };
    c.bounds = relax(avg_bounds, avg_range);
    c.name = "c1_rect_avg";
    query.constraints.push_back(std::move(c));
  }
  for (const auto side : {searchlight::RectContrastFunction::Side::kLeft,
                          searchlight::RectContrastFunction::Side::kRight}) {
    searchlight::QueryConstraint c;
    searchlight::GridFunctionContext ctx = base_ctx;
    ctx.value_range = contrast_range;
    const int64_t width = tuning.nbhd_width;
    c.make_function = [ctx, side, width] {
      return std::make_unique<searchlight::RectContrastFunction>(ctx, side,
                                                                 width);
    };
    c.bounds = relax(Interval(contrast_min, kInf), contrast_range);
    c.name = side == searchlight::RectContrastFunction::Side::kLeft
                 ? "c2_rect_left"
                 : "c3_rect_right";
    query.constraints.push_back(std::move(c));
  }
  return query;
}

}  // namespace dqr::data
