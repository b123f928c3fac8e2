#ifndef DQR_TESTS_REFINER_TEST_UTIL_H_
#define DQR_TESTS_REFINER_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "array/array.h"
#include "common/rng.h"
#include "core/bundle.h"
#include "core/model_builders.h"
#include "core/solution.h"
#include "searchlight/functions.h"
#include "searchlight/query.h"
#include "synopsis/synopsis.h"

namespace dqr::testutil {

struct SmallBundle {
  std::shared_ptr<array::Array> array;
  std::shared_ptr<synopsis::Synopsis> synopsis;
};

// A small crafted signal: calm base around 100, two elevated plateaus
// (120 and 160), and a handful of spikes of varying height on and off the
// plateaus. Gives the canned test queries non-trivial exact and relaxed
// result sets while staying brute-forceable.
inline SmallBundle MakeSmallBundle(int64_t n = 600, uint64_t seed = 5) {
  Rng rng(seed);
  std::vector<double> data(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    double v = 100.0 + 2.0 * rng.NextGaussian();
    if (i >= n / 4 && i < n / 4 + 60) v += 20.0;        // plateau A: ~120
    if (i >= n / 2 && i < n / 2 + 80) v += 60.0;        // plateau B: ~160
    data[static_cast<size_t>(i)] = v;
  }
  // Spikes: position -> height.
  const int64_t spike_at[] = {60, n / 4 + 20, n / 2 + 10, n / 2 + 40,
                              5 * n / 6};
  const double heights[] = {35.0, 35.0, 45.0, 60.0, 50.0};
  for (size_t s = 0; s < 5; ++s) {
    for (int64_t i = spike_at[s]; i < spike_at[s] + 3 && i < n; ++i) {
      data[static_cast<size_t>(i)] += heights[s];
    }
  }
  for (double& v : data) v = std::clamp(v, 50.0, 250.0);

  array::ArraySchema schema;
  schema.name = "refiner_test";
  schema.length = n;
  schema.chunk_size = 64;
  SmallBundle bundle;
  bundle.array = array::Array::FromData(schema, std::move(data)).value();
  bundle.synopsis =
      synopsis::Synopsis::Build(*bundle.array,
                                synopsis::SynopsisOptions{{128, 16}, 16})
          .value();
  return bundle;
}

struct TestQueryParams {
  Interval avg_bounds = Interval(150, 200);
  Interval avg_range = Interval(50, 250);
  double contrast_min = 40.0;
  Interval contrast_range = Interval(0, 200);
  int64_t k = 5;
  int64_t len_lo = 4;
  int64_t len_hi = 10;
  int64_t nbhd = 6;
  bool contrast_relaxable = true;
};

inline searchlight::QuerySpec MakeTestQuery(const SmallBundle& bundle,
                                            const TestQueryParams& p) {
  searchlight::QuerySpec query;
  query.name = "test_query";
  query.k = p.k;
  const int64_t n = bundle.array->length();
  query.domains = {cp::IntDomain(p.nbhd, n - p.len_hi - p.nbhd - 1),
                   cp::IntDomain(p.len_lo, p.len_hi)};

  searchlight::WindowFunctionContext ctx;
  ctx.array = bundle.array;
  ctx.synopsis = bundle.synopsis;

  {
    searchlight::QueryConstraint c;
    searchlight::WindowFunctionContext avg_ctx = ctx;
    avg_ctx.value_range = p.avg_range;
    c.make_function = [avg_ctx] {
      return std::make_unique<searchlight::AvgFunction>(avg_ctx);
    };
    c.bounds = p.avg_bounds;
    c.name = "avg";
    query.constraints.push_back(std::move(c));
  }
  for (const auto side :
       {searchlight::NeighborhoodContrastFunction::Side::kLeft,
        searchlight::NeighborhoodContrastFunction::Side::kRight}) {
    searchlight::QueryConstraint c;
    searchlight::WindowFunctionContext con_ctx = ctx;
    con_ctx.value_range = p.contrast_range;
    const int64_t width = p.nbhd;
    c.make_function = [con_ctx, side, width] {
      return std::make_unique<searchlight::NeighborhoodContrastFunction>(
          con_ctx, side, width);
    };
    c.bounds =
        Interval(p.contrast_min, std::numeric_limits<double>::infinity());
    c.relaxable = p.contrast_relaxable;
    query.constraints.push_back(std::move(c));
  }
  return query;
}

// Exhaustively evaluates every assignment of `query` the way the engine's
// Validator would, returning all solutions with finite RP sorted by
// (rp, point). rk is filled from the query's rank model.
inline std::vector<core::Solution> BruteForceAll(
    const searchlight::QuerySpec& query, double alpha = 0.5) {
  const core::PenaltyModel penalty =
      core::BuildPenaltyModel(query, alpha).value();
  const core::RankModel rank = core::BuildRankModel(query).value();
  core::ConstraintBundle bundle(query);

  std::vector<core::Solution> out;
  for (int64_t x = query.domains[0].lo; x <= query.domains[0].hi; ++x) {
    for (int64_t l = query.domains[1].lo; l <= query.domains[1].hi; ++l) {
      core::Solution s;
      s.point = {x, l};
      s.values = bundle.EvaluateAll(s.point);
      s.rp = penalty.Penalty(s.values);
      if (std::isinf(s.rp)) continue;
      s.rk = rank.Rank(s.values);
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const core::Solution& a, const core::Solution& b) {
              if (a.rp != b.rp) return a.rp < b.rp;
              return a.point < b.point;
            });
  return out;
}

inline std::vector<core::Solution> ExactOnly(
    std::vector<core::Solution> all) {
  std::vector<core::Solution> out;
  for (auto& s : all) {
    if (s.rp == 0.0) out.push_back(std::move(s));
  }
  return out;
}

inline std::vector<std::vector<int64_t>> Points(
    const std::vector<core::Solution>& solutions) {
  std::vector<std::vector<int64_t>> out;
  out.reserve(solutions.size());
  for (const auto& s : solutions) out.push_back(s.point);
  return out;
}

}  // namespace dqr::testutil

#endif  // DQR_TESTS_REFINER_TEST_UTIL_H_
