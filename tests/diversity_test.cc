// The diversity extension (§3.3 future work, implemented as greedy
// result spacing): top-k results are forced apart in the decision space,
// avoiding the "many overlapping intervals" of Figure 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/knobs.h"
#include "core/refiner.h"
#include "refiner_test_util.h"
#include "testing/oracle.h"

namespace dqr::core {
namespace {

using testutil::BruteForceAll;
using testutil::ExactOnly;
using testutil::MakeSmallBundle;
using testutil::MakeTestQuery;
using testutil::TestQueryParams;

// Greedy brute-force reference: walk the quality-ordered list, keep a
// candidate unless it lies within the spacing box of a kept one.
std::vector<Solution> GreedyDiverse(std::vector<Solution> ordered,
                                    const std::vector<int64_t>& spacing,
                                    int64_t k) {
  std::vector<Solution> out;
  for (Solution& s : ordered) {
    if (static_cast<int64_t>(out.size()) >= k) break;
    bool conflict = false;
    for (const Solution& kept : out) {
      bool all_close = true;
      for (size_t i = 0; i < spacing.size(); ++i) {
        if (std::abs(s.point[i] - kept.point[i]) >= spacing[i]) {
          all_close = false;
          break;
        }
      }
      if (all_close) {
        conflict = true;
        break;
      }
    }
    if (!conflict) out.push_back(std::move(s));
  }
  return out;
}

TEST(DiversityTest, RelaxedResultsRespectSpacing) {
  const auto bundle = MakeSmallBundle();
  TestQueryParams p;
  p.contrast_min = 70.0;  // over-constrained: relaxation engages
  p.k = 4;
  const searchlight::QuerySpec query = MakeTestQuery(bundle, p);

  RefineOptions options;
  // Windows must start at least 20 cells apart (the length coordinate is
  // effectively ignored via a huge spacing).
  options.result_spacing = {20, 1000};
  options.diversity_pool_factor = 1000;  // pool covers everything

  const auto all = BruteForceAll(query, options.alpha);
  const auto expected = GreedyDiverse(all, options.result_spacing, p.k);
  ASSERT_GE(expected.size(), 2u);

  const auto run = ExecuteQuery(query, options).value();
  ASSERT_EQ(testutil::Points(run.results), testutil::Points(expected));
  for (size_t i = 0; i < run.results.size(); ++i) {
    for (size_t j = i + 1; j < run.results.size(); ++j) {
      EXPECT_GE(std::abs(run.results[i].point[0] -
                         run.results[j].point[0]),
                20);
    }
  }
}

TEST(DiversityTest, WithoutSpacingResultsMayOverlap) {
  const auto bundle = MakeSmallBundle();
  TestQueryParams p;
  p.contrast_min = 70.0;
  p.k = 4;
  const searchlight::QuerySpec query = MakeTestQuery(bundle, p);

  const auto run = ExecuteQuery(query, RefineOptions{}).value();
  // The undiversified top-k clusters around the best spike: at least two
  // results start within a few cells of each other.
  bool overlapping = false;
  for (size_t i = 0; i < run.results.size() && !overlapping; ++i) {
    for (size_t j = i + 1; j < run.results.size(); ++j) {
      if (std::abs(run.results[i].point[0] - run.results[j].point[0]) <
          20) {
        overlapping = true;
        break;
      }
    }
  }
  EXPECT_TRUE(overlapping);
}

TEST(DiversityTest, RankConstrainingRespectsSpacing) {
  const auto bundle = MakeSmallBundle();
  TestQueryParams p;
  p.avg_bounds = Interval(105, 250);
  p.contrast_min = 20.0;
  p.k = 3;
  const searchlight::QuerySpec query = MakeTestQuery(bundle, p);

  RefineOptions options;
  options.constrain = ConstrainMode::kRank;
  options.result_spacing = {15, 1000};
  options.diversity_pool_factor = 1000;

  auto exact = ExactOnly(BruteForceAll(query));
  ASSERT_GT(exact.size(), 3u);
  std::sort(exact.begin(), exact.end(),
            [](const Solution& a, const Solution& b) {
              if (a.rk != b.rk) return a.rk > b.rk;
              return a.point < b.point;
            });
  const auto expected = GreedyDiverse(exact, options.result_spacing, p.k);

  const auto run = ExecuteQuery(query, options).value();
  EXPECT_EQ(testutil::Points(run.results), testutil::Points(expected));
}

TEST(DiversityTest, RejectsBadSpacingConfigs) {
  const auto bundle = MakeSmallBundle();
  const searchlight::QuerySpec query =
      MakeTestQuery(bundle, TestQueryParams{});

  RefineOptions wrong_arity;
  wrong_arity.result_spacing = {10};  // query has two variables
  EXPECT_FALSE(ExecuteQuery(query, wrong_arity).ok());

  RefineOptions negative;
  negative.result_spacing = {-1, 10};
  EXPECT_FALSE(ExecuteQuery(query, negative).ok());

  RefineOptions bad_pool;
  bad_pool.result_spacing = {10, 10};
  bad_pool.diversity_pool_factor = 0;
  EXPECT_FALSE(ExecuteQuery(query, bad_pool).ok());
}

// k * diversity_pool_factor used to wrap around int64 unchecked: the
// engine (and the oracle alike) then tracked a nonsense pool and returned
// a short, wrong top-k. Such a factor is now rejected up front.
TEST(DiversityTest, PoolFactorThatOverflowsTheKPoolIsRejected) {
  const auto bundle = MakeSmallBundle();
  TestQueryParams p;
  p.contrast_min = 70.0;  // over-constrained: relaxation engages
  p.k = 4;
  searchlight::QuerySpec query = MakeTestQuery(bundle, p);

  RefineOptions options;
  options.result_spacing = {20, 1000};
  options.diversity_pool_factor = int64_t{1} << 62;  // 4 * 2^62 wraps
  const auto overflow = ExecuteQuery(query, options);
  ASSERT_FALSE(overflow.ok()) << overflow.value().results.size()
                              << " results from a wrapped pool";
  EXPECT_EQ(overflow.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(overflow.status().message().find("knob 'divpool'"),
            std::string::npos)
      << overflow.status().message();
  EXPECT_FALSE(fuzz::OracleRun(query, options).ok());

  // The largest factor the knob table allows still runs, and matches the
  // pool-covers-everything reference.
  options.diversity_pool_factor = kMaxDiversityPoolFactor;
  const auto run = ExecuteQuery(query, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const auto expected = GreedyDiverse(BruteForceAll(query, options.alpha),
                                      options.result_spacing, p.k);
  EXPECT_EQ(testutil::Points(run.value().results),
            testutil::Points(expected));

  // Within the factor's domain, a huge k can still overflow the pool.
  query.k = int64_t{1} << 50;
  EXPECT_FALSE(ExecuteQuery(query, options).ok());
}

}  // namespace
}  // namespace dqr::core
