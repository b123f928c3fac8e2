#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/refiner.h"
#include "refiner_test_util.h"

namespace dqr::core {
namespace {

using testutil::BruteForceAll;
using testutil::ExactOnly;
using testutil::MakeSmallBundle;
using testutil::MakeTestQuery;
using testutil::Points;
using testutil::TestQueryParams;

TEST(RefinerEdgeTest, RejectsMalformedQueries) {
  const auto bundle = MakeSmallBundle();
  searchlight::QuerySpec query = MakeTestQuery(bundle, TestQueryParams{});

  searchlight::QuerySpec no_vars = query;
  no_vars.domains.clear();
  EXPECT_FALSE(ExecuteQuery(no_vars, RefineOptions{}).ok());

  searchlight::QuerySpec empty_domain = query;
  empty_domain.domains[0] = cp::IntDomain(5, 3);
  EXPECT_FALSE(ExecuteQuery(empty_domain, RefineOptions{}).ok());

  searchlight::QuerySpec bad_k = query;
  bad_k.k = -1;
  EXPECT_FALSE(ExecuteQuery(bad_k, RefineOptions{}).ok());

  searchlight::QuerySpec no_factory = query;
  no_factory.constraints[0].make_function = nullptr;
  EXPECT_FALSE(ExecuteQuery(no_factory, RefineOptions{}).ok());

  searchlight::QuerySpec bad_weight = query;
  bad_weight.constraints[0].relax_weight = 2.0;
  EXPECT_FALSE(ExecuteQuery(bad_weight, RefineOptions{}).ok());

  // NaN passes any check of the form `x < lo || x > hi`.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  searchlight::QuerySpec nan_weight = query;
  nan_weight.constraints[0].relax_weight = nan;
  EXPECT_FALSE(ExecuteQuery(nan_weight, RefineOptions{}).ok());

  searchlight::QuerySpec nan_bound = query;
  nan_bound.constraints[0].bounds.lo = nan;
  EXPECT_FALSE(ExecuteQuery(nan_bound, RefineOptions{}).ok());
}

TEST(RefinerEdgeTest, RejectsMalformedOptions) {
  const auto bundle = MakeSmallBundle();
  const searchlight::QuerySpec query =
      MakeTestQuery(bundle, TestQueryParams{});

  RefineOptions bad_alpha;
  bad_alpha.alpha = 1.5;
  EXPECT_FALSE(ExecuteQuery(query, bad_alpha).ok());

  RefineOptions bad_rrd;
  bad_rrd.replay_relaxation_distance = 0.0;
  EXPECT_FALSE(ExecuteQuery(query, bad_rrd).ok());

  RefineOptions nan_alpha;
  nan_alpha.alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ExecuteQuery(query, nan_alpha).ok());

  RefineOptions nan_rrd;
  nan_rrd.replay_relaxation_distance =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ExecuteQuery(query, nan_rrd).ok());

  RefineOptions bad_instances;
  bad_instances.num_instances = 0;
  EXPECT_FALSE(ExecuteQuery(query, bad_instances).ok());

  RefineOptions bad_cap;
  bad_cap.max_recorded_fails = 0;
  EXPECT_FALSE(ExecuteQuery(query, bad_cap).ok());

  // Warm results must be points of the search space with one finite
  // value per constraint.
  const std::vector<Solution> all = BruteForceAll(query);
  ASSERT_FALSE(all.empty());
  const auto rejected = [&](const RefineOptions& options) {
    return ExecuteQuery(query, options).status().code() ==
           StatusCode::kInvalidArgument;
  };

  RefineOptions warm_point_arity;
  warm_point_arity.warm_results = {all.front()};
  warm_point_arity.warm_results[0].point.push_back(0);
  EXPECT_TRUE(rejected(warm_point_arity));

  RefineOptions warm_value_arity;
  warm_value_arity.warm_results = {all.front()};
  warm_value_arity.warm_results[0].values.pop_back();
  EXPECT_TRUE(rejected(warm_value_arity));

  RefineOptions warm_outside;
  warm_outside.warm_results = {all.front()};
  warm_outside.warm_results[0].point[0] = query.domains[0].hi + 1;
  EXPECT_TRUE(rejected(warm_outside));

  RefineOptions warm_nan;
  warm_nan.warm_results = {all.front()};
  warm_nan.warm_results[0].values[0] =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(rejected(warm_nan));

  RefineOptions warm_inf;
  warm_inf.warm_results = {all.front()};
  warm_inf.warm_results[0].values[0] =
      std::numeric_limits<double>::infinity();
  EXPECT_TRUE(rejected(warm_inf));
}

// Warm results are re-scored under the query's own models, so garbage in
// their rp/rk fields cannot leak into the answer: seeding every
// finite-penalty point, scores scrambled, returns exactly the cold results.
TEST(RefinerEdgeTest, WarmResultScoresAreRecomputed) {
  const auto bundle = MakeSmallBundle();
  TestQueryParams relaxing;
  relaxing.contrast_min = 70.0;
  TestQueryParams constraining;
  constraining.avg_bounds = Interval(105, 250);
  constraining.contrast_min = 20.0;
  for (const TestQueryParams& p : {relaxing, constraining}) {
    const searchlight::QuerySpec query = MakeTestQuery(bundle, p);
    const RunResult cold = ExecuteQuery(query, RefineOptions{}).value();

    RefineOptions seeded;
    seeded.warm_results = BruteForceAll(query);
    for (Solution& s : seeded.warm_results) {
      s.rp = -1.0;
      s.rk = std::numeric_limits<double>::quiet_NaN();
    }
    const RunResult warm = ExecuteQuery(query, seeded).value();
    ASSERT_EQ(warm.results.size(), cold.results.size());
    for (size_t i = 0; i < cold.results.size(); ++i) {
      EXPECT_EQ(warm.results[i].point, cold.results[i].point);
      EXPECT_EQ(warm.results[i].rp, cold.results[i].rp);
      EXPECT_EQ(warm.results[i].rk, cold.results[i].rk);
    }
  }
}

TEST(RefinerEdgeTest, KZeroReturnsEveryExactResult) {
  const auto bundle = MakeSmallBundle();
  TestQueryParams p;
  p.avg_bounds = Interval(105, 250);
  p.contrast_min = 20.0;
  p.k = 0;
  const searchlight::QuerySpec query = MakeTestQuery(bundle, p);

  const auto exact = ExactOnly(BruteForceAll(query));
  const auto run = ExecuteQuery(query, RefineOptions{}).value();
  auto expected = Points(exact);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(Points(run.results), expected);
  EXPECT_EQ(run.stats.fails_recorded, 0);  // refinement inactive
}

TEST(RefinerEdgeTest, TimeBudgetCancelsCleanly) {
  const auto bundle = MakeSmallBundle();
  TestQueryParams p;
  p.contrast_min = 70.0;
  const searchlight::QuerySpec query = MakeTestQuery(bundle, p);
  RefineOptions options;
  options.time_budget_s = 1e-7;  // expires immediately
  const auto run = ExecuteQuery(query, options).value();
  EXPECT_FALSE(run.stats.completed);
}

TEST(RefinerEdgeTest, MoreInstancesThanDomainValues) {
  const auto bundle = MakeSmallBundle();
  TestQueryParams p;
  p.avg_bounds = Interval(105, 250);
  p.contrast_min = 20.0;
  searchlight::QuerySpec query = MakeTestQuery(bundle, p);
  // Shrink variable 0 to three values.
  query.domains[0] = cp::IntDomain(300, 302);

  RefineOptions options;
  options.num_instances = 16;  // more than |domain 0|
  const auto run = ExecuteQuery(query, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const auto all = BruteForceAll(query);
  EXPECT_EQ(run.value().results.size(),
            std::min(all.size(), static_cast<size_t>(query.k)));
}

TEST(RefinerEdgeTest, SingleValueDomains) {
  const auto bundle = MakeSmallBundle();
  TestQueryParams p;
  p.avg_bounds = Interval(50, 250);  // always satisfied
  p.contrast_min = 0.0;
  searchlight::QuerySpec query = MakeTestQuery(bundle, p);
  query.domains[0] = cp::IntDomain(100, 100);
  query.domains[1] = cp::IntDomain(6, 6);
  query.k = 10;

  const auto run = ExecuteQuery(query, RefineOptions{}).value();
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].point, (std::vector<int64_t>{100, 6}));
}

// The fail cap drops every fail recorded once the registry is full,
// whatever its BRP, so a dropped fail may hold a better relaxation than
// the answer's worst. The run must then say it is not complete (and the
// semantic cache and the serve FINAL frame follow that flag), instead of
// passing a possibly wrong top-k off as the §3 answer.
TEST(RefinerEdgeTest, FailCapOverflowReportsAnIncompleteAnswer) {
  const auto bundle = MakeSmallBundle();
  TestQueryParams p;
  p.contrast_min = 70.0;  // over-constrained: relaxation engages
  p.k = 4;
  const searchlight::QuerySpec query = MakeTestQuery(bundle, p);

  RefineOptions capped;
  capped.max_recorded_fails = 1;
  const RunResult run = ExecuteQuery(query, capped).value();
  EXPECT_GT(run.stats.fails_dropped_full, 0);
  EXPECT_FALSE(run.stats.completed);

  // With room for every fail the same query completes.
  const RunResult full = ExecuteQuery(query, RefineOptions{}).value();
  EXPECT_EQ(full.stats.fails_dropped_full, 0);
  EXPECT_TRUE(full.stats.completed);
}

TEST(RefinerEdgeTest, RepeatedExecutionIsDeterministic) {
  const auto bundle = MakeSmallBundle();
  TestQueryParams p;
  p.contrast_min = 70.0;
  const searchlight::QuerySpec query = MakeTestQuery(bundle, p);

  RefineOptions options;
  options.num_instances = 2;
  const auto run1 = ExecuteQuery(query, options).value();
  const auto run2 = ExecuteQuery(query, options).value();
  EXPECT_EQ(Points(run1.results), Points(run2.results));
}

}  // namespace
}  // namespace dqr::core
