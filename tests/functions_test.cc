#include "searchlight/functions.h"

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <memory>
#include <type_traits>
#include <vector>

#include "cache/bounds_memo.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "data/grid_synthetic.h"
#include "synopsis/synopsis.h"

namespace dqr::searchlight {
namespace {

struct Fixture {
  std::shared_ptr<array::Array> array;
  std::shared_ptr<synopsis::Synopsis> synopsis;
  std::vector<double> data;

  WindowFunctionContext Ctx() const {
    WindowFunctionContext ctx;
    ctx.array = array;
    ctx.synopsis = synopsis;
    return ctx;
  }
};

Fixture MakeFixture(int64_t n, uint64_t seed) {
  Fixture f;
  Rng rng(seed);
  f.data.resize(static_cast<size_t>(n));
  for (size_t i = 0; i < f.data.size(); ++i) {
    f.data[i] = rng.Uniform(50, 250);
    // Occasional plateaus exercise the max-witness logic.
    if (rng.Bernoulli(0.05)) f.data[i] = 240.0;
  }
  array::ArraySchema schema;
  schema.name = "fn_test";
  schema.length = n;
  schema.chunk_size = 32;
  f.array = array::Array::FromData(schema, f.data).value();
  f.synopsis =
      synopsis::Synopsis::Build(*f.array,
                                synopsis::SynopsisOptions{{64, 8}, 16})
          .value();
  return f;
}

double NaiveMax(const std::vector<double>& data, int64_t lo, int64_t hi) {
  double mx = data[static_cast<size_t>(lo)];
  for (int64_t i = lo; i < hi; ++i) {
    mx = std::max(mx, data[static_cast<size_t>(i)]);
  }
  return mx;
}

double NaiveAvg(const std::vector<double>& data, int64_t lo, int64_t hi) {
  double sum = 0.0;
  for (int64_t i = lo; i < hi; ++i) sum += data[static_cast<size_t>(i)];
  return sum / static_cast<double>(hi - lo);
}

TEST(FunctionsTest, EvaluateMatchesNaive) {
  Fixture f = MakeFixture(300, 21);
  AvgFunction avg(f.Ctx());
  MaxFunction mx(f.Ctx());
  MinFunction mn(f.Ctx());
  NeighborhoodContrastFunction left(
      f.Ctx(), NeighborhoodContrastFunction::Side::kLeft, 8);
  NeighborhoodContrastFunction right(
      f.Ctx(), NeighborhoodContrastFunction::Side::kRight, 8);

  Rng rng(5);
  for (int iter = 0; iter < 200; ++iter) {
    const int64_t x = rng.UniformInt(0, 299);
    const int64_t l = rng.UniformInt(1, 20);
    const int64_t hi = std::min<int64_t>(300, x + l);
    const std::vector<int64_t> point = {x, l};

    EXPECT_NEAR(avg.Evaluate(point), NaiveAvg(f.data, x, hi), 1e-9);
    EXPECT_DOUBLE_EQ(mx.Evaluate(point), NaiveMax(f.data, x, hi));

    const double expected_left =
        x == 0 ? 0.0
               : std::abs(NaiveMax(f.data, x, hi) -
                          NaiveMax(f.data, std::max<int64_t>(0, x - 8), x));
    EXPECT_DOUBLE_EQ(left.Evaluate(point), expected_left);

    const double expected_right =
        hi >= 300
            ? 0.0
            : std::abs(NaiveMax(f.data, x, hi) -
                       NaiveMax(f.data, hi, std::min<int64_t>(300, hi + 8)));
    EXPECT_DOUBLE_EQ(right.Evaluate(point), expected_right);

    (void)mn;
  }
}

// The load-bearing property: for every box, the estimate contains the
// exact value at every assignment in the box (including array edges).
class FunctionSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FunctionSoundnessTest, EstimateContainsAllExactValues) {
  Fixture f = MakeFixture(200, GetParam());
  std::vector<std::unique_ptr<cp::ConstraintFunction>> fns;
  fns.push_back(std::make_unique<AvgFunction>(f.Ctx()));
  fns.push_back(std::make_unique<MaxFunction>(f.Ctx()));
  fns.push_back(std::make_unique<MinFunction>(f.Ctx()));
  fns.push_back(std::make_unique<NeighborhoodContrastFunction>(
      f.Ctx(), NeighborhoodContrastFunction::Side::kLeft, 6));
  fns.push_back(std::make_unique<NeighborhoodContrastFunction>(
      f.Ctx(), NeighborhoodContrastFunction::Side::kRight, 6));

  Rng rng(GetParam() ^ 0x9999);
  for (int iter = 0; iter < 120; ++iter) {
    const int64_t x_lo = rng.UniformInt(0, 198);
    const int64_t x_hi = rng.UniformInt(x_lo, std::min<int64_t>(199, x_lo + 40));
    const int64_t l_lo = rng.UniformInt(1, 10);
    const int64_t l_hi = rng.UniformInt(l_lo, l_lo + 8);
    const cp::DomainBox box = {cp::IntDomain(x_lo, x_hi),
                               cp::IntDomain(l_lo, l_hi)};

    for (auto& fn : fns) {
      const Interval estimate = fn->Estimate(box);
      ASSERT_FALSE(estimate.empty());
      for (int64_t x = x_lo; x <= x_hi; ++x) {
        for (int64_t l = l_lo; l <= l_hi; ++l) {
          const double exact = fn->Evaluate({x, l});
          EXPECT_TRUE(estimate.Contains(exact))
              << fn->name() << " box=(" << x_lo << ".." << x_hi << ", "
              << l_lo << ".." << l_hi << ") point=(" << x << "," << l
              << ") exact=" << exact << " est=" << estimate.ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FunctionSoundnessTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(FunctionsTest, BoundWindowEstimatesAreTighterThanRootEstimates) {
  Fixture f = MakeFixture(256, 31);
  MaxFunction mx(f.Ctx());
  const Interval root =
      mx.Estimate({cp::IntDomain(0, 200), cp::IntDomain(4, 16)});
  const Interval leaf =
      mx.Estimate({cp::IntDomain(100, 100), cp::IntDomain(8, 8)});
  EXPECT_LE(root.lo, leaf.lo);
  EXPECT_GE(root.hi, leaf.hi);
  EXPECT_LT(leaf.width(), root.width());
}

TEST(FunctionsTest, StateSaveRestoreRoundTrip) {
  Fixture f = MakeFixture(256, 41);
  MaxFunction mx(f.Ctx());
  const cp::DomainBox box = {cp::IntDomain(50, 80), cp::IntDomain(4, 8)};
  const Interval before = mx.Estimate(box);

  auto state = mx.SaveState(box);
  ASSERT_NE(state, nullptr);
  EXPECT_GT(state->SizeBytes(), 0);

  mx.ClearState();
  mx.RestoreState(*state);
  const Interval after = mx.Estimate(box);
  EXPECT_EQ(before, after);

  // Cloned states are independent.
  auto clone = state->Clone();
  EXPECT_EQ(clone->SizeBytes(), state->SizeBytes());
}

// ---------------------------------------------------------------------
// BoundsCache eviction policy.

TEST(BoundsCacheTest, EvictsIncrementallyNeverWholesale) {
  BoundsCache cache(/*capacity=*/16);
  for (int64_t i = 0; i < 200; ++i) {
    cache.Insert(0, i, i + 1, Interval(0.0, static_cast<double>(i)));
    // The old policy cleared the whole map when full, dropping the size
    // to 1 right after crossing capacity; second-chance FIFO keeps the
    // cache pinned at capacity instead.
    EXPECT_LE(cache.size(), 16u);
    if (i >= 16) {
      EXPECT_EQ(cache.size(), 16u);
    }
  }
  const cp::FunctionMemoStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 200 - 16);
  EXPECT_EQ(stats.restore_evictions, 0);
}

TEST(BoundsCacheTest, RecentlyTouchedEntriesSurviveEviction) {
  BoundsCache cache(/*capacity=*/16);
  // Fill, then keep one entry hot by touching it while a stream of cold
  // inserts forces evictions: the hot entry must survive (it is what
  // SaveRecent would snapshot).
  for (int64_t i = 0; i < 16; ++i) {
    cache.Insert(0, i, i + 1, Interval(0.0, 1.0));
  }
  for (int64_t i = 16; i < 200; ++i) {
    ASSERT_NE(cache.Find(0, 0, 1), nullptr) << "hot entry evicted at " << i;
    cache.Insert(0, i, i + 1, Interval(0.0, 1.0));
  }
  EXPECT_NE(cache.Find(0, 0, 1), nullptr);
}

TEST(BoundsCacheTest, RestoreAlwaysLandsAndCountsEvictions) {
  BoundsCache donor(/*capacity=*/16);
  donor.Insert(0, 1000, 1001, Interval(1.0, 2.0));
  donor.Insert(0, 2000, 2001, Interval(3.0, 4.0));
  auto snapshot = donor.SaveRecent();
  ASSERT_NE(snapshot, nullptr);

  BoundsCache cache(/*capacity=*/16);
  for (int64_t i = 0; i < 16; ++i) {
    cache.Insert(0, i, i + 1, Interval(0.0, 1.0));
  }
  ASSERT_EQ(cache.size(), 16u);
  cache.Restore(*snapshot);
  // Both snapshot entries landed (the old policy silently dropped them
  // when the cache was full), displacing cold entries one-for-one.
  EXPECT_NE(cache.Find(0, 1000, 1001), nullptr);
  EXPECT_NE(cache.Find(0, 2000, 2001), nullptr);
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.stats().restore_evictions, 2);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(BoundsCacheTest, StatsCountHitsAndMisses) {
  BoundsCache cache;
  EXPECT_EQ(cache.Find(0, 0, 8), nullptr);
  cache.Insert(0, 0, 8, Interval(0.0, 1.0));
  EXPECT_NE(cache.Find(0, 0, 8), nullptr);
  EXPECT_NE(cache.Find(0, 0, 8), nullptr);
  const cp::FunctionMemoStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
}

// ---------------------------------------------------------------------
// Geometry-agnostic cases, run over 1-D windows and 2-D rectangles.

// A dataset of side `n` on every axis, and a function context over it.
template <int D>
RegionFunctionContext<D> MakeCtx(int64_t n, uint64_t seed);

template <>
WindowFunctionContext MakeCtx<1>(int64_t n, uint64_t seed) {
  return MakeFixture(n, seed).Ctx();
}

template <>
GridFunctionContext MakeCtx<2>(int64_t n, uint64_t seed) {
  const data::GridBundle bundle = data::MakeGridDataset(n, n, seed).value();
  GridFunctionContext ctx;
  ctx.grid = bundle.grid;
  ctx.synopsis = bundle.synopsis;
  return ctx;
}

// The box with origins in [lo, hi] and extents in [e_lo, e_hi] on every
// axis.
template <int D>
cp::DomainBox Box(int64_t lo, int64_t hi, int64_t e_lo, int64_t e_hi) {
  cp::DomainBox box(2 * D, cp::IntDomain(lo, hi));
  for (int a = D; a < 2 * D; ++a) box[a] = cp::IntDomain(e_lo, e_hi);
  return box;
}

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

template <typename T>
class RegionFunctionTest : public ::testing::Test {};

using Dimensions = ::testing::Types<std::integral_constant<int, 1>,
                                    std::integral_constant<int, 2>>;
TYPED_TEST_SUITE(RegionFunctionTest, Dimensions);

TYPED_TEST(RegionFunctionTest, SaveStateStaysSmallUnderHeavyUse) {
  // Fail-time snapshots capture only the recently touched region bounds,
  // so their size stays bounded no matter how much the search estimated —
  // the paper reports ~80 bytes per saved aggregate state.
  constexpr int D = TypeParam::value;
  RegionMaxFunction<D> mx(MakeCtx<D>(512, 43));
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const int64_t lo = rng.UniformInt(0, 480);
    (void)mx.Estimate(Box<D>(lo, lo + 16, 4, 8));
  }
  auto state = mx.SaveState(Box<D>(0, 500, 4, 16));
  ASSERT_NE(state, nullptr);
  EXPECT_LE(state->SizeBytes(), 6 * 64);
}

TYPED_TEST(RegionFunctionTest, SaveRecentSurvivesInsertStorm) {
  constexpr int D = TypeParam::value;
  RegionMaxFunction<D> mx(MakeCtx<D>(512, 43));
  const cp::DomainBox box = Box<D>(50, 80, 4, 8);
  const Interval before = mx.Estimate(box);
  auto state = mx.SaveState(box);
  ASSERT_NE(state, nullptr);

  // Hammer the function with other regions, then restore: the snapshot
  // must land regardless of how full the cache got in between.
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const int64_t lo = rng.UniformInt(0, 480);
    (void)mx.Estimate(Box<D>(lo, lo + 16, 4, 8));
  }
  mx.ClearState();
  mx.RestoreState(*state);
  EXPECT_EQ(mx.Estimate(box), before);
}

TYPED_TEST(RegionFunctionTest, CloneIsIndependent) {
  constexpr int D = TypeParam::value;
  RegionAvgFunction<D> avg(MakeCtx<D>(128, 51));
  auto clone = avg.Clone();
  const cp::DomainBox box = Box<D>(5, 20, 2, 6);
  EXPECT_EQ(avg.Estimate(box), clone->Estimate(box));
  EXPECT_EQ(avg.value_range(), clone->value_range());
}

TYPED_TEST(RegionFunctionTest, ContrastDefaultValueRangeSpansGlobalWidth) {
  constexpr int D = TypeParam::value;
  const RegionFunctionContext<D> ctx = MakeCtx<D>(128, 61);
  RegionContrastFunction<D> fn(ctx, RegionContrastFunction<D>::Side::kLeft,
                               4);
  EXPECT_DOUBLE_EQ(fn.value_range().lo, 0.0);
  EXPECT_DOUBLE_EQ(fn.value_range().hi,
                   ctx.synopsis->global_value_range().width());
}

TYPED_TEST(RegionFunctionTest, MemoStatsExposeCacheCounters) {
  constexpr int D = TypeParam::value;
  RegionMaxFunction<D> mx(MakeCtx<D>(256, 77));
  const cp::DomainBox box = Box<D>(10, 40, 4, 8);
  (void)mx.Estimate(box);
  (void)mx.Estimate(box);  // same box: pure cache hits
  const cp::FunctionMemoStats stats = mx.memo_stats();
  EXPECT_GT(stats.misses, 0);
  EXPECT_GT(stats.hits, 0);
}

TYPED_TEST(RegionFunctionTest, SharedMemoServesSecondInstance) {
  // Two instances attached to one shared memo under the same space: the
  // second is served the first one's bounds, value-identically.
  constexpr int D = TypeParam::value;
  cache::SharedBoundsMemo memo;
  RegionFunctionContext<D> ctx = MakeCtx<D>(256, 83);
  ctx.shared_memo = &memo;
  ctx.shared_memo_key = 7;
  RegionMaxFunction<D> first(ctx);
  RegionMaxFunction<D> second(ctx);
  for (const cp::DomainBox& box :
       {Box<D>(10, 40, 4, 8), Box<D>(20, 20, 3, 9), Box<D>(100, 130, 2, 2)}) {
    const Interval derived = first.Estimate(box);
    EXPECT_EQ(second.Estimate(box), derived);
  }
  EXPECT_EQ(first.memo_stats().shared_hits, 0);
  EXPECT_GT(second.memo_stats().shared_hits, 0);
}

TYPED_TEST(RegionFunctionTest, LatencyCostSleepsInsteadOfSpinning) {
  // A latency-bound miss yields the core: a cold estimate spends most of
  // its wall time off the CPU. Load only stretches the wall time, so it
  // cannot make this fail.
  constexpr int D = TypeParam::value;
  RegionFunctionContext<D> ctx = MakeCtx<D>(128, 89);
  ctx.cost_is_latency = true;
  ctx.estimate_cost_ns = 5'000'000;
  RegionMaxFunction<D> mx(ctx);
  const Stopwatch wall;
  const double cpu_start = ThreadCpuSeconds();
  (void)mx.Estimate(Box<D>(10, 40, 4, 8));
  const double cpu = ThreadCpuSeconds() - cpu_start;
  const double elapsed = wall.ElapsedSeconds();
  EXPECT_GE(elapsed, 0.005);
  EXPECT_LT(cpu, elapsed / 2);
}

}  // namespace
}  // namespace dqr::searchlight
