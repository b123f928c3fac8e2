#include "searchlight/functions.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "data/grid_synthetic.h"

namespace dqr::searchlight {
namespace {

data::GridBundle MakeBundle(int64_t rows, int64_t cols, uint64_t seed) {
  return data::MakeGridDataset(rows, cols, seed).value();
}

GridFunctionContext Ctx(const data::GridBundle& bundle) {
  GridFunctionContext ctx;
  ctx.grid = bundle.grid;
  ctx.synopsis = bundle.synopsis;
  return ctx;
}

TEST(GridFunctionsTest, EvaluateMatchesNaive) {
  const auto bundle = MakeBundle(60, 80, 11);
  RectAvgFunction avg(Ctx(bundle));
  RectMaxFunction mx(Ctx(bundle));
  RectContrastFunction left(Ctx(bundle),
                            RectContrastFunction::Side::kLeft, 4);
  RectContrastFunction right(Ctx(bundle),
                             RectContrastFunction::Side::kRight, 4);

  Rng rng(5);
  for (int iter = 0; iter < 150; ++iter) {
    const int64_t y = rng.UniformInt(0, 58);
    const int64_t x = rng.UniformInt(0, 78);
    const int64_t h = rng.UniformInt(1, 6);
    const int64_t w = rng.UniformInt(1, 6);
    const std::vector<int64_t> point = {y, x, h, w};
    const int64_t r1 = std::min<int64_t>(60, y + h);
    const int64_t c1 = std::min<int64_t>(80, x + w);

    EXPECT_NEAR(avg.Evaluate(point),
                bundle.grid->AggregateRect(y, r1, x, c1).avg(), 1e-9);
    EXPECT_DOUBLE_EQ(mx.Evaluate(point),
                     bundle.grid->MaxOver(y, r1, x, c1));

    const double main = bundle.grid->MaxOver(y, r1, x, c1);
    const double expected_left =
        x == 0 ? 0.0
               : std::abs(main - bundle.grid->MaxOver(
                                     y, r1, std::max<int64_t>(0, x - 4),
                                     x));
    EXPECT_DOUBLE_EQ(left.Evaluate(point), expected_left);
    const double expected_right =
        c1 >= 80 ? 0.0
                 : std::abs(main - bundle.grid->MaxOver(
                                       y, r1, c1,
                                       std::min<int64_t>(80, c1 + 4)));
    EXPECT_DOUBLE_EQ(right.Evaluate(point), expected_right);
  }
}

// The load-bearing property in 2-D: estimates contain the exact value at
// every assignment of the box, including grid edges.
class GridFunctionSoundnessTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GridFunctionSoundnessTest, EstimateContainsAllExactValues) {
  const auto bundle = MakeBundle(48, 64, GetParam());
  std::vector<std::unique_ptr<cp::ConstraintFunction>> fns;
  fns.push_back(std::make_unique<RectAvgFunction>(Ctx(bundle)));
  fns.push_back(std::make_unique<RectMaxFunction>(Ctx(bundle)));
  fns.push_back(std::make_unique<RectContrastFunction>(
      Ctx(bundle), RectContrastFunction::Side::kLeft, 3));
  fns.push_back(std::make_unique<RectContrastFunction>(
      Ctx(bundle), RectContrastFunction::Side::kRight, 3));

  Rng rng(GetParam() ^ 0x7777);
  for (int iter = 0; iter < 60; ++iter) {
    const int64_t y_lo = rng.UniformInt(0, 46);
    const int64_t y_hi = rng.UniformInt(y_lo, std::min<int64_t>(47, y_lo + 10));
    const int64_t x_lo = rng.UniformInt(0, 62);
    const int64_t x_hi = rng.UniformInt(x_lo, std::min<int64_t>(63, x_lo + 10));
    const int64_t h_lo = rng.UniformInt(1, 4);
    const int64_t h_hi = h_lo + rng.UniformInt(0, 3);
    const int64_t w_lo = rng.UniformInt(1, 4);
    const int64_t w_hi = w_lo + rng.UniformInt(0, 3);
    const cp::DomainBox box = {
        cp::IntDomain(y_lo, y_hi), cp::IntDomain(x_lo, x_hi),
        cp::IntDomain(h_lo, h_hi), cp::IntDomain(w_lo, w_hi)};

    for (auto& fn : fns) {
      const Interval estimate = fn->Estimate(box);
      ASSERT_FALSE(estimate.empty());
      for (int64_t y = y_lo; y <= y_hi; ++y) {
        for (int64_t x = x_lo; x <= x_hi; ++x) {
          for (int64_t h = h_lo; h <= h_hi; ++h) {
            for (int64_t w = w_lo; w <= w_hi; ++w) {
              const double exact = fn->Evaluate({y, x, h, w});
              ASSERT_TRUE(estimate.Contains(exact))
                  << fn->name() << " at (" << y << "," << x << "," << h
                  << "," << w << ") exact=" << exact
                  << " est=" << estimate.ToString();
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridFunctionSoundnessTest,
                         ::testing::Values(2u, 4u, 6u, 21u));

TEST(GridFunctionsTest, StateSaveRestoreRoundTrip) {
  const auto bundle = MakeBundle(64, 64, 31);
  RectMaxFunction mx(Ctx(bundle));
  const cp::DomainBox box = {cp::IntDomain(10, 20), cp::IntDomain(5, 25),
                             cp::IntDomain(2, 4), cp::IntDomain(2, 4)};
  const Interval before = mx.Estimate(box);
  auto state = mx.SaveState(box);
  ASSERT_NE(state, nullptr);
  mx.ClearState();
  mx.RestoreState(*state);
  EXPECT_EQ(mx.Estimate(box), before);
}

TEST(GridFunctionsTest, BoundRectTighterThanRoot) {
  const auto bundle = MakeBundle(64, 64, 41);
  RectMaxFunction mx(Ctx(bundle));
  const Interval root =
      mx.Estimate({cp::IntDomain(0, 50), cp::IntDomain(0, 50),
                   cp::IntDomain(2, 6), cp::IntDomain(2, 6)});
  const Interval leaf =
      mx.Estimate({cp::IntDomain(20, 20), cp::IntDomain(20, 20),
                   cp::IntDomain(3, 3), cp::IntDomain(3, 3)});
  EXPECT_LE(root.lo, leaf.lo);
  EXPECT_GE(root.hi, leaf.hi);
}

}  // namespace
}  // namespace dqr::searchlight
