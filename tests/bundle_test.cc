#include "core/bundle.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "cache/bounds_memo.h"
#include "common/rng.h"
#include "data/grid_synthetic.h"
#include "data/queries.h"
#include "refiner_test_util.h"

namespace dqr::core {
namespace {

using testutil::MakeSmallBundle;
using testutil::MakeTestQuery;
using testutil::TestQueryParams;

TEST(ConstraintBundleTest, BuildsOneConstraintPerQueryEntry) {
  const auto data = MakeSmallBundle();
  const searchlight::QuerySpec query =
      MakeTestQuery(data, TestQueryParams{});
  ConstraintBundle bundle(query);
  EXPECT_EQ(bundle.size(), 3);
  EXPECT_EQ(bundle.pointers().size(), 3u);
  EXPECT_EQ(bundle.at(0).original_bounds(),
            query.constraints[0].bounds);
}

TEST(ConstraintBundleTest, EvaluateAllMatchesFunctionEvaluation) {
  const auto data = MakeSmallBundle();
  const searchlight::QuerySpec query =
      MakeTestQuery(data, TestQueryParams{});
  ConstraintBundle bundle(query);
  const std::vector<int64_t> point = {100, 6};
  const std::vector<double> values = bundle.EvaluateAll(point);
  ASSERT_EQ(values.size(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    auto fn = query.constraints[c].make_function();
    EXPECT_DOUBLE_EQ(values[c], fn->Evaluate(point));
  }
}

TEST(ConstraintBundleTest, CompleteEstimatesFillsLazyGaps) {
  const auto data = MakeSmallBundle();
  const searchlight::QuerySpec query =
      MakeTestQuery(data, TestQueryParams{});
  ConstraintBundle bundle(query);

  FailRecord fail;
  fail.box = {cp::IntDomain(50, 90), cp::IntDomain(4, 8)};
  fail.estimates.assign(3, Interval::Empty());
  fail.evaluated.assign(3, 0);
  fail.estimates[0] = bundle.at(0).function().Estimate(fail.box);
  fail.evaluated[0] = 1;

  bundle.CompleteEstimates(&fail);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(fail.evaluated[c]);
    EXPECT_FALSE(fail.estimates[c].empty());
  }
  // Completed estimates match direct evaluation.
  EXPECT_EQ(fail.estimates[1],
            bundle.at(1).function().Estimate(fail.box));
}

TEST(ConstraintBundleTest, EffectiveBoundsResetAcrossReplays) {
  const auto data = MakeSmallBundle();
  const searchlight::QuerySpec query =
      MakeTestQuery(data, TestQueryParams{});
  ConstraintBundle bundle(query);

  bundle.at(0).SetEffectiveBounds(Interval(100, 250));
  EXPECT_TRUE(bundle.at(0).IsRelaxed());
  bundle.ResetEffectiveBounds();
  EXPECT_FALSE(bundle.at(0).IsRelaxed());
}

TEST(ConstraintBundleTest, StateSaveRestoreRoundTripsThroughRecords) {
  const auto data = MakeSmallBundle();
  const searchlight::QuerySpec query =
      MakeTestQuery(data, TestQueryParams{});
  ConstraintBundle bundle(query);

  const cp::DomainBox box = {cp::IntDomain(50, 90), cp::IntDomain(4, 8)};
  for (int c = 0; c < bundle.size(); ++c) {
    (void)bundle.at(c).function().Estimate(box);
  }
  FailRecord fail;
  fail.box = box;
  fail.states = bundle.SaveStates(box);
  EXPECT_EQ(fail.states.size(), 3u);

  bundle.ClearStates();
  bundle.RestoreStates(fail);  // must not crash; estimates still correct
  const Interval estimate = bundle.at(0).function().Estimate(box);
  EXPECT_FALSE(estimate.empty());
}

// ---------------------------------------------------------------------
// One bounds memo per bundle and synopsis.

using searchlight::RegionAvgFunction;
using searchlight::RegionContrastFunction;
using searchlight::RegionFunctionContext;
using searchlight::RegionMaxFunction;

struct PaperCase {
  std::string name;
  searchlight::QuerySpec query;
};

// The paper's query shapes over small datasets; each query's function
// factories keep their data alive.
std::vector<PaperCase> PaperCases() {
  const data::DatasetBundle synth =
      data::MakeSyntheticDataset(4096, 11).value();
  const data::DatasetBundle wave = data::MakeWaveformDataset(4096, 12).value();
  const data::GridBundle grid = data::MakeGridDataset(48, 64, 13).value();
  data::QueryTuning tuning;
  data::GridQueryTuning sel;
  data::GridQueryTuning los;
  los.selective = false;
  return {
      {"S-SEL", data::MakeQuery(synth, data::QueryKind::kSSel, tuning)},
      {"M-LOS", data::MakeQuery(wave, data::QueryKind::kMLos, tuning)},
      {"G-SEL", data::MakeGridQuery(grid, sel)},
      {"G-LOS", data::MakeGridQuery(grid, los)},
  };
}

// A seeded random sub-box of the query's domains; about a quarter of the
// variables come out bound.
cp::DomainBox RandomBox(const std::vector<cp::IntDomain>& domains,
                        Rng& rng) {
  cp::DomainBox box;
  for (const cp::IntDomain& d : domains) {
    const int64_t a = rng.UniformInt(d.lo, d.hi);
    const int64_t b =
        rng.UniformInt(0, 3) == 0 ? a : rng.UniformInt(d.lo, d.hi);
    box.emplace_back(std::min(a, b), std::max(a, b));
  }
  return box;
}

bool BitIdentical(const Interval& a, const Interval& b) {
  return std::bit_cast<uint64_t>(a.lo) == std::bit_cast<uint64_t>(b.lo) &&
         std::bit_cast<uint64_t>(a.hi) == std::bit_cast<uint64_t>(b.hi);
}

// The paper query's functions (avg, left and right contrast) over `ctx`,
// built here rather than by data::MakeQuery so that a test can attach an
// L2 to them.
template <int D>
searchlight::QuerySpec AvgAndContrasts(const RegionFunctionContext<D>& ctx,
                                       std::vector<cp::IntDomain> domains,
                                       int64_t width) {
  using Contrast = RegionContrastFunction<D>;
  searchlight::QuerySpec query;
  query.k = 1;
  query.domains = std::move(domains);
  searchlight::QueryConstraint avg;
  avg.make_function = [ctx] {
    return std::make_unique<RegionAvgFunction<D>>(ctx);
  };
  query.constraints.push_back(std::move(avg));
  for (const auto side : {Contrast::Side::kLeft, Contrast::Side::kRight}) {
    searchlight::QueryConstraint c;
    c.make_function = [ctx, side, width] {
      return std::make_unique<Contrast>(ctx, side, width);
    };
    query.constraints.push_back(std::move(c));
  }
  return query;
}

// Runs random boxes through a bundle of `query`'s functions and through
// standalone copies attached to one L2. The L2 ends up holding every key
// any function touched, once; the bundle must have missed each exactly
// once.
template <int D>
void ExpectEachBoundDerivedOnce(const RegionFunctionContext<D>& ctx,
                                const std::vector<cp::IntDomain>& domains,
                                int64_t width) {
  cache::SharedBoundsMemo touched;
  RegionFunctionContext<D> counting = ctx;
  counting.shared_memo = &touched;
  counting.shared_memo_key = 1;
  const searchlight::QuerySpec oracle =
      AvgAndContrasts(counting, domains, width);
  std::vector<std::unique_ptr<cp::ConstraintFunction>> alone;
  for (const auto& qc : oracle.constraints) {
    alone.push_back(qc.make_function());
  }

  ConstraintBundle bundle(AvgAndContrasts(ctx, domains, width));
  Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    const cp::DomainBox box = RandomBox(domains, rng);
    for (int c = 0; c < bundle.size(); ++c) {
      (void)bundle.at(c).function().Estimate(box);
      (void)alone[static_cast<size_t>(c)]->Estimate(box);
    }
  }
  const cp::FunctionMemoStats m = bundle.MemoStats();
  ASSERT_EQ(m.evictions, 0);
  ASSERT_EQ(touched.stats().evictions, 0);
  ASSERT_GT(m.hits, 0);
  EXPECT_EQ(m.misses, static_cast<int64_t>(touched.size()));
}

TEST(SharedMemoTest, EstimatesMatchUnsharedFunctionsBitForBit) {
  for (const PaperCase& pc : PaperCases()) {
    ConstraintBundle bundle(pc.query);
    std::vector<std::unique_ptr<cp::ConstraintFunction>> alone;
    for (const auto& qc : pc.query.constraints) {
      alone.push_back(qc.make_function());
    }
    Rng rng(7);
    for (int i = 0; i < 400; ++i) {
      const cp::DomainBox box = RandomBox(pc.query.domains, rng);
      for (int c = 0; c < bundle.size(); ++c) {
        const Interval shared = bundle.at(c).function().Estimate(box);
        const Interval own = alone[static_cast<size_t>(c)]->Estimate(box);
        ASSERT_TRUE(BitIdentical(shared, own))
            << pc.name << " box " << i << " constraint " << c;
      }
    }
    int64_t alone_misses = 0;
    for (const auto& fn : alone) alone_misses += fn->memo_stats().misses;
    EXPECT_LT(bundle.MemoStats().misses, alone_misses) << pc.name;
  }
}

TEST(SharedMemoTest, BundleDerivesEachBoundOnce) {
  const data::DatasetBundle synth =
      data::MakeSyntheticDataset(4096, 11).value();
  searchlight::WindowFunctionContext window;
  window.array = synth.array;
  window.synopsis = synth.synopsis;
  ExpectEachBoundDerivedOnce<1>(
      window, {cp::IntDomain(8, 4096 - 16 - 8 - 1), cp::IntDomain(8, 16)},
      8);

  const data::GridBundle grid = data::MakeGridDataset(48, 64, 13).value();
  searchlight::GridFunctionContext rect;
  rect.grid = grid.grid;
  rect.synopsis = grid.synopsis;
  ExpectEachBoundDerivedOnce<2>(
      rect,
      {cp::IntDomain(0, 48 - 6 - 1), cp::IntDomain(4, 64 - 6 - 4 - 1),
       cp::IntDomain(3, 6), cp::IntDomain(3, 6)},
      4);
}

TEST(SharedMemoTest, MemoStatsCountEachMemoOnce) {
  // Constraints 0 and 1 read one synopsis under one miss cost and share a
  // memo; 2 reads another synopsis and 3 has another miss cost, so each
  // keeps its own.
  const data::DatasetBundle synth =
      data::MakeSyntheticDataset(4096, 11).value();
  const data::DatasetBundle wave = data::MakeWaveformDataset(4096, 12).value();
  searchlight::WindowFunctionContext a;
  a.array = synth.array;
  a.synopsis = synth.synopsis;
  searchlight::WindowFunctionContext b = a;
  b.array = wave.array;
  b.synopsis = wave.synopsis;
  searchlight::WindowFunctionContext costly = a;
  costly.estimate_cost_ns = 1;

  searchlight::QuerySpec query;
  query.k = 1;
  query.domains = {cp::IntDomain(8, 4000), cp::IntDomain(8, 16)};
  for (const auto& make :
       std::vector<searchlight::FunctionFactory>{
           [a] { return std::make_unique<RegionMaxFunction<1>>(a); },
           [a] {
             return std::make_unique<RegionContrastFunction<1>>(
                 a, RegionContrastFunction<1>::Side::kLeft, 8);
           },
           [b] { return std::make_unique<RegionMaxFunction<1>>(b); },
           [costly] {
             return std::make_unique<RegionMaxFunction<1>>(costly);
           }}) {
    searchlight::QueryConstraint qc;
    qc.make_function = make;
    query.constraints.push_back(std::move(qc));
  }
  ConstraintBundle bundle(query);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const cp::DomainBox box = RandomBox(query.domains, rng);
    for (int c = 0; c < bundle.size(); ++c) {
      (void)bundle.at(c).function().Estimate(box);
    }
  }
  const auto stats = [&](int c) {
    return bundle.at(c).function().memo_stats();
  };
  // 0 and 1 report the one memo they share.
  EXPECT_EQ(stats(1).hits, stats(0).hits);
  EXPECT_EQ(stats(1).misses, stats(0).misses);
  for (const int c : {0, 2, 3}) EXPECT_GT(stats(c).misses, 0) << c;
  const cp::FunctionMemoStats total = bundle.MemoStats();
  EXPECT_EQ(total.hits, stats(0).hits + stats(2).hits + stats(3).hits);
  EXPECT_EQ(total.misses,
            stats(0).misses + stats(2).misses + stats(3).misses);
}

TEST(SharedMemoTest, RestoredFailStateAnswersReplayRootWithoutMisses) {
  for (const PaperCase& pc : PaperCases()) {
    ConstraintBundle solver(pc.query);
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
      // Some search history, then the full check of the failing node.
      for (int j = 0; j < 5; ++j) {
        const cp::DomainBox box = RandomBox(pc.query.domains, rng);
        for (int c = 0; c < solver.size(); ++c) {
          (void)solver.at(c).function().Estimate(box);
        }
      }
      FailRecord fail;
      fail.box = RandomBox(pc.query.domains, rng);
      for (int c = 0; c < solver.size(); ++c) {
        fail.estimates.push_back(solver.at(c).function().Estimate(fail.box));
      }
      fail.states = solver.SaveStates(fail.box);

      ConstraintBundle replayer(pc.query);
      replayer.ClearStates();
      replayer.RestoreStates(fail);
      for (int c = 0; c < replayer.size(); ++c) {
        const Interval estimate =
            replayer.at(c).function().Estimate(fail.box);
        ASSERT_TRUE(BitIdentical(estimate,
                                 fail.estimates[static_cast<size_t>(c)]))
            << pc.name << " fail " << i << " constraint " << c;
      }
      ASSERT_EQ(replayer.MemoStats().misses, 0)
          << pc.name << " fail " << i;
    }
  }
}

}  // namespace
}  // namespace dqr::core
