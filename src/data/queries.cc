#include "data/queries.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "data/synthetic.h"
#include "data/waveform.h"
#include "searchlight/functions.h"

namespace dqr::data {
namespace {

using searchlight::AvgFunction;
using searchlight::NeighborhoodContrastFunction;
using searchlight::WindowFunctionContext;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Per-kind constraint parameters: original bounds plus the hard value
// ranges that normalize relaxation distances and cap how far the query
// may ever be relaxed. SELective kinds declare tight ranges; LOoSe kinds
// default to the full signal range.
struct QueryParams {
  Interval avg_bounds;
  Interval avg_range;
  double contrast_min = 0.0;
  Interval contrast_range;
};

QueryParams ParamsFor(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSSel:
      return {Interval(150, 200), Interval(140, 210), 126.0,
              Interval(72, 134)};
    case QueryKind::kSLos:
      return {Interval(150, 200), Interval(50, 250), 126.0,
              Interval(0, 200)};
    case QueryKind::kMSel:
      return {Interval(150, 200), Interval(138, 212), 122.0,
              Interval(70, 130)};
    case QueryKind::kMLos:
      return {Interval(150, 200), Interval(50, 250), 122.0,
              Interval(0, 200)};
    case QueryKind::kMSelPrime:
      return {Interval(120, 165), Interval(112, 175), 112.0,
              Interval(64, 126)};
  }
  DQR_CHECK_MSG(false, "unknown query kind");
  return {};
}

// Interpolates the original bounds toward the hard range by `fraction`
// (the manual USER-x relaxation knob).
Interval RelaxBounds(const Interval& bounds, const Interval& range,
                     double fraction) {
  double lo = bounds.lo;
  double hi = bounds.hi;
  if (std::isfinite(lo)) lo -= fraction * std::max(0.0, lo - range.lo);
  if (std::isfinite(hi)) hi += fraction * std::max(0.0, range.hi - hi);
  return Interval(lo, hi);
}

Result<DatasetBundle> BundleFor(
    Result<std::shared_ptr<array::Array>> array_result) {
  if (!array_result.ok()) return array_result.status();
  std::shared_ptr<array::Array> array = std::move(array_result).value();
  auto synopsis_result =
      synopsis::Synopsis::Build(*array, synopsis::SynopsisOptions{});
  if (!synopsis_result.ok()) return synopsis_result.status();
  array->ResetAccessStats();
  DatasetBundle bundle;
  bundle.array = std::move(array);
  bundle.synopsis = std::move(synopsis_result).value();
  return bundle;
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSSel:
      return "S-SEL";
    case QueryKind::kSLos:
      return "S-LOS";
    case QueryKind::kMSel:
      return "M-SEL";
    case QueryKind::kMLos:
      return "M-LOS";
    case QueryKind::kMSelPrime:
      return "M-SEL'";
  }
  return "?";
}

Result<DatasetBundle> MakeSyntheticDataset(int64_t length, uint64_t seed) {
  SyntheticOptions options;
  options.length = length;
  options.seed = seed;
  return BundleFor(GenerateSynthetic(options));
}

Result<DatasetBundle> MakeWaveformDataset(int64_t length, uint64_t seed) {
  WaveformOptions options;
  options.length = length;
  options.seed = seed;
  return BundleFor(GenerateAbpWaveform(options));
}

searchlight::QuerySpec MakeQuery(const DatasetBundle& bundle,
                                 QueryKind kind,
                                 const QueryTuning& tuning) {
  DQR_CHECK(bundle.array != nullptr && bundle.synopsis != nullptr);
  const QueryParams params = ParamsFor(kind);
  const int64_t n = bundle.array->length();
  const int64_t margin = tuning.nbhd_width;
  DQR_CHECK(n > 2 * margin + tuning.len_hi + 2);

  searchlight::QuerySpec query;
  query.name = QueryKindName(kind);
  query.k = tuning.k;
  // Variable 0: window start x; variable 1: window length lx.
  query.domains = {
      cp::IntDomain(margin, n - tuning.len_hi - margin - 1),
      cp::IntDomain(tuning.len_lo, tuning.len_hi),
  };

  WindowFunctionContext base_ctx;
  base_ctx.array = bundle.array;
  base_ctx.synopsis = bundle.synopsis;
  base_ctx.estimate_cost_ns = tuning.estimate_cost_ns;

  // c1: average amplitude within [a, b].
  {
    searchlight::QueryConstraint c1;
    WindowFunctionContext ctx = base_ctx;
    ctx.value_range = params.avg_range;
    c1.make_function = [ctx] { return std::make_unique<AvgFunction>(ctx); };
    c1.bounds = RelaxBounds(params.avg_bounds, params.avg_range,
                            tuning.relax_fraction);
    c1.name = "c1_avg";
    c1.preference = searchlight::RankPreference::kMaximize;
    query.constraints.push_back(std::move(c1));
  }
  // c2/c3: neighborhood contrast >= threshold, left and right.
  for (const auto side : {NeighborhoodContrastFunction::Side::kLeft,
                          NeighborhoodContrastFunction::Side::kRight}) {
    searchlight::QueryConstraint c;
    WindowFunctionContext ctx = base_ctx;
    ctx.value_range = params.contrast_range;
    const int64_t width = tuning.nbhd_width;
    c.make_function = [ctx, side, width] {
      return std::make_unique<NeighborhoodContrastFunction>(ctx, side,
                                                            width);
    };
    const Interval contrast_bounds(params.contrast_min, kInf);
    c.bounds = RelaxBounds(contrast_bounds, params.contrast_range,
                           tuning.relax_fraction);
    c.name = side == NeighborhoodContrastFunction::Side::kLeft ? "c2_left"
                                                               : "c3_right";
    c.preference = searchlight::RankPreference::kMaximize;
    query.constraints.push_back(std::move(c));
  }
  return query;
}

}  // namespace dqr::data
