#include "testing/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/knobs.h"
#include "data/query_parser.h"
#include "searchlight/functions.h"

namespace dqr::fuzz {
namespace {

using searchlight::AvgFunction;
using searchlight::GridFunctionContext;
using searchlight::MaxFunction;
using searchlight::MinFunction;
using searchlight::NeighborhoodContrastFunction;
using searchlight::RectAvgFunction;
using searchlight::RectContrastFunction;
using searchlight::RectMaxFunction;
using searchlight::WindowFunctionContext;

constexpr double kInf = std::numeric_limits<double>::infinity();

void AppendKv(std::string* out, const char* key, const std::string& value) {
  if (!out->empty()) *out += ';';
  *out += key;
  *out += '=';
  *out += value;
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Semantic function id: kind + parameters + value range at full
// precision (the cache::CachedQuery contract). An empty range derives
// from the synopsis, which the session's dataset_id pins, so "derived"
// is unambiguous within a session.
std::string FunctionId(const std::string& kind, const Interval& vr,
                       int64_t param = -1) {
  std::string id = kind;
  if (param >= 0) id += ";p=" + std::to_string(param);
  if (vr.empty()) {
    id += ";vr=derived";
  } else {
    char buf[80];
    std::snprintf(buf, sizeof(buf), ";vr=%.17g,%.17g", vr.lo, vr.hi);
    id += buf;
  }
  return id;
}

// Quantile over a sorted sample, q in [0, 1].
double Quantile(const std::vector<double>& sorted, double q) {
  DQR_CHECK(!sorted.empty());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(i);
  return sorted[i] + frac * (sorted[i + 1] - sorted[i]);
}

// Deterministic crash plan that always leaves instance 0 alive: victims
// are drawn (without repetition) from instances 1..n-1, sites and event
// indices from small ranges so the events actually fire on tiny
// workloads. A first-pickup stall on every instance keeps the whole
// cluster in play long enough for victims to reach their events — stalls
// are themselves answer-preserving, which is part of what's under test.
core::FaultPlan MakeSurvivorCrashPlan(uint64_t seed, int num_instances,
                                      int crashes) {
  Rng rng(seed);
  core::FaultPlan plan;
  if (num_instances < 2) return plan;
  for (int i = 0; i < num_instances; ++i) {
    plan.Stall(i, core::FaultSite::kShardPickup, 0, 5000);
  }
  std::vector<int> victims;
  for (int i = 1; i < num_instances; ++i) victims.push_back(i);
  const int want = std::min<int>(crashes, static_cast<int>(victims.size()));
  for (int c = 0; c < want; ++c) {
    const size_t pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(victims.size()) - 1));
    const int victim = victims[pick];
    victims.erase(victims.begin() + static_cast<int64_t>(pick));
    const auto site = static_cast<core::FaultSite>(
        rng.UniformInt(0, core::kNumFaultSites - 1));
    const int64_t max_index =
        site == core::FaultSite::kShardPickup ? 3 : 12;
    plan.Crash(victim, site, rng.UniformInt(0, max_index));
  }
  return plan;
}

// The 2-D sibling of MakeWorkload's 1-D body: a tiled grid with planted
// rectangular plateaus and square spikes, a GridSynopsis, and rectangle
// constraints over four decision variables (0 = y, 1 = x, 2 = h, 3 = w).
// Draws come from a stream decorrelated from the 1-D generator, so
// flipping the grid flag never disturbs the 1-D workload of the same
// seed. Override semantics carry over with the obvious reinterpretation:
// length_cap clamps both grid extents, x_width_cap the width of variable
// 0's (y's) domain.
Workload MakeGridWorkload(uint64_t seed, FuzzMode mode,
                          const WorkloadOverrides& overrides,
                          cache::SharedBoundsMemo* shared_memo,
                          uint64_t memo_space) {
  Rng rng(seed ^ 0x5eed2d5eed2d5eedULL);
  Workload w;
  w.seed = seed;
  w.mode = mode;
  w.overrides = overrides;
  w.grid_workload = true;

  // --- grid schema + synthetic signal ---
  int64_t rows = rng.UniformInt(24, 44);
  int64_t cols = rng.UniformInt(24, 44);
  if (overrides.length_cap > 0) {
    const int64_t cap = std::max<int64_t>(16, overrides.length_cap);
    rows = std::min(rows, cap);
    cols = std::min(cols, cap);
  }
  const int64_t tile_choices[] = {8, 16, 32};
  const int64_t tile = tile_choices[rng.UniformInt(0, 2)];

  std::vector<double> data(static_cast<size_t>(rows * cols));
  const double noise = rng.Uniform(0.5, 3.0);
  for (double& v : data) v = 100.0 + noise * rng.NextGaussian();
  const int64_t plateaus = rng.UniformInt(1, 3);
  for (int64_t p = 0; p < plateaus; ++p) {
    const int64_t ph =
        rng.UniformInt(std::max<int64_t>(3, rows / 8), rows / 3);
    const int64_t pw =
        rng.UniformInt(std::max<int64_t>(3, cols / 8), cols / 3);
    const int64_t pr = rng.UniformInt(0, rows - ph);
    const int64_t pc = rng.UniformInt(0, cols - pw);
    const double offset = rng.Bernoulli(0.75) ? rng.Uniform(10.0, 60.0)
                                              : rng.Uniform(-30.0, -10.0);
    for (int64_t r = pr; r < pr + ph; ++r) {
      for (int64_t c = pc; c < pc + pw; ++c) {
        data[static_cast<size_t>(r * cols + c)] += offset;
      }
    }
  }
  const int64_t spikes = rng.UniformInt(2, 8);
  for (int64_t s = 0; s < spikes; ++s) {
    const int64_t size = rng.UniformInt(1, 3);
    const int64_t sr = rng.UniformInt(0, rows - size);
    const int64_t sc = rng.UniformInt(0, cols - size);
    const double height = rng.Uniform(20.0, 90.0);
    for (int64_t r = sr; r < sr + size; ++r) {
      for (int64_t c = sc; c < sc + size; ++c) {
        data[static_cast<size_t>(r * cols + c)] += height;
      }
    }
  }
  for (double& v : data) v = std::clamp(v, 50.0, 250.0);

  array::GridSchema schema;
  schema.name = "fuzz_grid_" + std::to_string(seed);
  schema.rows = rows;
  schema.cols = cols;
  schema.tile_size = tile;
  w.grid =
      array::Grid::FromData(std::move(schema), std::move(data)).value();

  synopsis::GridSynopsisOptions syn;
  switch (rng.UniformInt(0, 3)) {
    case 0:
      syn.cell_sizes = {16, 4};
      break;
    case 1:
      syn.cell_sizes = {8, 2};
      break;
    case 2:
      syn.cell_sizes = {32, 8};
      break;
    default:
      syn.cell_sizes = {16, 8, 4};
      break;
  }
  syn.max_cells_per_query = rng.Bernoulli(0.5) ? 16 : 64;
  w.grid_synopsis = synopsis::GridSynopsis::Build(*w.grid, syn).value();

  // --- rectangle geometry ---
  const int64_t h_lo = rng.UniformInt(2, 3);
  const int64_t h_hi = h_lo + rng.UniformInt(1, 3);
  const int64_t w_lo = rng.UniformInt(2, 3);
  const int64_t w_hi = w_lo + rng.UniformInt(1, 3);
  const int64_t nbhd = rng.UniformInt(2, 4);
  const int64_t y_lo = 0;
  int64_t y_hi = rows - h_hi;
  const int64_t x_lo = nbhd;
  const int64_t x_hi = cols - w_hi - nbhd;
  DQR_CHECK(y_hi >= y_lo && x_hi >= x_lo);
  if (overrides.x_width_cap > 0) {
    y_hi = std::min(y_hi, y_lo + overrides.x_width_cap - 1);
  }
  w.query.name = "fuzz_grid_query_" + std::to_string(seed);
  w.query.domains = {cp::IntDomain(y_lo, y_hi), cp::IntDomain(x_lo, x_hi),
                     cp::IntDomain(h_lo, h_hi), cp::IntDomain(w_lo, w_hi)};

  // --- cardinality + scoring knobs ---
  int64_t k = rng.UniformInt(1, 8);
  if (overrides.k_cap > 0) {
    k = std::min(k, std::max<int64_t>(1, overrides.k_cap));
  }
  w.query.k = k;

  const double alpha_choices[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  w.alpha = alpha_choices[rng.UniformInt(0, 4)];
  if (overrides.default_alpha) w.alpha = 0.5;

  switch (mode) {
    case FuzzMode::kConstrain:
      w.constrain = core::ConstrainMode::kRank;
      break;
    case FuzzMode::kSkyline:
      w.constrain = core::ConstrainMode::kSkyline;
      break;
    case FuzzMode::kRelax: {
      const int64_t roll = rng.UniformInt(0, 9);
      w.constrain = roll < 6   ? core::ConstrainMode::kRank
                    : roll < 8 ? core::ConstrainMode::kNone
                               : core::ConstrainMode::kSkyline;
      break;
    }
  }

  // --- mode-targeted anchor constraint (rectangle average) ---
  const int64_t h_mid = (h_lo + h_hi) / 2;
  const int64_t w_mid = (w_lo + w_hi) / 2;
  std::vector<double> rect_avgs;
  rect_avgs.reserve(static_cast<size_t>((y_hi - y_lo + 1) *
                                        (x_hi - x_lo + 1)));
  for (int64_t y = y_lo; y <= y_hi; ++y) {
    for (int64_t x = x_lo; x <= x_hi; ++x) {
      rect_avgs.push_back(
          w.grid->AggregateRect(y, y + h_mid, x, x + w_mid).avg());
    }
  }
  std::sort(rect_avgs.begin(), rect_avgs.end());

  Interval avg_bounds;
  if (mode == FuzzMode::kRelax) {
    const double a = Quantile(rect_avgs, rng.Uniform(0.975, 0.999));
    avg_bounds = Interval(a, a + rng.Uniform(5.0, 40.0));
  } else {
    const double a = Quantile(rect_avgs, rng.Uniform(0.2, 0.5));
    const double b = Quantile(rect_avgs, rng.Uniform(0.75, 0.98));
    avg_bounds = Interval(std::min(a, b), std::max(a, b));
  }
  Interval avg_range(50.0, 250.0);
  if (rng.Bernoulli(0.3)) {
    avg_range = Interval(avg_bounds.lo - rng.Uniform(5.0, 30.0),
                         avg_bounds.hi + rng.Uniform(5.0, 30.0));
  }

  GridFunctionContext base_ctx;
  base_ctx.grid = w.grid;
  base_ctx.synopsis = w.grid_synopsis;
  base_ctx.estimate_cost_ns = overrides.cost_ns;
  base_ctx.shared_memo = shared_memo;
  base_ctx.shared_memo_key = memo_space;

  {
    searchlight::QueryConstraint c;
    GridFunctionContext ctx = base_ctx;
    ctx.value_range = avg_range;
    c.make_function = [ctx] {
      return std::make_unique<RectAvgFunction>(ctx);
    };
    w.function_ids.push_back(FunctionId("rect_avg", ctx.value_range));
    c.bounds = avg_bounds;
    c.relaxable = rng.Bernoulli(0.9);
    c.relax_weight = rng.Uniform(0.3, 1.0);
    c.constrainable = rng.Bernoulli(0.9);
    c.rank_weight = rng.Bernoulli(0.6) ? -1.0 : rng.Uniform(0.1, 1.0);
    c.preference = rng.Bernoulli(0.7)
                       ? searchlight::RankPreference::kMaximize
                       : searchlight::RankPreference::kMinimize;
    c.name = "rect_avg";
    w.query.constraints.push_back(std::move(c));
  }

  // --- satellite constraints: rect_max / rect_contrast ---
  const double data_lo = Quantile(rect_avgs, 0.0);
  const double data_hi = Quantile(rect_avgs, 1.0);
  const int extra = static_cast<int>(rng.UniformInt(0, 3));
  for (int e = 0; e < extra; ++e) {
    searchlight::QueryConstraint c;
    GridFunctionContext ctx = base_ctx;
    if (rng.Bernoulli(0.5)) {
      ctx.value_range = Interval::Empty();
    } else {
      ctx.value_range = Interval(40.0, 260.0);
    }
    const int64_t kind = rng.UniformInt(0, 2);
    if (kind == 0) {
      c.make_function = [ctx] {
        return std::make_unique<RectMaxFunction>(ctx);
      };
      const double cut =
          rng.Bernoulli(0.75)
              ? rng.Uniform(data_lo, (data_lo + data_hi) / 2)
              : rng.Uniform((data_lo + data_hi) / 2, data_hi + 30.0);
      c.bounds = Interval(cut, kInf);
      c.name = "rect_max";
      w.function_ids.push_back(FunctionId("rect_max", ctx.value_range));
    } else {
      const auto side = kind == 1 ? RectContrastFunction::Side::kLeft
                                  : RectContrastFunction::Side::kRight;
      const int64_t width = nbhd;
      c.make_function = [ctx, side, width] {
        return std::make_unique<RectContrastFunction>(ctx, side, width);
      };
      c.bounds = Interval(rng.Uniform(0.0, 60.0), kInf);
      c.name = kind == 1 ? "rect_contrast_left" : "rect_contrast_right";
      w.function_ids.push_back(FunctionId(c.name, ctx.value_range, width));
    }
    c.relaxable = rng.Bernoulli(0.8);
    c.relax_weight = rng.Uniform(0.3, 1.0);
    c.constrainable = rng.Bernoulli(0.75);
    c.rank_weight = rng.Bernoulli(0.6) ? -1.0 : rng.Uniform(0.1, 1.0);
    c.preference = rng.Bernoulli(0.7)
                       ? searchlight::RankPreference::kMaximize
                       : searchlight::RankPreference::kMinimize;
    w.query.constraints.push_back(std::move(c));
  }
  if (overrides.max_constraints > 0 &&
      static_cast<int>(w.query.constraints.size()) >
          overrides.max_constraints) {
    w.query.constraints.resize(
        static_cast<size_t>(std::max(1, overrides.max_constraints)));
    w.function_ids.resize(w.query.constraints.size());
  }

  // --- diversity (one spacing entry per decision variable) ---
  if (mode != FuzzMode::kSkyline && rng.Bernoulli(0.15) &&
      !overrides.no_diversity) {
    w.result_spacing = {rng.UniformInt(2, 8), rng.UniformInt(2, 8), 0, 0};
    w.diversity_pool_factor = rng.UniformInt(4, 8);
  }

  // --- summary line ---
  std::string s;
  AppendKv(&s, "seed", std::to_string(seed));
  AppendKv(&s, "mode", FuzzModeName(mode));
  AppendKv(&s, "grid",
           std::to_string(rows) + "x" + std::to_string(cols));
  AppendKv(&s, "tile", std::to_string(tile));
  AppendKv(&s, "y", std::to_string(y_lo) + ".." + std::to_string(y_hi));
  AppendKv(&s, "x", std::to_string(x_lo) + ".." + std::to_string(x_hi));
  AppendKv(&s, "h", std::to_string(h_lo) + ".." + std::to_string(h_hi));
  AppendKv(&s, "w", std::to_string(w_lo) + ".." + std::to_string(w_hi));
  AppendKv(&s, "k", std::to_string(k));
  AppendKv(&s, "alpha", FormatDouble(w.alpha));
  std::string cons;
  for (const searchlight::QueryConstraint& qc : w.query.constraints) {
    if (!cons.empty()) cons += '+';
    cons += qc.name;
  }
  AppendKv(&s, "cons", cons);
  if (!w.result_spacing.empty()) {
    AppendKv(&s, "spacing",
             std::to_string(w.result_spacing[0]) + "," +
                 std::to_string(w.result_spacing[1]));
  }
  if (overrides.any()) AppendKv(&s, "overrides", overrides.ToString());
  w.summary = s;
  return w;
}

}  // namespace

const char* FuzzModeName(FuzzMode mode) {
  switch (mode) {
    case FuzzMode::kRelax:
      return "relax";
    case FuzzMode::kConstrain:
      return "constrain";
    case FuzzMode::kSkyline:
      return "skyline";
  }
  return "unknown";
}

Result<FuzzMode> FuzzModeFromName(const std::string& name) {
  if (name == "relax") return FuzzMode::kRelax;
  if (name == "constrain") return FuzzMode::kConstrain;
  if (name == "skyline") return FuzzMode::kSkyline;
  return InvalidArgumentError("unknown fuzz mode: " + name);
}

std::string WorkloadOverrides::ToString() const {
  std::string out;
  const auto append = [&out](const std::string& piece) {
    if (!out.empty()) out += ' ';
    out += piece;
  };
  if (length_cap != 0) append("len<=" + std::to_string(length_cap));
  if (max_constraints != 0) {
    append("cons<=" + std::to_string(max_constraints));
  }
  if (k_cap != 0) append("k<=" + std::to_string(k_cap));
  if (x_width_cap != 0) append("xw<=" + std::to_string(x_width_cap));
  if (no_diversity) append("nodiv");
  if (default_alpha) append("alpha=0.5");
  if (cost_ns != 0) append("cost=" + std::to_string(cost_ns));
  return out;
}

Workload MakeWorkload(uint64_t seed, FuzzMode mode,
                      const WorkloadOverrides& overrides, bool grid,
                      cache::SharedBoundsMemo* shared_memo,
                      uint64_t memo_space) {
  if (grid) {
    return MakeGridWorkload(seed, mode, overrides, shared_memo, memo_space);
  }
  Rng rng(seed);
  Workload w;
  w.seed = seed;
  w.mode = mode;
  w.overrides = overrides;

  // --- array schema + synthetic signal ---
  int64_t n = rng.UniformInt(48, 384);
  if (overrides.length_cap > 0) {
    n = std::min(n, std::max<int64_t>(32, overrides.length_cap));
  }
  const int64_t chunk_choices[] = {16, 32, 64};
  const int64_t chunk = chunk_choices[rng.UniformInt(0, 2)];

  std::vector<double> data(static_cast<size_t>(n));
  const double noise = rng.Uniform(0.5, 3.0);
  for (int64_t i = 0; i < n; ++i) {
    data[static_cast<size_t>(i)] = 100.0 + noise * rng.NextGaussian();
  }
  const int64_t plateaus = rng.UniformInt(1, 3);
  for (int64_t p = 0; p < plateaus; ++p) {
    const int64_t len = rng.UniformInt(std::max<int64_t>(4, n / 10), n / 3);
    const int64_t start = rng.UniformInt(0, std::max<int64_t>(0, n - len));
    const double offset = rng.Bernoulli(0.75) ? rng.Uniform(10.0, 60.0)
                                              : rng.Uniform(-30.0, -10.0);
    for (int64_t i = start; i < std::min(n, start + len); ++i) {
      data[static_cast<size_t>(i)] += offset;
    }
  }
  const int64_t spikes = rng.UniformInt(2, 8);
  for (int64_t s = 0; s < spikes; ++s) {
    const int64_t width = rng.UniformInt(1, 4);
    const int64_t pos = rng.UniformInt(0, std::max<int64_t>(0, n - width));
    const double height = rng.Uniform(20.0, 90.0);
    for (int64_t i = pos; i < std::min(n, pos + width); ++i) {
      data[static_cast<size_t>(i)] += height;
    }
  }
  for (double& v : data) v = std::clamp(v, 50.0, 250.0);

  array::ArraySchema schema;
  schema.name = "fuzz_" + std::to_string(seed);
  schema.length = n;
  schema.chunk_size = chunk;
  w.array = array::Array::FromData(std::move(schema), std::move(data))
                .value();

  synopsis::SynopsisOptions syn;
  switch (rng.UniformInt(0, 3)) {
    case 0:
      syn.cell_sizes = {64, 8};
      break;
    case 1:
      syn.cell_sizes = {32, 8};
      break;
    case 2:
      syn.cell_sizes = {16, 4};
      break;
    default:
      syn.cell_sizes = {128, 16};
      break;
  }
  syn.max_cells_per_query = rng.Bernoulli(0.5) ? 16 : 64;
  w.synopsis = synopsis::Synopsis::Build(*w.array, syn).value();

  // --- window geometry ---
  const int64_t len_lo = rng.UniformInt(2, 4);
  const int64_t len_hi = len_lo + rng.UniformInt(1, 6);
  const int64_t nbhd = rng.UniformInt(2, 6);
  const int64_t x_lo = nbhd;
  int64_t x_hi = n - len_hi - nbhd - 1;
  DQR_CHECK(x_hi >= x_lo);
  if (overrides.x_width_cap > 0) {
    x_hi = std::min(x_hi, x_lo + overrides.x_width_cap - 1);
  }
  w.query.name = "fuzz_query_" + std::to_string(seed);
  w.query.domains = {cp::IntDomain(x_lo, x_hi),
                     cp::IntDomain(len_lo, len_hi)};

  // --- cardinality + scoring knobs (drawn before mode targeting so that
  // overrides never shift later draws) ---
  int64_t k = rng.UniformInt(1, 8);
  if (overrides.k_cap > 0) k = std::min(k, std::max<int64_t>(1, overrides.k_cap));
  w.query.k = k;

  const double alpha_choices[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  w.alpha = alpha_choices[rng.UniformInt(0, 4)];
  if (overrides.default_alpha) w.alpha = 0.5;

  switch (mode) {
    case FuzzMode::kConstrain:
      w.constrain = core::ConstrainMode::kRank;
      break;
    case FuzzMode::kSkyline:
      w.constrain = core::ConstrainMode::kSkyline;
      break;
    case FuzzMode::kRelax: {
      // The constrain mode only matters if the workload unexpectedly
      // lands on >= k exact results — worth covering rather than pinning.
      const int64_t roll = rng.UniformInt(0, 9);
      w.constrain = roll < 6   ? core::ConstrainMode::kRank
                    : roll < 8 ? core::ConstrainMode::kNone
                               : core::ConstrainMode::kSkyline;
      break;
    }
  }

  // --- mode-targeted anchor constraint (window average) ---
  // Quantiles of the mid-length sliding-window average steer how many
  // exact results exist relative to k: scarce for relax, plentiful for
  // constrain/skyline.
  const int64_t len_mid = (len_lo + len_hi) / 2;
  std::vector<double> window_avgs;
  window_avgs.reserve(static_cast<size_t>(x_hi - x_lo + 1));
  for (int64_t x = x_lo; x <= x_hi; ++x) {
    window_avgs.push_back(w.array->AggregateWindow(x, x + len_mid).avg());
  }
  std::sort(window_avgs.begin(), window_avgs.end());

  Interval avg_bounds;
  if (mode == FuzzMode::kRelax) {
    const double a = Quantile(window_avgs, rng.Uniform(0.975, 0.999));
    avg_bounds = Interval(a, a + rng.Uniform(5.0, 40.0));
  } else {
    const double a = Quantile(window_avgs, rng.Uniform(0.2, 0.5));
    const double b = Quantile(window_avgs, rng.Uniform(0.75, 0.98));
    avg_bounds = Interval(std::min(a, b), std::max(a, b));
  }
  Interval avg_range(50.0, 250.0);
  if (rng.Bernoulli(0.3)) {
    // SEL-style tight range: a hard limit close to the bounds, so maximal
    // relaxation stays selective (and some values become hard violations).
    avg_range = Interval(avg_bounds.lo - rng.Uniform(5.0, 30.0),
                         avg_bounds.hi + rng.Uniform(5.0, 30.0));
  }

  WindowFunctionContext base_ctx;
  base_ctx.array = w.array;
  base_ctx.synopsis = w.synopsis;
  base_ctx.estimate_cost_ns = overrides.cost_ns;
  base_ctx.shared_memo = shared_memo;
  base_ctx.shared_memo_key = memo_space;

  // Parsed-IR mirror of each constraint, built alongside the factories
  // so Workload::query_text stays answer-identical to `query` by
  // construction (serve transport contract).
  std::vector<data::ParsedConstraint> parsed_cons;
  {
    searchlight::QueryConstraint c;
    WindowFunctionContext ctx = base_ctx;
    ctx.value_range = avg_range;
    c.make_function = [ctx] { return std::make_unique<AvgFunction>(ctx); };
    w.function_ids.push_back(FunctionId("avg", ctx.value_range));
    c.bounds = avg_bounds;
    c.relaxable = rng.Bernoulli(0.9);
    c.relax_weight = rng.Uniform(0.3, 1.0);
    c.constrainable = rng.Bernoulli(0.9);
    c.rank_weight = rng.Bernoulli(0.6) ? -1.0 : rng.Uniform(0.1, 1.0);
    c.preference = rng.Bernoulli(0.7)
                       ? searchlight::RankPreference::kMaximize
                       : searchlight::RankPreference::kMinimize;
    c.name = "avg";
    data::ParsedConstraint pc;
    pc.fn = c.name;
    pc.bounds = c.bounds;
    pc.range = ctx.value_range;
    pc.weight = c.relax_weight;
    pc.rank_weight = c.rank_weight;
    pc.relaxable = c.relaxable;
    pc.constrainable = c.constrainable;
    pc.maximize = c.preference == searchlight::RankPreference::kMaximize;
    parsed_cons.push_back(std::move(pc));
    w.query.constraints.push_back(std::move(c));
  }

  // --- satellite constraints: min/max/neighborhood contrast ---
  const double data_lo = Quantile(window_avgs, 0.0);
  const double data_hi = Quantile(window_avgs, 1.0);
  const int extra = static_cast<int>(rng.UniformInt(0, 3));
  for (int e = 0; e < extra; ++e) {
    searchlight::QueryConstraint c;
    WindowFunctionContext ctx = base_ctx;
    if (rng.Bernoulli(0.5)) {
      // Empty range: the function derives it from the synopsis.
      ctx.value_range = Interval::Empty();
    } else {
      ctx.value_range = Interval(40.0, 260.0);
    }
    const int64_t kind = rng.UniformInt(0, 3);
    if (kind == 0) {
      c.make_function = [ctx] { return std::make_unique<MaxFunction>(ctx); };
      // Mostly-feasible half-open lower bound; occasionally demanding.
      const double cut = rng.Bernoulli(0.75)
                             ? rng.Uniform(data_lo, (data_lo + data_hi) / 2)
                             : rng.Uniform((data_lo + data_hi) / 2, data_hi + 30.0);
      c.bounds = Interval(cut, kInf);
      c.name = "max";
      w.function_ids.push_back(FunctionId("max", ctx.value_range));
    } else if (kind == 1) {
      c.make_function = [ctx] { return std::make_unique<MinFunction>(ctx); };
      const double cut = rng.Bernoulli(0.75)
                             ? rng.Uniform((data_lo + data_hi) / 2, data_hi)
                             : rng.Uniform(data_lo - 30.0, (data_lo + data_hi) / 2);
      c.bounds = Interval(-kInf, cut);
      c.name = "min";
      w.function_ids.push_back(FunctionId("min", ctx.value_range));
    } else {
      const auto side = kind == 2
                            ? NeighborhoodContrastFunction::Side::kLeft
                            : NeighborhoodContrastFunction::Side::kRight;
      const int64_t width = nbhd;
      c.make_function = [ctx, side, width] {
        return std::make_unique<NeighborhoodContrastFunction>(ctx, side,
                                                              width);
      };
      c.bounds = Interval(rng.Uniform(0.0, 60.0), kInf);
      c.name = kind == 2 ? "contrast_left" : "contrast_right";
      w.function_ids.push_back(FunctionId(c.name, ctx.value_range, width));
    }
    c.relaxable = rng.Bernoulli(0.8);
    c.relax_weight = rng.Uniform(0.3, 1.0);
    c.constrainable = rng.Bernoulli(0.75);
    c.rank_weight = rng.Bernoulli(0.6) ? -1.0 : rng.Uniform(0.1, 1.0);
    c.preference = rng.Bernoulli(0.7)
                       ? searchlight::RankPreference::kMaximize
                       : searchlight::RankPreference::kMinimize;
    data::ParsedConstraint pc;
    pc.fn = c.name;
    if (c.name == "contrast_left" || c.name == "contrast_right") {
      pc.width = nbhd;
    }
    pc.bounds = c.bounds;
    pc.range = ctx.value_range;
    pc.weight = c.relax_weight;
    pc.rank_weight = c.rank_weight;
    pc.relaxable = c.relaxable;
    pc.constrainable = c.constrainable;
    pc.maximize = c.preference == searchlight::RankPreference::kMaximize;
    parsed_cons.push_back(std::move(pc));
    w.query.constraints.push_back(std::move(c));
  }
  if (overrides.max_constraints > 0 &&
      static_cast<int>(w.query.constraints.size()) >
          overrides.max_constraints) {
    w.query.constraints.resize(
        static_cast<size_t>(std::max(1, overrides.max_constraints)));
    w.function_ids.resize(w.query.constraints.size());
    parsed_cons.resize(w.query.constraints.size());
  }
  {
    data::ParsedQuery pq;
    pq.k = k;
    pq.var_names = {"x", "len"};
    pq.domains = w.query.domains;
    pq.constraints = std::move(parsed_cons);
    w.query_text = data::SerializeQuery(pq);
  }

  // --- diversity (rank/relax only; skyline output is unfiltered) ---
  if (mode != FuzzMode::kSkyline && rng.Bernoulli(0.15) &&
      !overrides.no_diversity) {
    w.result_spacing = {rng.UniformInt(2, 10), rng.UniformInt(0, 2)};
    w.diversity_pool_factor = rng.UniformInt(4, 8);
  }

  // --- summary line ---
  std::string s;
  AppendKv(&s, "seed", std::to_string(seed));
  AppendKv(&s, "mode", FuzzModeName(mode));
  AppendKv(&s, "n", std::to_string(n));
  AppendKv(&s, "chunk", std::to_string(chunk));
  AppendKv(&s, "x", std::to_string(x_lo) + ".." + std::to_string(x_hi));
  AppendKv(&s, "len",
           std::to_string(len_lo) + ".." + std::to_string(len_hi));
  AppendKv(&s, "k", std::to_string(k));
  AppendKv(&s, "alpha", FormatDouble(w.alpha));
  std::string cons;
  for (const searchlight::QueryConstraint& qc : w.query.constraints) {
    if (!cons.empty()) cons += '+';
    cons += qc.name;
  }
  AppendKv(&s, "cons", cons);
  if (!w.result_spacing.empty()) {
    AppendKv(&s, "spacing",
             std::to_string(w.result_spacing[0]) + "," +
                 std::to_string(w.result_spacing[1]));
  }
  if (overrides.any()) AppendKv(&s, "overrides", overrides.ToString());
  w.summary = s;
  return w;
}

std::string EngineConfig::ToString() const {
  // Knobs shared with QUERY frames, then the fuzz-only keys, then the
  // knobs only the fuzzer sets. Those last were added after reproducer
  // lines existed and are written only when set, so a line for a config
  // that leaves them at their defaults reads exactly as it always has.
  std::string out;
  for (const core::KnobText& k : core::FormatKnobs(knobs)) {
    if (k.surfaces == (core::kQueryKnob | core::kConfigKnob)) {
      AppendKv(&out, k.key, k.value);
    }
  }
  AppendKv(&out, "crashes", std::to_string(fault_crashes));
  AppendKv(&out, "det", knobs.enable_failure_detector ? "1" : "0");
  AppendKv(&out, "trace", trace ? "1" : "0");
  AppendKv(&out, "simd", simd ? "1" : "0");
  AppendKv(&out, "serve", serve ? "1" : "0");
  AppendKv(&out, "profile", profile ? "1" : "0");
  for (const core::KnobText& k :
       core::ChangedKnobs(knobs, core::RefineOptions{}, /*query=*/false)) {
    AppendKv(&out, k.key, k.value);
  }
  return out;
}

Result<EngineConfig> EngineConfig::FromString(const std::string& text) {
  EngineConfig config;
  const std::pair<const char*, bool*> flags[] = {
      {"det", &config.knobs.enable_failure_detector},
      {"trace", &config.trace},
      {"simd", &config.simd},
      {"serve", &config.serve},
      {"profile", &config.profile}};
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(';', pos);
    if (end == std::string::npos) end = text.size();
    const std::string piece = text.substr(pos, end - pos);
    pos = end + 1;
    if (piece.empty()) continue;
    const size_t eq = piece.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("config: expected key=value, got '" +
                                  piece + "'");
    }
    const std::string key = piece.substr(0, eq);
    const std::string value = piece.substr(eq + 1);
    bool* flag = nullptr;
    for (const auto& [flag_key, ptr] : flags) {
      if (key == flag_key) flag = ptr;
    }
    Status st;
    if (flag != nullptr) {
      st = core::ParseKnobFlag(key, value, flag);
    } else if (key == "crashes") {
      int64_t crashes = 0;
      st = core::ParseKnobInt(key, value, {0, 63}, &crashes);
      config.fault_crashes = static_cast<int>(crashes);
    } else {
      st = core::SetKnob(key, value, core::kConfigKnob, &config.knobs);
    }
    if (!st.ok()) return InvalidArgumentError("config: " + st.message());
  }
  return config;
}

core::RefineOptions EngineConfig::ToOptions(const Workload& workload,
                                            core::FaultPlan* plan) const {
  // Built from the text ToString writes, so a case runs exactly what its
  // reproducer line replays.
  core::RefineOptions options;
  for (const core::KnobText& k : core::FormatKnobs(knobs)) {
    if ((k.surfaces & core::kConfigKnob) != 0) {
      DQR_CHECK(core::SetKnob(k.key, k.value, core::kConfigKnob, &options)
                    .ok());
    }
  }
  options.enable_failure_detector = knobs.enable_failure_detector;
  options.alpha = workload.alpha;
  options.constrain = workload.constrain;
  options.result_spacing = workload.result_spacing;
  options.diversity_pool_factor = workload.diversity_pool_factor;

  if (fault_crashes > 0 && options.num_instances > 1 && plan != nullptr) {
    *plan = MakeSurvivorCrashPlan(workload.seed ^ 0xfa57fa57fa57fa57ULL,
                                  options.num_instances, fault_crashes);
    options.fault_plan = plan;
    // Short lease for fast recovery on tiny fuzz problems, long enough
    // that the slot's heartbeat timer cannot plausibly miss it.
    options.heartbeat_interval_us = 20000;
    options.lease_timeout_us = 120000;
  }
  return options;
}

std::vector<EngineConfig> MakeConfigMatrix(uint64_t seed, int count) {
  count = std::clamp(count, 3, 8);
  Rng rng(seed ^ 0xc0f1c0f1c0f1c0f1ULL);
  // The profile and search-order dimensions draw from decorrelated
  // streams, so adding them left every earlier matrix draw byte-identical.
  Rng profile_rng(seed ^ 0x50f11e5050f11e50ULL);
  Rng search_rng(seed ^ 0x5ea7c4015ea7c401ULL);
  // Search order and broadcast latency: the heuristics change the
  // exploration order and the delay when instances see MRP/MRK updates,
  // never the answer.
  const auto draw_search = [&search_rng](EngineConfig* c) {
    const cp::VarSelect var_selects[] = {cp::VarSelect::kFirstUnbound,
                                         cp::VarSelect::kSmallestDomain};
    if (search_rng.Bernoulli(0.5)) {
      c->knobs.var_select = var_selects[search_rng.UniformInt(0, 1)];
    }
    if (search_rng.Bernoulli(0.5)) {
      c->knobs.value_split = cp::ValueSplit::kBisectHighFirst;
    }
    const int64_t delays_us[] = {50, 500, 2000};
    if (search_rng.Bernoulli(0.25)) {
      c->knobs.broadcast_delay_us = delays_us[search_rng.UniformInt(0, 2)];
    }
  };
  std::vector<EngineConfig> configs;

  // [0] the sequential baseline: one instance, one shard, paper defaults.
  configs.push_back(EngineConfig{});

  // [1] work stealing + seeded optimization toggles; always scalar, so
  // every matrix differentials the scalar kernels against the SIMD
  // baseline at [0].
  {
    EngineConfig c;
    c.knobs.num_instances = static_cast<int>(rng.UniformInt(2, 4));
    c.knobs.shards_per_instance = static_cast<int>(rng.UniformInt(4, 8));
    c.knobs.speculative = rng.Bernoulli(0.5);
    c.knobs.fail_eval = rng.Bernoulli(0.5) ? core::FailEvalMode::kLazy
                                           : core::FailEvalMode::kFull;
    const double rrd_choices[] = {1.0, 0.5, 0.25};
    c.knobs.replay_relaxation_distance = rrd_choices[rng.UniformInt(0, 2)];
    c.knobs.save_function_state = rng.Bernoulli(0.8);
    c.simd = false;
    // Always profiled, so every matrix differentials a profiled
    // work-stealing run against the unprofiled baseline at [0].
    c.profile = true;
    draw_search(&c);
    configs.push_back(c);
  }

  // [2] deterministic fault injection under work stealing.
  {
    EngineConfig c;
    c.knobs.num_instances = 3;
    c.knobs.shards_per_instance = 8;
    c.knobs.speculative = rng.Bernoulli(0.3);
    c.fault_crashes = static_cast<int>(rng.UniformInt(1, 2));
    c.knobs.enable_failure_detector = true;
    c.profile = profile_rng.Bernoulli(0.5);
    draw_search(&c);
    configs.push_back(c);
  }

  // [3..] fully random draws.
  for (int i = 3; i < count; ++i) {
    EngineConfig c;
    c.knobs.num_instances = static_cast<int>(rng.UniformInt(1, 4));
    c.knobs.shards_per_instance = static_cast<int>(rng.UniformInt(1, 8));
    c.knobs.speculative = rng.Bernoulli(0.4);
    c.knobs.fail_eval = rng.Bernoulli(0.5) ? core::FailEvalMode::kLazy
                                           : core::FailEvalMode::kFull;
    // Rounded to the six digits reproducer lines print, so a case runs
    // exactly the value its line replays.
    c.knobs.replay_relaxation_distance = std::strtod(
        FormatDouble(rng.Bernoulli(0.5) ? 1.0 : rng.Uniform(0.2, 1.0))
            .c_str(),
        nullptr);
    c.knobs.save_function_state = rng.Bernoulli(0.8);
    c.knobs.replay_order = rng.Bernoulli(0.8)
                               ? core::ReplayOrder::kBestFirst
                               : core::ReplayOrder::kFifo;
    c.knobs.validator_queue = rng.Bernoulli(0.8)
                                  ? core::ValidatorQueueOrder::kBrpPriority
                                  : core::ValidatorQueueOrder::kFifo;
    c.simd = rng.Bernoulli(0.7);
    if (c.knobs.num_instances > 1 && rng.Bernoulli(0.25)) {
      c.fault_crashes = 1;
      c.knobs.enable_failure_detector = true;
    }
    c.profile = profile_rng.Bernoulli(0.5);
    draw_search(&c);
    configs.push_back(c);
  }
  return configs;
}

// --- correlated query sessions ---

namespace {

// Applies one mutation to `prev`, drawing from a stream keyed on
// (seed, step) only — never on the outcome of earlier mutations — so a
// shortened plan replays its surviving steps bit-for-bit.
Workload ApplyMutation(const Workload& base, const Workload& prev,
                       SessionMutation mutation, uint64_t seed, int step) {
  Workload next = prev;
  Rng rng(seed ^ (0x6d75746174650000ULL +
                  static_cast<uint64_t>(step) * 0x9e3779b97f4a7c15ULL));
  switch (mutation) {
    case SessionMutation::kRepeat:
      break;
    case SessionMutation::kRelax:
      // Widen every finite bound side by a seeded fraction of the
      // constraint's span; half-open constraints widen their one finite
      // side against a fallback span.
      for (auto& qc : next.query.constraints) {
        Interval& b = qc.bounds;
        const double span =
            (std::isfinite(b.lo) && std::isfinite(b.hi) && b.hi > b.lo)
                ? b.hi - b.lo
                : 20.0;
        if (std::isfinite(b.lo)) b.lo -= rng.Uniform(0.05, 0.35) * span;
        if (std::isfinite(b.hi)) b.hi += rng.Uniform(0.05, 0.35) * span;
      }
      break;
    case SessionMutation::kTighten:
      // Shrink each finite side by at most 25% of the width — the two
      // cuts sum below the width, so the interval stays non-empty.
      for (auto& qc : next.query.constraints) {
        Interval& b = qc.bounds;
        if (std::isfinite(b.lo) && std::isfinite(b.hi)) {
          const double width = b.hi - b.lo;
          b.lo += rng.Uniform(0.0, 0.25) * width;
          b.hi -= rng.Uniform(0.0, 0.25) * width;
        } else if (std::isfinite(b.lo)) {
          b.lo += rng.Uniform(1.0, 10.0);
        } else if (std::isfinite(b.hi)) {
          b.hi -= rng.Uniform(1.0, 10.0);
        }
      }
      break;
    case SessionMutation::kShift: {
      // Move variable 0 to a sub-window of the *base* domain, so shifted
      // sessions stay inside the base query's universe (and inside any
      // x_width_cap the shrinker applied to it).
      const cp::IntDomain& d0 = base.query.domains[0];
      const int64_t width = d0.size();
      DQR_CHECK(width >= 1);
      const int64_t new_w =
          std::max<int64_t>(1, width - rng.UniformInt(0, width / 2));
      const int64_t off = rng.UniformInt(0, width - new_w);
      next.query.domains[0] =
          cp::IntDomain(d0.lo + off, d0.lo + off + new_w - 1);
      break;
    }
  }
  AppendKv(&next.summary, "mut",
           std::string(SessionMutationName(mutation)) + "@" +
               std::to_string(step));
  return next;
}

}  // namespace

const char* SessionMutationName(SessionMutation mutation) {
  switch (mutation) {
    case SessionMutation::kRepeat:
      return "repeat";
    case SessionMutation::kRelax:
      return "relax";
    case SessionMutation::kTighten:
      return "tighten";
    case SessionMutation::kShift:
      return "shift";
  }
  return "unknown";
}

Result<SessionMutation> SessionMutationFromName(const std::string& name) {
  if (name == "repeat") return SessionMutation::kRepeat;
  if (name == "relax") return SessionMutation::kRelax;
  if (name == "tighten") return SessionMutation::kTighten;
  if (name == "shift") return SessionMutation::kShift;
  return InvalidArgumentError("unknown session mutation: " + name);
}

std::string SessionPlan::ToString() const {
  std::string out;
  for (const SessionMutation m : steps) {
    if (!out.empty()) out += ',';
    out += SessionMutationName(m);
  }
  return out;
}

Result<SessionPlan> SessionPlan::FromString(const std::string& text) {
  SessionPlan plan;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string piece = text.substr(pos, end - pos);
    pos = end + 1;
    if (piece.empty()) {
      if (text.empty()) break;
      return InvalidArgumentError("session plan: empty step in '" + text +
                                  "'");
    }
    auto m = SessionMutationFromName(piece);
    if (!m.ok()) return m.status();
    plan.steps.push_back(m.value());
    if (end == text.size()) break;
  }
  return plan;
}

SessionPlan MakeSessionPlan(uint64_t seed, int num_steps) {
  SessionPlan plan;
  plan.steps.reserve(static_cast<size_t>(std::max(0, num_steps)));
  for (int i = 0; i < num_steps; ++i) {
    // One decorrelated stream per index => prefix stability.
    Rng rng(seed ^ (0x5e55104e00000000ULL +
                    static_cast<uint64_t>(i + 1) * 0x9e3779b97f4a7c15ULL));
    const int64_t roll = rng.UniformInt(0, 99);
    plan.steps.push_back(roll < 15   ? SessionMutation::kRepeat
                         : roll < 45 ? SessionMutation::kRelax
                         : roll < 75 ? SessionMutation::kTighten
                                     : SessionMutation::kShift);
  }
  return plan;
}

QuerySession MakeSession(uint64_t seed, FuzzMode mode,
                         const SessionPlan& plan,
                         const WorkloadOverrides& overrides, bool grid,
                         cache::SharedBoundsMemo* shared_memo,
                         uint64_t memo_space) {
  QuerySession session;
  session.plan = plan;
  // The id must pin everything that shapes the data/synopsis/functions:
  // overrides change the generated array (length_cap) and the constraint
  // list (max_constraints), so they are part of the dataset identity.
  session.dataset_id =
      (grid ? "fuzz_grid_" : "fuzz_") + std::to_string(seed);
  if (overrides.any()) session.dataset_id += "|" + overrides.ToString();
  session.steps.reserve(plan.steps.size() + 1);
  session.steps.push_back(
      MakeWorkload(seed, mode, overrides, grid, shared_memo, memo_space));
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    session.steps.push_back(ApplyMutation(session.steps.front(),
                                          session.steps.back(),
                                          plan.steps[i], seed,
                                          static_cast<int>(i)));
  }
  return session;
}

}  // namespace dqr::fuzz
