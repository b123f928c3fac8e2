// Work stealing vs static partitioning on a deliberately skewed workload.
// All interesting structure (plateaus + spikes) is packed into the first
// eighth of the signal, i.e. entirely inside instance 0's slice under the
// legacy static 1-slice-per-instance split: instance 0 grinds while the
// rest idle. With morsel-style stealing the hot region shatters across
// many pool shards and every instance stays busy.
//
// Two experiments:
//   * main-search skew — plenty of exact results, no relaxation; measures
//     the shard pool alone (completion time + per-instance busy spread);
//   * replay skew — scarce bounds force relaxation; fails recorded in the
//     hot region are replayed from the shared global pool by whichever
//     instance is free (stolen-replay counts show the balance).

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "array/array.h"
#include "bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "searchlight/functions.h"
#include "searchlight/query.h"
#include "synopsis/synopsis.h"

namespace {

using namespace dqr;
using namespace dqr::bench;

struct SkewedBundle {
  std::shared_ptr<array::Array> array;
  std::shared_ptr<synopsis::Synopsis> synopsis;
};

// Calm baseline ~100 everywhere; the first eighth of the signal carries
// plateaus at ~140/150 and periodic spikes — the only region where the
// query below has work to do.
SkewedBundle MakeSkewedBundle(int64_t n) {
  Rng rng(77);
  std::vector<double> data(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    data[static_cast<size_t>(i)] = 100.0 + 2.0 * rng.NextGaussian();
  }
  const int64_t hot = n / 8;
  for (int64_t i = 0; i < hot; ++i) {
    // Alternating plateaus keep the avg constraint straddling its bounds
    // so the search tree stays deep across the whole hot region.
    data[static_cast<size_t>(i)] += (i / 64) % 2 == 0 ? 40.0 : 50.0;
  }
  for (int64_t i = 32; i < hot; i += 96) {  // spikes for the contrast UDF
    for (int64_t j = i; j < i + 3 && j < hot; ++j) {
      data[static_cast<size_t>(j)] += 55.0;
    }
  }
  for (double& v : data) v = std::clamp(v, 50.0, 250.0);

  array::ArraySchema schema;
  schema.name = "skewed_bench";
  schema.length = n;
  schema.chunk_size = 256;
  SkewedBundle bundle;
  bundle.array = array::Array::FromData(schema, std::move(data)).value();
  bundle.synopsis =
      synopsis::Synopsis::Build(*bundle.array,
                                synopsis::SynopsisOptions{{256, 32}, 32})
          .value();
  return bundle;
}

searchlight::QuerySpec MakeSkewedQuery(const SkewedBundle& bundle,
                                       Interval avg_bounds, int64_t k,
                                       int64_t cost_ns) {
  searchlight::QuerySpec query;
  query.name = "skewed";
  query.k = k;
  const int64_t n = bundle.array->length();
  constexpr int64_t kNbhd = 8;
  constexpr int64_t kLenHi = 12;
  query.domains = {cp::IntDomain(kNbhd, n - kLenHi - kNbhd - 1),
                   cp::IntDomain(4, kLenHi)};

  searchlight::WindowFunctionContext ctx;
  ctx.array = bundle.array;
  ctx.synopsis = bundle.synopsis;
  ctx.estimate_cost_ns = cost_ns;
  // Latency-bound misses (cold chunk fetches): sleeping threads overlap,
  // so the scheduling comparison is meaningful even on a small host.
  ctx.cost_is_latency = true;

  {
    searchlight::QueryConstraint c;
    searchlight::WindowFunctionContext avg_ctx = ctx;
    avg_ctx.value_range = Interval(50, 250);
    c.make_function = [avg_ctx] {
      return std::make_unique<searchlight::AvgFunction>(avg_ctx);
    };
    c.bounds = avg_bounds;
    c.name = "avg";
    query.constraints.push_back(std::move(c));
  }
  for (const auto side :
       {searchlight::NeighborhoodContrastFunction::Side::kLeft,
        searchlight::NeighborhoodContrastFunction::Side::kRight}) {
    searchlight::QueryConstraint c;
    searchlight::WindowFunctionContext con_ctx = ctx;
    con_ctx.value_range = Interval(0, 200);
    const int64_t width = kNbhd;
    c.make_function = [con_ctx, side, width] {
      return std::make_unique<searchlight::NeighborhoodContrastFunction>(
          con_ctx, side, width);
    };
    c.bounds = Interval(25.0, std::numeric_limits<double>::infinity());
    c.relaxable = true;
    query.constraints.push_back(std::move(c));
  }
  return query;
}

struct SpreadRow {
  double total_s = 0.0;
  double busy_min = 0.0;
  double busy_max = 0.0;
  std::string points;
  core::RunStats stats;
  std::vector<core::RunStats> per_instance;
};

SpreadRow RunConfig(const searchlight::QuerySpec& query, int instances,
                    int shards_per_instance) {
  core::RefineOptions options;
  options.num_instances = instances;
  options.shards_per_instance = shards_per_instance;
  options.trace = BenchTrace();
  options.profile = BenchProfile();
  // With tracing on, run the heartbeat/lease machinery too so the trace
  // shows the full per-instance track set (solver/validator/heartbeat);
  // the detector's zero-fault overhead is ~1% (bench_fault_recovery).
  if (options.trace != nullptr) options.enable_failure_detector = true;
  auto run = core::ExecuteQuery(query, options);
  DQR_CHECK_MSG(run.ok(), run.status().ToString().c_str());
  if (options.profile != nullptr) WriteBenchProfile();
  const core::RunResult& result = run.value();

  SpreadRow row;
  row.total_s = result.stats.total_s;
  row.stats = result.stats;
  row.per_instance = result.per_instance;
  row.busy_min = result.per_instance.empty()
                     ? 0.0
                     : result.per_instance.front().main_busy_s;
  for (const core::RunStats& s : result.per_instance) {
    row.busy_min = std::min(row.busy_min, s.main_busy_s);
    row.busy_max = std::max(row.busy_max, s.main_busy_s);
  }
  for (const core::Solution& s : result.results) row.points += s.ToString();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  BenchEnv env = BenchEnv::FromEnv();
  const int64_t n =
      std::max<int64_t>(1 << 12, std::min<int64_t>(env.synth_length, 1 << 13));
  const SkewedBundle bundle = MakeSkewedBundle(n);
  const int instances = env.num_instances;
  // Misses model chunk-fetch latency here; the OS timer floor makes
  // sub-20us sleeps meaningless, so raise the default accordingly.
  const int64_t cost_ns = std::max<int64_t>(env.estimate_cost_ns, 20000);

  // ---- Experiment 1: main-search skew (no relaxation needed) ----------
  {
    const searchlight::QuerySpec query = MakeSkewedQuery(
        bundle, Interval(135, 160), /*k=*/10, cost_ns);
    TablePrinter table(
        "Work stealing vs static partitioning (main-search skew, " +
            std::to_string(instances) + " instances)",
        {"Shards/inst", "Time (s)", "Busy min (s)", "Busy max (s)",
         "Spread", "Results"});

    std::string reference;
    double static_s = 0.0;
    double stolen_s = 0.0;
    for (const int shards : {1, 4, 8}) {
      const SpreadRow row = RunConfig(query, instances, shards);
      if (reference.empty()) reference = row.points;
      if (shards == 1) static_s = row.total_s;
      if (shards == 8) stolen_s = row.total_s;
      const bool same = row.points == reference;
      const double spread =
          row.busy_min > 1e-9 ? row.busy_max / row.busy_min : -1.0;
      char spread_str[32];
      std::snprintf(spread_str, sizeof(spread_str), "%.1fx", spread);
      table.AddRow({std::to_string(shards), Secs(row.total_s),
                    Secs(row.busy_min), Secs(row.busy_max),
                    spread < 0.0 ? "inf" : spread_str,
                    same ? "same" : "DIFFERENT!"});
    }
    table.Print();
    std::printf(
        "Static (1 shard/inst) vs stealing (8): %.2fx speedup. Every row "
        "must report \"same\" — the result set is invariant under the "
        "shard count.\n",
        stolen_s > 0.0 ? static_s / stolen_s : 0.0);
  }

  // ---- Experiment 2: replay skew (relaxation from the shared pool) ----
  {
    const searchlight::QuerySpec query = MakeSkewedQuery(
        bundle, Interval(220, 250), /*k=*/10, cost_ns);
    TablePrinter table(
        "Shared replay pool (replay skew, scarce bounds, " +
            std::to_string(instances) + " instances)",
        {"Shards/inst", "Time (s)", "Replays", "Stolen", "Per-inst replays",
         "Results"});

    std::string reference;
    for (const int shards : {1, 8}) {
      const SpreadRow row = RunConfig(query, instances, shards);
      if (reference.empty()) reference = row.points;
      const bool same = row.points == reference;
      std::string split;
      for (const core::RunStats& s : row.per_instance) {
        if (!split.empty()) split += "/";
        split += std::to_string(s.replays);
      }
      table.AddRow({std::to_string(shards), Secs(row.total_s),
                    std::to_string(row.stats.replays),
                    std::to_string(row.stats.replays_stolen), split,
                    same ? "same" : "DIFFERENT!"});
    }
    table.Print();
    std::printf(
        "Fails recorded in the hot region are replayed by every instance "
        "(the per-instance split), not only by their recorder — the "
        "stolen count is the cross-instance share.\n");
  }
  return 0;
}
