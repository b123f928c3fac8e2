// The paper's evaluation (§5) from one row table: Tables 1-8, Figures 1
// and 2, the §5.3 extras, plus a synopsis-resolution ablation and the 2-D
// variant of Tables 1-2. A row is one cell: an experiment id, a query, a
// scenario, the engine knobs that differ from the defaults (knob text,
// core/knobs.h) and the paper's printed value. Each cell runs kRuns times
// and is reported by the median and quartiles of its completion time; a
// cell that hits its cap runs once, since a capped time is only a lower
// bound.
//
//   bench_paper [--only=T1,T8,...] [--out=FILE] [--trace=FILE]
//               [--profile=FILE]
//
// --out writes one TSV line per (cell, scale); EXPERIMENTS.md is filled
// from the committed bench/paper_results.tsv, regenerated with
//   build/bench/bench_paper --out=bench/paper_results.tsv
// DQR_BENCH_SCALE multiplies every row's scale and DQR_BENCH_TIMEOUT_S
// sets the cap (bench_common.h). Manual and refinement-off runs stop at
// the cap, as the paper's ">1h" runs did; automatic runs get four caps.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "core/knobs.h"
#include "core/penalty.h"
#include "data/grid_synthetic.h"
#include "synopsis/synopsis.h"

namespace dqr::bench {
namespace {

constexpr int kRuns = 5;
constexpr int64_t kGridSide = 1 << 10;

enum class Scenario {
  kAuto,     // one run with automatic refinement (the paper's SL)
  kOff,      // one plain Searchlight run at the row's relax fraction
  kUser3,    // manual reruns at relax 0, cautious, correct
  kUser2,    // manual reruns at relax 0, correct
  kUserMax,  // manual reruns at relax 0, 1
  kWalk,     // Figure 2's worked example, computed; no query runs
};
using enum Scenario;

// Relax fraction placeholder: the query's USER-2 ("correct") fraction.
constexpr double kCorrect = -1.0;
// Estimation cost placeholder: DQR_BENCH_COST_NS.
constexpr int64_t kEnvCost = -1;

struct Row {
  const char* id;
  const char* cell;
  const char* query;  // S-SEL, S-LOS, M-SEL, M-LOS, M-SEL', G-SEL, G-LOS
  Scenario scenario = kAuto;
  const char* knobs = "";  // "key=value ...", applied with core::SetKnob
  const char* paper = "";
  std::vector<double> scales = {1.0};  // each multiplies DQR_BENCH_SCALE
  double relax = 0.0;
  int64_t k = 10;
  int64_t cost_ns = kEnvCost;  // per uncached synopsis lookup
  int64_t chunk_ns = 0;        // per base-data chunk read (validation)
  std::optional<synopsis::SynopsisOptions> synopsis = {};  // else default
};

// The paper's Table 5 and 6 gains show on "more expensive" functions.
constexpr int64_t kExpensive = 8000;

const Row kRows[] = {
    // Table 1: relaxation of the selective queries, SL vs manual reruns.
    {"T1", "SL", "S-SEL", kAuto, "", "97, first 42", {0.25, 1}},
    {"T1", "USER-3", "S-SEL", kUser3, "", "327", {0.25, 1}},
    {"T1", "USER-2", "S-SEL", kUser2, "", "210 (120), first 91", {0.25, 1}},
    {"T1", "USER-MAX", "S-SEL", kUserMax, "", "216", {0.25, 1}},
    {"T1", "SL", "M-SEL", kAuto, "", "150, first 45", {0.25, 1}},
    {"T1", "USER-3", "M-SEL", kUser3, "", "544", {0.25, 1}},
    {"T1", "USER-2", "M-SEL", kUser2, "", "380 (240), first 198", {0.25, 1}},
    {"T1", "USER-MAX", "M-SEL", kUserMax, "", "380", {0.25, 1}},
    // Table 2: the loose queries; maximal manual relaxation avalanches.
    {"T2", "SL", "S-LOS", kAuto, "", "105, first 92"},
    {"T2", "USER-3", "S-LOS", kUser3, "", "314"},
    {"T2", "USER-2", "S-LOS", kUser2, "", "208 (106), first 108"},
    {"T2", "USER-MAX", "S-LOS", kUserMax, "", ">3600"},
    {"T2", "SL", "M-LOS", kAuto, "", "91, first 45"},
    {"T2", "USER-3", "M-LOS", kUser3, "", "177"},
    {"T2", "USER-2", "M-LOS", kUser2, "", "118 (83), first 77"},
    {"T2", "USER-MAX", "M-LOS", kUserMax, "", ">3600"},
    // Table 3: the correctly relaxed query, refinement off vs armed.
    {"T3", "Off", "S-LOS", kOff, "", "106", {1}, kCorrect},
    {"T3", "Off", "M-LOS", kOff, "", "83", {1}, kCorrect},
    {"T3", "Off", "S-SEL", kOff, "", "120", {1}, kCorrect},
    {"T3", "Off", "M-SEL", kOff, "", "240", {1}, kCorrect},
    {"T3", "On", "S-LOS", kAuto, "constrain=none", "116", {1}, kCorrect},
    {"T3", "On", "M-LOS", kAuto, "constrain=none", "98", {1}, kCorrect},
    {"T3", "On", "S-SEL", kAuto, "constrain=none", "127", {1}, kCorrect},
    {"T3", "On", "M-SEL", kAuto, "constrain=none", "290", {1}, kCorrect},
    // Table 4: constraining the maximally relaxed queries.
    {"T4", "Off", "S-LOS", kOff, "", "2h 8m", {1}, 1.0},
    {"T4", "Off", "M-LOS", kOff, "", "2h 24m", {1}, 1.0},
    {"T4", "Off", "S-SEL", kOff, "", "120", {1}, 1.0},
    {"T4", "Off", "M-SEL", kOff, "", "240", {1}, 1.0},
    {"T4", "Off", "M-SEL'", kOff, "", "263", {1}, 1.0},
    {"T4", "Rank", "S-LOS", kAuto, "constrain=rank", "60", {1}, 1.0},
    {"T4", "Rank", "M-LOS", kAuto, "constrain=rank", "154", {1}, 1.0},
    {"T4", "Rank", "S-SEL", kAuto, "constrain=rank", "29", {1}, 1.0},
    {"T4", "Rank", "M-SEL", kAuto, "constrain=rank", "139", {1}, 1.0},
    {"T4", "Rank", "M-SEL'", kAuto, "constrain=rank", "135", {1}, 1.0},
    {"T4", "Skyline", "S-LOS", kAuto, "constrain=skyline", "314", {1}, 1.0},
    {"T4", "Skyline", "M-LOS", kAuto, "constrain=skyline", "13m", {1}, 1.0},
    {"T4", "Skyline", "S-SEL", kAuto, "constrain=skyline", "93", {1}, 1.0},
    {"T4", "Skyline", "M-SEL", kAuto, "constrain=skyline", "269", {1}, 1.0},
    {"T4", "Skyline", "M-SEL'", kAuto, "constrain=skyline", "218", {1}, 1.0},
    // Table 5: constraint functions at fails, evaluated fully or lazily.
    {"T5", "Full", "S-LOS", kAuto, "eval=full", "120 (100)", {1}, 0, 10,
     kExpensive},
    {"T5", "Full", "M-LOS", kAuto, "eval=full", "81 (45)", {1}, 0, 10,
     kExpensive},
    {"T5", "Full", "S-SEL", kAuto, "eval=full", "112 (46)", {1}, 0, 10,
     kExpensive},
    {"T5", "Full", "M-SEL", kAuto, "eval=full", "149 (45)", {1}, 0, 10,
     kExpensive},
    {"T5", "Lazy", "S-LOS", kAuto, "eval=lazy", "105 (90)", {1}, 0, 10,
     kExpensive},
    {"T5", "Lazy", "M-LOS", kAuto, "eval=lazy", "91 (45)", {1}, 0, 10,
     kExpensive},
    {"T5", "Lazy", "S-SEL", kAuto, "eval=lazy", "97 (42)", {1}, 0, 10,
     kExpensive},
    {"T5", "Lazy", "M-SEL", kAuto, "eval=lazy", "150 (45)", {1}, 0, 10,
     kExpensive},
    // Table 6: saving UDF states with recorded fails.
    {"T6", "On", "S-LOS", kAuto, "state=1", "105 (90)", {1}, 0, 10,
     kExpensive},
    {"T6", "On", "M-LOS", kAuto, "state=1", "91 (45)", {1}, 0, 10,
     kExpensive},
    {"T6", "On", "S-SEL", kAuto, "state=1", "97 (42)", {1}, 0, 10,
     kExpensive},
    {"T6", "On", "M-SEL", kAuto, "state=1", "150 (45)", {1}, 0, 10,
     kExpensive},
    {"T6", "Off", "S-LOS", kAuto, "state=0", "113 (111)", {1}, 0, 10,
     kExpensive},
    {"T6", "Off", "M-LOS", kAuto, "state=0", "104 (70)", {1}, 0, 10,
     kExpensive},
    {"T6", "Off", "S-SEL", kAuto, "state=0", "97 (40)", {1}, 0, 10,
     kExpensive},
    {"T6", "Off", "M-SEL", kAuto, "state=0", "154 (46)", {1}, 0, 10,
     kExpensive},
    // Table 7: speculative replays while the main search runs.
    {"T7", "On", "S-LOS", kAuto, "spec=1", "128 (7)", {1, 4}},
    {"T7", "On", "M-LOS", kAuto, "spec=1", "90 (45)", {1, 4}},
    {"T7", "On", "S-SEL", kAuto, "spec=1", "115 (2)", {1, 4}},
    {"T7", "On", "M-SEL", kAuto, "spec=1", "152 (47)", {1, 4}},
    {"T7", "Off", "S-LOS", kAuto, "spec=0", "105 (90)", {1, 4}},
    {"T7", "Off", "M-LOS", kAuto, "spec=0", "91 (45)", {1, 4}},
    {"T7", "Off", "S-SEL", kAuto, "spec=0", "97 (42)", {1, 4}},
    {"T7", "Off", "M-SEL", kAuto, "spec=0", "150 (45)", {1, 4}},
    // Table 8: the replay relaxation distance sweep. The k = 200 M-LOS
    // keeps MRP loose longer, the regime where the paper's M-LOS
    // exploded at RRD = 1.0.
    {"T8", "RRD 0.1", "S-LOS", kAuto, "rrd=0.1", "106"},
    {"T8", "RRD 0.3", "S-LOS", kAuto, "rrd=0.3", "105"},
    {"T8", "RRD 0.5", "S-LOS", kAuto, "rrd=0.5", "106"},
    {"T8", "RRD 0.7", "S-LOS", kAuto, "rrd=0.7", "106"},
    {"T8", "RRD 1.0", "S-LOS", kAuto, "rrd=1.0", "106"},
    {"T8", "RRD 0.1", "M-LOS", kAuto, "rrd=0.1", "87"},
    {"T8", "RRD 0.3", "M-LOS", kAuto, "rrd=0.3", "91"},
    {"T8", "RRD 0.5", "M-LOS", kAuto, "rrd=0.5", "112"},
    {"T8", "RRD 0.7", "M-LOS", kAuto, "rrd=0.7", "145"},
    {"T8", "RRD 1.0", "M-LOS", kAuto, "rrd=1.0", "54m"},
    {"T8", "RRD 0.1", "M-LOS", kAuto, "rrd=0.1", "", {1}, 0, 200},
    {"T8", "RRD 0.3", "M-LOS", kAuto, "rrd=0.3", "", {1}, 0, 200},
    {"T8", "RRD 0.5", "M-LOS", kAuto, "rrd=0.5", "", {1}, 0, 200},
    {"T8", "RRD 0.7", "M-LOS", kAuto, "rrd=0.7", "", {1}, 0, 200},
    {"T8", "RRD 1.0", "M-LOS", kAuto, "rrd=1.0", "", {1}, 0, 200},
    // §5.3 (a): validator queue order, with validation made expensive
    // (a per-chunk read cost models the paper's disk-resident data).
    {"XA", "FIFO", "S-LOS", kAuto, "vq=fifo", "", {1}, 0, 10, kEnvCost,
     10000},
    {"XA", "BRP", "S-LOS", kAuto, "vq=brp", "8-12% gain", {1}, 0, 10,
     kEnvCost, 10000},
    {"XA", "FIFO", "S-LOS", kAuto, "vq=fifo", "", {1}, 0, 100, kEnvCost,
     10000},
    {"XA", "BRP", "S-LOS", kAuto, "vq=brp", "8-12% gain", {1}, 0, 100,
     kEnvCost, 10000},
    {"XA", "FIFO", "M-LOS", kAuto, "vq=fifo", "", {1}, 0, 100, kEnvCost,
     10000},
    {"XA", "BRP", "M-LOS", kAuto, "vq=brp", "8-12% gain", {1}, 0, 100,
     kEnvCost, 10000},
    // §5.3 (b): replaying fails best-first or in encounter order.
    {"XB", "Best-first", "S-LOS", kAuto, "replay=brp", "105"},
    {"XB", "FIFO", "S-LOS", kAuto, "replay=fifo", "56m"},
    {"XB", "Best-first", "M-LOS", kAuto, "replay=brp"},
    {"XB", "FIFO", "M-LOS", kAuto, "replay=fifo", "orders slower"},
    // Figure 1: the manual exploration loop on the waveform, and the
    // automatic one-shot alternative.
    {"FIG1", "1 original", "M-LOS", kOff, "", "0 results"},
    {"FIG1", "2 over-relaxed", "M-LOS", kOff, "", "avalanche", {1}, 0.8},
    {"FIG1", "3 tightened", "M-LOS", kOff, "", "workable set", {1}, 0.3},
    {"FIG1", "auto", "M-LOS", kAuto, "", "top-k, one run"},
    // Figure 2: the worked example, and a small traced M-SEL run.
    {"FIG2", "walk-through", "M-SEL", kWalk, "",
     "BRP 0.53 and 0.29, c2 [53, 60]"},
    {"FIG2", "M-SEL run", "M-SEL", kAuto, "", "", {0.125}, 0, 10, 0},
    // Synopsis resolution vs the cost of M-SEL's auto-relaxation.
    {"ABL-SYN", "coarse 64k", "M-SEL", kAuto, "", "", {0.5}, 0, 10, 0, 0,
     synopsis::SynopsisOptions{{65536}, 64}},
    {"ABL-SYN", "two-level 64k/4k", "M-SEL", kAuto, "", "", {0.5}, 0, 10, 0,
     0, synopsis::SynopsisOptions{{65536, 4096}, 64}},
    {"ABL-SYN", "default 64k/8k/1k/128", "M-SEL", kAuto, "", "", {0.5}, 0,
     10, 0, 0, synopsis::SynopsisOptions{{65536, 8192, 1024, 128}, 64}},
    {"ABL-SYN", "fine 16k/1k/64/16", "M-SEL", kAuto, "", "", {0.5}, 0, 10,
     0, 0, synopsis::SynopsisOptions{{16384, 1024, 64, 16}, 64}},
    {"ABL-SYN", "default, budget 8", "M-SEL", kAuto, "", "", {0.5}, 0, 10,
     0, 0, synopsis::SynopsisOptions{{65536, 8192, 1024, 128}, 8}},
    {"ABL-SYN", "default, budget 512", "M-SEL", kAuto, "", "", {0.5}, 0, 10,
     0, 0, synopsis::SynopsisOptions{{65536, 8192, 1024, 128}, 512}},
    // Tables 1-2 on the 2-D substrate (beyond the paper).
    {"G", "SL", "G-SEL", kAuto},
    {"G", "USER-3", "G-SEL", kUser3},
    {"G", "USER-2", "G-SEL", kUser2},
    {"G", "USER-MAX", "G-SEL", kUserMax},
    {"G", "SL", "G-LOS", kAuto},
    {"G", "USER-3", "G-LOS", kUser3},
    {"G", "USER-2", "G-LOS", kUser2},
    {"G", "USER-MAX", "G-LOS", kUserMax},
};

const std::map<std::string, const char*> kTitles = {
    {"T1", "Table 1: S/M-SEL completion times (secs), query relaxation"},
    {"T2", "Table 2: S/M-LOS completion times (secs), query relaxation"},
    {"T3", "Table 3: queries not needing relaxation (secs)"},
    {"T4", "Table 4: query constraining (secs)"},
    {"T5", "Table 5: fail recording methods (secs, first result)"},
    {"T6", "Table 6: UDF state saving (secs, first result)"},
    {"T7", "Table 7: speculative relaxation (secs, first result)"},
    {"T8", "Table 8: replay relaxation distance (secs)"},
    {"XA", "Extra (a): validator queue order (secs)"},
    {"XB", "Extra (b): replay order (secs)"},
    {"FIG1", "Figure 1: exploring the ABP waveform"},
    {"FIG2", "Figure 2: fail recording and replaying"},
    {"ABL-SYN", "Ablation: synopsis resolution (M-SEL, auto)"},
    {"G", "2-D relaxation: G-SEL / G-LOS completion times (secs)"},
};

// A query of the table: its data set and the manual relax fractions
// (USER-3 = {0, cautious, correct}, USER-2 = {0, correct}).
struct Query {
  const char* name;
  char data;  // 's'ynthetic, 'w'aveform or 'g'rid
  data::QueryKind kind;
  double cautious = 0.10;
  double correct = 0.30;
};

const Query& FindQuery(const std::string& name) {
  static const Query kQueries[] = {
      {"S-SEL", 's', data::QueryKind::kSSel},
      {"S-LOS", 's', data::QueryKind::kSLos},
      {"M-SEL", 'w', data::QueryKind::kMSel, 0.25, 0.55},
      {"M-LOS", 'w', data::QueryKind::kMLos},
      {"M-SEL'", 'w', data::QueryKind::kMSelPrime},
      {"G-SEL", 'g', data::QueryKind::kSSel},
      {"G-LOS", 'g', data::QueryKind::kSLos},
  };
  for (const Query& q : kQueries) {
    if (name == q.name) return q;
  }
  DQR_CHECK_MSG(false, ("unknown query " + name).c_str());
  return kQueries[0];
}

// One measured run of a cell: a single query, or a manual rerun chain.
struct Sample {
  double total_s = 0.0;
  double first_s = -1.0;
  bool completed = true;
  size_t results = 0;
  core::RunStats stats;
};

Sample RunOnce(const searchlight::QuerySpec& query,
               core::RefineOptions options) {
  options.trace = BenchTrace();
  options.profile = BenchProfile();
  auto run = core::ExecuteQuery(query, options);
  DQR_CHECK_MSG(run.ok(), run.status().ToString().c_str());
  if (options.profile != nullptr) WriteBenchProfile();
  const core::RunResult& result = run.value();
  return {result.stats.total_s, result.stats.first_result_s,
          result.stats.completed, result.results.size(), result.stats};
}

// Runs the steps in order, as a user rerunning a query would: times add
// up, and the first result is the first one of the first step that
// returned k results (or of the last step), offset by the steps before.
// A step stopped by the cap ends the chain.
Sample RunSteps(const std::vector<searchlight::QuerySpec>& steps,
                const core::RefineOptions& options, int64_t k) {
  Sample total;
  for (size_t i = 0; i < steps.size(); ++i) {
    const Sample step = RunOnce(steps[i], options);
    const bool counts = step.results >= static_cast<size_t>(k) ||
                        i + 1 == steps.size();
    if (total.first_s < 0.0 && step.first_s >= 0.0 && counts) {
      total.first_s = total.total_s + step.first_s;
    }
    total.total_s += step.total_s;
    total.results = step.results;
    total.completed = step.completed;
    total.stats += step.stats;
    if (!step.completed) break;
  }
  return total;
}

// The data sets, built once per (kind, length).
class Datasets {
 public:
  explicit Datasets(const BenchEnv& env) : env_(env) {}

  const data::DatasetBundle& OneD(char data, double scale) {
    const int64_t length = static_cast<int64_t>(
        (data == 's' ? env_.synth_length : env_.wave_length) * scale);
    auto [it, added] = one_d_.try_emplace({data, length});
    if (added) {
      auto made = data == 's' ? data::MakeSyntheticDataset(length, 42)
                              : data::MakeWaveformDataset(length, 1234);
      DQR_CHECK_MSG(made.ok(), made.status().ToString().c_str());
      it->second = std::move(made).value();
    }
    return it->second;
  }

  // Rows*cols comparable to the 1-D lengths.
  const data::GridBundle& Grid(double scale) {
    const int64_t cols = std::max<int64_t>(
        1, static_cast<int64_t>(env_.synth_length * scale) / kGridSide);
    auto [it, added] = grids_.try_emplace(cols);
    if (added) it->second = data::MakeGridDataset(kGridSide, cols, 42).value();
    return it->second;
  }

 private:
  const BenchEnv& env_;
  std::map<std::pair<char, int64_t>, data::DatasetBundle> one_d_;
  std::map<int64_t, data::GridBundle> grids_;
};

// What one cell measured, ready to print and write.
struct CellResult {
  int runs = 0;
  bool capped = false;
  double median_s = 0.0, q1_s = 0.0, q3_s = 0.0, first_s = -1.0;
  Sample median_run;  // the counters come from the median-time run
  std::string note;
};

double Quantile(const std::vector<double>& sorted, double p) {
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) *
                          (sorted[hi] - sorted[lo]);
}

// Figure 2's running MIMIC query: c1 = avg in [150, 200] over [50, 250];
// c2/c3 = contrast >= 80 over [0, 200]; alpha = 0.5, weights 1.
std::string WalkThrough() {
  const double inf = std::numeric_limits<double>::infinity();
  core::PenaltyModel model(
      {{Interval(150, 200), Interval(50, 250), 1.0, true},
       {Interval(80, inf), Interval(0, 200), 1.0, true},
       {Interval(80, inf), Interval(0, 200), 1.0, true}},
      0.5);
  const std::vector<char> known = {1, 1, 1};
  // The lower fail violates c1 and c2, the upper one only c2.
  const double lower = model.BestPenalty(
      {Interval(10, 110), Interval(10, 60), Interval(90, 150)}, known);
  const double upper = model.BestPenalty(
      {Interval(150, 200), Interval(10, 60), Interval(90, 150)}, known);
  // Replay at MRP = 0.5 with 2 of 3 constraints violated: RD <= 1/3
  // tightens c2's recorded [10, 60].
  const Interval c2 =
      model.RelaxedBounds(1, model.MaxAllowedDistance(0.5, 2.0 / 3.0));
  char buf[128];
  std::snprintf(buf, sizeof(buf), "BRP %.2f and %.2f, c2 [%.0f, 60]", lower,
                upper, c2.lo);
  return buf;
}

CellResult RunCell(const Row& row, double scale, const BenchEnv& env,
                   Datasets& datasets) {
  CellResult out;
  if (row.scenario == kWalk) {
    out.note = WalkThrough();
    return out;
  }
  const Query& q = FindQuery(row.query);
  const int64_t cost = row.cost_ns == kEnvCost ? env.estimate_cost_ns
                                               : row.cost_ns;
  std::vector<double> fractions;
  switch (row.scenario) {
    case kUser3:
      fractions = {0.0, q.cautious, q.correct};
      break;
    case kUser2:
      fractions = {0.0, q.correct};
      break;
    case kUserMax:
      fractions = {0.0, 1.0};
      break;
    default:
      fractions = {row.relax == kCorrect ? q.correct : row.relax};
  }

  std::shared_ptr<array::Array> array;  // charged row.chunk_ns per chunk
  std::vector<searchlight::QuerySpec> steps;
  for (const double relax : fractions) {
    if (q.data == 'g') {
      data::GridQueryTuning tuning;
      tuning.k = row.k;
      tuning.selective = q.kind == data::QueryKind::kSSel;
      tuning.relax_fraction = relax;
      tuning.estimate_cost_ns = cost;
      steps.push_back(data::MakeGridQuery(datasets.Grid(scale), tuning));
      continue;
    }
    data::DatasetBundle bundle = datasets.OneD(q.data, scale);
    if (row.synopsis) {
      auto built = synopsis::Synopsis::Build(*bundle.array, *row.synopsis);
      DQR_CHECK_MSG(built.ok(), built.status().ToString().c_str());
      bundle.synopsis = std::move(built).value();
      char mem[64];
      std::snprintf(mem, sizeof(mem), "synopsis %lld KiB",
                    static_cast<long long>(bundle.synopsis->MemoryBytes() /
                                           1024));
      out.note = mem;
    }
    array = bundle.array;
    data::QueryTuning tuning;
    tuning.k = row.k;
    tuning.estimate_cost_ns = cost;
    tuning.relax_fraction = relax;
    steps.push_back(data::MakeQuery(bundle, q.kind, tuning));
  }

  core::RefineOptions options;
  options.num_instances = env.num_instances;
  options.enable = row.scenario == kAuto;
  options.time_budget_s = (options.enable ? 4 : 1) * env.timeout_s;
  std::istringstream knobs(row.knobs);
  for (std::string knob; knobs >> knob;) {
    const size_t eq = knob.find('=');
    const Status status =
        core::SetKnob(knob.substr(0, eq), knob.substr(eq + 1),
                      core::kQueryKnob | core::kConfigKnob, &options);
    DQR_CHECK_MSG(status.ok(), status.ToString().c_str());
  }

  if (array != nullptr) array->set_chunk_access_cost_ns(row.chunk_ns);
  std::vector<Sample> samples;
  for (int r = 0; r < kRuns; ++r) {
    samples.push_back(RunSteps(steps, options, row.k));
    if (!samples.back().completed) break;  // a cap is only a lower bound
  }
  if (array != nullptr) array->set_chunk_access_cost_ns(0);

  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.total_s < b.total_s;
            });
  std::vector<double> totals, firsts;
  for (const Sample& s : samples) {
    totals.push_back(s.total_s);
    firsts.push_back(s.first_s);
    out.capped = out.capped || !s.completed;
  }
  std::sort(firsts.begin(), firsts.end());
  out.runs = static_cast<int>(samples.size());
  out.median_s = Quantile(totals, 0.5);
  out.q1_s = Quantile(totals, 0.25);
  out.q3_s = Quantile(totals, 0.75);
  out.first_s = Quantile(firsts, 0.5);
  out.median_run = samples[samples.size() / 2];
  return out;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

constexpr const char* kTsvHeader =
    "id\tcell\tquery\tk\tscale\truns\tcapped\tmedian_s\tq1_s\tq3_s\t"
    "first_s\tresults\tnodes\tfails\trecorded\treplays\trepeated\t"
    "spec_replays\tvalidated\tfalse_pos\tprunes\tfail_bytes\tnote\tpaper\n";

std::string TsvLine(const Row& row, double scale, const CellResult& c) {
  const core::RunStats& s = c.median_run.stats;
  std::string line = std::string(row.id) + "\t" + row.cell + "\t" +
                     row.query + "\t" + std::to_string(row.k) + "\t" +
                     Num(scale) + "\t" + std::to_string(c.runs) + "\t" +
                     (c.capped ? "1" : "0");
  if (c.runs == 0) {
    for (int i = 0; i < 15; ++i) line += "\t-";
  } else {
    const int64_t bytes =
        s.peak_fail_bytes / std::max<int64_t>(1, s.peak_fail_count);
    for (const double v : {c.median_s, c.q1_s, c.q3_s, c.first_s}) {
      line += "\t" + Num(v);
    }
    for (const int64_t v :
         {static_cast<int64_t>(c.median_run.results),
          s.main_search.nodes + s.replay_search.nodes, s.main_search.fails,
          s.fails_recorded, s.replays, s.replay_search.fails,
          s.speculative_replays, s.validated, s.false_positives,
          s.main_search.monitor_prunes, bytes}) {
      line += "\t" + std::to_string(v);
    }
  }
  return line + "\t" + (c.note.empty() ? "-" : c.note) + "\t" +
         (*row.paper == '\0' ? "-" : row.paper) + "\n";
}

}  // namespace
}  // namespace dqr::bench

int main(int argc, char** argv) {
  using namespace dqr::bench;
  auto flags = ParseBenchFlags(argc, argv, {"only", "out"});

  std::set<std::string> only;
  std::istringstream ids(flags["only"]);
  for (std::string id; std::getline(ids, id, ',');) {
    if (kTitles.count(id) == 0) {
      std::fprintf(stderr, "bench_paper: unknown experiment id '%s'\n",
                   id.c_str());
      return 2;
    }
    only.insert(id);
  }
  std::FILE* tsv = nullptr;
  if (!flags["out"].empty()) {
    tsv = std::fopen(flags["out"].c_str(), "w");
    if (tsv == nullptr) {
      std::fprintf(stderr, "bench_paper: cannot write %s\n",
                   flags["out"].c_str());
      return 2;
    }
    std::fputs(kTsvHeader, tsv);
  }

  const BenchEnv env = BenchEnv::FromEnv();
  Datasets datasets(env);
  std::optional<TablePrinter> table;
  std::string table_id;
  int cells = 0;
  for (const Row& row : kRows) {
    if (!only.empty() && only.count(row.id) == 0) continue;
    if (row.id != table_id) {
      if (table) table->Print();
      table.emplace(kTitles.at(row.id),
                    std::vector<std::string>{
                        "Cell", "Query", "k", "Scale", "Runs", "Time",
                        "IQR", "First", "Results", "Fails", "Replays",
                        "Repeated", "Note", "Paper"});
      table_id = row.id;
    }
    for (const double row_scale : row.scales) {
      const double scale = env.scale * row_scale;
      const CellResult c = RunCell(row, row_scale, env, datasets);
      const Sample& m = c.median_run;
      const bool ran = c.runs > 0;
      table->AddRow(
          {row.cell, row.query, std::to_string(row.k), Num(scale),
           std::to_string(c.runs), ran ? Secs(c.median_s, c.capped) : "-",
           ran ? Secs(c.q1_s) + "-" + Secs(c.q3_s) : "-",
           ran ? Secs(c.first_s) : "-",
           ran ? std::to_string(m.results) : "-",
           ran ? std::to_string(m.stats.fails_recorded) : "-",
           ran ? std::to_string(m.stats.replays) : "-",
           ran ? std::to_string(m.stats.replay_search.fails) : "-",
           c.note, row.paper});
      if (tsv != nullptr) {
        std::fputs(TsvLine(row, scale, c).c_str(), tsv);
        std::fflush(tsv);
      }
      ++cells;
    }
  }
  if (table) table->Print();
  if (tsv != nullptr) {
    std::fclose(tsv);
    std::printf("\n%d cells written to %s\n", cells, flags["out"].c_str());
  }
  return 0;
}
