// paper_refine: one analyst runs the paper's characteristic queries
// (S-SEL, S-LOS, M-SEL, M-LOS over 1-D data, G-SEL, G-LOS over a grid)
// with automatic refinement on the pool engine: 4 instances, the
// benches' 1500 ns emulated estimate cost, relaxation (relax_fraction 0)
// or Rank constraining (relax_fraction 1). Each query scans one window
// of its start variable, as an analyst panning across the signal would,
// so latency spreads over a distribution instead of six fixed points.
//
// The pool is every (kind, mode, window) triple, each listed as often as
// its kind's weight; the client walks it in seeded per-cycle
// permutations (CyclePick), so the mix does not drift with the seed.

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "data/grid_synthetic.h"
#include "data/queries.h"
#include "harness.h"

namespace perfbench {
namespace {

constexpr int64_t kSynthLength = 1 << 21;
constexpr int64_t kWaveLength = 1 << 19;
constexpr int64_t kGridRows = 512;
constexpr int64_t kGridCols = 256;
constexpr int64_t kCostNs = 1500;
constexpr int kInstances = 4;
constexpr int kPoolWidth = 8;
constexpr int kSlots = 1;
constexpr int kWindows = 8;  // start-variable windows per kind and mode

// Where a kind's windows start, as a share of the start variable's slack
// (its domain less the window width).
using WindowStarts = std::array<double, kWindows>;

constexpr WindowStarts Evenly() {
  WindowStarts starts{};
  for (int w = 0; w < kWindows; ++w) starts[w] = double(w) / (kWindows - 1);
  return starts;
}

struct Kind {
  const char* name;
  bool grid;
  dqr::data::QueryKind kind;  // 1-D kinds
  bool selective;             // grid kinds
  // Share of the start variable's full domain one query scans.
  double window_frac;
  // Loose kinds space their windows evenly. The selective kinds' answers
  // sit in a few stretches of the signal, and most evenly spaced windows
  // hold none (the query then only proves the window empty), so theirs
  // start where a 32-position scan of the 1x1 answers found results in
  // both modes. M-SEL's results sit at two sites (start ~222340 and
  // ~378261); its windows hold one at 1/8, 3/8, 5/8 and 7/8 of their width.
  WindowStarts starts;
  // Times each of its queries is listed in the pool. Loose queries
  // confirm a first result within a millisecond, selective ones after
  // several; at equal weights first_result_p50_ms fell in the gap between
  // the two and moved from run to run, so selective kinds run twice as
  // often.
  int weight;
};

constexpr Kind kKinds[] = {
    {"S-SEL", false, dqr::data::QueryKind::kSSel, true, 0.2,
     {0.0323, 0.1290, 0.1935, 0.4194, 0.5161, 0.6129, 0.8710, 0.9677}, 2},
    {"S-LOS", false, dqr::data::QueryKind::kSLos, false, 0.3, Evenly(), 1},
    {"M-SEL", false, dqr::data::QueryKind::kMSel, true, 0.02,
     {0.4149, 0.4200, 0.4251, 0.4302, 0.7184, 0.7235, 0.7286, 0.7337}, 2},
    {"M-LOS", false, dqr::data::QueryKind::kMLos, false, 0.005, Evenly(), 1},
    {"G-SEL", true, dqr::data::QueryKind::kSSel, true, 0.12,
     {0.0645, 0.1290, 0.1935, 0.4839, 0.5484, 0.8387, 0.9032, 0.9677}, 2},
    {"G-LOS", true, dqr::data::QueryKind::kSSel, false, 0.008, Evenly(), 1},
};
constexpr int kNumKinds = static_cast<int>(std::size(kKinds));
// Warm-up queries: one per (kind, mode).
constexpr int kWarmup = kNumKinds * 2;
constexpr const char* kModeNames[] = {"relax", "rank"};

struct Datasets {
  dqr::data::DatasetBundle synth;
  dqr::data::DatasetBundle wave;
  dqr::data::GridBundle grid;
};

dqr::Result<Datasets> BuildDatasets(double* build_s) {
  const double t0 = NowS();
  Datasets d;
  auto synth = dqr::data::MakeSyntheticDataset(kSynthLength, 42);
  if (!synth.ok()) return synth.status();
  auto wave = dqr::data::MakeWaveformDataset(kWaveLength, 1234);
  if (!wave.ok()) return wave.status();
  auto grid = dqr::data::MakeGridDataset(kGridRows, kGridCols, 42);
  if (!grid.ok()) return grid.status();
  d.synth = std::move(synth).value();
  d.wave = std::move(wave).value();
  d.grid = std::move(grid).value();
  *build_s += NowS() - t0;
  return d;
}

int PoolIndex(int kind, int mode, int window) {
  return (kind * 2 + mode) * kWindows + window;
}

std::string QueryId(int kind, int mode, int window) {
  return std::string(kKinds[kind].name) + "/" + kModeNames[mode] + "/w" +
         std::to_string(window);
}

// The (kind, mode, window) query: the canned query with its start
// variable narrowed to window `window` of its kind.
dqr::searchlight::QuerySpec BuildSpec(const Datasets& d, int kind, int mode,
                                      int window, int64_t cost_ns) {
  const Kind& k = kKinds[kind];
  const double relax_fraction = mode == 0 ? 0.0 : 1.0;
  dqr::searchlight::QuerySpec spec;
  if (k.grid) {
    dqr::data::GridQueryTuning tuning;
    tuning.selective = k.selective;
    tuning.relax_fraction = relax_fraction;
    tuning.estimate_cost_ns = cost_ns;
    spec = dqr::data::MakeGridQuery(d.grid, tuning);
  } else {
    dqr::data::QueryTuning tuning;
    tuning.relax_fraction = relax_fraction;
    tuning.estimate_cost_ns = cost_ns;
    const bool synthetic = k.kind == dqr::data::QueryKind::kSSel ||
                           k.kind == dqr::data::QueryKind::kSLos;
    spec = dqr::data::MakeQuery(synthetic ? d.synth : d.wave, k.kind, tuning);
  }
  dqr::cp::IntDomain& start = spec.domains[0];
  const int64_t full = start.hi - start.lo + 1;
  const int64_t width =
      std::max<int64_t>(1, static_cast<int64_t>(k.window_frac * full));
  const double slack = static_cast<double>(full - width);
  const int64_t lo = start.lo + static_cast<int64_t>(k.starts[window] * slack);
  start = dqr::cp::IntDomain(lo, lo + width - 1);
  spec.name = QueryId(kind, mode, window);
  return spec;
}

class PaperRefine : public Fixture {
 public:
  PaperRefine(Datasets data, const References& refs, uint64_t seed)
      : data_(std::move(data)),
        refs_(refs),
        seed_(seed),
        engine_(kPoolWidth, kSlots) {
    for (int k = 0; k < kNumKinds; ++k) {
      for (int m = 0; m < 2; ++m) {
        for (int w = 0; w < kWindows; ++w) {
          for (int r = 0; r < kKinds[k].weight; ++r) {
            pool_.push_back(static_cast<int>(entries_.size()));
          }
          entries_.push_back(
              {QueryId(k, m, w), BuildSpec(data_, k, m, w, kCostNs)});
        }
      }
    }
  }

  std::vector<std::string> Ids() const {
    std::vector<std::string> ids;
    for (const Entry& e : entries_) ids.push_back(e.id);
    return ids;
  }

  const dqr::exec::EngineSession& session() const override {
    return engine_.session;
  }
  int clients() const override { return 1; }

  Sample Run(int client, int64_t n, LayerLedger* ledger) override {
    // Warm-up query -1-i runs the first window of kind i / 2 in mode i % 2.
    const int warmup = n < 0 ? static_cast<int>((-n - 1) % kWarmup) : 0;
    const Entry& e =
        n < 0 ? entries_[PoolIndex(warmup / 2, warmup % 2, 0)]
              : entries_[pool_[CyclePick(seed_, client, n, pool_.size())]];
    dqr::core::RefineOptions opts;
    opts.num_instances = kInstances;
    opts.time_budget_s = 60.0;  // safety net; a cut run counts as failed
    std::unique_ptr<dqr::obs::Profile> profile;
    if (ledger != nullptr) {
      profile = std::make_unique<dqr::obs::Profile>();
      opts.profile = profile.get();
    }
    Sample s;
    s.id = e.id;
    const double t0 = NowS();
    FirstResultClock clock(t0);
    opts.on_result = [&clock](const dqr::core::Solution&) { clock.Hit(); };
    const auto run = engine_.session.Execute(e.spec, opts);
    s.latency_s = NowS() - t0;
    s.first_result_s = clock.SecondsOr(s.latency_s);
    if (!CheckAnswer(run, refs_, &s)) return s;
    if (ledger != nullptr) {
      const dqr::core::RunStats& stats = run.value().stats;
      ledger->AddRun(stats, &profile->query());
      ledger->AddSample("exec.admission_wait_ms",
                        1e3 * stats.admission_wait_s);
      ledger->AddSample(
          "exec.session_overhead_us",
          1e6 * (s.latency_s - stats.total_s - stats.admission_wait_s));
    }
    return s;
  }

  std::string Describe() const override {
    std::string mix;
    for (const Kind& k : kKinds) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%s:%g:%d", mix.empty() ? "" : ",",
                    k.name, k.window_frac, k.weight);
      mix += buf;
    }
    return "clients=1 pool=" + std::to_string(kPoolWidth) +
           " slots=" + std::to_string(kSlots) +
           " instances=" + std::to_string(kInstances) +
           " cost_ns=" + std::to_string(kCostNs) +
           " kind:window_frac:weight=" + mix +
           " windows=" + std::to_string(kWindows) + " relax:rank=1:1";
  }

 private:
  struct Entry {
    std::string id;
    dqr::searchlight::QuerySpec spec;
  };

  Datasets data_;
  const References& refs_;
  const uint64_t seed_;
  std::vector<Entry> entries_;
  // Indexes into entries_, each listed as often as its kind's weight.
  std::vector<int> pool_;
  Engine engine_;
};

dqr::Result<std::unique_ptr<Fixture>> Setup(const Args& args,
                                            const References& refs,
                                            double* dataset_build_s) {
  auto data = BuildDatasets(dataset_build_s);
  if (!data.ok()) return data.status();
  auto fixture =
      std::make_unique<PaperRefine>(std::move(data).value(), refs, args.seed);
  const dqr::Status covered = refs.CheckCovers(fixture->Ids());
  if (!covered.ok()) return covered;
  return std::unique_ptr<Fixture>(std::move(fixture));
}

dqr::Status Regenerate(References* refs) {
  double build_s = 0.0;
  auto data = BuildDatasets(&build_s);
  if (!data.ok()) return data.status();
  Engine engine(2, 1);
  dqr::core::RefineOptions opts;  // the 1x1 sequential configuration
  opts.num_instances = 1;
  opts.shards_per_instance = 1;
  for (int k = 0; k < kNumKinds; ++k) {
    for (int m = 0; m < 2; ++m) {
      for (int w = 0; w < kWindows; ++w) {
        const auto run =
            engine.session.Execute(BuildSpec(data.value(), k, m, w, 0), opts);
        if (!run.ok()) return run.status();
        if (!run.value().stats.completed) {
          return dqr::InternalError(QueryId(k, m, w) + " did not complete");
        }
        refs->Set(QueryId(k, m, w), AnswerFingerprint(run.value()));
      }
    }
  }
  return dqr::Status::Ok();
}

}  // namespace

const WorkloadSpec& PaperRefineSpec() {
  static const WorkloadSpec spec{"paper_refine", kWarmup, &Setup,
                                 &Regenerate};
  return spec;
}

}  // namespace perfbench
