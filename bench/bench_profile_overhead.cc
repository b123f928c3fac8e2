// Measures the cost of per-query profiling (DESIGN.md §12): the same
// query run with RefineOptions::profile unset (the baseline — assembly
// code paths exist but are gated behind a null check) vs attached (the
// engine records steal/bound latencies, the validator feeds the
// estimator-accuracy ledger, and the profile is assembled from the
// flight-recorder rings after the run).
//
// Answers must be byte-identical across legs — profiling is
// observe-only by contract (the fuzz campaign's `profile` dimension
// proves it at scale; this bench re-checks it on every iteration and
// exits 1 on a mismatch).
//
// Controlled runs show the profiled leg within ~2% of baseline; the CI
// gate (--max-overhead) is deliberately looser because shared runners
// are too noisy for a tight wall-clock threshold.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/canonical.h"
#include "core/refiner.h"
#include "obs/profile.h"

namespace {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dqr;
  using namespace dqr::bench;

  auto flags = ParseBenchFlags(argc, argv, {"max-overhead", "iters"});
  // The ratio gate: profiled p50 / baseline p50.
  const double max_overhead = flags.count("max-overhead") > 0
                                  ? std::atof(flags["max-overhead"].c_str())
                                  : 1.30;
  const int iters =
      flags.count("iters") > 0 ? std::atoi(flags["iters"].c_str()) : 7;

  const BenchEnv env = BenchEnv::FromEnv();
  const auto wave = WaveBundle(env);
  data::QueryTuning tuning;
  tuning.k = env.k;
  tuning.estimate_cost_ns = env.estimate_cost_ns;
  tuning.relax_fraction = 0.30;  // S-LOS's correctly relaxed query
  const searchlight::QuerySpec query =
      data::MakeQuery(wave, data::QueryKind::kSLos, tuning);
  core::RefineOptions options = AutoOptions(env);

  // Warm-up: page in the dataset and synopsis before timing anything.
  {
    auto warm = core::ExecuteQuery(query, options);
    if (!warm.ok()) {
      std::fprintf(stderr, "warm-up failed: %s\n",
                   warm.status().ToString().c_str());
      return 1;
    }
  }

  std::vector<double> off_s, on_s;
  std::string baseline_answer;
  int64_t accuracy_samples = 0;
  for (int i = 0; i < iters; ++i) {
    auto off = core::ExecuteQuery(query, options);
    if (!off.ok()) {
      std::fprintf(stderr, "baseline run failed: %s\n",
                   off.status().ToString().c_str());
      return 1;
    }
    off_s.push_back(off.value().stats.total_s);
    const std::string off_canonical =
        core::Canonicalize(off.value().results);
    if (baseline_answer.empty()) baseline_answer = off_canonical;

    obs::Profile profile;
    core::RefineOptions profiled = options;
    profiled.profile = &profile;
    auto on = core::ExecuteQuery(query, profiled);
    if (!on.ok()) {
      std::fprintf(stderr, "profiled run failed: %s\n",
                   on.status().ToString().c_str());
      return 1;
    }
    on_s.push_back(on.value().stats.total_s);
    const std::string on_canonical =
        core::Canonicalize(on.value().results);
    if (off_canonical != baseline_answer ||
        on_canonical != baseline_answer) {
      std::fprintf(stderr,
                   "ANSWER MISMATCH at iteration %d: profiling must be "
                   "observe-only\n",
                   i);
      return 1;
    }
    if (profile.query().root.children.empty() ||
        profile.query().stats.query_latency.empty()) {
      std::fprintf(stderr,
                   "profiled run produced an empty profile at iteration "
                   "%d\n",
                   i);
      return 1;
    }
    accuracy_samples =
        profile.query().stats.estimator_accuracy.total_samples();
  }

  const double p50_off = Median(off_s);
  const double p50_on = Median(on_s);
  const double ratio = p50_off > 0.0 ? p50_on / p50_off : 1.0;

  TablePrinter table("Profiling overhead (S-LOS, " +
                         std::to_string(iters) + " iterations)",
                     {"Leg", "p50", "min"});
  table.AddRow({"profile off", Secs(p50_off),
                Secs(*std::min_element(off_s.begin(), off_s.end()))});
  table.AddRow({"profile on", Secs(p50_on),
                Secs(*std::min_element(on_s.begin(), on_s.end()))});
  table.Print();
  std::printf("overhead: %.2f%% (gate %.0f%%), accuracy samples: %lld\n",
              (ratio - 1.0) * 100.0, (max_overhead - 1.0) * 100.0,
              static_cast<long long>(accuracy_samples));

  if (ratio > max_overhead) {
    std::fprintf(stderr, "FAIL: overhead ratio %.3f exceeds %.3f\n",
                 ratio, max_overhead);
    return 1;
  }
  return 0;
}
