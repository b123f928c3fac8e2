// perfbench: the end-to-end, per-layer benchmark binary.
//
//   perfbench --workload <paper_refine|serve_small|explore_cached>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--refdir <dir>] [--inject-unregistered <n>]
//   perfbench --workload <name> --regenerate [--refdir <dir>]
//
// A run sets the workload up kSetups times (setup_s is the median; the
// last set-up is measured), discards a warm-up pass, then runs every
// client in a closed loop for --seconds, checking each answer against
// the committed reference fingerprints. With --trace 1 a second,
// profiled pass follows and the per-layer metrics are reported instead.
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status: 0 when every query succeeded with the reference answer,
// 1 when any failed or mismatched, 2 on usage or set-up errors.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/simd.h"
#include "harness.h"

namespace perfbench {
namespace {

// Set-ups per run. setup_s is their median: one set-up lasts well under a
// second, and a single reading moves with the machine's momentary load.
constexpr int kSetups = 7;

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec* spec :
       {&PaperRefineSpec(), &ServeSmallSpec(), &ExploreCachedSpec()}) {
    if (name == spec->name) return spec;
  }
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--regenerate") {
      args->regenerate = true;
    } else {
      const char* v = value();
      if (v == nullptr) return false;
      if (flag == "--workload") {
        args->workload = v;
      } else if (flag == "--seed") {
        args->seed = std::strtoull(v, nullptr, 10);
      } else if (flag == "--seconds") {
        args->seconds = std::atof(v);
      } else if (flag == "--trace") {
        args->trace = std::strcmp(v, "1") == 0;
      } else if (flag == "--refdir") {
        args->refdir = v;
      } else if (flag == "--inject-unregistered") {
        args->inject_unregistered = std::atoi(v);
      } else {
        return false;
      }
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;

  void Add(const PassResult& pass) {
    for (const Record& r : pass.records) {
      ++attempted;
      failed += r.failed ? 1 : 0;
      mismatches += r.mismatch ? 1 : 0;
    }
  }
};

std::vector<Metric> EndToEnd(const PassResult& pass, double setup_s) {
  std::vector<double> latency_ms;
  std::vector<double> first_ms;
  int64_t completed = 0;
  for (const Record& r : pass.records) {
    latency_ms.push_back(1e3 * r.latency_s);
    first_ms.push_back(1e3 * r.first_result_s);
    completed += r.failed ? 0 : 1;
  }
  return {
      {"query_p50_ms", "ms", QuantileOf(latency_ms, 0.5)},
      {"query_p90_ms", "ms", QuantileOf(latency_ms, 0.9)},
      {"first_result_p50_ms", "ms", QuantileOf(first_ms, 0.5)},
      {"first_result_p90_ms", "ms", QuantileOf(first_ms, 0.9)},
      {"throughput_qps", "1/s",
       pass.wall_s > 0 ? static_cast<double>(completed) / pass.wall_s : 0.0},
      {"setup_s", "s", setup_s},
      {"peak_rss_mb", "MiB", PeakRssMiB()},
  };
}

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              tally.mismatches == 0 ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Regenerate(const WorkloadSpec& spec, const std::string& path) {
  References refs;
  const dqr::Status st = spec.regenerate(&refs);
  const dqr::Status saved = st.ok() ? refs.Save(path) : st;
  if (!saved.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", saved.ToString().c_str());
    return 2;
  }
  std::fprintf(stderr, "perfbench: wrote %s\n", path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--refdir <dir>] "
                 "[--inject-unregistered <n>] | --regenerate\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string ref_path = args.refdir + "/" + spec->name + ".txt";
  if (args.regenerate) return Regenerate(*spec, ref_path);

  auto refs = References::Load(ref_path);
  if (!refs.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", refs.status().ToString().c_str());
    return 2;
  }

  // Set up kSetups times; each set-up includes the warm-up pass, so lazy
  // pool spawns and first-touch page faults land in setup_s.
  Tally tally;
  std::vector<double> setup_s;
  double dataset_build_s = 0.0;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < kSetups; ++i) {
    fixture.reset();
    dataset_build_s = 0.0;
    const double t0 = NowS();
    auto made = spec->setup(args, refs.value(), &dataset_build_s);
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 2;
    }
    fixture = std::move(made).value();
    std::vector<int64_t> warmup(static_cast<size_t>(fixture->clients()),
                                -spec->warmup_per_client);
    tally.Add(RunPass(fixture.get(), 0, spec->warmup_per_client, nullptr,
                      &warmup));
    setup_s.push_back(NowS() - t0);
  }

  std::vector<int64_t> cursor;
  const double steal_before_s = StealSeconds();
  const PassResult measured =
      RunPass(fixture.get(), args.seconds, 0, nullptr, &cursor);
  tally.Add(measured);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const double steal_frac = (StealSeconds() - steal_before_s) /
                            (measured.wall_s * static_cast<double>(nproc));
  const std::vector<Metric> end_to_end =
      EndToEnd(measured, QuantileOf(setup_s, 0.5));
  // Share of measured answers with no result: such a query only proves
  // its search space empty, so a workload should keep this share small.
  int64_t empty = 0;
  for (const Record& r : measured.records) empty += r.empty ? 1 : 0;
  const double empty_frac =
      measured.records.empty()
          ? 0.0
          : static_cast<double>(empty) /
                static_cast<double>(measured.records.size());

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
              "isa=%s build=%s %s empty_frac=%.4f steal_frac=%.4f\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, nproc,
              dqr::simd::KernelName(dqr::simd::ActiveKernel()).c_str(),
              PERFBENCH_BUILD_TYPE, fixture->Describe().c_str(), empty_frac,
              steal_frac);

  std::vector<Metric> reported = end_to_end;
  if (args.trace) {
    // The traced pass: profiled engine runs, layer counters bracketed;
    // it never feeds the end-to-end numbers. It runs half the measured
    // length: enough samples for medians, and a traced run stays short.
    LayerLedger ledger;
    const dqr::exec::SessionStats before = fixture->session().stats();
    fixture->BeginTraced();
    const PassResult traced = RunPass(fixture.get(), args.seconds / 2, 0,
                                      &ledger, &cursor);
    fixture->EndTraced(&ledger);
    const dqr::exec::SessionStats after = fixture->session().stats();
    tally.Add(traced);
    const int64_t admitted = after.queries_admitted - before.queries_admitted;
    ledger.Set("exec.queued_frac",
               admitted > 0 ? static_cast<double>(after.queries_queued -
                                                  before.queries_queued) /
                                  static_cast<double>(admitted)
                            : 0.0);
    ledger.Set("data.dataset_build_s", dataset_build_s);
    const double untraced_p50 = end_to_end[0].value;
    const double traced_p50 = EndToEnd(traced, 0.0)[0].value;
    ledger.Set("obs.trace_overhead_frac",
               untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0);
    std::printf("end-to-end (untraced pass):\n");
    for (const Metric& m : end_to_end) {
      std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("trace overhead: query p50 %.4f ms traced vs %.4f ms "
                "untraced (%+.2f%%)\n",
                traced_p50, untraced_p50,
                untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0)
                                 : 0.0);
    const int64_t dropped = ledger.trace_dropped();
    std::printf(dropped == 0 ? "trace: complete\n"
                             : "trace: PARTIAL, %lld events dropped\n",
                static_cast<long long>(dropped));
    reported = ledger.Metrics();
  }
  fixture.reset();

  std::printf("queries: %lld attempted, %lld failed (failed_frac %.6f), %lld "
              "wrong answers\n",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed),
              tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                        static_cast<double>(tally.attempted)
                                  : 0.0,
              static_cast<long long>(tally.mismatches));
  std::printf(args.trace ? "per-layer (traced pass):\n" : "end-to-end:\n");
  PrintResult(tally, reported);
  return tally.failed == 0 && tally.mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
