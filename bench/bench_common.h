#ifndef DQR_BENCH_BENCH_COMMON_H_
#define DQR_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/refiner.h"
#include "data/queries.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace dqr::bench {

// Shared benchmark configuration, overridable via environment variables:
//   DQR_BENCH_SCALE      multiplies data set lengths (default 1.0)
//   DQR_BENCH_TIMEOUT_S  cap for runs the paper reports as ">1h"
//   DQR_BENCH_COST_NS    artificial cost per uncached synopsis lookup
// The paper ran 100 GB data sets on a 4-instance AWS cluster; the default
// configuration reproduces the *shapes* of its tables at laptop scale
// (see EXPERIMENTS.md for the paper-vs-measured record).
struct BenchEnv {
  double scale = 1.0;
  int64_t synth_length = 1 << 21;
  int64_t wave_length = 1 << 21;
  double timeout_s = 30.0;
  int64_t estimate_cost_ns = 1500;
  int num_instances = 4;
  int64_t k = 10;

  static BenchEnv FromEnv();
};

// The waveform data set at the configured scale.
data::DatasetBundle WaveBundle(const BenchEnv& env);

// Default refinement options for benchmarks (paper defaults + the bench
// cluster size).
core::RefineOptions AutoOptions(const BenchEnv& env);

// Formats seconds like the paper's tables: "97", "2.4", "2h 8m"; capped
// runs render as ">30".
std::string Secs(double s, bool capped = false);

// Parses the command line. Every bench takes --trace=FILE and
// --profile=FILE (below); `flags` names the bench's own value flags,
// whose values come back keyed by name. Each flag is also accepted as
// "--flag VALUE". Any other argument prints the usage and exits with
// status 2.
std::map<std::string, std::string> ParseBenchFlags(
    int argc, char** argv, std::vector<std::string> flags = {});

// --- flight-recorder tracing (DESIGN.md §8) ---
// Enables tracing for this binary's queries and dumps a Chrome
// trace_event JSON file at process exit (open in ui.perfetto.dev or
// chrome://tracing, inspect with tools/dqr_trace). Benches get it via
// `--trace=<path>` through ParseBenchFlags, or via the DQR_BENCH_TRACE
// environment variable.
void InitBenchTrace(const std::string& path);
// The shared per-binary Trace; null when tracing is disabled. Benches
// attach it as `options.trace`.
obs::Trace* BenchTrace();
// Writes/rewrites the configured trace file now (no-op when disabled);
// also registered via atexit, so explicit calls are optional.
void WriteBenchTrace();

// --- per-query profiling (DESIGN.md §12) ---
// Attaches an obs::Profile to this binary's queries; benches rewrite
// `path` with the profile JSON of the most recent run after each query
// (inspect with tools/dqr_profile; partial output survives an abort).
// Benches get it via `--profile=<path>` through ParseBenchFlags, or via
// the DQR_BENCH_PROFILE environment variable. Profiling is
// answer-preserving (the fuzz campaign's `profile` dimension proves it),
// so enabling it never changes a bench's byte-compared legs.
void InitBenchProfile(const std::string& path);
// The shared per-binary Profile; null when profiling is disabled.
// Benches attach it as `options.profile`.
obs::Profile* BenchProfile();
// Writes/rewrites the configured profile file now (no-op when disabled).
void WriteBenchProfile();

// A fixed-width table printer with a title and a trailing note.
class TablePrinter {
 public:
  TablePrinter(std::string title, std::vector<std::string> columns);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dqr::bench

#endif  // DQR_BENCH_BENCH_COMMON_H_
