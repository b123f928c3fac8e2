#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/check.h"
#include "obs/export_chrome.h"

namespace dqr::bench {
namespace {

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::atof(value);
}

// Trace output state: the target path (empty = disabled).
std::string& TracePath() {
  static std::string path = [] {
    const char* env = std::getenv("DQR_BENCH_TRACE");
    return std::string(env == nullptr ? "" : env);
  }();
  return path;
}

// Profile output state: the target path (empty = disabled).
std::string& ProfilePath() {
  static std::string path = [] {
    const char* env = std::getenv("DQR_BENCH_PROFILE");
    return std::string(env == nullptr ? "" : env);
  }();
  return path;
}

}  // namespace

BenchEnv BenchEnv::FromEnv() {
  BenchEnv env;
  env.scale = EnvDouble("DQR_BENCH_SCALE", 1.0);
  env.synth_length = static_cast<int64_t>(env.synth_length * env.scale);
  env.wave_length = static_cast<int64_t>(env.wave_length * env.scale);
  env.timeout_s = EnvDouble("DQR_BENCH_TIMEOUT_S", env.timeout_s);
  env.estimate_cost_ns = static_cast<int64_t>(
      EnvDouble("DQR_BENCH_COST_NS",
                static_cast<double>(env.estimate_cost_ns)));
  return env;
}

data::DatasetBundle WaveBundle(const BenchEnv& env) {
  auto result = data::MakeWaveformDataset(env.wave_length, 1234);
  DQR_CHECK_MSG(result.ok(), "waveform dataset generation failed");
  return std::move(result).value();
}

core::RefineOptions AutoOptions(const BenchEnv& env) {
  core::RefineOptions options;
  options.num_instances = env.num_instances;
  options.time_budget_s = 20 * env.timeout_s;  // safety net only
  return options;
}

std::map<std::string, std::string> ParseBenchFlags(
    int argc, char** argv, std::vector<std::string> flags) {
  flags.insert(flags.begin(), {"trace", "profile"});
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name =
        arg.rfind("--", 0) == 0 ? arg.substr(2, eq - 2) : "";
    const bool known =
        std::find(flags.begin(), flags.end(), name) != flags.end();
    if (!known || (eq == std::string::npos && i + 1 == argc)) {
      std::fprintf(stderr,
                   "%s: unknown or incomplete argument '%s'\nusage: %s",
                   argv[0], arg.c_str(), argv[0]);
      for (const std::string& flag : flags) {
        std::fprintf(stderr, " [--%s=VALUE]", flag.c_str());
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    values[name] = eq == std::string::npos ? argv[++i] : arg.substr(eq + 1);
  }
  if (values.count("trace") > 0) InitBenchTrace(values["trace"]);
  if (values.count("profile") > 0) InitBenchProfile(values["profile"]);
  return values;
}

void InitBenchTrace(const std::string& path) { TracePath() = path; }

obs::Trace* BenchTrace() {
  if (TracePath().empty()) return nullptr;
  // Created on first use; the atexit hook makes sure whatever was
  // recorded lands on disk even if the bench never calls WriteBenchTrace.
  static obs::Trace* trace = [] {
    std::atexit(WriteBenchTrace);
    return new obs::Trace;
  }();
  return trace;
}

void WriteBenchTrace() {
  if (TracePath().empty()) return;
  const Status status = obs::WriteChromeTrace(*BenchTrace(), TracePath());
  if (!status.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n",
                 status.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "trace written to %s (%lld events, %lld dropped)\n",
               TracePath().c_str(),
               static_cast<long long>(BenchTrace()->total_emitted()),
               static_cast<long long>(BenchTrace()->total_dropped()));
}

void InitBenchProfile(const std::string& path) { ProfilePath() = path; }

obs::Profile* BenchProfile() {
  if (ProfilePath().empty()) return nullptr;
  static obs::Profile* profile = new obs::Profile;
  return profile;
}

void WriteBenchProfile() {
  if (ProfilePath().empty()) return;
  const std::string json = obs::ProfileToJson(BenchProfile()->query());
  std::FILE* f = std::fopen(ProfilePath().c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "profile write failed: cannot open %s\n",
                 ProfilePath().c_str());
    return;
  }
  std::fputs(json.c_str(), f);
  std::fputs("\n", f);
  std::fclose(f);
}

std::string Secs(double s, bool capped) {
  char buf[64];
  if (capped) {
    std::snprintf(buf, sizeof(buf), ">%.0f", s);
    return buf;
  }
  if (s < 0.0) return "-";
  if (s >= 3600.0) {
    std::snprintf(buf, sizeof(buf), "%.0fh %.0fm", std::floor(s / 3600.0),
                  std::floor(s / 60.0 - 60.0 * std::floor(s / 3600.0)));
  } else if (s >= 100.0) {
    std::snprintf(buf, sizeof(buf), "%.0f", s);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", s);
  }
  return buf;
}

TablePrinter::TablePrinter(std::string title,
                           std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  DQR_CHECK(cells.size() == columns_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c],
                                                       row[c].size());
  }
  std::printf("\n%s\n", title_.c_str());
  auto print_sep = [&] {
    std::printf("+");
    for (const size_t w : widths) {
      for (size_t i = 0; i < w + 2; ++i) std::printf("-");
      std::printf("+");
    }
    std::printf("\n");
  };
  auto print_row = [&](const std::vector<std::string>& cells) {
    std::printf("|");
    for (size_t c = 0; c < cells.size(); ++c) {
      std::printf(" %-*s |", static_cast<int>(widths[c]),
                  cells[c].c_str());
    }
    std::printf("\n");
  };
  print_sep();
  print_row(columns_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
  std::fflush(stdout);
}

}  // namespace dqr::bench
