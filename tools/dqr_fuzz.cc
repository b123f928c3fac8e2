// Oracle-differential fuzz driver.
//
// Campaign mode (the default) runs N seeded workloads under a per-seed
// engine-config matrix and compares every run against the brute-force
// oracle:
//
//   dqr_fuzz --seeds=200 --mode=all
//
// Replay mode reruns exactly one case — what a reproducer line encodes:
//
//   dqr_fuzz --seed=92 --mode=relax --config="inst=3;shards=8;..."
//
// Exit codes: 0 = all cases agreed with the oracle, 1 = at least one
// mismatch or error, 2 = bad usage.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "testing/harness.h"

namespace {

using dqr::fuzz::CaseConfig;
using dqr::fuzz::CaseResult;
using dqr::fuzz::EngineConfig;
using dqr::fuzz::FuzzMode;
using dqr::fuzz::FuzzOptions;
using dqr::fuzz::FuzzReport;
using dqr::fuzz::InjectedBug;

void Usage() {
  std::fprintf(
      stderr,
      "usage: dqr_fuzz [options]\n"
      "\n"
      "campaign mode:\n"
      "  --seeds=N           number of seeds to run (default 100)\n"
      "  --start=S           first seed (default 1)\n"
      "  --mode=M            relax|constrain|skyline|all (default all)\n"
      "  --configs=N         engine configs per seed, 3..8 (default 4)\n"
      "  --jobs=N            driver threads running seeds concurrently\n"
      "                      (default 1; >1 pins the simd dimension)\n"
      "  --time-budget=SEC   stop early after SEC seconds\n"
      "  --repro-dir=DIR     write repro files for failures into DIR\n"
      "  --inject-bug=B      none|drop-last|perturb-rp (self-test)\n"
      "  --trace-mix         enable flight-recorder tracing on ~half the\n"
      "                      cases (tracing must never change an answer)\n"
      "  --sessions          run correlated query sessions (seeded\n"
      "                      chains of 2-12 mutations) warm-cache vs cold\n"
      "                      instead of the single-query matrix\n"
      "  --serve             route eligible cases through a loopback\n"
      "                      dqr_serve server (text IR over the framed\n"
      "                      protocol; answers must stay byte-identical)\n"
      "  --verbose           log every passing case too\n"
      "\n"
      "replay mode (all from a reproducer line):\n"
      "  --seed=S            replay exactly this seed\n"
      "  --config=STR        engine config, e.g. \"inst=3;shards=8\"\n"
      "  --grid              replay the seed's 2-D grid workload\n"
      "  --session=N         replay the seed's N-step session case\n"
      "  --len-cap=N --max-cons=N --k-cap=N --x-width-cap=N\n"
      "  --no-diversity --default-alpha\n"
      "  --shrink            shrink the replayed case if it fails\n");
}

bool MatchFlag(const char* arg, const char* name) {
  return std::strcmp(arg, name) == 0;
}

// Matches "--name=value"; on success points *value at the value part.
bool MatchValue(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int64_t ParseInt(const char* text, const char* flag) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "dqr_fuzz: %s wants an integer, got '%s'\n", flag,
                 text);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions options;
  CaseConfig replay;
  bool have_seed = false;
  bool have_config = false;
  bool shrink_replay = false;
  std::string mode_name = "all";

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (MatchValue(arg, "--seeds", &value)) {
      options.num_seeds = static_cast<int>(ParseInt(value, "--seeds"));
    } else if (MatchValue(arg, "--start", &value)) {
      options.start_seed = static_cast<uint64_t>(ParseInt(value, "--start"));
    } else if (MatchValue(arg, "--mode", &value)) {
      mode_name = value;
    } else if (MatchValue(arg, "--configs", &value)) {
      options.configs_per_seed =
          static_cast<int>(ParseInt(value, "--configs"));
    } else if (MatchValue(arg, "--jobs", &value)) {
      options.jobs = static_cast<int>(ParseInt(value, "--jobs"));
      if (options.jobs < 1 || options.jobs > 64) {
        std::fprintf(stderr, "dqr_fuzz: --jobs wants a value in [1, 64]\n");
        return 2;
      }
    } else if (MatchValue(arg, "--time-budget", &value)) {
      options.time_budget_ms = 1000 * ParseInt(value, "--time-budget");
    } else if (MatchValue(arg, "--repro-dir", &value)) {
      options.repro_dir = value;
    } else if (MatchValue(arg, "--inject-bug", &value)) {
      auto bug = dqr::fuzz::InjectedBugFromName(value);
      if (!bug.ok()) {
        std::fprintf(stderr, "dqr_fuzz: %s\n",
                     bug.status().ToString().c_str());
        return 2;
      }
      options.inject_bug = bug.value();
    } else if (MatchFlag(arg, "--trace-mix")) {
      options.trace_mix = true;
    } else if (MatchFlag(arg, "--sessions")) {
      options.sessions = true;
    } else if (MatchFlag(arg, "--serve")) {
      options.serve = true;
    } else if (MatchValue(arg, "--session", &value)) {
      replay.session = static_cast<int>(ParseInt(value, "--session"));
      if (replay.session < 1) {
        std::fprintf(stderr, "dqr_fuzz: --session wants a value >= 1\n");
        return 2;
      }
    } else if (MatchFlag(arg, "--verbose")) {
      options.verbose = true;
    } else if (MatchValue(arg, "--seed", &value)) {
      replay.seed = static_cast<uint64_t>(ParseInt(value, "--seed"));
      have_seed = true;
    } else if (MatchValue(arg, "--config", &value)) {
      auto config = EngineConfig::FromString(value);
      if (!config.ok()) {
        std::fprintf(stderr, "dqr_fuzz: %s\n",
                     config.status().ToString().c_str());
        return 2;
      }
      replay.config = config.value();
      have_config = true;
    } else if (MatchFlag(arg, "--grid")) {
      replay.grid = true;
    } else if (MatchValue(arg, "--len-cap", &value)) {
      replay.overrides.length_cap = ParseInt(value, "--len-cap");
    } else if (MatchValue(arg, "--max-cons", &value)) {
      replay.overrides.max_constraints =
          static_cast<int>(ParseInt(value, "--max-cons"));
    } else if (MatchValue(arg, "--k-cap", &value)) {
      replay.overrides.k_cap = ParseInt(value, "--k-cap");
    } else if (MatchValue(arg, "--x-width-cap", &value)) {
      replay.overrides.x_width_cap = ParseInt(value, "--x-width-cap");
    } else if (MatchFlag(arg, "--no-diversity")) {
      replay.overrides.no_diversity = true;
    } else if (MatchFlag(arg, "--default-alpha")) {
      replay.overrides.default_alpha = true;
    } else if (MatchFlag(arg, "--shrink")) {
      shrink_replay = true;
    } else if (MatchFlag(arg, "--help") || MatchFlag(arg, "-h")) {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "dqr_fuzz: unknown argument '%s'\n\n", arg);
      Usage();
      return 2;
    }
  }

  std::vector<FuzzMode> modes;
  if (mode_name != "all") {
    auto mode = dqr::fuzz::FuzzModeFromName(mode_name);
    if (!mode.ok()) {
      std::fprintf(stderr, "dqr_fuzz: %s\n",
                   mode.status().ToString().c_str());
      return 2;
    }
    modes.push_back(mode.value());
  }

  if (have_seed) {
    // --- replay mode ---
    replay.mode = modes.empty() ? FuzzMode::kRelax : modes[0];
    if (!have_config) replay.config = EngineConfig{};
    CaseResult r = dqr::fuzz::RunAnyCase(replay, options.inject_bug);
    std::fprintf(stderr, "dqr_fuzz: %s %s\n", r.ok ? "ok  " : "FAIL",
                 r.detail.c_str());
    if (r.ok) return 0;
    if (!r.error.empty()) {
      std::fprintf(stderr, "dqr_fuzz: %s\n", r.error.c_str());
    } else {
      std::fprintf(stderr, "--- expected (oracle):\n%s\n",
                   r.expected.empty() ? "<empty>" : r.expected.c_str());
      std::fprintf(stderr, "--- actual (engine):\n%s\n",
                   r.actual.empty() ? "<empty>" : r.actual.c_str());
    }
    if (shrink_replay) {
      const CaseConfig shrunk =
          dqr::fuzz::Shrink(replay, options.inject_bug);
      std::fprintf(stderr, "dqr_fuzz: shrunk reproducer: %s\n",
                   dqr::fuzz::ReproLine(shrunk).c_str());
      if (!options.repro_dir.empty()) {
        const CaseResult sr =
            dqr::fuzz::RunAnyCase(shrunk, options.inject_bug);
        auto file =
            dqr::fuzz::WriteReproFile(options.repro_dir, shrunk, sr);
        if (file.ok()) {
          std::fprintf(stderr, "dqr_fuzz: repro file: %s\n",
                       file.value().c_str());
        }
      }
    }
    return 1;
  }

  // --- campaign mode ---
  options.modes = std::move(modes);
  const FuzzReport report = dqr::fuzz::RunFuzz(options);
  std::fprintf(stderr,
               "dqr_fuzz: %lld cases over %lld seeds: %lld mismatches, "
               "%lld errors\n",
               static_cast<long long>(report.cases_run),
               static_cast<long long>(report.seeds_run),
               static_cast<long long>(report.mismatches),
               static_cast<long long>(report.errors));
  return report.clean() ? 0 : 1;
}
