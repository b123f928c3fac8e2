#ifndef DQR_TESTING_HARNESS_H_
#define DQR_TESTING_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"
#include "testing/generator.h"

namespace dqr::fuzz {

// Engine bugs the harness can plant on purpose — applied to the engine's
// result list after a run, before canonicalization. Used by the harness's
// own tests (and --inject-bug) to prove that the differential check
// catches a wrong answer and that the shrinker reduces it.
enum class InjectedBug {
  kNone,
  kDropLast,    // drop the last final result (a lost-result bug)
  kPerturbRp,   // add 1e-3 to the first result's RP (a scoring bug)
};

Result<InjectedBug> InjectedBugFromName(const std::string& name);

// One fully specified differential case: which workload and which engine
// configuration. Everything derives from (seed, mode, grid, overrides,
// config), so a case is its own reproducer.
struct CaseConfig {
  uint64_t seed = 0;
  FuzzMode mode = FuzzMode::kRelax;
  // Run the 2-D grid workload of this seed instead of the 1-D one.
  bool grid = false;
  // > 0 runs a correlated session of (session + 1) queries instead of a
  // single workload: the seed-derived mutation chain is replayed twice —
  // per-query cold and against one warm semantic cache — and both legs
  // must match the oracle byte-for-byte at every step.
  int session = 0;
  WorkloadOverrides overrides;
  EngineConfig config;
};

// Outcome of running one case engine-vs-oracle.
struct CaseResult {
  bool ok = false;
  // Canonicalized result sets (core::Canonicalize) — byte-comparable.
  std::string expected;  // oracle
  std::string actual;    // engine
  // Populated diagnostics (search-space size, exact/finite counts, the
  // workload summary line). For logs and repro files.
  std::string detail;
  // Set when the case could not even run (engine/oracle returned an
  // error); distinct from a differential mismatch.
  std::string error;
  bool failed() const { return !ok; }
};

// Runs one case: generates the workload, runs the oracle and the engine,
// canonicalizes both result lists, compares byte-for-byte. `bug` plants an
// artificial engine bug post-run (kNone in production fuzzing).
CaseResult RunCase(const CaseConfig& c, InjectedBug bug = InjectedBug::kNone);

// Runs one correlated-session case (c.session > 0): derives the mutation
// plan from the seed and executes every step three ways — oracle, cold
// engine, and warm engine behind a single SemanticCache (shared bounds
// memo attached to the warm leg's functions, answers routed through
// EngineSession::Shared().ExecuteCached) — demanding all three canonical
// result sets agree at every step. The per-step cache outcome trail ("cache=miss,warm,
// exact,...") lands in `detail` and therefore in repro files, so a
// failing session shows which reuse path produced the wrong answer.
// `bug` perturbs the warm leg's results (self-test only).
CaseResult RunSessionCase(const CaseConfig& c,
                          InjectedBug bug = InjectedBug::kNone);

// Dispatches on c.session: RunSessionCase when > 0, else RunCase.
CaseResult RunAnyCase(const CaseConfig& c,
                      InjectedBug bug = InjectedBug::kNone);

// Greedy shrinking: starting from a failing case, repeatedly tries
// reductions (strip the fault plan, collapse to one instance, reset engine
// knobs to defaults, halve the array, drop satellite constraints, lower k,
// narrow the x domain, drop diversity, default alpha) and keeps each
// reduction only if the case still fails. Deterministic; bounded by a
// fixed pass budget. Returns the reduced case (== input if nothing could
// be removed).
CaseConfig Shrink(CaseConfig failing, InjectedBug bug = InjectedBug::kNone);

// The QUERY frame that runs `workload` under `config` on a dqr_serve
// server: every QUERY attribute of the knob table (core/knobs.h) whose
// value differs from the server's default, trace/profile when set, and
// the workload's text IR as the body. Knobs the wire cannot carry are
// left out.
serve::Frame MakeQueryFrame(const std::string& id, const std::string& dataset,
                            const Workload& workload,
                            const EngineConfig& config);

// The one-line reproducer for a case:
//   dqr_fuzz --seed=92 --mode=relax --config="inst=1;..." [--len-cap=64 ...]
std::string ReproLine(const CaseConfig& c);

// Options for a fuzz campaign.
struct FuzzOptions {
  uint64_t start_seed = 1;
  int num_seeds = 100;
  // Configs drawn per seed (clamped to [3, 8] by MakeConfigMatrix).
  int configs_per_seed = 4;
  // Stop early once this many milliseconds have elapsed (0 = no budget).
  int64_t time_budget_ms = 0;
  // Directory for repro files of failing cases ("" = don't write files).
  std::string repro_dir;
  // Plant an artificial bug in every engine run (self-test only).
  InjectedBug inject_bug = InjectedBug::kNone;
  // Enable flight-recorder tracing on roughly half the cases (alternating
  // deterministically per seed/config), adding a trace dimension to the
  // matrix: tracing must never change an answer.
  bool trace_mix = false;
  // Which modes to cycle through; empty = all three.
  std::vector<FuzzMode> modes;
  // Driver threads running seeds concurrently (<= 1 = the serial
  // campaign, byte-identical to the pre-jobs harness). With jobs > 1 the
  // simd dimension is pinned to the SIMD kernels for every case —
  // ScopedSimdOverride is process-global, and the kernels are
  // value-identical by design, so pinning changes no expected answer —
  // and repro lines are sorted (thread completion order is not
  // deterministic; the set of failures is).
  int jobs = 1;
  // Run correlated-session cases (seed-derived mutation chains, warm
  // semantic cache differentialed against cold runs and the oracle)
  // instead of the single-query config matrix. Session cases run under
  // the matrix's baseline and work-stealing configs only — the session
  // dimension multiplies the per-case cost by the chain length.
  bool sessions = false;
  // Route every eligible case (single-query, 1-D, no fault injection)
  // through a loopback dqr_serve server instead of in-process execution:
  // the workload's text IR ships over the framed protocol into the shared
  // engine session and the FINAL frame's canonical body is differentialed
  // against the oracle. With jobs > 1 the concurrent drivers double as
  // concurrent clients of the one shared server. The serve dimension
  // rides the config codec (serve=1), so repro lines replay it and the
  // shrinker tries dropping it first.
  bool serve = false;
  bool verbose = false;
};

// Aggregate outcome of a campaign.
struct FuzzReport {
  int64_t cases_run = 0;
  int64_t seeds_run = 0;
  int64_t mismatches = 0;
  int64_t errors = 0;
  // Reproducer lines for (shrunk) failures, in discovery order.
  std::vector<std::string> repro_lines;
  // Paths of repro files written (when repro_dir was set).
  std::vector<std::string> repro_files;
  bool clean() const { return mismatches == 0 && errors == 0; }
};

// Runs the campaign: for each seed, derives a workload per mode and runs
// it under the seed's config matrix, comparing every run against the
// oracle. Every fourth seed runs its 2-D grid workload instead of the
// 1-D one, so a campaign always covers both data shapes (and, via the
// matrix's simd dimension, both kernel paths over both shapes). Each
// failure is shrunk before being reported. Progress and failures go to
// stderr; the report is the machine-readable summary.
FuzzReport RunFuzz(const FuzzOptions& options);

// Serializes a failing (already shrunk) case into a self-contained repro
// file: the reproducer line, the workload summary, and the expected vs
// actual canonical result sets. Returns the path written.
Result<std::string> WriteReproFile(const std::string& dir,
                                   const CaseConfig& c,
                                   const CaseResult& result);

}  // namespace dqr::fuzz

#endif  // DQR_TESTING_HARNESS_H_
