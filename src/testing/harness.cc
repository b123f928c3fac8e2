#include "testing/harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

#include "cache/semantic_cache.h"
#include "common/check.h"
#include "common/simd.h"
#include "core/canonical.h"
#include "core/fault.h"
#include "core/knobs.h"
#include "core/refiner.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "testing/oracle.h"

namespace dqr::fuzz {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ApplyBug(InjectedBug bug, std::vector<core::Solution>* results) {
  switch (bug) {
    case InjectedBug::kNone:
      break;
    case InjectedBug::kDropLast:
      if (!results->empty()) results->pop_back();
      break;
    case InjectedBug::kPerturbRp:
      if (!results->empty()) results->front().rp += 1e-3;
      break;
  }
}

// Text-level twin of ApplyBug for the serve transport, whose engine leg
// arrives as a canonical string rather than Solution objects. Each bug
// mirrors its solution-level sibling closely enough that the self-test
// and the shrinker behave identically on both transports.
void ApplyBugToCanonical(InjectedBug bug, std::string* canonical) {
  switch (bug) {
    case InjectedBug::kNone:
      break;
    case InjectedBug::kDropLast: {
      if (canonical->empty()) break;
      // Lines are '\n'-terminated; drop the last one.
      const size_t last =
          canonical->rfind('\n', canonical->size() - 2);
      canonical->resize(last == std::string::npos ? 0 : last + 1);
      break;
    }
    case InjectedBug::kPerturbRp:
      if (!canonical->empty()) canonical->insert(0, "bug ");
      break;
  }
}

// The process-wide loopback server the serve transport routes cases
// through: one dqr_serve over EngineSession::Shared(), started on first
// use and never stopped (the WorkerPool::Shared() lifetime policy) — so
// concurrent fuzz drivers exercise real multi-client multiplexing.
serve::Server& FuzzServer() {
  static serve::Server* server = [] {
    auto* s = new serve::Server();
    const Status st = s->Start();
    DQR_CHECK_MSG(st.ok(), "fuzz serve transport failed to start");
    return s;
  }();
  return *server;
}

// Resets the knobs a QUERY frame cannot carry to the server's defaults.
void PinToWire(EngineConfig* config) {
  for (const core::KnobText& k : core::ChangedKnobs(
           core::RefineOptions{}, config->knobs, /*query=*/false)) {
    DQR_CHECK(
        core::SetKnob(k.key, k.value, core::kConfigKnob, &config->knobs).ok());
  }
}

// Runs the engine leg of a case over the loopback server; returns the
// canonical result string from the FINAL frame. The dataset gets a
// unique name per call so concurrent drivers never collide, and is
// unregistered before returning.
Result<std::string> RunCaseOverServe(const Workload& workload,
                                     const EngineConfig& config) {
  serve::Server& server = FuzzServer();
  static std::atomic<uint64_t> counter{0};
  const std::string dataset =
      "fuzz_serve_" + std::to_string(counter.fetch_add(1));
  Status st = server.RegisterDataset(
      dataset, data::DatasetBundle{workload.array, workload.synopsis});
  if (!st.ok()) return st;

  serve::Client client;
  st = client.Connect(server.port());
  if (st.ok()) st = client.Hello("fuzz");
  Result<std::string> out = InternalError("unreachable");
  if (st.ok()) {
    Result<serve::QueryRun> run =
        client.RunQuery(MakeQueryFrame("q", dataset, workload, config));
    if (!run.ok()) {
      out = run.status();
    } else {
      const serve::QueryRun& qr = run.value();
      Result<int64_t> completed = qr.final.GetInt("completed", 0);
      const std::string fp = qr.fingerprint();
      if (!completed.ok() || completed.value() != 1) {
        out = InternalError("serve: FINAL frame reports incomplete run");
      } else if (fp != core::CanonicalFingerprint(qr.canonical())) {
        out = InternalError(
            "serve: FINAL fingerprint does not match its canonical body");
      } else {
        out = qr.canonical();
      }
    }
  } else {
    out = st;
  }
  client.Close();
  server.UnregisterDataset(dataset);
  return out;
}

}  // namespace

serve::Frame MakeQueryFrame(const std::string& id, const std::string& dataset,
                            const Workload& workload,
                            const EngineConfig& config) {
  serve::Frame q;
  q.type = serve::frame::kQuery;
  q.Set("id", id);
  q.Set("dataset", dataset);
  for (const core::KnobText& k :
       core::ChangedKnobs(config.ToOptions(workload, nullptr),
                          core::RefineOptions{}, /*query=*/true)) {
    q.Set(k.key, k.value);
  }
  if (config.trace) q.Set("trace", "1");
  if (config.profile) q.Set("profile", "1");
  q.body = workload.query_text;
  return q;
}

Result<InjectedBug> InjectedBugFromName(const std::string& name) {
  if (name == "none") return InjectedBug::kNone;
  if (name == "drop-last") return InjectedBug::kDropLast;
  if (name == "perturb-rp") return InjectedBug::kPerturbRp;
  return InvalidArgumentError("unknown injected bug: " + name +
                              " (want none|drop-last|perturb-rp)");
}

CaseResult RunCase(const CaseConfig& c, InjectedBug bug) {
  CaseResult out;
  // The simd dimension covers the whole case — workload build, oracle,
  // and engine all dispatch through the same kernels, so a case with
  // simd=0 is a complete scalar replica whose canonical answer must
  // still match the (SIMD-built) answers of its sibling configs.
  simd::ScopedSimdOverride simd_scope(c.config.simd);
  const Workload workload = MakeWorkload(c.seed, c.mode, c.overrides, c.grid);

  core::FaultPlan plan;
  core::RefineOptions options = c.config.ToOptions(workload, &plan);

  Result<OracleResult> oracle = OracleRun(workload.query, options);
  if (!oracle.ok()) {
    out.error = "oracle: " + oracle.status().ToString();
    return out;
  }

  // The serve dimension replaces the in-process engine leg with a round
  // trip through the loopback server: query_text over the framed
  // protocol, execution in the shared EngineSession, FINAL frame body
  // back. Grid workloads have no text IR, and neither fault plans nor
  // the knobs only the fuzzer sets are expressible over the wire, so
  // those cases run direct regardless.
  const bool use_serve = c.config.serve && !c.grid &&
                         c.config.fault_crashes == 0 &&
                         core::ChangedKnobs(c.config.knobs,
                                            core::RefineOptions{},
                                            /*query=*/false)
                             .empty();

  std::string actual_canon;
  if (use_serve) {
    Result<std::string> served = RunCaseOverServe(workload, c.config);
    if (!served.ok()) {
      out.error = "serve engine: " + served.status().ToString();
      return out;
    }
    actual_canon = std::move(served).value();
    ApplyBugToCanonical(bug, &actual_canon);
  } else {
    // The recorder only observes the engine run; a small ring forces the
    // drop-oldest path on any non-trivial case, so the differential check
    // also covers truncated-trace bookkeeping.
    obs::Trace trace;
    if (c.config.trace) {
      options.trace = &trace;
      options.trace_buffer_events = 1 << 10;
    }
    // The profile dimension: per-query attribution + histograms must
    // observe the run without changing its answer.
    obs::Profile profile;
    if (c.config.profile) options.profile = &profile;

    Result<core::RunResult> engine =
        core::ExecuteQuery(workload.query, options);
    if (!engine.ok()) {
      out.error = "engine: " + engine.status().ToString();
      return out;
    }
    if (!engine.value().stats.completed) {
      out.error = "engine: run did not complete (lost work not recovered?)";
      return out;
    }

    std::vector<core::Solution> actual = std::move(engine.value().results);
    ApplyBug(bug, &actual);
    actual_canon = core::Canonicalize(actual);
  }

  out.expected = core::Canonicalize(oracle.value().results);
  out.actual = std::move(actual_canon);
  out.ok = out.expected == out.actual;
  out.detail = workload.summary +
               " space=" + std::to_string(oracle.value().space_size) +
               " exact=" + std::to_string(oracle.value().exact_count) +
               " finite=" + std::to_string(oracle.value().finite_count) +
               " | config " + c.config.ToString();
  return out;
}

CaseResult RunSessionCase(const CaseConfig& c, InjectedBug bug) {
  CaseResult out;
  simd::ScopedSimdOverride simd_scope(c.config.simd);
  const SessionPlan plan = MakeSessionPlan(c.seed, c.session);

  // Two structurally identical sessions over the same data: the cold leg
  // runs each query fresh, the warm leg shares one SemanticCache — its
  // bounds memo attached to every step's functions, answers routed
  // through ExecuteQueryCached so exact hits, subsumption, and warm
  // starts all get exercised by whatever the mutation chain produces.
  const QuerySession cold =
      MakeSession(c.seed, c.mode, plan, c.overrides, c.grid);
  cache::SemanticCache sem;
  const std::string& dataset = cold.dataset_id;
  const QuerySession warm =
      MakeSession(c.seed, c.mode, plan, c.overrides, c.grid, &sem.memo(),
                  sem.MemoSpace(dataset));

  std::string trail;
  const auto step_tag = [&](size_t step) {
    return "step " + std::to_string(step) + "/" +
           std::to_string(cold.steps.size() - 1);
  };
  for (size_t step = 0; step < cold.steps.size(); ++step) {
    const Workload& cw = cold.steps[step];
    const Workload& ww = warm.steps[step];

    core::FaultPlan cold_fault;
    core::FaultPlan warm_fault;
    core::RefineOptions cold_options = c.config.ToOptions(cw, &cold_fault);
    core::RefineOptions warm_options = c.config.ToOptions(ww, &warm_fault);

    Result<OracleResult> oracle = OracleRun(cw.query, cold_options);
    if (!oracle.ok()) {
      out.error = step_tag(step) + " oracle: " + oracle.status().ToString();
      return out;
    }

    obs::Trace cold_trace;
    obs::Trace warm_trace;
    if (c.config.trace) {
      cold_options.trace = &cold_trace;
      cold_options.trace_buffer_events = 1 << 10;
      warm_options.trace = &warm_trace;
      warm_options.trace_buffer_events = 1 << 10;
    }
    obs::Profile cold_profile;
    obs::Profile warm_profile;
    if (c.config.profile) {
      cold_options.profile = &cold_profile;
      warm_options.profile = &warm_profile;
    }

    Result<core::RunResult> cold_run =
        core::ExecuteQuery(cw.query, cold_options);
    if (!cold_run.ok()) {
      out.error =
          step_tag(step) + " cold engine: " + cold_run.status().ToString();
      return out;
    }
    if (!cold_run.value().stats.completed) {
      out.error = step_tag(step) + " cold engine: run did not complete";
      return out;
    }

    cache::CachedQuery cq;
    cq.query = ww.query;
    cq.dataset_id = dataset;
    cq.function_ids = ww.function_ids;
    cache::CacheOutcome outcome = cache::CacheOutcome::kMiss;
    Result<core::RunResult> warm_run =
        cache::ExecuteQueryCached(&sem, cq, warm_options, &outcome);
    if (!warm_run.ok()) {
      out.error =
          step_tag(step) + " warm engine: " + warm_run.status().ToString();
      return out;
    }
    if (!warm_run.value().stats.completed) {
      out.error = step_tag(step) + " warm engine: run did not complete";
      return out;
    }
    if (!trail.empty()) trail += ',';
    trail += cache::CacheOutcomeName(outcome);

    std::vector<core::Solution> warm_results =
        std::move(warm_run.value().results);
    ApplyBug(bug, &warm_results);

    const std::string expected = core::Canonicalize(oracle.value().results);
    const std::string cold_canon =
        core::Canonicalize(cold_run.value().results);
    const std::string warm_canon = core::Canonicalize(warm_results);
    if (expected != cold_canon || expected != warm_canon) {
      const bool warm_wrong = expected != warm_canon;
      out.expected = expected;
      out.actual = warm_wrong ? warm_canon : cold_canon;
      out.detail = cw.summary + " | session " + step_tag(step) +
                   " plan=" + plan.ToString() +
                   " leg=" + (warm_wrong ? "warm" : "cold") +
                   " cache=" + trail + " | config " + c.config.ToString();
      return out;
    }
  }
  out.ok = true;
  out.detail = cold.steps.front().summary +
               " | session plan=" + plan.ToString() + " cache=" + trail +
               " | config " + c.config.ToString();
  return out;
}

CaseResult RunAnyCase(const CaseConfig& c, InjectedBug bug) {
  return c.session > 0 ? RunSessionCase(c, bug) : RunCase(c, bug);
}

namespace {

// One shrink attempt: a named transformation of the case. Returns false
// when the transformation does not apply (already at the floor).
using ShrinkStep = bool (*)(CaseConfig*);

// First step tried: if a failure reproduces without the network round
// trip, the transport is exonerated and every later reduction runs at
// direct-execution speed.
bool DropServe(CaseConfig* c) {
  if (!c->config.serve) return false;
  c->config.serve = false;
  return true;
}

bool DropTrace(CaseConfig* c) {
  if (!c->config.trace) return false;
  c->config.trace = false;
  return true;
}

bool DropProfile(CaseConfig* c) {
  if (!c->config.profile) return false;
  c->config.profile = false;
  return true;
}

bool StripFaults(CaseConfig* c) {
  bool& det = c->config.knobs.enable_failure_detector;
  if (c->config.fault_crashes == 0 && !det) return false;
  c->config.fault_crashes = 0;
  det = false;
  return true;
}

bool SingleInstance(CaseConfig* c) {
  core::RefineOptions& knobs = c->config.knobs;
  if (knobs.num_instances == 1 && knobs.shards_per_instance == 1) {
    return false;
  }
  knobs.num_instances = 1;
  knobs.shards_per_instance = 1;
  c->config.fault_crashes = 0;
  knobs.enable_failure_detector = false;
  return true;
}

bool DefaultEngineKnobs(CaseConfig* c) {
  EngineConfig plain;
  const core::RefineOptions& knobs = c->config.knobs;
  plain.knobs.num_instances = knobs.num_instances;
  plain.knobs.shards_per_instance = knobs.shards_per_instance;
  plain.knobs.enable_failure_detector = knobs.enable_failure_detector;
  plain.fault_crashes = c->config.fault_crashes;
  if (plain.ToString() == c->config.ToString()) return false;
  c->config = plain;
  return true;
}

bool HalveArray(CaseConfig* c) {
  const Workload w = MakeWorkload(c->seed, c->mode, c->overrides, c->grid);
  // For grid workloads the cap clamps both extents; halve the larger one.
  const int64_t current =
      w.grid_workload ? std::max(w.grid->rows(), w.grid->cols())
                      : w.array->length();
  const int64_t floor = w.grid_workload ? 16 : 32;
  if (current <= floor) return false;
  c->overrides.length_cap = std::max<int64_t>(floor, current / 2);
  return true;
}

bool DropConstraints(CaseConfig* c) {
  const Workload w = MakeWorkload(c->seed, c->mode, c->overrides, c->grid);
  const int current = static_cast<int>(w.query.constraints.size());
  if (current <= 1) return false;
  c->overrides.max_constraints = current - 1;
  return true;
}

bool LowerK(CaseConfig* c) {
  const Workload w = MakeWorkload(c->seed, c->mode, c->overrides, c->grid);
  if (w.query.k <= 1) return false;
  c->overrides.k_cap = w.query.k / 2;
  return true;
}

bool NarrowX(CaseConfig* c) {
  const Workload w = MakeWorkload(c->seed, c->mode, c->overrides, c->grid);
  const int64_t width = w.query.domains[0].hi - w.query.domains[0].lo + 1;
  if (width <= 8) return false;
  c->overrides.x_width_cap = width / 2;
  return true;
}

bool DropDiversity(CaseConfig* c) {
  const Workload w = MakeWorkload(c->seed, c->mode, c->overrides, c->grid);
  if (w.result_spacing.empty()) return false;
  c->overrides.no_diversity = true;
  return true;
}

bool DefaultAlpha(CaseConfig* c) {
  const Workload w = MakeWorkload(c->seed, c->mode, c->overrides, c->grid);
  if (w.alpha == 0.5) return false;
  c->overrides.default_alpha = true;
  return true;
}

// Drops the last mutation of a failing session. The plan derivation is
// prefix-stable (MakeSessionPlan), so the surviving steps replay exactly.
// Floor is a 1-step session: shrinking to session=0 would change the
// harness shape and lose the cache dimension under test.
bool ShortenSession(CaseConfig* c) {
  if (c->session <= 1) return false;
  c->session -= 1;
  return true;
}

}  // namespace

CaseConfig Shrink(CaseConfig failing, InjectedBug bug) {
  static constexpr ShrinkStep kSteps[] = {
      DropServe,
      DropTrace,       DropProfile, StripFaults,    SingleInstance,
      DefaultEngineKnobs,
      ShortenSession,  ShortenSession, ShortenSession,
      HalveArray,      HalveArray,  HalveArray,     DropConstraints,
      DropConstraints, DropConstraints, LowerK,     LowerK,
      NarrowX,         NarrowX,     NarrowX,        DropDiversity,
      DefaultAlpha,
  };
  // Up to two passes: a step that was a no-op early (e.g. NarrowX when
  // the domain was already small) can become productive after HalveArray.
  for (int pass = 0; pass < 2; ++pass) {
    bool any = false;
    for (ShrinkStep step : kSteps) {
      CaseConfig candidate = failing;
      if (!step(&candidate)) continue;
      if (RunAnyCase(candidate, bug).failed()) {
        failing = std::move(candidate);
        any = true;
      }
    }
    if (!any) break;
  }
  return failing;
}

std::string ReproLine(const CaseConfig& c) {
  std::string line = "dqr_fuzz --seed=" + std::to_string(c.seed) +
                     " --mode=" + FuzzModeName(c.mode) + " --config=\"" +
                     c.config.ToString() + "\"";
  if (c.grid) line += " --grid";
  if (c.session > 0) line += " --session=" + std::to_string(c.session);
  if (c.overrides.length_cap != 0) {
    line += " --len-cap=" + std::to_string(c.overrides.length_cap);
  }
  if (c.overrides.max_constraints != 0) {
    line += " --max-cons=" + std::to_string(c.overrides.max_constraints);
  }
  if (c.overrides.k_cap != 0) {
    line += " --k-cap=" + std::to_string(c.overrides.k_cap);
  }
  if (c.overrides.x_width_cap != 0) {
    line += " --x-width-cap=" + std::to_string(c.overrides.x_width_cap);
  }
  if (c.overrides.no_diversity) line += " --no-diversity";
  if (c.overrides.default_alpha) line += " --default-alpha";
  return line;
}

Result<std::string> WriteReproFile(const std::string& dir,
                                   const CaseConfig& c,
                                   const CaseResult& result) {
  const std::string path = dir + "/repro_" + std::to_string(c.seed) + "_" +
                           FuzzModeName(c.mode) + (c.grid ? "_grid" : "") +
                           (c.session > 0 ? "_session" : "") + ".txt";
  std::ofstream out(path);
  if (!out) return InvalidArgumentError("cannot write repro file: " + path);
  out << "# replay with:\n" << ReproLine(c) << "\n\n";
  out << "# case: " << result.detail << "\n";
  if (!result.error.empty()) {
    out << "\n# error:\n" << result.error << "\n";
  } else {
    out << "\n# expected (oracle):\n"
        << (result.expected.empty() ? "<empty>" : result.expected) << "\n";
    out << "\n# actual (engine):\n"
        << (result.actual.empty() ? "<empty>" : result.actual) << "\n";
  }
  out.close();
  return path;
}

FuzzReport RunFuzz(const FuzzOptions& options) {
  FuzzReport report;
  std::vector<FuzzMode> modes = options.modes;
  if (modes.empty()) {
    modes = {FuzzMode::kRelax, FuzzMode::kConstrain, FuzzMode::kSkyline};
  }
  const int jobs = std::max(1, options.jobs);
  const int64_t started_ms = NowMs();

  // Guards the report and keeps a failure's multi-line stderr block
  // contiguous when jobs > 1.
  std::mutex mu;

  // Shared run-report-shrink path for single-query and session cases.
  const auto run_one = [&report, &options, &mu](const CaseConfig& c) {
    CaseResult r = RunAnyCase(c, options.inject_bug);
    if (r.ok) {
      std::lock_guard<std::mutex> lock(mu);
      ++report.cases_run;
      if (options.verbose) {
        std::fprintf(stderr, "dqr_fuzz: ok   %s\n", r.detail.c_str());
      }
      return;
    }
    // Shrinking re-runs the case many times; keep it outside the lock so
    // other driver threads keep fuzzing while one shrinks a failure.
    const CaseConfig shrunk = Shrink(c, options.inject_bug);
    const CaseResult shrunk_result = RunAnyCase(shrunk, options.inject_bug);
    const std::string line = ReproLine(shrunk);

    std::lock_guard<std::mutex> lock(mu);
    ++report.cases_run;
    if (!r.error.empty()) ++report.errors;
    if (r.error.empty()) ++report.mismatches;
    std::fprintf(stderr, "dqr_fuzz: FAIL %s\n", r.detail.c_str());
    if (!r.error.empty()) {
      std::fprintf(stderr, "dqr_fuzz:   %s\n", r.error.c_str());
    }
    report.repro_lines.push_back(line);
    std::fprintf(stderr, "dqr_fuzz:   reproduce: %s\n", line.c_str());
    if (!options.repro_dir.empty()) {
      Result<std::string> file =
          WriteReproFile(options.repro_dir, shrunk, shrunk_result);
      if (file.ok()) {
        std::fprintf(stderr, "dqr_fuzz:   repro file: %s\n",
                     file.value().c_str());
        report.repro_files.push_back(std::move(file).value());
      } else {
        std::fprintf(stderr, "dqr_fuzz:   %s\n",
                     file.status().ToString().c_str());
      }
    }
  };

  // Runs every case of seed index `i`.
  const auto run_seed = [&](int i) {
    const uint64_t seed = options.start_seed + static_cast<uint64_t>(i);
    // One mode per seed (cycled) keeps a campaign of N seeds at N
    // workloads; --mode pins it for reproduction. Every fourth seed runs
    // its 2-D grid workload so both data shapes stay covered (--grid
    // pins that for reproduction).
    const FuzzMode mode = modes[static_cast<size_t>(i) % modes.size()];
    const bool grid = i % 4 == 3;
    const std::vector<EngineConfig> configs =
        MakeConfigMatrix(seed, options.configs_per_seed);

    if (options.sessions) {
      // Session campaign: the seed's mutation chain (2..12 mutations, so
      // 3..13 queries, seeded) replayed warm-vs-cold under the matrix's
      // baseline and work-stealing configs. Long chains are where cached
      // answers pile up across shifts and relaxations. Two configs, not
      // the full matrix — each session case already multiplies cost by
      // 2x the chain length.
      for (size_t ci = 0; ci < configs.size() && ci < 2; ++ci) {
        CaseConfig c;
        c.seed = seed;
        c.mode = mode;
        c.grid = grid;
        c.session = 2 + static_cast<int>(seed % 11);
        c.config = configs[ci];
        if (options.trace_mix) c.config.trace = ((seed + ci) & 1) != 0;
        // The simd override is process-global: concurrent drivers pin the
        // dimension instead of racing it (kernels are value-identical, so
        // no expected answer changes).
        if (jobs > 1) c.config.simd = true;
        run_one(c);
      }
      return;
    }

    for (size_t ci = 0; ci < configs.size(); ++ci) {
      CaseConfig c;
      c.seed = seed;
      c.mode = mode;
      c.grid = grid;
      c.config = configs[ci];
      // Alternate the trace dimension deterministically across the
      // matrix so every campaign covers traced and untraced runs of
      // otherwise-identical configs.
      if (options.trace_mix) c.config.trace = ((seed + ci) & 1) != 0;
      if (jobs > 1) c.config.simd = true;
      // The serve slice: every eligible case goes over the wire, with the
      // knobs a QUERY frame cannot carry pinned to their defaults. RunCase
      // itself falls back to direct execution for grid and fault-plan
      // cases, so gating here only keeps repro lines honest (a line with
      // serve=1 really ran over the transport).
      if (options.serve && !c.grid && c.config.fault_crashes == 0) {
        c.config.serve = true;
        PinToWire(&c.config);
      }
      run_one(c);
    }
  };

  // Concurrent drivers pull seed indices from one atomic cursor; the
  // time budget is re-checked per claim so every driver stops promptly.
  std::atomic<int> cursor{0};
  std::atomic<bool> budget_hit{false};
  const auto drive = [&] {
    for (;;) {
      const int i = cursor.fetch_add(1);
      if (i >= options.num_seeds) return;
      if (options.time_budget_ms > 0 &&
          NowMs() - started_ms >= options.time_budget_ms) {
        budget_hit.store(true);
        return;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        ++report.seeds_run;
      }
      run_seed(i);
    }
  };

  if (jobs <= 1) {
    drive();
  } else {
    std::vector<std::thread> drivers;
    drivers.reserve(static_cast<size_t>(jobs));
    for (int t = 0; t < jobs; ++t) drivers.emplace_back(drive);
    for (std::thread& d : drivers) d.join();
    // Thread completion order is nondeterministic; the set of failures is
    // not. Sorted repro lines make concurrent campaign output comparable.
    std::sort(report.repro_lines.begin(), report.repro_lines.end());
    std::sort(report.repro_files.begin(), report.repro_files.end());
  }
  if (budget_hit.load()) {
    std::fprintf(stderr, "dqr_fuzz: time budget reached after %lld seeds\n",
                 static_cast<long long>(report.seeds_run));
  }
  return report;
}

}  // namespace dqr::fuzz
