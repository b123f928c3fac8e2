// bench_concurrent: N concurrent query sessions over one shared worker
// pool.
//
// The concurrency sweep for DESIGN.md §10: C client threads each run a
// stream of small refinement queries through one EngineSession that
// multiplexes all query slots over a persistent WorkerPool + TimerWheel.
// Queries are deliberately small so scheduling overhead is a visible
// fraction of each query — the interactive-exploration regime the paper
// targets (many short queries, not one long scan). Every result is
// checked byte-identical to a precomputed serial baseline, so no
// throughput is ever bought with a wrong answer.
//
//   bench_concurrent [--trace=<path>] [--profile=<path>]
//
// Reports, per concurrency level in {1, 2, 4, 8, 16}, the best repeat's
// throughput (queries/s) and p50/p95 latency, plus the transient
// overflow thread spawns and queued (admission-delayed) queries summed
// over all of the level's repeats. Exit 1 on any result mismatch or
// error.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/canonical.h"
#include "core/refiner.h"
#include "exec/engine_session.h"
#include "testing/generator.h"

namespace {

using dqr::bench::TablePrinter;
using dqr::fuzz::EngineConfig;
using dqr::fuzz::FuzzMode;
using dqr::fuzz::MakeWorkload;
using dqr::fuzz::Workload;
using dqr::fuzz::WorkloadOverrides;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int kLevels[] = {1, 2, 4, 8, 16};
// Total queries per leg, split across the level's clients — every level
// does the same work, so throughput numbers are directly comparable.
constexpr int kQueriesPerLevel = 96;
constexpr int kRepeats = 5;

struct LegResult {
  double wall_s = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  int64_t mismatches = 0;
  int64_t errors = 0;
  int64_t overflow_spawns = 0;  // pool tasks that needed a transient thread
  int64_t queued = 0;           // queries that waited for admission
};

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

// Runs `kQueriesPerLevel` queries split over `clients` threads, all
// multiplexed over `session`'s pool. `trace` attaches the flight
// recorder to every query in the leg.
LegResult RunLeg(int clients, const std::vector<Workload>& workloads,
                 const std::vector<EngineConfig>& configs,
                 const std::vector<std::string>& baselines,
                 dqr::exec::EngineSession* session,
                 dqr::obs::Trace* trace) {
  LegResult out;
  const dqr::exec::SessionStats before = session->stats();
  const int per_client = kQueriesPerLevel / clients;
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(clients));
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> errors{0};

  const double started = NowS();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double>& lats = latencies[static_cast<size_t>(c)];
      lats.reserve(static_cast<size_t>(per_client));
      for (int q = 0; q < per_client; ++q) {
        const size_t wi =
            static_cast<size_t>(c * per_client + q) % workloads.size();
        const Workload& workload = workloads[wi];
        dqr::core::RefineOptions options =
            configs[wi].ToOptions(workload, nullptr);
        if (trace != nullptr) {
          options.trace = trace;
          options.trace_buffer_events = 1 << 12;
        }
        const double t0 = NowS();
        const auto run = session->Execute(workload.query, options);
        lats.push_back(NowS() - t0);
        if (!run.ok() || !run.value().stats.completed) {
          ++errors;
          continue;
        }
        if (dqr::core::Canonicalize(run.value().results) !=
            baselines[wi]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = NowS() - started;
  const dqr::exec::SessionStats after = session->stats();
  out.overflow_spawns =
      after.pool.overflow_spawns - before.pool.overflow_spawns;
  out.queued = after.queries_queued - before.queries_queued;

  std::vector<double> all;
  all.reserve(static_cast<size_t>(clients * per_client));
  for (const std::vector<double>& lats : latencies) {
    all.insert(all.end(), lats.begin(), lats.end());
  }
  out.qps = out.wall_s > 0
                ? static_cast<double>(all.size()) / out.wall_s
                : 0.0;
  out.p50_ms = 1000.0 * Percentile(all, 0.50);
  out.p95_ms = 1000.0 * Percentile(all, 0.95);
  out.mismatches = mismatches.load();
  out.errors = errors.load();
  return out;
}

std::string Fmt(double v, const char* format = "%.2f") {
  char buf[32];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  dqr::bench::ParseBenchFlags(argc, argv);

  // Small interactive queries over mixed shapes: scheduling cost must be
  // a visible fraction of each query, as it is in exploration sessions.
  WorkloadOverrides overrides;
  overrides.length_cap = 64;
  overrides.max_constraints = 1;
  overrides.k_cap = 2;
  constexpr uint64_t kSeeds[] = {1, 2, 3, 5};
  std::vector<Workload> workloads;
  std::vector<EngineConfig> configs;
  std::vector<std::string> baselines;
  for (size_t i = 0; i < std::size(kSeeds); ++i) {
    const FuzzMode mode =
        i % 2 == 0 ? FuzzMode::kRelax : FuzzMode::kConstrain;
    workloads.push_back(MakeWorkload(kSeeds[i], mode, overrides));
    // Detector on, as deployed: every query also registers its heartbeat
    // and lease-sweep timers on the wheel.
    EngineConfig config;
    config.knobs.num_instances = 4;
    config.knobs.shards_per_instance = 2;
    config.knobs.enable_failure_detector = true;
    configs.push_back(config);
    // The serial baseline: one query at a time, outside any session.
    const auto run = dqr::core::ExecuteQuery(
        workloads[i].query, config.ToOptions(workloads[i], nullptr));
    if (!run.ok() || !run.value().stats.completed) {
      std::fprintf(stderr, "bench_concurrent: baseline run failed\n");
      return 1;
    }
    baselines.push_back(dqr::core::Canonicalize(run.value().results));
  }

  // One pool + wheel + session for every level: that is the deployment
  // shape (a process-wide pool), and reusing it across levels keeps the
  // workers warm. Slots are capped at half the pool's query capacity so
  // every admitted task lands on a warm worker — admission queueing is
  // cheaper than overflow thread spawns, which is the point of the slot
  // discipline; the overflow and queued columns show where that holds.
  dqr::exec::WorkerPool pool(16);
  dqr::exec::TimerWheel wheel;
  dqr::exec::EngineSessionOptions session_options;
  session_options.pool = &pool;
  session_options.wheel = &wheel;
  session_options.max_concurrent_queries = 2;
  dqr::exec::EngineSession session(session_options);

  TablePrinter table("bench_concurrent: concurrent clients over one "
                     "shared worker pool",
                     {"clients", "qps", "p50/p95 ms", "overflow spawns",
                      "queued"});

  int64_t mismatches = 0;
  int64_t errors = 0;
  for (const int clients : kLevels) {
    // Several repeats per level, keeping the best-qps run: scheduler
    // noise at sub-millisecond query sizes dwarfs the effect floor, and
    // best-of gives the least-disturbed measurement.
    std::vector<LegResult> runs;
    for (int rep = 0; rep < kRepeats; ++rep) {
      runs.push_back(
          RunLeg(clients, workloads, configs, baselines, &session, nullptr));
    }
    LegResult best = *std::max_element(
        runs.begin(), runs.end(), [](const LegResult& a, const LegResult& b) {
          return a.qps < b.qps;
        });
    // Correctness and scheduling counters aggregate over every repeat,
    // not just the best one — a wrong answer in any run fails the bench.
    best.mismatches = best.errors = best.overflow_spawns = best.queued = 0;
    for (const LegResult& r : runs) {
      best.mismatches += r.mismatches;
      best.errors += r.errors;
      best.overflow_spawns += r.overflow_spawns;
      best.queued += r.queued;
    }
    mismatches += best.mismatches;
    errors += best.errors;

    table.AddRow({std::to_string(clients), Fmt(best.qps, "%.1f"),
                  Fmt(best.p50_ms) + "/" + Fmt(best.p95_ms),
                  std::to_string(best.overflow_spawns),
                  std::to_string(best.queued)});
  }

  // A separate, untimed traced pass at the contended level: the emitted
  // trace shows slot multiplexing (one process group per query slot,
  // dqr_trace --check verifies integrity in CI) without the recorder's
  // ring bookkeeping distorting the measured levels above.
  if (dqr::obs::Trace* trace = dqr::bench::BenchTrace()) {
    const LegResult traced =
        RunLeg(8, workloads, configs, baselines, &session, trace);
    mismatches += traced.mismatches;
    errors += traced.errors;
  }

  table.Print();
  const dqr::exec::SessionStats stats = session.stats();
  std::printf(
      "pool: %d threads, %lld dispatched (%lld warm, %lld overflow); "
      "session: %lld admitted, %lld queued, peak %d slots\n",
      stats.pool.threads, static_cast<long long>(stats.pool.dispatched),
      static_cast<long long>(stats.pool.spawn_avoided),
      static_cast<long long>(stats.pool.overflow_spawns),
      static_cast<long long>(stats.queries_admitted),
      static_cast<long long>(stats.queries_queued), stats.peak_slots);

  if (mismatches > 0 || errors > 0) {
    std::fprintf(stderr,
                 "bench_concurrent: FAIL %lld mismatches, %lld errors\n",
                 static_cast<long long>(mismatches),
                 static_cast<long long>(errors));
    return 1;
  }
  return 0;
}
