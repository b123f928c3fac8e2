// Tenant-fair admission tests: the deficit round-robin scheduler's exact
// grant order under a controlled backlog (Pause/Resume + GrantLog), its
// budget rejections, and the end-to-end acceptance property — two
// saturating tenants with 8:1 weights complete work in an 8:1 ratio
// (within 15%) over the loopback server, with the light tenant never
// starved past a bounded admission wait.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine_session.h"
#include "exec/timer_wheel.h"
#include "exec/worker_pool.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/tenant.h"
#include "testing/generator.h"

namespace dqr::serve {
namespace {

// Blocks until both tenants have the expected backlog queued (the
// Acquire calls run on their own threads, so enqueueing is asynchronous).
void AwaitQueueDepths(const TenantScheduler& sched, int64_t heavy,
                      int64_t light) {
  for (int spin = 0; spin < 5000; ++spin) {
    if (sched.StatsFor("heavy").queue_depth == heavy &&
        sched.StatsFor("light").queue_depth == light) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "backlog never reached " << heavy << "/" << light;
}

TEST(ServeFairness, DeficitRoundRobinGrantsExactWeightedPattern) {
  // One slot, equal per-query demand, weights 8:1: each DRR top-up
  // credits heavy with 8 grants' worth of deficit and light with 1, so
  // the grant log must be the deterministic pattern (H x8, L x1)
  // repeating. Pause freezes granting while the backlog builds.
  TenantScheduler sched(1);
  ASSERT_TRUE(sched.Configure("heavy", TenantConfig{8.0, 0, 0}).ok());
  ASSERT_TRUE(sched.Configure("light", TenantConfig{1.0, 0, 0}).ok());
  sched.Pause();

  constexpr int64_t kDemand = 2;
  std::vector<std::thread> workers;
  const auto worker = [&sched](const std::string& tenant) {
    Result<double> got = sched.Acquire(tenant, kDemand);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    sched.Release(tenant, kDemand);
  };
  for (int i = 0; i < 16; ++i) workers.emplace_back(worker, "heavy");
  for (int i = 0; i < 2; ++i) workers.emplace_back(worker, "light");
  AwaitQueueDepths(sched, 16, 2);

  sched.Resume();
  for (std::thread& w : workers) w.join();

  const std::vector<std::string> log = sched.GrantLog();
  ASSERT_EQ(log.size(), 18u);
  // Positions 0-7 and 9-16 are heavy; 8 and 17 are light.
  for (size_t i = 0; i < log.size(); ++i) {
    const bool light_slot = i == 8 || i == 17;
    EXPECT_EQ(log[i], light_slot ? "light" : "heavy") << "grant " << i;
  }
  EXPECT_EQ(sched.StatsFor("heavy").completed, 16);
  EXPECT_EQ(sched.StatsFor("light").completed, 2);
  // 8:1 in completed demand, exactly.
  EXPECT_EQ(sched.StatsFor("heavy").completed_demand, 32);
  EXPECT_EQ(sched.StatsFor("light").completed_demand, 4);
}

TEST(ServeFairness, GrantLogKeepsOnlyTheNewestGrants) {
  // A long-lived server grants forever; the log must stay bounded while
  // still listing the newest grants oldest first.
  TenantScheduler sched(1);
  constexpr int kGrants =
      static_cast<int>(TenantScheduler::kGrantLogCapacity) + 300;
  // Seven tenants in turn: a period that does not divide the capacity,
  // so an off-by-one in the window would misalign the whole pattern.
  const auto tenant_of = [](int grant) { return std::to_string(grant % 7); };
  for (int i = 0; i < kGrants; ++i) {
    ASSERT_TRUE(sched.Acquire(tenant_of(i), 1).ok());
    sched.Release(tenant_of(i), 1);
  }
  const std::vector<std::string> log = sched.GrantLog();
  ASSERT_EQ(log.size(), TenantScheduler::kGrantLogCapacity);
  const int first = kGrants - static_cast<int>(log.size());
  for (size_t j = 0; j < log.size(); ++j) {
    ASSERT_EQ(log[j], tenant_of(first + static_cast<int>(j))) << "entry " << j;
  }
}

TEST(ServeFairness, BudgetRejectionsAreImmediateAndPrecise) {
  TenantScheduler sched(4);
  TenantConfig config;
  config.weight = 1.0;
  config.max_in_flight = 1;
  config.max_task_demand = 4;
  ASSERT_TRUE(sched.Configure("b", config).ok());

  // Demand above the per-query cap: rejected before queueing.
  Result<double> oversized = sched.Acquire("b", 8);
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(oversized.status().message(),
            "tenant 'b' query demand 8 exceeds max_task_demand 4");

  // First query fits; a second, with one in flight, trips max_in_flight.
  Result<double> first = sched.Acquire("b", 2);
  ASSERT_TRUE(first.ok());
  Result<double> second = sched.Acquire("b", 2);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(second.status().message(), "tenant 'b' is at max_in_flight 1");
  sched.Release("b", 2);

  // After release the budget frees up.
  Result<double> third = sched.Acquire("b", 2);
  EXPECT_TRUE(third.ok());
  sched.Release("b", 2);

  EXPECT_EQ(sched.StatsFor("b").rejected, 2);
  EXPECT_EQ(sched.StatsFor("b").completed, 2);

  // Non-positive weights are rejected at configuration time.
  const Status bad = sched.Configure("b", TenantConfig{0.0, 0, 0});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("tenant 'b' weight must be > 0"),
            std::string::npos);
}

TEST(ServeFairness, ShutdownCancelsQueuedWaiters) {
  TenantScheduler sched(1);
  Result<double> holder = sched.Acquire("a", 1);
  ASSERT_TRUE(holder.ok());

  std::atomic<bool> cancelled{false};
  std::thread waiter([&] {
    Result<double> got = sched.Acquire("a", 1);
    EXPECT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
    cancelled = true;
  });
  for (int spin = 0; spin < 5000 && sched.StatsFor("a").queue_depth == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(sched.StatsFor("a").queue_depth, 1);

  sched.Shutdown();
  waiter.join();
  EXPECT_TRUE(cancelled);
  // Acquire after shutdown fails too.
  EXPECT_EQ(sched.Acquire("a", 1).status().code(), StatusCode::kCancelled);
}

// The acceptance property, end to end over real sockets: heavy (weight
// 8) and light (weight 1) both keep the server saturated with identical
// queries; when the light tenant has completed 10, the completed-work
// ratio must sit within 15% of 8:1, and the light tenant's worst
// admission wait must stay bounded (no starvation).
TEST(ServeFairness, SaturatingTenantsCompleteWorkInWeightRatio) {
  const fuzz::Workload w = fuzz::MakeWorkload(2, fuzz::FuzzMode::kRelax);

  // A private single-slot session makes completions strictly sequential
  // in DRR grant order, so the ratio is the scheduler's doing alone.
  exec::WorkerPool pool(4);
  exec::TimerWheel wheel;
  exec::EngineSessionOptions session_options;
  session_options.pool = &pool;
  session_options.wheel = &wheel;
  session_options.max_concurrent_queries = 1;
  exec::EngineSession session(session_options);

  ServerOptions options;
  options.session = &session;
  options.tenants["heavy"] = TenantConfig{8.0, 0, 0};
  options.tenants["light"] = TenantConfig{1.0, 0, 0};
  // Give every query a real execution weight (an answer-preserving
  // busy-wait per estimate): execution must dominate the client
  // round-trip, else the backlog drains between completions and DRR
  // degenerates to arrival order.
  options.estimate_cost_ns = 50'000;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(
      server.RegisterDataset("d", data::DatasetBundle{w.array, w.synopsis})
          .ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  const auto saturate = [&](const std::string& tenant, int thread_id) {
    Client client;
    if (!client.Connect(server.port()).ok() ||
        !client.Hello(tenant).ok()) {
      ++failures;
      return;
    }
    int n = 0;
    while (!stop.load()) {
      Frame q;
      q.type = frame::kQuery;
      q.Set("id", tenant + std::to_string(thread_id) + "_" +
                      std::to_string(n++));
      q.Set("dataset", std::string("d"));
      q.Set("alpha", w.alpha);
      q.Set("constrain", std::string("rank"));
      q.body = w.query_text;
      if (!client.RunQuery(q).ok()) {
        // Expected once the test stops the server mid-stream; only count
        // failures while the run is live.
        if (!stop.load()) ++failures;
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) threads.emplace_back(saturate, "heavy", t);
  for (int t = 0; t < 6; ++t) threads.emplace_back(saturate, "light", t);

  // Snapshot both counters atomically the moment light reaches 10
  // completions; Stats() reads under one mutex, so the pair is
  // consistent with the grant order.
  std::map<std::string, TenantStats> snapshot;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (;;) {
    snapshot = server.scheduler().Stats();
    if (snapshot["light"].completed >= 10 ||
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop = true;
  server.Stop();  // unblocks clients waiting on in-flight queries
  for (std::thread& t : threads) t.join();

  ASSERT_GE(snapshot["light"].completed, 10)
      << "light tenant starved after 120s";
  EXPECT_EQ(failures.load(), 0);
  const double heavy_demand =
      static_cast<double>(snapshot["heavy"].completed_demand);
  const double light_demand =
      static_cast<double>(snapshot["light"].completed_demand);
  ASSERT_GT(light_demand, 0.0);
  const double ratio = heavy_demand / light_demand;
  EXPECT_GE(ratio, 8.0 * 0.85) << "heavy under-served: " << ratio;
  EXPECT_LE(ratio, 8.0 * 1.15) << "heavy over-served: " << ratio;
  // No starvation: the light tenant's worst admission wait is bounded by
  // a handful of DRR rounds, far under the test's own runtime.
  EXPECT_GT(snapshot["light"].completed, 0);
  EXPECT_LT(snapshot["light"].max_admission_wait_s, 30.0);
}

}  // namespace
}  // namespace dqr::serve
