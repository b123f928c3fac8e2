// Concurrency determinism: N queries multiplexed over one shared
// WorkerPool/TimerWheel (DESIGN.md §10) must produce results
// byte-identical to the same queries run serially, one at a time.
// Scheduling is answer-preserving (§3), and the per-slot state —
// coordinator, fail registry, replay pool, DelayedBroadcast epochs — is
// constructed per ExecuteQuery call; these tests are the executable form
// of that slot-isolation claim, including a crash-plan case where one
// slot loses an instance mid-run while its neighbors stay clean.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/semantic_cache.h"
#include "core/canonical.h"
#include "core/fault.h"
#include "core/refiner.h"
#include "exec/engine_session.h"
#include "testing/generator.h"

namespace dqr::fuzz {
namespace {

// The serial baseline: one query at a time on the process-shared pool,
// outside any session (so no admission and no concurrent neighbors).
std::string SerialCanonical(const Workload& workload,
                            const EngineConfig& config) {
  core::FaultPlan plan;
  core::RefineOptions options = config.ToOptions(workload, &plan);
  const auto run = core::ExecuteQuery(workload.query, options);
  if (!run.ok()) return "error: " + run.status().ToString();
  if (!run.value().stats.completed) return "error: incomplete";
  return core::Canonicalize(run.value().results);
}

struct Client {
  Workload workload;
  EngineConfig config;
  std::string baseline;  // serial canonical result
  std::string got;       // concurrent canonical result
};

// Runs every client's query concurrently through `session` (one thread
// per client, all slots multiplexed over the session's pool) and stores
// each canonical result in client.got.
void RunConcurrently(exec::EngineSession* session,
                     std::vector<Client>* clients) {
  std::vector<std::thread> threads;
  threads.reserve(clients->size());
  for (Client& client : *clients) {
    threads.emplace_back([session, &client] {
      core::FaultPlan plan;
      core::RefineOptions options = client.config.ToOptions(client.workload,
                                                            &plan);
      const auto run = session->Execute(client.workload.query, options);
      if (!run.ok()) {
        client.got = "error: " + run.status().ToString();
        return;
      }
      if (!run.value().stats.completed) {
        client.got = "error: incomplete";
        return;
      }
      client.got = core::Canonicalize(run.value().results);
    });
  }
  for (std::thread& t : threads) t.join();
}

struct Shape {
  int instances;
  int shards;
};

class ConcurrentDeterminismTest
    : public ::testing::TestWithParam<std::tuple<Shape, int>> {};

// Four distinct seeded workloads, one cluster shape, one pool size: the
// concurrent answers must equal the serial ones byte-for-byte.
TEST_P(ConcurrentDeterminismTest, ConcurrentMatchesSerial) {
  const Shape shape = std::get<0>(GetParam());
  const int pool_threads = std::get<1>(GetParam());

  constexpr FuzzMode kModes[] = {FuzzMode::kRelax, FuzzMode::kConstrain,
                                 FuzzMode::kSkyline, FuzzMode::kRelax};
  std::vector<Client> clients;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Client client;
    client.workload = MakeWorkload(seed, kModes[seed - 1]);
    client.config.knobs.num_instances = shape.instances;
    client.config.knobs.shards_per_instance = shape.shards;
    client.config.knobs.speculative = seed % 2 == 0;
    client.baseline = SerialCanonical(client.workload, client.config);
    ASSERT_EQ(client.baseline.rfind("error:", 0), std::string::npos)
        << client.workload.summary << ": " << client.baseline;
    clients.push_back(std::move(client));
  }

  exec::WorkerPool pool(pool_threads);
  exec::TimerWheel wheel;
  exec::EngineSessionOptions session_options;
  session_options.pool = &pool;
  session_options.wheel = &wheel;
  session_options.max_concurrent_queries = 4;
  exec::EngineSession session(session_options);

  RunConcurrently(&session, &clients);
  for (const Client& client : clients) {
    EXPECT_EQ(client.got, client.baseline) << client.workload.summary;
  }

  const exec::SessionStats stats = session.stats();
  EXPECT_EQ(stats.queries_admitted, 4);
  EXPECT_EQ(stats.active_slots, 0);
  EXPECT_GT(stats.pool.dispatched, 0);
  EXPECT_EQ(stats.tasks_in_flight, 0);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesByPools, ConcurrentDeterminismTest,
    ::testing::Combine(::testing::Values(Shape{2, 4}, Shape{4, 8}),
                       ::testing::Values(2, 8)),
    [](const auto& info) {
      const Shape shape = std::get<0>(info.param);
      return "inst" + std::to_string(shape.instances) + "x" +
             std::to_string(shape.shards) + "_pool" +
             std::to_string(std::get<1>(info.param));
    });

// Slot isolation under failure: one slot runs a crash plan (an instance
// dies mid-run, the failure detector reclaims its work) while two clean
// slots run concurrently in the same session. Every slot must still
// match its serial baseline — the dying instance's fail registry,
// coordinator, and lease state belong to its slot alone.
TEST(ConcurrentDeterminismTest, CrashingSlotDoesNotLeakIntoNeighbors) {
  std::vector<Client> clients;
  {
    Client crash;
    crash.workload = MakeWorkload(11, FuzzMode::kRelax);
    crash.config.knobs.num_instances = 3;
    crash.config.knobs.shards_per_instance = 8;
    crash.config.fault_crashes = 1;
    crash.config.knobs.enable_failure_detector = true;
    clients.push_back(std::move(crash));
  }
  for (uint64_t seed = 12; seed <= 13; ++seed) {
    Client clean;
    clean.workload =
        MakeWorkload(seed, seed % 2 == 0 ? FuzzMode::kConstrain
                                         : FuzzMode::kSkyline);
    clean.config.knobs.num_instances = 2;
    clean.config.knobs.shards_per_instance = 4;
    clients.push_back(std::move(clean));
  }
  for (Client& client : clients) {
    client.baseline = SerialCanonical(client.workload, client.config);
    ASSERT_EQ(client.baseline.rfind("error:", 0), std::string::npos)
        << client.workload.summary << ": " << client.baseline;
  }

  exec::WorkerPool pool(4);
  exec::TimerWheel wheel;
  exec::EngineSessionOptions session_options;
  session_options.pool = &pool;
  session_options.wheel = &wheel;
  session_options.max_concurrent_queries = 3;
  exec::EngineSession session(session_options);

  RunConcurrently(&session, &clients);
  for (const Client& client : clients) {
    EXPECT_EQ(client.got, client.baseline) << client.workload.summary;
  }
}

// Admission control: a session capped at one slot serializes concurrent
// callers (peak_slots == 1) without changing any answer, and the second
// caller's wait is visible in queries_queued.
TEST(ConcurrentDeterminismTest, SingleSlotSessionSerializes) {
  std::vector<Client> clients;
  for (uint64_t seed = 21; seed <= 23; ++seed) {
    Client client;
    client.workload = MakeWorkload(seed, FuzzMode::kRelax);
    client.config.knobs.num_instances = 2;
    client.config.knobs.shards_per_instance = 4;
    client.baseline = SerialCanonical(client.workload, client.config);
    ASSERT_EQ(client.baseline.rfind("error:", 0), std::string::npos)
        << client.workload.summary << ": " << client.baseline;
    clients.push_back(std::move(client));
  }

  exec::WorkerPool pool(2);
  exec::TimerWheel wheel;
  exec::EngineSessionOptions session_options;
  session_options.pool = &pool;
  session_options.wheel = &wheel;
  session_options.max_concurrent_queries = 1;
  exec::EngineSession session(session_options);

  RunConcurrently(&session, &clients);
  for (const Client& client : clients) {
    EXPECT_EQ(client.got, client.baseline) << client.workload.summary;
  }
  const exec::SessionStats stats = session.stats();
  EXPECT_EQ(stats.queries_admitted, 3);
  EXPECT_EQ(stats.peak_slots, 1);
}

// Satellite of the cache-stats contract: N concurrent ExecuteCached
// calls for the same semantic query race the insert/lookup/stat paths of
// one SemanticCache (plus its SharedBoundsMemo and EpochRegistry). Every
// caller must get the serial answer, and the outcome counters must add
// up — this is the test the CI TSan job leans on for satellite 1.
TEST(ConcurrentDeterminismTest, ConcurrentCachedQueriesShareOneCache) {
  const Workload workload = MakeWorkload(31, FuzzMode::kRelax);
  EngineConfig config;
  config.knobs.num_instances = 2;
  config.knobs.shards_per_instance = 4;
  const std::string baseline = SerialCanonical(workload, config);
  ASSERT_EQ(baseline.rfind("error:", 0), std::string::npos) << baseline;

  exec::WorkerPool pool(4);
  exec::TimerWheel wheel;
  exec::EngineSessionOptions session_options;
  session_options.pool = &pool;
  session_options.wheel = &wheel;
  session_options.max_concurrent_queries = 4;
  exec::EngineSession session(session_options);

  cache::SemanticCache sem;
  constexpr int kClients = 4;
  std::vector<std::string> got(kClients);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      cache::CachedQuery cq;
      cq.query = workload.query;
      cq.dataset_id = "concurrent-cache-test";
      cq.function_ids = workload.function_ids;
      core::FaultPlan plan;
      core::RefineOptions options = config.ToOptions(workload, &plan);
      const auto run = session.ExecuteCached(&sem, cq, options);
      got[static_cast<size_t>(t)] =
          run.ok() ? core::Canonicalize(run.value().results)
                   : "error: " + run.status().ToString();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kClients; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)], baseline) << "client " << t;
  }

  const cache::SemanticCache::Stats stats = sem.stats();
  EXPECT_EQ(stats.exact_hits + stats.subsume_hits + stats.warm_starts +
                stats.misses,
            kClients);
}

cache::CachedQuery CachedQueryOf(const Workload& workload,
                                 const std::string& dataset_id) {
  cache::CachedQuery cq;
  cq.query = workload.query;
  cq.dataset_id = dataset_id;
  cq.function_ids = workload.function_ids;
  return cq;
}

// The cache is resolved before admission: with a one-slot session's slot
// held by a running miss, an exact hit on the same cache returns at once.
// It never waits for the slot and is not counted as admitted, since FIFO
// admission orders executed queries only. The miss holds the slot by
// blocking in its first streamed result until the hit has returned; the
// timeout there turns a hit that waits for the slot into a failure, not
// a hang.
TEST(ConcurrentDeterminismTest, CacheHitOvertakesRunningMiss) {
  const Workload hit_workload = MakeWorkload(41, FuzzMode::kRelax);
  const Workload miss_workload = MakeWorkload(42, FuzzMode::kRelax);
  const EngineConfig config;

  exec::WorkerPool pool(2);
  exec::TimerWheel wheel;
  exec::EngineSessionOptions session_options;
  session_options.pool = &pool;
  session_options.wheel = &wheel;
  session_options.max_concurrent_queries = 1;
  exec::EngineSession session(session_options);
  cache::SemanticCache sem;

  core::FaultPlan hit_plan;
  const core::RefineOptions hit_options =
      config.ToOptions(hit_workload, &hit_plan);
  const cache::CachedQuery hit_query = CachedQueryOf(hit_workload, "hit");
  const auto first = session.ExecuteCached(&sem, hit_query, hit_options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value().stats.completed);

  std::mutex mu;
  std::condition_variable cv;
  bool miss_running = false;
  bool miss_returned = false;
  bool hit_returned = false;
  core::FaultPlan miss_plan;
  core::RefineOptions miss_options =
      config.ToOptions(miss_workload, &miss_plan);
  miss_options.on_result = [&](const core::Solution&) {
    std::unique_lock<std::mutex> lock(mu);
    if (miss_running) return;
    miss_running = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return hit_returned; });
  };
  std::thread miss([&] {
    const auto run = session.ExecuteCached(
        &sem, CachedQueryOf(miss_workload, "miss"), miss_options);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    std::lock_guard<std::mutex> lock(mu);
    miss_returned = true;
  });
  bool started = false;
  {
    std::unique_lock<std::mutex> lock(mu);
    started = cv.wait_for(lock, std::chrono::seconds(60),
                          [&] { return miss_running || miss_returned; }) &&
              miss_running;
  }

  cache::CacheOutcome outcome = cache::CacheOutcome::kMiss;
  const auto hit = session.ExecuteCached(&sem, hit_query, hit_options,
                                         &outcome);
  const exec::SessionStats during = session.stats();
  bool overtook = false;
  {
    std::lock_guard<std::mutex> lock(mu);
    overtook = !miss_returned;
    hit_returned = true;
  }
  cv.notify_all();
  miss.join();

  ASSERT_TRUE(started) << "the miss streamed no result";
  EXPECT_TRUE(overtook) << "the hit returned only after the miss";
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(outcome, cache::CacheOutcome::kExactHit);
  EXPECT_EQ(hit.value().stats.admission_wait_s, 0.0);
  EXPECT_EQ(core::Canonicalize(hit.value().results),
            core::Canonicalize(first.value().results));
  EXPECT_EQ(during.active_slots, 1);
  EXPECT_EQ(during.queries_admitted, 2);  // the first run and the miss
  EXPECT_EQ(session.stats().queries_admitted, 2);
  EXPECT_EQ(session.stats().queries_queued, 0);
}

}  // namespace
}  // namespace dqr::fuzz
