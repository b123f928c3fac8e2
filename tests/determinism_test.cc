// Cross-configuration determinism: the same seeded workload must produce
// byte-identical canonicalized final results under every cluster shape.
// This is the engine's §3 answer-preservation guarantee stated as an
// executable invariant — scheduling, sharding, and work stealing may
// reorder everything internal, but never the answer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/semantic_cache.h"
#include "core/canonical.h"
#include "core/refiner.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "testing/generator.h"

namespace dqr::fuzz {
namespace {

struct Shape {
  int instances;
  int shards;
};

constexpr Shape kShapes[] = {{1, 1}, {2, 4}, {4, 8}};

std::string RunCanonical(const Workload& workload, const Shape& shape,
                         obs::Trace* trace = nullptr,
                         int64_t trace_ring = 1 << 16,
                         obs::Profile* profile = nullptr) {
  EngineConfig config;
  config.knobs.num_instances = shape.instances;
  config.knobs.shards_per_instance = shape.shards;
  core::RefineOptions options = config.ToOptions(workload, nullptr);
  options.trace = trace;
  options.trace_buffer_events = trace_ring;
  options.profile = profile;
  const auto run = core::ExecuteQuery(workload.query, options);
  if (!run.ok()) return "error: " + run.status().ToString();
  if (!run.value().stats.completed) return "error: incomplete";
  return core::Canonicalize(run.value().results);
}

class DeterminismTest : public ::testing::TestWithParam<FuzzMode> {};

TEST_P(DeterminismTest, SameSeedSameResultsAcrossClusterShapes) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Workload workload = MakeWorkload(seed, GetParam());
    const std::string baseline = RunCanonical(workload, kShapes[0]);
    ASSERT_EQ(baseline.rfind("error:", 0), std::string::npos)
        << workload.summary << ": " << baseline;
    for (size_t i = 1; i < std::size(kShapes); ++i) {
      const std::string got = RunCanonical(workload, kShapes[i]);
      EXPECT_EQ(got, baseline)
          << workload.summary << " diverged at " << kShapes[i].instances
          << "x" << kShapes[i].shards;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, DeterminismTest,
                         ::testing::Values(FuzzMode::kRelax,
                                           FuzzMode::kConstrain,
                                           FuzzMode::kSkyline),
                         [](const auto& info) {
                           return FuzzModeName(info.param);
                         });

// The flight recorder is an observer, not a participant: with tracing
// off, on, and on-with-a-tiny-ring (forcing drop-oldest wraps mid-run),
// every cluster shape must still produce byte-identical results.
TEST(DeterminismTest, TracingIsAnswerPreserving) {
  for (const FuzzMode mode : {FuzzMode::kRelax, FuzzMode::kConstrain}) {
    const Workload workload = MakeWorkload(4, mode);
    for (const Shape& shape : kShapes) {
      const std::string baseline = RunCanonical(workload, shape);
      ASSERT_EQ(baseline.rfind("error:", 0), std::string::npos)
          << workload.summary << ": " << baseline;

      obs::Trace traced;
      EXPECT_EQ(RunCanonical(workload, shape, &traced), baseline)
          << workload.summary << " diverged under tracing at "
          << shape.instances << "x" << shape.shards;
      EXPECT_GT(traced.total_emitted(), 0);

      obs::Trace tiny;
      EXPECT_EQ(RunCanonical(workload, shape, &tiny, /*trace_ring=*/16),
                baseline)
          << workload.summary << " diverged under ring-wrap tracing at "
          << shape.instances << "x" << shape.shards;
    }
  }
}

// The profiler rides the same observer contract: with profiling on —
// whether it spins up its internal flight recorder or piggybacks on a
// caller-supplied trace — every cluster shape must still produce
// byte-identical results, and the assembled profile must be non-trivial
// (a phase tree plus at least one query-latency sample).
TEST(DeterminismTest, ProfilingIsAnswerPreserving) {
  for (const FuzzMode mode : {FuzzMode::kRelax, FuzzMode::kConstrain}) {
    const Workload workload = MakeWorkload(4, mode);
    for (const Shape& shape : kShapes) {
      const std::string baseline = RunCanonical(workload, shape);
      ASSERT_EQ(baseline.rfind("error:", 0), std::string::npos)
          << workload.summary << ": " << baseline;

      obs::Profile profiled;
      EXPECT_EQ(RunCanonical(workload, shape, nullptr, 1 << 16, &profiled),
                baseline)
          << workload.summary << " diverged under profiling at "
          << shape.instances << "x" << shape.shards;
      EXPECT_FALSE(profiled.query().root.children.empty())
          << workload.summary << ": profile has no phases";
      EXPECT_GT(profiled.query().stats.query_latency.count(), 0);

      obs::Trace trace;
      obs::Profile both;
      EXPECT_EQ(RunCanonical(workload, shape, &trace, 1 << 16, &both),
                baseline)
          << workload.summary << " diverged under tracing+profiling at "
          << shape.instances << "x" << shape.shards;
      EXPECT_FALSE(both.query().root.children.empty());
    }
  }
}

// The semantic cache is an execution knob like the cluster shape: a
// warm-cache session replayed under every engine shape must produce
// byte-identical per-step results — equal to each other and to the cold
// runs of the same queries. Exact hits, subsumption, and warm starts all
// short-circuit or steer execution, so this is the strongest statement
// that reuse never leaks into answers.
TEST(DeterminismTest, WarmCacheRunsMatchColdAcrossClusterShapes) {
  for (const FuzzMode mode : {FuzzMode::kRelax, FuzzMode::kConstrain}) {
    const SessionPlan plan = MakeSessionPlan(21, 3);
    const QuerySession cold = MakeSession(21, mode, plan);

    std::vector<std::string> baseline;
    for (const Workload& w : cold.steps) {
      baseline.push_back(RunCanonical(w, kShapes[0]));
      ASSERT_EQ(baseline.back().rfind("error:", 0), std::string::npos)
          << w.summary << ": " << baseline.back();
    }

    for (const Shape& shape : kShapes) {
      cache::SemanticCache sem;
      const QuerySession warm =
          MakeSession(21, mode, plan, {}, false, &sem.memo(),
                      sem.MemoSpace(cold.dataset_id));
      for (size_t i = 0; i < warm.steps.size(); ++i) {
        EngineConfig config;
        config.knobs.num_instances = shape.instances;
        config.knobs.shards_per_instance = shape.shards;
        const core::RefineOptions options =
            config.ToOptions(warm.steps[i], nullptr);
        cache::CachedQuery cq;
        cq.query = warm.steps[i].query;
        cq.dataset_id = cold.dataset_id;
        cq.function_ids = warm.steps[i].function_ids;
        const auto run = cache::ExecuteQueryCached(&sem, cq, options);
        ASSERT_TRUE(run.ok()) << warm.steps[i].summary << ": "
                              << run.status().ToString();
        ASSERT_TRUE(run.value().stats.completed) << warm.steps[i].summary;
        EXPECT_EQ(core::Canonicalize(run.value().results), baseline[i])
            << warm.steps[i].summary << " diverged warm at "
            << shape.instances << "x" << shape.shards << " step " << i;
      }
    }
  }
}

// Repeated runs of the *same* shape must agree too (no dependence on
// thread interleaving within a shape).
TEST(DeterminismTest, RepeatedRunsAreStable) {
  const Workload workload = MakeWorkload(11, FuzzMode::kConstrain);
  const Shape shape{3, 6};
  const std::string first = RunCanonical(workload, shape);
  ASSERT_EQ(first.rfind("error:", 0), std::string::npos) << first;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(RunCanonical(workload, shape), first) << "run " << i;
  }
}

}  // namespace
}  // namespace dqr::fuzz
