// Differential fault-injection sweep: a run that loses instances to
// deterministic crashes must return the byte-identical solution set of the
// fault-free run, in both refinement directions. Crashes are planted at
// every fault site at early/mid/late event indices, on each instance of
// the cluster, plus seeded pseudo-random multi-crash plans. Losing the
// whole cluster must cancel cleanly instead of hanging.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/canonical.h"
#include "core/fault.h"
#include "core/refiner.h"
#include "refiner_test_util.h"

namespace dqr::core {
namespace {

using testutil::MakeSmallBundle;
using testutil::MakeTestQuery;
using testutil::TestQueryParams;

// The shared canonical form (see core/canonical.h); every determinism
// check in the repo compares these strings byte for byte.
std::string Fingerprint(const std::vector<Solution>& results) {
  return Canonicalize(results);
}

// Short enough to keep the sweep fast, long enough that the (independent)
// heartbeat timer cannot plausibly miss the lease even under TSan.
constexpr int64_t kLeaseTimeoutUs = 120000;

RefineOptions SweepOptions(const FaultPlan* plan) {
  RefineOptions options;
  options.num_instances = 3;
  options.shards_per_instance = 8;
  options.fault_plan = plan;
  options.lease_timeout_us = kLeaseTimeoutUs;
  return options;
}

// The bundle is small enough that one eager instance can drain the whole
// shard pool before the others' threads start, in which case a fault
// planted on an idle instance never fires (its event counters never
// advance). Pacing the *other* two instances with a brief first-pickup
// stall guarantees the target instance actually works, so the planted
// crash is actually exercised. Stalls must not change results — that is
// itself part of the contract under test.
void PaceOthers(FaultPlan& plan, int target, int num_instances) {
  for (int i = 0; i < num_instances; ++i) {
    if (i != target) plan.Stall(i, FaultSite::kShardPickup, 0, 15000);
  }
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { bundle_ = MakeSmallBundle(600, 5); }

  searchlight::QuerySpec RelaxQuery() const {
    TestQueryParams p;
    p.avg_bounds = Interval(228, 250);  // scarce: forces relaxation
    p.k = 6;
    return MakeTestQuery(bundle_, p);
  }

  searchlight::QuerySpec ConstrainQuery() const {
    TestQueryParams p;
    p.avg_bounds = Interval(110, 200);  // plentiful: forces constraining
    p.contrast_min = 20.0;
    p.k = 5;
    return MakeTestQuery(bundle_, p);
  }

  testutil::SmallBundle bundle_;
};

struct CrashSpec {
  FaultSite site;
  int64_t at_index;
  const char* tag;
};

// Relaxation direction: crash each instance at each site, early / mid /
// late in that site's event stream. Whether or not a given index is
// reached before the run ends, the returned solution set must match the
// fault-free reference byte for byte.
TEST_F(FaultInjectionTest, RelaxCrashSweepKeepsResults) {
  const searchlight::QuerySpec query = RelaxQuery();
  const auto reference = ExecuteQuery(query, SweepOptions(nullptr));
  ASSERT_TRUE(reference.ok());
  const std::string want = Fingerprint(reference.value().results);
  ASSERT_FALSE(want.empty());

  const CrashSpec kSpecs[] = {
      {FaultSite::kShardPickup, 0, "pickup/early"},
      {FaultSite::kShardPickup, 2, "pickup/mid"},
      {FaultSite::kShardPickup, 5, "pickup/late"},
      {FaultSite::kFailRecord, 1, "failrecord/early"},
      {FaultSite::kFailRecord, 10, "failrecord/mid"},
      {FaultSite::kFailRecord, 40, "failrecord/late"},
      {FaultSite::kCandidateValidate, 0, "validate/early"},
      {FaultSite::kCandidateValidate, 5, "validate/mid"},
      {FaultSite::kCandidateValidate, 25, "validate/late"},
  };

  int64_t fired = 0;
  for (int target = 0; target < 3; ++target) {
    for (const CrashSpec& spec : kSpecs) {
      FaultPlan plan;
      PaceOthers(plan, target, 3);
      plan.Crash(target, spec.site, spec.at_index);
      const auto run = ExecuteQuery(query, SweepOptions(&plan));
      ASSERT_TRUE(run.ok()) << spec.tag << " instance=" << target;
      EXPECT_TRUE(run.value().stats.completed)
          << spec.tag << " instance=" << target;
      EXPECT_EQ(Fingerprint(run.value().results), want)
          << spec.tag << " instance=" << target;
      fired += run.value().stats.instances_lost;
    }
  }
  // The sweep must actually exercise recovery, not pass vacuously: with
  // pacing, the bulk of the planted crashes genuinely fire.
  EXPECT_GE(fired, 9);
}

// Constraining direction: same contract, one crash per site at a mid
// index on each instance.
TEST_F(FaultInjectionTest, ConstrainCrashSweepKeepsResults) {
  const searchlight::QuerySpec query = ConstrainQuery();
  RefineOptions base = SweepOptions(nullptr);
  base.constrain = ConstrainMode::kRank;
  const auto reference = ExecuteQuery(query, base);
  ASSERT_TRUE(reference.ok());
  const std::string want = Fingerprint(reference.value().results);
  ASSERT_FALSE(want.empty());

  const CrashSpec kSpecs[] = {
      {FaultSite::kShardPickup, 1, "pickup"},
      {FaultSite::kFailRecord, 3, "failrecord"},
      {FaultSite::kCandidateValidate, 5, "validate"},
  };

  int64_t fired = 0;
  for (int target = 0; target < 3; ++target) {
    for (const CrashSpec& spec : kSpecs) {
      FaultPlan plan;
      PaceOthers(plan, target, 3);
      plan.Crash(target, spec.site, spec.at_index);
      RefineOptions options = SweepOptions(&plan);
      options.constrain = ConstrainMode::kRank;
      const auto run = ExecuteQuery(query, options);
      ASSERT_TRUE(run.ok()) << spec.tag << " instance=" << target;
      EXPECT_TRUE(run.value().stats.completed)
          << spec.tag << " instance=" << target;
      EXPECT_EQ(Fingerprint(run.value().results), want)
          << spec.tag << " instance=" << target;
      fired += run.value().stats.instances_lost;
    }
  }
  EXPECT_GE(fired, 3);
}

// Seeded pseudo-random plans: a quick stress sweep over plans nobody
// hand-tuned. Invariance must hold whatever combination of instances,
// sites and indices the seed produces.
TEST_F(FaultInjectionTest, RandomCrashPlansKeepResults) {
  const searchlight::QuerySpec query = RelaxQuery();
  const auto reference = ExecuteQuery(query, SweepOptions(nullptr));
  ASSERT_TRUE(reference.ok());
  const std::string want = Fingerprint(reference.value().results);

  for (const uint64_t seed : {5u, 11u, 42u}) {
    const FaultPlan plan = MakeRandomCrashPlan(seed, 3, 2, 30);
    const auto run = ExecuteQuery(query, SweepOptions(&plan));
    ASSERT_TRUE(run.ok()) << "seed=" << seed;
    EXPECT_TRUE(run.value().stats.completed) << "seed=" << seed;
    EXPECT_EQ(Fingerprint(run.value().results), want) << "seed=" << seed;
  }
}

// Losing two of three instances still yields the full, identical result
// set — the lone survivor inherits every requeued shard, reclaimed replay
// and orphaned candidate.
TEST_F(FaultInjectionTest, TwoOfThreeCrashedStillCompletes) {
  const searchlight::QuerySpec query = RelaxQuery();
  const auto reference = ExecuteQuery(query, SweepOptions(nullptr));
  ASSERT_TRUE(reference.ok());

  FaultPlan plan;
  plan.Crash(0, FaultSite::kShardPickup, 0)
      .Crash(1, FaultSite::kShardPickup, 1);
  const auto run = ExecuteQuery(query, SweepOptions(&plan));
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run.value().stats.completed);
  EXPECT_EQ(Fingerprint(run.value().results),
            Fingerprint(reference.value().results));
}

// Losing the whole cluster cannot be recovered from: the query must
// cancel (completed = false) instead of hanging in a barrier, and every
// loss must be counted.
TEST_F(FaultInjectionTest, AllInstancesCrashedCancelsCleanly) {
  const searchlight::QuerySpec query = RelaxQuery();
  FaultPlan plan;
  plan.Crash(0, FaultSite::kShardPickup, 0)
      .Crash(1, FaultSite::kShardPickup, 0)
      .Crash(2, FaultSite::kShardPickup, 0);
  const auto run = ExecuteQuery(query, SweepOptions(&plan));
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run.value().stats.completed);
  EXPECT_EQ(run.value().stats.instances_lost, 3);
}

// A fault plan referencing nonsense must be rejected up front.
TEST_F(FaultInjectionTest, RejectsMalformedPlans) {
  const searchlight::QuerySpec query = RelaxQuery();
  {
    FaultPlan plan;
    plan.Crash(-1, FaultSite::kShardPickup, 0);
    EXPECT_FALSE(ExecuteQuery(query, SweepOptions(&plan)).ok());
  }
  {
    FaultPlan plan;
    plan.Crash(0, FaultSite::kShardPickup, -2);
    EXPECT_FALSE(ExecuteQuery(query, SweepOptions(&plan)).ok());
  }
  {
    FaultPlan plan;
    plan.Stall(0, FaultSite::kShardPickup, 0, -5);
    EXPECT_FALSE(ExecuteQuery(query, SweepOptions(&plan)).ok());
  }
  {
    RefineOptions options = SweepOptions(nullptr);
    options.enable_failure_detector = true;
    options.lease_timeout_us = options.heartbeat_interval_us;  // too tight
    EXPECT_FALSE(ExecuteQuery(query, options).ok());
  }
}

}  // namespace
}  // namespace dqr::core
