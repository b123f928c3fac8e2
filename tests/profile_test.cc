// Profiler unit tests: assembly of the phase → site → instance tree from
// synthetic flight-recorder rings (deterministic EmitAt timestamps), the
// JSON codec round trip, the pretty/diff report shapes, and the
// end-to-end estimator-accuracy contract on real 1-D and grid queries.

#include <gtest/gtest.h>

#include <string>

#include "core/refiner.h"
#include "core/stats.h"
#include "obs/histogram.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "testing/generator.h"

namespace dqr::obs {
namespace {

using EK = EventKind;
using EN = EventName;

// One solver ring and one validator ring, with a phase flip mid-stream
// and deliberately unbalanced spans. Timestamps are synthetic, so every
// derived number is exact.
QueryProfile AssembleSynthetic(core::RunStats stats) {
  Trace trace;
  const int epoch = trace.BeginQuery();
  TraceRing* solver = trace.CreateRing(0, ThreadRole::kSolver, 64, epoch);
  TraceRing* validator =
      trace.CreateRing(1, ThreadRole::kValidator, 64, epoch);

  // collecting: one shard span, one counter sample, one validate span.
  solver->EmitAt(50, EK::kEnd, EN::kShardExecute, 0.0);  // no Begin: drop
  solver->EmitAt(100, EK::kBegin, EN::kShardExecute, 0.0);
  solver->EmitAt(150, EK::kCounter, EN::kMrp, 1.5);
  solver->EmitAt(400, EK::kEnd, EN::kShardExecute, 0.0);
  validator->EmitAt(200, EK::kBegin, EN::kValidate, 0.0);
  validator->EmitAt(300, EK::kEnd, EN::kValidate, 0.0);

  // Flip to constraining at t=1000; spans beginning after it belong to
  // the new phase even if the flip was seen on another ring.
  validator->EmitAt(1000, EK::kInstant, EN::kPhaseConstraining, 0.0);
  validator->EmitAt(1100, EK::kInstant, EN::kResultExact, 3.0);
  solver->EmitAt(1200, EK::kBegin, EN::kShardExecute, 0.0);
  solver->EmitAt(1500, EK::kEnd, EN::kShardExecute, 0.0);
  solver->EmitAt(2000, EK::kBegin, EN::kShardExecute, 0.0);  // never ends

  // A ring from a *different* query epoch must not leak into this one.
  TraceRing* stale =
      trace.CreateRing(0, ThreadRole::kSolver, 64, epoch + 1);
  stale->EmitAt(10, EK::kInstant, EN::kResultExact, 9.0);

  return AssembleProfile(trace, epoch, stats);
}

TEST(ProfileAssemblyTest, BuildsPhaseSiteInstanceTree) {
  core::RunStats stats;
  stats.total_s = 2e-6;  // 2000 ns wall
  const QueryProfile p = AssembleSynthetic(stats);

  EXPECT_EQ(p.root.name, "query");
  EXPECT_EQ(p.root.count, 1);
  EXPECT_EQ(p.root.total_ns, 2000);

  // Canonical phase order: collecting first, then the flip.
  ASSERT_EQ(p.root.children.size(), 2u);
  EXPECT_EQ(p.root.children[0].name, "collecting");
  EXPECT_EQ(p.root.children[1].name, "constraining");

  // collecting: mrp + shard_execute + validate, alphabetical.
  const ProfileNode& collecting = p.root.children[0];
  ASSERT_EQ(collecting.children.size(), 3u);
  EXPECT_EQ(collecting.children[0].name, "mrp");
  EXPECT_EQ(collecting.children[1].name, "shard_execute");
  EXPECT_EQ(collecting.children[2].name, "validate");

  const ProfileNode* shard = collecting.Find("shard_execute");
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->count, 1);      // the unbalanced pair was dropped
  EXPECT_EQ(shard->total_ns, 300);  // 400 - 100
  EXPECT_EQ(shard->max_ns, 300);
  ASSERT_EQ(shard->children.size(), 1u);
  EXPECT_EQ(shard->children[0].name, "i0/solver");

  const ProfileNode* validate = collecting.Find("validate");
  ASSERT_NE(validate, nullptr);
  EXPECT_EQ(validate->total_ns, 100);
  ASSERT_EQ(validate->children.size(), 1u);
  EXPECT_EQ(validate->children[0].name, "i1/validator");

  // The phase aggregates its sites.
  EXPECT_EQ(collecting.total_ns, 400);
  EXPECT_EQ(collecting.count, 3);  // 1 span + 1 counter + 1 span

  // constraining: the post-flip span and the result instant — and
  // nothing from the stale epoch's ring.
  const ProfileNode& constraining = p.root.children[1];
  const ProfileNode* late = constraining.Find("shard_execute");
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->count, 1);
  EXPECT_EQ(late->total_ns, 300);  // 1500 - 1200
  const ProfileNode* result = constraining.Find("result_exact");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->count, 1);

  EXPECT_GT(p.trace_emitted, 0);
  EXPECT_EQ(p.trace_dropped, 0);
}

core::RunStats PopulatedStats() {
  core::RunStats stats;
  stats.total_s = 0.25;
  stats.exact_results = 7;
  stats.completed = true;
  stats.query_latency.RecordSeconds(0.25);
  stats.bound_latency.Record(1500);
  stats.bound_latency.Record(90000);
  stats.steal_latency.Record(333);
  stats.admission_wait.RecordSeconds(0.001);
  stats.estimator_accuracy.Record(0, 1.0, 3.0, 2.0, 10.0, false);
  stats.estimator_accuracy.Record(2, 0.0, 8.0, 9.0, 10.0, true);
  return stats;
}

TEST(ProfileJsonTest, RoundTripsExactly) {
  const QueryProfile p = AssembleSynthetic(PopulatedStats());
  const std::string json = ProfileToJson(p);

  Result<QueryProfile> back = ProfileFromJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Deep equality via the canonical serialization.
  EXPECT_EQ(ProfileToJson(back.value()), json);

  const QueryProfile& q = back.value();
  EXPECT_EQ(q.root.name, "query");
  EXPECT_EQ(q.stats.exact_results, 7);
  EXPECT_EQ(q.stats.query_latency.count(), 1);
  EXPECT_EQ(q.stats.bound_latency.count(), 2);
  EXPECT_EQ(q.stats.bound_latency.max_ns(), 90000);
  EXPECT_EQ(q.stats.estimator_accuracy.total_samples(), 2);
  EXPECT_EQ(q.stats.estimator_accuracy.level(2).wasted, 1);
  EXPECT_EQ(q.trace_emitted, p.trace_emitted);
}

TEST(ProfileJsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ProfileFromJson("").ok());
  EXPECT_FALSE(ProfileFromJson("not json").ok());
  EXPECT_FALSE(ProfileFromJson("[1,2,3]").ok());
  // Wrong version.
  EXPECT_FALSE(ProfileFromJson("{\"version\":2,\"query\":{\"name\":\"q\"},"
                               "\"stats\":{}}")
                   .ok());
  // Missing pieces.
  EXPECT_FALSE(ProfileFromJson("{\"version\":1,\"stats\":{}}").ok());
  EXPECT_FALSE(
      ProfileFromJson("{\"version\":1,\"query\":{\"name\":\"q\"}}").ok());
  // Present-but-malformed stats field (histograms are strings).
  EXPECT_FALSE(ProfileFromJson("{\"version\":1,\"query\":{\"name\":\"q\"},"
                               "\"stats\":{\"query_latency\":5}}")
                   .ok());
  EXPECT_FALSE(ProfileFromJson("{\"version\":1,\"query\":{\"name\":\"q\"},"
                               "\"stats\":{\"query_latency\":\"junk\"}}")
                   .ok());
  // 2 MiB of '[' used to overflow the parser's stack; a PROFILE frame
  // body may carry up to 8 MiB.
  const Result<QueryProfile> deep =
      ProfileFromJson(std::string(2 << 20, '['));
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.status().message().find("nesting deeper than 512"),
            std::string::npos)
      << deep.status().ToString();

  // Missing stats fields keep defaults: forward compatibility.
  Result<QueryProfile> minimal = ProfileFromJson(
      "{\"version\":1,\"query\":{\"name\":\"query\"},\"stats\":{}}");
  ASSERT_TRUE(minimal.ok()) << minimal.status().ToString();
  EXPECT_TRUE(minimal.value().stats.query_latency.empty());
}

TEST(ProfileFormatTest, ReportCarriesEverySection) {
  const QueryProfile p = AssembleSynthetic(PopulatedStats());
  const std::string report = FormatProfile(p);
  EXPECT_NE(report.find("query count=1"), std::string::npos) << report;
  EXPECT_NE(report.find("collecting"), std::string::npos);
  EXPECT_NE(report.find("constraining"), std::string::npos);
  EXPECT_NE(report.find("i0/solver"), std::string::npos);
  EXPECT_NE(report.find("trace emitted="), std::string::npos);
  EXPECT_NE(report.find("latency\n"), std::string::npos);
  EXPECT_NE(report.find("query_latency"), std::string::npos);
  EXPECT_NE(report.find("estimator accuracy\n"), std::string::npos);
  EXPECT_NE(report.find("level 0"), std::string::npos);
  EXPECT_NE(report.find("contained=100.0%"), std::string::npos);
  EXPECT_NE(report.find("timings (s)\n"), std::string::npos);
  EXPECT_NE(report.find("counters\n"), std::string::npos);
}

TEST(ProfileDiffTest, ReportsDeltasAndNewNodes) {
  QueryProfile a;
  a.root.name = "query";
  a.root.count = 1;
  a.root.total_ns = 1000;
  ProfileNode& pa = a.root.Child("collecting");
  pa.count = 2;
  pa.total_ns = 1000;
  a.stats.exact_results = 10;
  a.stats.query_latency.Record(1000);

  QueryProfile b;
  b.root.name = "query";
  b.root.count = 1;
  b.root.total_ns = 1500;
  ProfileNode& pb = b.root.Child("collecting");
  pb.count = 2;
  pb.total_ns = 1200;
  ProfileNode& nb = b.root.Child("relaxing");  // B-only: reported as new
  nb.count = 1;
  nb.total_ns = 300;
  b.stats.exact_results = 10;
  b.stats.query_latency.Record(2000);

  const std::string diff = DiffProfiles(a, b);
  EXPECT_NE(diff.find("query: "), std::string::npos) << diff;
  EXPECT_NE(diff.find("(+50.0%)"), std::string::npos) << diff;   // root busy
  EXPECT_NE(diff.find("query/collecting: "), std::string::npos);
  EXPECT_NE(diff.find("(+20.0%)"), std::string::npos);
  EXPECT_NE(diff.find("query/relaxing: "), std::string::npos);
  EXPECT_NE(diff.find("(new)"), std::string::npos);
  EXPECT_NE(diff.find("query_latency p50:"), std::string::npos);
  // Identical counters print their values with a zero delta.
  EXPECT_NE(diff.find("exact_results: 10 -> 10 (+0.0%)"),
            std::string::npos);
}

// End-to-end estimator accuracy: a profiled run over each synopsis shape
// must leave a populated predicted-vs-actual ledger (the validator is
// the only recorder) and a coherent one: containment cannot exceed the
// sample count, and a sound estimator keeps it at 100%.
void CheckEstimatorAccuracy(bool grid) {
  const fuzz::Workload w =
      fuzz::MakeWorkload(7, fuzz::FuzzMode::kRelax, {}, grid);
  fuzz::EngineConfig config;
  config.num_instances = 2;
  config.shards_per_instance = 4;
  core::RefineOptions options = config.ToOptions(w, nullptr);
  Profile profile;
  options.profile = &profile;

  const auto run = core::ExecuteQuery(w.query, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run.value().stats.completed);

  const EstimatorAccuracy& acc = profile.query().stats.estimator_accuracy;
  ASSERT_GT(acc.total_samples(), 0)
      << (grid ? "grid" : "1-D") << " run recorded no estimator samples";
  int64_t contained = 0;
  for (int i = 0; i < EstimatorAccuracy::kMaxLevels; ++i) {
    const EstimatorAccuracy::Level& l = acc.level(i);
    ASSERT_LE(l.contained, l.samples) << "level " << i;
    ASSERT_LE(l.wasted, l.samples) << "level " << i;
    ASSERT_GE(l.width_sum, 0.0) << "level " << i;
    contained += l.contained;
  }
  // Soundness: the synopsis interval must always contain the exact value.
  EXPECT_EQ(contained, acc.total_samples());

  // The profiled run also fills the bound-latency histogram (validator
  // miss paths) and exactly one query-latency sample.
  EXPECT_EQ(profile.query().stats.query_latency.count(), 1);
  EXPECT_GT(profile.query().stats.bound_latency.count(), 0);
}

TEST(EstimatorAccuracyEndToEndTest, OneDimensionalSynopsis) {
  CheckEstimatorAccuracy(/*grid=*/false);
}

TEST(EstimatorAccuracyEndToEndTest, GridSynopsis) {
  CheckEstimatorAccuracy(/*grid=*/true);
}

}  // namespace
}  // namespace dqr::obs
