// Tests of the fuzz harness itself: the oracle against hand-checkable
// queries, generator determinism, config round-trips, and — the part that
// justifies trusting a clean campaign — proof that an injected engine bug
// is caught and shrunk to a small reproducer.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/canonical.h"
#include "core/refiner.h"
#include "testing/generator.h"
#include "testing/harness.h"
#include "testing/oracle.h"

namespace dqr::fuzz {
namespace {

TEST(OracleTest, AgreesWithEngineOnGeneratedWorkloads) {
  for (uint64_t seed = 100; seed < 106; ++seed) {
    const Workload w = MakeWorkload(seed, FuzzMode::kRelax);
    EngineConfig config;  // 1x1 baseline
    const core::RefineOptions options = config.ToOptions(w, nullptr);
    const auto oracle = OracleRun(w.query, options);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    const auto engine = core::ExecuteQuery(w.query, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(core::Canonicalize(oracle.value().results),
              core::Canonicalize(engine.value().results))
        << w.summary;
  }
}

TEST(OracleTest, CountsAreConsistent) {
  const Workload w = MakeWorkload(55, FuzzMode::kConstrain);
  EngineConfig config;
  const auto oracle = OracleRun(w.query, config.ToOptions(w, nullptr));
  ASSERT_TRUE(oracle.ok());
  const auto& r = oracle.value();
  EXPECT_GT(r.space_size, 0);
  EXPECT_LE(r.exact_count, r.finite_count);
  EXPECT_LE(r.finite_count, r.space_size);
  EXPECT_LE(static_cast<int64_t>(r.results.size()),
            std::max<int64_t>(w.query.k, r.exact_count));
}

TEST(OracleTest, RefusesOversizedSearchSpaces) {
  const Workload w = MakeWorkload(1, FuzzMode::kRelax);
  EngineConfig config;
  const auto result =
      OracleRun(w.query, config.ToOptions(w, nullptr), /*max_space=*/4);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("brute-force cap"),
            std::string::npos);
}

TEST(GeneratorTest, WorkloadsAreDeterministicInSeedAndOverrides) {
  const Workload a = MakeWorkload(77, FuzzMode::kSkyline);
  const Workload b = MakeWorkload(77, FuzzMode::kSkyline);
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_EQ(a.array->Dump(), b.array->Dump());
  EXPECT_EQ(a.query.k, b.query.k);
  EXPECT_EQ(a.query.domains, b.query.domains);
  ASSERT_EQ(a.query.constraints.size(), b.query.constraints.size());

  const Workload c = MakeWorkload(78, FuzzMode::kSkyline);
  EXPECT_NE(a.summary, c.summary);
}

TEST(GeneratorTest, OverridesShrinkTheWorkload) {
  const Workload full = MakeWorkload(9, FuzzMode::kRelax);
  WorkloadOverrides overrides;
  overrides.length_cap = 32;
  overrides.max_constraints = 1;
  overrides.k_cap = 1;
  overrides.x_width_cap = 4;
  const Workload small = MakeWorkload(9, FuzzMode::kRelax, overrides);
  EXPECT_LE(small.array->length(), std::max<int64_t>(32, full.array->length()));
  EXPECT_EQ(small.query.constraints.size(), 1u);
  EXPECT_EQ(small.query.k, 1);
  EXPECT_LE(small.query.domains[0].hi - small.query.domains[0].lo + 1, 4);
}

TEST(GeneratorTest, GridWorkloadsAreDeterministicAndShrink) {
  const Workload a = MakeWorkload(12, FuzzMode::kRelax, {}, /*grid=*/true);
  ASSERT_TRUE(a.grid_workload);
  ASSERT_NE(a.grid, nullptr);
  ASSERT_NE(a.grid_synopsis, nullptr);
  EXPECT_EQ(a.array, nullptr);
  ASSERT_EQ(a.query.domains.size(), 4u);

  const Workload b = MakeWorkload(12, FuzzMode::kRelax, {}, /*grid=*/true);
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_EQ(a.query.domains, b.query.domains);

  // The grid draw must come from a decorrelated stream: the 1-D workload
  // of the same seed is what it always was, grid flag or not.
  const Workload one_d = MakeWorkload(12, FuzzMode::kRelax);
  EXPECT_FALSE(one_d.grid_workload);
  ASSERT_NE(one_d.array, nullptr);
  EXPECT_EQ(one_d.query.domains.size(), 2u);

  WorkloadOverrides overrides;
  overrides.length_cap = 16;
  overrides.max_constraints = 1;
  overrides.k_cap = 1;
  overrides.x_width_cap = 4;
  const Workload small =
      MakeWorkload(12, FuzzMode::kRelax, overrides, /*grid=*/true);
  EXPECT_LE(small.grid->rows(), 16);
  EXPECT_LE(small.grid->cols(), 16);
  EXPECT_EQ(small.query.constraints.size(), 1u);
  EXPECT_EQ(small.query.k, 1);
  EXPECT_LE(small.query.domains[0].hi - small.query.domains[0].lo + 1, 4);
}

TEST(HarnessTest, GridCaseMatchesOracleUnderScalarAndSimd) {
  CaseResult runs[2];
  for (int simd = 0; simd < 2; ++simd) {
    CaseConfig c;
    c.seed = 21;
    c.mode = FuzzMode::kConstrain;
    c.grid = true;
    c.config.simd = simd == 1;
    runs[simd] = RunCase(c);
    EXPECT_TRUE(runs[simd].ok) << runs[simd].detail << "\n"
                               << runs[simd].error;
  }
  // Both agreed with the oracle; the kernels must also agree with each
  // other bit for bit.
  EXPECT_EQ(runs[0].actual, runs[1].actual);
}

TEST(GeneratorTest, ConfigStringRoundTrips) {
  for (const EngineConfig& config : MakeConfigMatrix(5, 8)) {
    const std::string text = config.ToString();
    const auto parsed = EngineConfig::FromString(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed.value().ToString(), text);
  }
  EXPECT_FALSE(EngineConfig::FromString("inst=0").ok());
  EXPECT_FALSE(EngineConfig::FromString("bogus=1").ok());
  EXPECT_FALSE(EngineConfig::FromString("rrd=2").ok());
  EXPECT_FALSE(EngineConfig::FromString("noequals").ok());
  EXPECT_FALSE(EngineConfig::FromString("inst=2x;spec=1").ok());
  EXPECT_FALSE(EngineConfig::FromString("det=maybe").ok());

  // A line written before vsel/split/bcast existed still parses, to the
  // defaults of the missing keys, and prints back unchanged.
  const std::string older =
      "inst=4;shards=4;eval=full;spec=1;state=1;rrd=0.734512;replay=fifo;"
      "vq=fifo;crashes=1;det=1;trace=0;simd=0;serve=0;profile=1";
  const auto parsed = EngineConfig::FromString(older);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ToString(), older);
  EXPECT_EQ(parsed.value().knobs.replay_relaxation_distance, 0.734512);
  EXPECT_EQ(parsed.value().knobs.var_select, cp::VarSelect::kWidestDomain);
  EXPECT_EQ(parsed.value().knobs.broadcast_delay_us, 0);

  const auto newer = EngineConfig::FromString(older + ";vsel=first;bcast=50");
  ASSERT_TRUE(newer.ok()) << newer.status().ToString();
  EXPECT_EQ(newer.value().ToString(), older + ";vsel=first;bcast=50");
}

TEST(GeneratorTest, ConfigMatrixCoversTheRequiredShapes) {
  const auto configs = MakeConfigMatrix(123, 4);
  ASSERT_GE(configs.size(), 3u);
  EXPECT_EQ(configs[0].knobs.num_instances, 1);
  EXPECT_EQ(configs[0].knobs.shards_per_instance, 1);
  EXPECT_GT(configs[1].knobs.num_instances, 1);  // work stealing
  EXPECT_GT(configs[2].fault_crashes, 0);        // fault injection
  EXPECT_TRUE(configs[2].knobs.enable_failure_detector);
  EXPECT_TRUE(configs[0].simd);                  // SIMD baseline...
  EXPECT_FALSE(configs[1].simd);                 // ...vs a scalar replica
}

// Search order and broadcast latency are fuzz dimensions of every config
// but the baseline, the crash-injection config included.
TEST(GeneratorTest, ConfigMatrixDrawsSearchOrderAndBroadcastDelay) {
  int var_select = 0, value_split = 0, delayed = 0, crash_varied = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const auto configs = MakeConfigMatrix(seed, 8);
    EXPECT_EQ(configs[0].ToString(), EngineConfig{}.ToString());
    for (size_t i = 1; i < configs.size(); ++i) {
      const core::RefineOptions& k = configs[i].knobs;
      const bool varied = k.var_select != cp::VarSelect::kWidestDomain ||
                          k.value_split != cp::ValueSplit::kBisectLowFirst ||
                          k.broadcast_delay_us != 0;
      var_select += k.var_select != cp::VarSelect::kWidestDomain;
      value_split += k.value_split != cp::ValueSplit::kBisectLowFirst;
      delayed += k.broadcast_delay_us != 0;
      if (i == 2 && varied) ++crash_varied;
    }
  }
  EXPECT_GT(var_select, 0);
  EXPECT_GT(value_split, 0);
  EXPECT_GT(delayed, 0);
  EXPECT_GT(crash_varied, 0);
}

TEST(HarnessTest, CleanEngineMatchesOracleUnderAllConfigs) {
  for (const EngineConfig& config : MakeConfigMatrix(31, 3)) {
    CaseConfig c;
    c.seed = 31;
    c.mode = FuzzMode::kConstrain;
    c.config = config;
    const CaseResult r = RunCase(c);
    EXPECT_TRUE(r.ok) << r.detail << "\n" << r.error;
  }
}

TEST(HarnessTest, InjectedBugIsCaughtAndShrunk) {
  // Find a seed whose baseline run returns a non-empty result set, plant
  // a lost-result bug, and demand that (a) the differential check fires
  // and (b) the shrunk reproducer is small.
  CaseConfig c;
  c.mode = FuzzMode::kRelax;
  c.config = MakeConfigMatrix(1, 3)[1];  // multi-instance
  CaseResult clean;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    c.seed = seed;
    clean = RunCase(c);
    if (clean.ok && !clean.actual.empty()) break;
  }
  ASSERT_TRUE(clean.ok) << clean.detail;
  ASSERT_FALSE(clean.actual.empty());

  const CaseResult buggy = RunCase(c, InjectedBug::kDropLast);
  ASSERT_FALSE(buggy.ok) << "dropped result not detected";

  const CaseConfig shrunk = Shrink(c, InjectedBug::kDropLast);
  const CaseResult still_failing = RunCase(shrunk, InjectedBug::kDropLast);
  EXPECT_FALSE(still_failing.ok) << "shrinking lost the failure";
  // Shrinking must reach the trivial cluster and a reduced workload.
  EXPECT_EQ(shrunk.config.knobs.num_instances, 1);
  EXPECT_EQ(shrunk.config.knobs.shards_per_instance, 1);
  EXPECT_NE(shrunk.overrides.length_cap, 0);

  const std::string line = ReproLine(shrunk);
  EXPECT_NE(line.find("dqr_fuzz --seed="), std::string::npos);
  EXPECT_LE(line.size(), 240u) << line;
}

TEST(HarnessTest, PerturbedScoreIsCaught) {
  CaseConfig c;
  c.seed = 3;
  c.mode = FuzzMode::kRelax;
  const CaseResult clean = RunCase(c);
  ASSERT_TRUE(clean.ok) << clean.detail;
  if (clean.actual.empty()) GTEST_SKIP() << "no results to perturb";
  EXPECT_FALSE(RunCase(c, InjectedBug::kPerturbRp).ok);
}

TEST(HarnessTest, ReproFileContainsTheReproducer) {
  CaseConfig c;
  c.seed = 4;
  c.mode = FuzzMode::kRelax;
  const CaseResult r = RunCase(c, InjectedBug::kDropLast);
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string dir = tmpdir != nullptr ? tmpdir : "/tmp";
  const auto path = WriteReproFile(dir, c, r);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  std::FILE* f = std::fopen(path.value().c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 14, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  std::remove(path.value().c_str());
  EXPECT_NE(content.find(ReproLine(c)), std::string::npos);
  EXPECT_NE(content.find("expected (oracle)"), std::string::npos);
}

TEST(HarnessTest, CampaignReportAggregates) {
  FuzzOptions options;
  options.start_seed = 50;
  options.num_seeds = 2;
  options.configs_per_seed = 3;
  const FuzzReport clean = RunFuzz(options);
  EXPECT_EQ(clean.seeds_run, 2);
  EXPECT_EQ(clean.cases_run, 6);
  EXPECT_TRUE(clean.clean());

  options.inject_bug = InjectedBug::kDropLast;
  options.num_seeds = 1;
  const FuzzReport buggy = RunFuzz(options);
  // The bug drops a result from every non-empty run; at least one case
  // must fail and carry a reproducer.
  EXPECT_FALSE(buggy.clean());
  EXPECT_FALSE(buggy.repro_lines.empty());
}

}  // namespace
}  // namespace dqr::fuzz
