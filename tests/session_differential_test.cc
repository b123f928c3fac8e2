// Session-differential harness (the headline test of the semantic-cache
// layer): every seeded session of correlated queries is replayed twice —
// per-query cold and against one warm SemanticCache — and both legs must
// match the brute-force oracle byte-for-byte at every step. The harness's
// own failure paths are exercised with injected bugs, and the shrinker
// must shorten failing sessions while keeping them failing.

#include <gtest/gtest.h>

#include <string>

#include "testing/harness.h"

namespace dqr::fuzz {
namespace {

CaseConfig SessionCase(uint64_t seed, size_t config_index) {
  CaseConfig c;
  c.seed = seed;
  c.mode = seed % 3 == 0   ? FuzzMode::kSkyline
           : seed % 3 == 1 ? FuzzMode::kRelax
                           : FuzzMode::kConstrain;
  c.grid = seed % 4 == 3;
  c.session = 2 + static_cast<int>(seed % 3);
  c.config = MakeConfigMatrix(seed, 3)[config_index];
  return c;
}

TEST(SessionDifferentialTest, WarmCacheMatchesColdAndOracleAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const CaseResult r = RunSessionCase(SessionCase(seed, 0));
    EXPECT_TRUE(r.ok) << r.detail << "\n" << r.error;
    // The trail proves the cache actually participated at every step.
    EXPECT_NE(r.detail.find("cache="), std::string::npos) << r.detail;
  }
}

TEST(SessionDifferentialTest, WarmCacheSurvivesWorkStealingConfigs) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const CaseResult r = RunSessionCase(SessionCase(seed, 1));
    EXPECT_TRUE(r.ok) << r.detail << "\n" << r.error;
  }
}

TEST(SessionDifferentialTest, RepeatStepsHitTheCacheExactly) {
  // A seed whose plan is forced to repeat by replaying the base query:
  // run a 3-step session and demand at least one non-miss outcome shows
  // up in the trail for some seed (repeat => exact, tighten => warm or
  // subsume). Checked across seeds so the expectation is not tied to one
  // plan draw.
  bool any_reuse = false;
  for (uint64_t seed = 1; seed <= 10 && !any_reuse; ++seed) {
    CaseConfig c = SessionCase(seed, 0);
    const CaseResult r = RunSessionCase(c);
    ASSERT_TRUE(r.ok) << r.detail << "\n" << r.error;
    any_reuse = r.detail.find("exact") != std::string::npos ||
                r.detail.find("subsume") != std::string::npos ||
                r.detail.find("warm") != std::string::npos;
  }
  EXPECT_TRUE(any_reuse) << "no session ever reused cache state";
}

TEST(SessionDifferentialTest, InjectedBugIsCaughtAndSessionShrinks) {
  CaseConfig c;
  bool found = false;
  // Find a session whose clean run passes and returns results, so a
  // dropped result must be detected.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    c = SessionCase(seed, 0);
    const CaseResult clean = RunSessionCase(c);
    ASSERT_TRUE(clean.ok) << clean.detail << "\n" << clean.error;
    const CaseResult buggy = RunSessionCase(c, InjectedBug::kDropLast);
    if (buggy.failed() && buggy.error.empty()) {
      // The failure names the warm leg and carries the cache trail.
      EXPECT_NE(buggy.detail.find("leg=warm"), std::string::npos)
          << buggy.detail;
      EXPECT_NE(buggy.detail.find("cache="), std::string::npos)
          << buggy.detail;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no seed produced a catchable dropped result";

  const CaseConfig shrunk = Shrink(c, InjectedBug::kDropLast);
  const CaseResult still_failing =
      RunSessionCase(shrunk, InjectedBug::kDropLast);
  EXPECT_TRUE(still_failing.failed());
  // The shrinker must reach the session floor and keep the case a session.
  EXPECT_EQ(shrunk.session, 1);
  EXPECT_EQ(shrunk.config.knobs.num_instances, 1);
  EXPECT_NE(ReproLine(shrunk).find("--session=1"), std::string::npos)
      << ReproLine(shrunk);
}

// Pinned reproducers of warm starts that once returned wrong answers,
// when the cache injected numeric bounds equal to the exact score of a
// cached point the engine had not validated: a rank floor that pruned the
// subtree of the oracle's k-th result by a few ulps, and a penalty cap
// that lost the k-th relaxation. Seeding the tracker with the cached
// solutions themselves must keep both sessions oracle-exact.
CaseConfig PinnedCase(uint64_t seed, FuzzMode mode, bool grid, int session) {
  CaseConfig c;
  c.seed = seed;
  c.mode = mode;
  c.grid = grid;
  c.session = session;
  c.config = EngineConfig::FromString("inst=1;shards=1").value();
  return c;
}

TEST(SessionDifferentialTest, WarmRankFloorKeepsTheKthResult) {
  const CaseConfig c = PinnedCase(6, FuzzMode::kConstrain, /*grid=*/true, 7);
  const CaseResult r = RunSessionCase(c);
  EXPECT_TRUE(r.ok) << ReproLine(c) << "\n" << r.detail << "\n" << r.error;
}

TEST(SessionDifferentialTest, WarmPenaltyCapKeepsTheKthRelaxation) {
  CaseConfig c = PinnedCase(705, FuzzMode::kSkyline, /*grid=*/false, 2);
  c.overrides.default_alpha = true;
  const CaseResult r = RunSessionCase(c);
  EXPECT_TRUE(r.ok) << ReproLine(c) << "\n" << r.detail << "\n" << r.error;
}

TEST(SessionDifferentialTest, CampaignRunsSessionsClean) {
  FuzzOptions options;
  options.start_seed = 1;
  options.num_seeds = 4;
  options.sessions = true;
  const FuzzReport report = RunFuzz(options);
  EXPECT_TRUE(report.clean())
      << report.mismatches << " mismatches, " << report.errors << " errors";
  // Two configs per seed in session mode.
  EXPECT_EQ(report.cases_run, 8);
}

TEST(SessionDifferentialTest, ReproLineCarriesTheSessionDimension) {
  CaseConfig c = SessionCase(6, 0);
  const std::string line = ReproLine(c);
  EXPECT_NE(line.find("--session=" + std::to_string(c.session)),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("--seed=6"), std::string::npos) << line;
}

}  // namespace
}  // namespace dqr::fuzz
