// Property tests for the cross-query semantic cache (DESIGN.md
// "Cross-query semantic cache"): warm-start solutions must be exact
// solutions of the query (seeding them never changes the answer),
// subsumption must never synthesize a wrong answer (whenever it fires,
// its output is byte-identical to a cold run), and the session codec
// round-trips.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/bounds_memo.h"
#include "cache/semantic_cache.h"
#include "core/bundle.h"
#include "core/canonical.h"
#include "core/refiner.h"
#include "testing/generator.h"

namespace dqr::fuzz {
namespace {

// Cold-runs a workload under the sequential baseline config.
Result<core::RunResult> ColdRun(const Workload& w) {
  EngineConfig config;
  return core::ExecuteQuery(w.query, config.ToOptions(w, nullptr));
}

// Packages a completed cold run as the CachedAnswer the cache would have
// stored for it.
cache::CachedAnswer MakeAnswer(const Workload& w, const std::string& dataset,
                               const core::RunResult& run) {
  cache::CachedAnswer answer;
  answer.dataset_id = dataset;
  answer.query = w.query;
  answer.function_ids = w.function_ids;
  answer.alpha = w.alpha;
  answer.constrain = w.constrain;
  answer.result_spacing = w.result_spacing;
  answer.results = run.results;
  answer.exact_results = run.stats.exact_results;
  return answer;
}

cache::CachedQuery AsCachedQuery(const Workload& w,
                                 const std::string& dataset) {
  cache::CachedQuery cq;
  cq.query = w.query;
  cq.dataset_id = dataset;
  cq.function_ids = w.function_ids;
  return cq;
}

TEST(SessionCodecTest, PlanRoundTripsAndRejectsGarbage) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const SessionPlan plan =
        MakeSessionPlan(seed, static_cast<int>(1 + seed % 5));
    const auto back = SessionPlan::FromString(plan.ToString());
    ASSERT_TRUE(back.ok()) << plan.ToString();
    EXPECT_EQ(back.value().ToString(), plan.ToString());
  }
  const auto empty = SessionPlan::FromString("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().steps.empty());
  EXPECT_FALSE(SessionPlan::FromString("relax,,shift").ok());
  EXPECT_FALSE(SessionPlan::FromString("relax,sideways").ok());
  for (const SessionMutation m :
       {SessionMutation::kRepeat, SessionMutation::kRelax,
        SessionMutation::kTighten, SessionMutation::kShift}) {
    const auto back = SessionMutationFromName(SessionMutationName(m));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), m);
  }
}

TEST(SessionCodecTest, PlansArePrefixStable) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const SessionPlan longer = MakeSessionPlan(seed, 6);
    const SessionPlan shorter = MakeSessionPlan(seed, 3);
    ASSERT_EQ(longer.steps.size(), 6u);
    for (size_t i = 0; i < shorter.steps.size(); ++i) {
      EXPECT_EQ(longer.steps[i], shorter.steps[i]) << "seed " << seed;
    }
  }
}

TEST(SessionGeneratorTest, SessionsAreDeterministicAndShareFunctions) {
  const SessionPlan plan = MakeSessionPlan(7, 4);
  const QuerySession a = MakeSession(7, FuzzMode::kRelax, plan);
  const QuerySession b = MakeSession(7, FuzzMode::kRelax, plan);
  ASSERT_EQ(a.steps.size(), 5u);
  EXPECT_EQ(a.dataset_id, b.dataset_id);
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].summary, b.steps[i].summary);
    // Mutations only move bounds/domains — function identity is fixed.
    EXPECT_EQ(a.steps[i].function_ids, a.steps.front().function_ids);
    ASSERT_EQ(a.steps[i].function_ids.size(),
              a.steps[i].query.constraints.size());
  }
}

TEST(SharedBoundsMemoTest, EpochInvalidationErasesTheSpace) {
  cache::SemanticCache sem;
  const std::string dataset = "epoch_test";
  const uint64_t space = sem.MemoSpace(dataset);
  // Insert reports evictions, not success; a fresh memo has room.
  ASSERT_FALSE(sem.memo().Insert(space, 0, 3, 9, Interval(1.0, 2.0)));
  Interval got;
  ASSERT_TRUE(sem.memo().Lookup(space, 0, 3, 9, &got));
  EXPECT_EQ(got.lo, 1.0);
  EXPECT_EQ(got.hi, 2.0);

  const uint64_t epoch_before = sem.CurrentEpoch(dataset);
  EXPECT_EQ(sem.InvalidateDataset(dataset), epoch_before + 1);
  // The new space key differs and the old entries are gone.
  EXPECT_NE(sem.MemoSpace(dataset), space);
  EXPECT_FALSE(sem.memo().Lookup(space, 0, 3, 9, &got));
  EXPECT_FALSE(sem.memo().Lookup(sem.MemoSpace(dataset), 0, 3, 9, &got));
}

// The headline warm-start property: the solutions WarmResults draws from
// a cached answer of the previous query really are solutions of the next
// one — inside its domains, carrying the exact function values at their
// points — and seeding them changes nothing: the seeded run returns
// byte-identical results to the cold run. Every (mode, mutation, shape)
// combination is drawn: relax/constrain/skyline, relax/tighten/shift,
// 1-D and grid.
TEST(WarmStartInvariantsTest, WarmResultsAreExactAndSeedingIsInvisible) {
  constexpr FuzzMode kModes[] = {FuzzMode::kRelax, FuzzMode::kConstrain,
                                 FuzzMode::kSkyline};
  constexpr SessionMutation kMutations[] = {SessionMutation::kRelax,
                                            SessionMutation::kTighten,
                                            SessionMutation::kShift};
  int seeded = 0;
  for (uint64_t seed = 0; seed < 18; ++seed) {
    WorkloadOverrides overrides;
    overrides.no_diversity = true;
    SessionPlan plan;
    plan.steps = {kMutations[(seed / 3) % 3]};
    const QuerySession session = MakeSession(
        seed + 1, kModes[seed % 3], plan, overrides, /*grid=*/seed >= 9);
    const Workload& earlier = session.steps[0];
    const Workload& next = session.steps[1];

    const auto earlier_run = ColdRun(earlier);
    ASSERT_TRUE(earlier_run.ok()) << earlier.summary;
    const auto answer = std::make_shared<const cache::CachedAnswer>(
        MakeAnswer(earlier, session.dataset_id, earlier_run.value()));

    EngineConfig config;
    core::RefineOptions seeded_options = config.ToOptions(next, nullptr);
    seeded_options.warm_results = cache::WarmResults(
        AsCachedQuery(next, session.dataset_id), seeded_options, {answer});

    core::ConstraintBundle functions(next.query);
    for (const core::Solution& s : seeded_options.warm_results) {
      ASSERT_EQ(s.point.size(), next.query.domains.size()) << next.summary;
      for (size_t i = 0; i < s.point.size(); ++i) {
        EXPECT_TRUE(next.query.domains[i].Contains(s.point[i]))
            << next.summary;
      }
      EXPECT_EQ(s.values, functions.EvaluateAll(s.point)) << next.summary;
    }
    if (!seeded_options.warm_results.empty()) ++seeded;

    const auto cold = ColdRun(next);
    ASSERT_TRUE(cold.ok()) << next.summary;
    const auto warm = core::ExecuteQuery(next.query, seeded_options);
    ASSERT_TRUE(warm.ok()) << next.summary;
    EXPECT_EQ(core::Canonicalize(warm.value().results),
              core::Canonicalize(cold.value().results))
        << next.summary;
  }
  // The property must not pass vacuously.
  EXPECT_GT(seeded, 0) << "no draw ever produced warm results";
}

// The headline subsumption property: whenever TrySubsume certifies an
// answer for the tighter query out of the looser cached one, that answer
// is byte-identical to actually executing the tighter query.
TEST(SubsumptionInvariantsTest, SubsumedAnswersAreNeverWrong) {
  int subsumed = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const FuzzMode mode =
        seed % 2 == 0 ? FuzzMode::kConstrain : FuzzMode::kRelax;
    WorkloadOverrides overrides;
    overrides.no_diversity = true;
    // Base plus one relaxation: the base is the tight query, the relaxed
    // step the loose cached one.
    SessionPlan plan;
    plan.steps = {SessionMutation::kRelax};
    const QuerySession session =
        MakeSession(seed, mode, plan, overrides, seed % 4 == 3);
    const Workload& tight = session.steps[0];
    const Workload& loose = session.steps[1];

    const auto loose_run = ColdRun(loose);
    ASSERT_TRUE(loose_run.ok()) << loose.summary;
    const cache::CachedAnswer answer =
        MakeAnswer(loose, session.dataset_id, loose_run.value());

    EngineConfig config;
    core::RefineOptions options = config.ToOptions(tight, nullptr);
    const auto synthesized = cache::TrySubsume(
        AsCachedQuery(tight, session.dataset_id), options, answer);
    if (!synthesized.has_value()) continue;
    ++subsumed;

    const auto cold = ColdRun(tight);
    ASSERT_TRUE(cold.ok()) << tight.summary;
    EXPECT_EQ(core::Canonicalize(*synthesized),
              core::Canonicalize(cold.value().results))
        << tight.summary << " | loose " << loose.summary;
  }
  EXPECT_GT(subsumed, 0) << "no seed ever subsumed";
}

// End-to-end cache behavior: a repeated query is an exact hit with a
// byte-identical answer; invalidation forces re-execution.
TEST(SemanticCacheTest, ExactHitsAndInvalidation) {
  cache::SemanticCache sem;
  const SessionPlan plan = MakeSessionPlan(3, 0);
  const QuerySession session = MakeSession(3, FuzzMode::kConstrain, plan, {},
                                           false, &sem.memo(),
                                           sem.MemoSpace("fuzz_3"));
  const Workload& w = session.steps[0];
  EngineConfig config;
  const cache::CachedQuery cq = AsCachedQuery(w, session.dataset_id);

  cache::CacheOutcome outcome = cache::CacheOutcome::kBypass;
  const auto first = cache::ExecuteQueryCached(
      &sem, cq, config.ToOptions(w, nullptr), &outcome);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(outcome, cache::CacheOutcome::kMiss);
  const std::string baseline = core::Canonicalize(first.value().results);

  const auto second = cache::ExecuteQueryCached(
      &sem, cq, config.ToOptions(w, nullptr), &outcome);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(outcome, cache::CacheOutcome::kExactHit);
  EXPECT_EQ(core::Canonicalize(second.value().results), baseline);
  EXPECT_EQ(second.value().stats.answer_cache_exact_hits, 1);
  EXPECT_TRUE(second.value().stats.completed);

  sem.InvalidateDataset(session.dataset_id);
  const auto third = cache::ExecuteQueryCached(
      &sem, cq, config.ToOptions(w, nullptr), &outcome);
  ASSERT_TRUE(third.ok());
  EXPECT_NE(outcome, cache::CacheOutcome::kExactHit);
  EXPECT_EQ(core::Canonicalize(third.value().results), baseline);

  const cache::SemanticCache::Stats stats = sem.stats();
  EXPECT_EQ(stats.exact_hits, 1);
  EXPECT_EQ(stats.invalidations, 1);
  EXPECT_GE(stats.insertions, 2);
}

// A mismatched function id must fence off every reuse path: same spec,
// different id => no exact hit, no subsumption, no warm start.
TEST(SemanticCacheTest, FunctionIdentityFencesReuse) {
  cache::SemanticCache sem;
  const QuerySession session =
      MakeSession(5, FuzzMode::kRelax, SessionPlan{}, {}, false, &sem.memo(),
                  sem.MemoSpace("fuzz_5"));
  const Workload& w = session.steps[0];
  EngineConfig config;

  cache::CacheOutcome outcome = cache::CacheOutcome::kBypass;
  const auto first = cache::ExecuteQueryCached(
      &sem, AsCachedQuery(w, session.dataset_id),
      config.ToOptions(w, nullptr), &outcome);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(outcome, cache::CacheOutcome::kMiss);

  cache::CachedQuery renamed = AsCachedQuery(w, session.dataset_id);
  renamed.function_ids[0] += ";vr=other";
  const auto second = cache::ExecuteQueryCached(
      &sem, renamed, config.ToOptions(w, nullptr), &outcome);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(outcome, cache::CacheOutcome::kMiss);
  EXPECT_EQ(core::Canonicalize(second.value().results),
            core::Canonicalize(first.value().results));
}

}  // namespace
}  // namespace dqr::fuzz
