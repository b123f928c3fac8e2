#include "core/tracker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

namespace dqr::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Solution Sol(int64_t x, double rp, double rk = 0.0,
             std::vector<double> values = {}) {
  Solution s;
  s.point = {x};
  s.values = values.empty() ? std::vector<double>{static_cast<double>(x)}
                            : std::move(values);
  s.rp = rp;
  s.rk = rk;
  return s;
}

RankModel SimpleRank() {
  return RankModel({{Interval(0, 10), Interval(0, 10), -1.0, true, true}});
}

TEST(ResultTrackerTest, MrpDropsOnceKTracked) {
  const RankModel rank = SimpleRank();
  ResultTracker tracker(2, ConstrainMode::kNone, &rank);
  EXPECT_DOUBLE_EQ(tracker.Mrp(), 1.0);
  EXPECT_EQ(tracker.Add(Sol(1, 0.5)), AddOutcome::kAcceptedRelaxed);
  EXPECT_DOUBLE_EQ(tracker.Mrp(), 1.0);  // still fewer than k
  EXPECT_EQ(tracker.Add(Sol(2, 0.3)), AddOutcome::kAcceptedRelaxed);
  EXPECT_DOUBLE_EQ(tracker.Mrp(), 0.5);
  // Better result displaces the worst; MRP shrinks monotonically.
  EXPECT_EQ(tracker.Add(Sol(3, 0.2)), AddOutcome::kAcceptedRelaxed);
  EXPECT_DOUBLE_EQ(tracker.Mrp(), 0.3);
  EXPECT_EQ(tracker.Add(Sol(4, 0.9)), AddOutcome::kRejected);
  EXPECT_GT(tracker.mrp_updates(), 0);
}

TEST(ResultTrackerTest, EqualRpTieBreaksLexicographically) {
  const RankModel rank = SimpleRank();
  ResultTracker tracker(1, ConstrainMode::kNone, &rank);
  EXPECT_EQ(tracker.Add(Sol(5, 0.4)), AddOutcome::kAcceptedRelaxed);
  // Same penalty but smaller point: wins the tie.
  EXPECT_EQ(tracker.Add(Sol(3, 0.4)), AddOutcome::kAcceptedRelaxed);
  // Same penalty, larger point: rejected.
  EXPECT_EQ(tracker.Add(Sol(9, 0.4)), AddOutcome::kRejected);
  const auto results = tracker.FinalResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].point[0], 3);
}

TEST(ResultTrackerTest, DuplicatesDetected) {
  const RankModel rank = SimpleRank();
  ResultTracker tracker(3, ConstrainMode::kNone, &rank);
  EXPECT_EQ(tracker.Add(Sol(1, 0.5)), AddOutcome::kAcceptedRelaxed);
  EXPECT_EQ(tracker.Add(Sol(1, 0.5)), AddOutcome::kDuplicate);
}

TEST(ResultTrackerTest, RelaxedFinalResultsAreBestKByPenalty) {
  const RankModel rank = SimpleRank();
  ResultTracker tracker(2, ConstrainMode::kNone, &rank);
  tracker.Add(Sol(1, 0.8));
  tracker.Add(Sol(2, 0.0));  // exact
  tracker.Add(Sol(3, 0.4));
  tracker.Add(Sol(4, 0.6));
  const auto results = tracker.FinalResults();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].point[0], 2);  // exact first
  EXPECT_EQ(results[1].point[0], 3);
  EXPECT_EQ(tracker.exact_count(), 1);
}

TEST(ResultTrackerTest, ModeNoneKeepsAllExactWhenEnough) {
  const RankModel rank = SimpleRank();
  ResultTracker tracker(2, ConstrainMode::kNone, &rank);
  for (int64_t x = 0; x < 5; ++x) tracker.Add(Sol(x, 0.0));
  EXPECT_EQ(tracker.phase(), QueryPhase::kCollecting);
  EXPECT_EQ(tracker.FinalResults().size(), 5u);  // all exact, point order
  EXPECT_EQ(tracker.exact_count(), 5);
}

TEST(ResultTrackerTest, KZeroKeepsEverythingExactOnly) {
  const RankModel rank = SimpleRank();
  ResultTracker tracker(0, ConstrainMode::kNone, &rank);
  EXPECT_EQ(tracker.Add(Sol(1, 0.0)), AddOutcome::kAcceptedExact);
  EXPECT_EQ(tracker.Add(Sol(2, 0.3)), AddOutcome::kRejected);
  EXPECT_EQ(tracker.FinalResults().size(), 1u);
  EXPECT_DOUBLE_EQ(tracker.Mrp(), 1.0);
}

TEST(ResultTrackerTest, RankConstrainingFlipsPhaseAndRanks) {
  const RankModel rank = SimpleRank();
  ResultTracker tracker(2, ConstrainMode::kRank, &rank);
  EXPECT_EQ(tracker.phase(), QueryPhase::kCollecting);
  EXPECT_TRUE(std::isinf(tracker.Mrk()));

  tracker.Add(Sol(1, 0.0, /*rk=*/0.2));
  EXPECT_EQ(tracker.phase(), QueryPhase::kCollecting);
  tracker.Add(Sol(2, 0.0, /*rk=*/0.5));
  EXPECT_EQ(tracker.phase(), QueryPhase::kConstraining);
  EXPECT_DOUBLE_EQ(tracker.Mrk(), 0.2);

  // Better-ranked result enters; worst evicted; MRK rises.
  EXPECT_EQ(tracker.Add(Sol(3, 0.0, /*rk=*/0.7)),
            AddOutcome::kAcceptedExact);
  EXPECT_DOUBLE_EQ(tracker.Mrk(), 0.5);
  EXPECT_EQ(tracker.Add(Sol(4, 0.0, /*rk=*/0.1)), AddOutcome::kRejected);

  // Relaxed solutions are ignored once constraining is active.
  EXPECT_EQ(tracker.Add(Sol(5, 0.4)), AddOutcome::kRejected);

  const auto results = tracker.FinalResults();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].point[0], 3);  // rk 0.7 first
  EXPECT_EQ(results[1].point[0], 2);
  EXPECT_GT(tracker.mrk_updates(), 0);
}

TEST(ResultTrackerTest, RankTieBreaksLexicographically) {
  const RankModel rank = SimpleRank();
  ResultTracker tracker(1, ConstrainMode::kRank, &rank);
  tracker.Add(Sol(5, 0.0, 0.5));
  EXPECT_EQ(tracker.Add(Sol(3, 0.0, 0.5)), AddOutcome::kAcceptedExact);
  EXPECT_EQ(tracker.Add(Sol(9, 0.0, 0.5)), AddOutcome::kRejected);
  EXPECT_EQ(tracker.FinalResults()[0].point[0], 3);
}

TEST(ResultTrackerTest, SkylineConstrainingKeepsPareto) {
  const RankModel rank = RankModel(
      {{Interval(0, 10), Interval(0, 10), -1.0, true, true},
       {Interval(0, 10), Interval(0, 10), -1.0, true, true}});
  ResultTracker tracker(1, ConstrainMode::kSkyline, &rank);

  tracker.Add(Sol(1, 0.0, 0.0, {2, 2}));
  EXPECT_EQ(tracker.phase(), QueryPhase::kConstraining);
  tracker.Add(Sol(2, 0.0, 0.0, {5, 1}));  // incomparable: kept
  tracker.Add(Sol(3, 0.0, 0.0, {1, 1}));  // dominated: dropped
  EXPECT_EQ(tracker.Add(Sol(4, 0.0, 0.0, {4, 4})),
            AddOutcome::kAcceptedExact);  // dominates (2,2)

  const auto results = tracker.FinalResults();
  EXPECT_EQ(results.size(), 2u);  // (5,1) and (4,4); skyline may exceed k

  EXPECT_TRUE(tracker.SkylineDominatesBox({3, 3}));
  EXPECT_FALSE(tracker.SkylineDominatesBox({5, 5}));
}

TEST(ResultTrackerTest, MrpMonotoneUnderRandomInserts) {
  const RankModel rank = SimpleRank();
  ResultTracker tracker(5, ConstrainMode::kNone, &rank);
  double last = tracker.Mrp();
  for (int i = 0; i < 200; ++i) {
    tracker.Add(Sol(i, static_cast<double>((i * 37) % 100) / 100.0));
    const double now = tracker.Mrp();
    EXPECT_LE(now, last);
    last = now;
  }
}

TEST(ResultTrackerTest, ConcurrentPhaseReadsRaceTheFlip) {
  // Readers poll the lock-free phase while a writer adds the k-th exact
  // result. Once a reader sees the flip it never sees it undone, and the
  // constraining state the flip seeds is already visible to it.
  constexpr int kRounds = 50;
  constexpr int kReaders = 3;
  const RankModel rank = SimpleRank();
  for (int round = 0; round < kRounds; ++round) {
    ResultTracker tracker(2, ConstrainMode::kRank, &rank);
    std::atomic<bool> writer_done{false};
    std::atomic<int> violations{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        bool seen = false;
        while (true) {
          const bool done = writer_done.load(std::memory_order_acquire);
          const QueryPhase phase = tracker.phase();
          if (phase == QueryPhase::kConstraining) {
            seen = true;
            if (tracker.exact_count() < 2 || std::isinf(tracker.Mrk())) {
              violations.fetch_add(1);
            }
          } else if (seen || done) {
            // Undone flip, or the writer finished and it stayed hidden.
            violations.fetch_add(1);
          }
          if (done) return;
        }
      });
    }
    tracker.Add(Sol(1, 0.0, /*rk=*/0.2));
    tracker.Add(Sol(2, 0.0, /*rk=*/0.5));
    writer_done.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    EXPECT_EQ(violations.load(), 0) << "round " << round;
    EXPECT_EQ(tracker.phase(), QueryPhase::kConstraining);
  }
}

}  // namespace
}  // namespace dqr::core
