#include "core/coordinator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace dqr::core {
namespace {

RankModel SimpleRank() {
  return RankModel({{Interval(0, 10), Interval(0, 10), -1.0, true, true}});
}

TEST(DelayedBroadcastTest, ImmediateModePublishesInstantly) {
  DelayedBroadcast value(1.0, /*delay_us=*/0);
  EXPECT_DOUBLE_EQ(value.Read(), 1.0);
  value.Publish(0.5);
  EXPECT_DOUBLE_EQ(value.Read(), 0.5);
}

TEST(DelayedBroadcastTest, DelayedModeHidesFreshUpdates) {
  DelayedBroadcast value(1.0, /*delay_us=*/50000);  // 50 ms
  value.Publish(0.5);
  EXPECT_DOUBLE_EQ(value.Read(), 1.0);  // still in flight
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_DOUBLE_EQ(value.Read(), 0.5);  // delivered
}

TEST(DelayedBroadcastTest, UpdatesDeliverInOrder) {
  DelayedBroadcast value(1.0, /*delay_us=*/10000);
  value.Publish(0.7);
  value.Publish(0.4);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_DOUBLE_EQ(value.Read(), 0.4);  // latest wins after delay
}

// Pins the flip-visibility contract the lock-free restructure must keep:
// delayed-mode updates flip on the *first read at or after* the due time,
// even when nobody polled during the delay window and Publish has been
// idle since. A reader must never have to wait for a second Publish (or a
// second Read) to observe an elapsed update.
TEST(DelayedBroadcastTest, FirstReadAfterDelayObservesUpdate) {
  DelayedBroadcast value(1.0, /*delay_us=*/5000);  // 5 ms
  value.Publish(0.25);
  // No reads during the delay window; Publish stays idle.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_DOUBLE_EQ(value.Read(), 0.25);  // the very first read flips
  EXPECT_DOUBLE_EQ(value.Read(), 0.25);  // and it stays flipped
}

TEST(DelayedBroadcastTest, FastPathReadsDoNotFlipEarly) {
  DelayedBroadcast value(1.0, /*delay_us=*/200000);  // 200 ms
  value.Publish(0.5);
  // Hammer the fast path while the update is still in flight.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_DOUBLE_EQ(value.Read(), 1.0);
  }
}

TEST(DelayedBroadcastTest, ConcurrentReadersAgreeAfterDelay) {
  DelayedBroadcast value(1.0, /*delay_us=*/2000);
  value.Publish(0.3);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::vector<std::thread> readers;
  std::atomic<int> flipped{0};
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      if (value.Read() == 0.3) flipped.fetch_add(1);
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(flipped.load(), 4);
}

TEST(CoordinatorTest, ShardPoolDrainsInSeededOrder) {
  const RankModel rank = SimpleRank();
  Coordinator coordinator(2, 5, ConstrainMode::kNone, &rank, 0);
  coordinator.SeedShards({cp::IntDomain(0, 9), cp::IntDomain(10, 19),
                          cp::IntDomain(20, 29)});
  EXPECT_EQ(coordinator.shards_seeded(), 3);
  // Lowest-first regardless of which instance asks.
  auto a = coordinator.PopShard(0);
  auto b = coordinator.PopShard(1);
  auto c = coordinator.PopShard(0);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->lo, 0);
  EXPECT_EQ(b->lo, 10);
  EXPECT_EQ(c->lo, 20);
  EXPECT_FALSE(coordinator.PopShard(1).has_value());  // drained
}

TEST(CoordinatorTest, CancelledPoolStopsHandingOutShards) {
  const RankModel rank = SimpleRank();
  Coordinator coordinator(1, 5, ConstrainMode::kNone, &rank, 0);
  coordinator.SeedShards({cp::IntDomain(0, 9), cp::IntDomain(10, 19)});
  ASSERT_TRUE(coordinator.PopShard(0).has_value());
  coordinator.Cancel();
  EXPECT_FALSE(coordinator.PopShard(0).has_value());
  // Must not deadlock or assert with a shard still pooled.
  EXPECT_TRUE(coordinator.AwaitMainSearchDone(0));
}

TEST(CoordinatorTest, BarrierReleasesOnceWorkStealersDrainPool) {
  const RankModel rank = SimpleRank();
  Coordinator coordinator(3, 5, ConstrainMode::kNone, &rank, 0);
  coordinator.SeedShards({cp::IntDomain(0, 4), cp::IntDomain(5, 9),
                          cp::IntDomain(10, 14), cp::IntDomain(15, 19),
                          cp::IntDomain(20, 24)});
  std::atomic<int> popped{0};
  std::atomic<int> released{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      while (coordinator.PopShard(i).has_value()) popped.fetch_add(1);
      // Nothing is ever requeued here, so the barrier never bounces.
      EXPECT_TRUE(coordinator.AwaitMainSearchDone(i));
      released.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(popped.load(), 5);    // every shard executed exactly once
  EXPECT_EQ(released.load(), 3);  // barrier == pool drained + quiescent
}

TEST(CoordinatorTest, TracksFirstResultOnce) {
  const RankModel rank = SimpleRank();
  Coordinator coordinator(1, 5, ConstrainMode::kNone, &rank, 0);
  EXPECT_LT(coordinator.first_result_s(), 0.0);
  coordinator.NoteResult();
  const double first = coordinator.first_result_s();
  EXPECT_GE(first, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  coordinator.NoteResult();
  EXPECT_DOUBLE_EQ(coordinator.first_result_s(), first);  // idempotent
}

TEST(CoordinatorTest, PublishProgressMirrorsTracker) {
  const RankModel rank = SimpleRank();
  Coordinator coordinator(1, 1, ConstrainMode::kNone, &rank, 0);
  EXPECT_DOUBLE_EQ(coordinator.CurrentMrp(), 1.0);

  Solution s;
  s.point = {3};
  s.values = {3.0};
  s.rp = 0.4;
  coordinator.tracker().Add(std::move(s));
  coordinator.PublishProgress();
  EXPECT_DOUBLE_EQ(coordinator.CurrentMrp(), 0.4);
}

TEST(CoordinatorTest, BarrierReleasesWhenAllArrive) {
  const RankModel rank = SimpleRank();
  Coordinator coordinator(3, 5, ConstrainMode::kNone, &rank, 0);
  std::atomic<int> released{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      EXPECT_TRUE(coordinator.AwaitMainSearchDone(i));
      released.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(released.load(), 3);
}

TEST(CoordinatorTest, CancellationFlag) {
  const RankModel rank = SimpleRank();
  Coordinator coordinator(1, 5, ConstrainMode::kNone, &rank, 0);
  EXPECT_FALSE(coordinator.cancelled());
  coordinator.Cancel();
  EXPECT_TRUE(coordinator.cancelled());
  EXPECT_TRUE(coordinator.cancel_flag().load());
}

}  // namespace
}  // namespace dqr::core
