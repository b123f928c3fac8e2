// Unit coverage for the exec layer (DESIGN.md §10): WorkerPool dispatch
// and overflow accounting, TimerWheel periodic/one-shot/cancel
// semantics, and EngineSession admission bookkeeping — the pieces the
// concurrent determinism test composes end-to-end.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/timer_wheel.h"
#include "exec/worker_pool.h"

namespace dqr::exec {
namespace {

TEST(WorkerPoolTest, RunsTasksAndReportsWarmStarts) {
  WorkerPool pool(2);
  EXPECT_EQ(pool.thread_count(), 2);

  std::atomic<int> ran{0};
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(pool.Dispatch([&ran] { ++ran; }));
  }
  for (TaskHandle& handle : handles) handle.Wait();
  EXPECT_EQ(ran.load(), 8);

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.threads, 2);
  EXPECT_EQ(stats.dispatched, 8);
  EXPECT_EQ(stats.spawn_avoided + stats.overflow_spawns, 8);
  EXPECT_GT(stats.spawn_avoided, 0);
  EXPECT_EQ(stats.busy, 0);
}

TEST(WorkerPoolTest, OverflowBeyondPoolWidthStillRunsEverything) {
  WorkerPool pool(2);
  // Hold both persistent workers hostage so further dispatches must
  // overflow; engine tasks block like this all the time (barriers).
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<TaskHandle> hostages;
  for (int i = 0; i < 2; ++i) {
    hostages.push_back(pool.Dispatch([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }));
  }

  std::atomic<int> ran{0};
  std::vector<TaskHandle> overflow;
  for (int i = 0; i < 4; ++i) {
    overflow.push_back(pool.Dispatch([&ran] { ++ran; }));
  }
  for (TaskHandle& handle : overflow) handle.Wait();
  EXPECT_EQ(ran.load(), 4);
  for (const TaskHandle& handle : overflow) {
    EXPECT_FALSE(handle.warm_start());
  }
  EXPECT_GE(pool.stats().overflow_spawns, 4);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (TaskHandle& handle : hostages) handle.Wait();
}

TEST(WorkerPoolTest, EmptyHandleWaitReturnsImmediately) {
  TaskHandle handle;
  EXPECT_FALSE(handle.valid());
  handle.Wait();  // must not block or crash
}

TEST(TimerWheelTest, PeriodicFiresRepeatedlyUntilCancelled) {
  TimerWheel wheel;
  std::atomic<int> fired{0};
  const TimerWheel::TimerId id = wheel.AddPeriodic(2000, [&fired] { ++fired; });
  while (fired.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  wheel.Cancel(id);
  const int at_cancel = fired.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Cancel quiesces: at most the firing in flight at cancel time lands.
  EXPECT_LE(fired.load(), at_cancel + 1);
  EXPECT_EQ(wheel.active(), 0);
}

TEST(TimerWheelTest, OnceFiresExactlyOnce) {
  TimerWheel wheel;
  std::atomic<int> fired{0};
  wheel.AddOnce(1000, [&fired] { ++fired; });
  while (fired.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(wheel.active(), 0);
}

TEST(TimerWheelTest, CancelFromInsideCallbackDoesNotDeadlock) {
  TimerWheel wheel;
  std::atomic<int> fired{0};
  std::atomic<TimerWheel::TimerId> self{0};
  std::mutex mu;
  std::condition_variable cv;
  const TimerWheel::TimerId id = wheel.AddPeriodic(1000, [&] {
    if (++fired == 2) {
      wheel.Cancel(self.load());  // self-cancel must not self-wait
      cv.notify_all();
    }
  });
  self.store(id);
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return fired.load() >= 2; });
  while (wheel.active() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fired.load(), 2);
}

TEST(TimerWheelTest, CancelUnknownIdIsANoOp) {
  TimerWheel wheel;
  wheel.Cancel(0);
  wheel.Cancel(12345);
  EXPECT_EQ(wheel.active(), 0);
}

}  // namespace
}  // namespace dqr::exec
