#ifndef DQR_EXEC_TIMER_WHEEL_H_
#define DQR_EXEC_TIMER_WHEEL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace dqr::exec {

// One shared timer thread that hosts every query slot's periodic work:
// per-slot heartbeat beats, failure-detector lease sweeps, and time-budget
// watchdogs (DESIGN.md §10). With Q concurrent queries of I instances
// each, one thread serves what would otherwise be Q*(I+2) sleeper
// threads (a watchdog, a detector and I heartbeats per query).
//
// Callbacks run sequentially on the timer thread, so they must be short
// and non-blocking (a heartbeat is a couple of atomic stores; a detector
// sweep is one bounded pass under the coordinator lock). Cancel()
// guarantees the callback is not running and will never run again when it
// returns, which is what lets a query slot tear down state the callback
// reads.
class TimerWheel {
 public:
  using TimerId = int64_t;

  TimerWheel();
  ~TimerWheel();

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Fires `fn` every `period_us` microseconds, first firing one period
  // from now. Periods are measured firing-to-scheduled-firing; if the
  // wheel falls behind (long callback), missed firings are skipped, not
  // bursted.
  TimerId AddPeriodic(int64_t period_us, std::function<void()> fn);

  // Fires `fn` once, `delay_us` from now.
  TimerId AddOnce(int64_t delay_us, std::function<void()> fn);

  // Removes the timer. On return the callback is not executing and will
  // never execute again. Safe for unknown/already-fired ids; callable
  // from inside the timer's own callback (it then skips the quiescence
  // wait — the callback is trivially not running concurrently with
  // itself).
  void Cancel(TimerId id);

  // Active (scheduled, uncancelled) timer count.
  int64_t active() const;

  // The process-wide wheel, created on first use and intentionally never
  // destroyed (same lifetime policy as WorkerPool::Shared()).
  static TimerWheel& Shared();

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    int64_t period_us = 0;  // 0 = one-shot
    std::function<void()> fn;
  };
  struct Due {
    Clock::time_point deadline;
    TimerId id;
    bool operator>(const Due& other) const {
      return deadline > other.deadline ||
             (deadline == other.deadline && id > other.id);
    }
  };

  void TimerMain();
  TimerId AddLocked(int64_t delay_us, int64_t period_us,
                    std::function<void()> fn);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  TimerId next_id_ = 1;
  TimerId running_id_ = 0;  // callback currently executing, 0 = none
  std::map<TimerId, Entry> entries_;
  std::priority_queue<Due, std::vector<Due>, std::greater<Due>> heap_;
  std::thread thread_;
};

}  // namespace dqr::exec

#endif  // DQR_EXEC_TIMER_WHEEL_H_
