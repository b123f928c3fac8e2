#ifndef DQR_COMMON_STOPWATCH_H_
#define DQR_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace dqr {

// Monotonic wall-clock stopwatch used for engine statistics and benchmark
// tables. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Busy-waits for roughly `ns` nanoseconds. A sleep would be descheduled
// and under-account on loaded machines; benchmarks want a CPU-visible cost.
inline void BusyWait(int64_t ns) {
  if (ns <= 0) return;
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
             .count() < ns) {
  }
}

}  // namespace dqr

#endif  // DQR_COMMON_STOPWATCH_H_
