#ifndef DQR_EXEC_WORKER_POOL_H_
#define DQR_EXEC_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dqr::exec {

// `requested` when positive, else the integer in environment variable
// `env` when it lies in [1, max], else `fallback`.
int ResolveCount(int requested, const char* env, int max, int fallback);

// Pool occupancy / dispatch counters, all monotonic except the gauges.
// Exposed per query through the RunStats pool_* fields and process-wide
// through EngineSession::stats() (DESIGN.md §10).
struct PoolStats {
  int threads = 0;             // persistent workers alive
  int busy = 0;                // workers running a task right now (gauge)
  int64_t dispatched = 0;      // total tasks handed to the pool
  int64_t spawn_avoided = 0;   // tasks served by an already-warm worker
  int64_t overflow_spawns = 0; // tasks that needed a transient thread
  int64_t overflow_live = 0;   // transient threads not yet reaped (gauge)
};

// Completion handle for one dispatched task. Copyable (shared state);
// Wait() blocks until the task body returned. A default-constructed
// handle is empty and Wait() returns immediately.
class TaskHandle {
 public:
  TaskHandle() = default;

  void Wait() const;
  bool valid() const { return state_ != nullptr; }
  // True when the task ran on a warm persistent worker (no thread was
  // spawned for it); false for overflow threads.
  bool warm_start() const;

 private:
  friend class WorkerPool;

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool warm = false;
  };
  std::shared_ptr<State> state_;
};

// A process-lifetime pool of M persistent threads that engine loops
// (solver / validator / speculative, per instance) are dispatched onto,
// so a query spawns no threads of its own (DESIGN.md §10).
//
// Engine tasks are long-running and block on each other (barriers,
// candidate queues), so Dispatch never parks a task behind a busy
// worker: a task is either handed directly to an idle persistent worker
// or run on a transient overflow thread, spawned on the spot. Deadlock
// by queueing is impossible by construction; admission control
// (EngineSession) keeps overflow rare by bounding concurrent queries to
// the pool's task capacity.
class WorkerPool {
 public:
  // num_threads <= 0 resolves DQR_POOL_THREADS, falling back to
  // max(4, 2 * hardware_concurrency) — engine tasks spend most of their
  // life blocked on queues/barriers, so the pool oversubscribes cores by
  // design.
  explicit WorkerPool(int num_threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs `fn` concurrently: on an idle persistent worker when one is
  // free, else on a transient overflow thread. Never blocks behind other
  // tasks.
  TaskHandle Dispatch(std::function<void()> fn);

  int thread_count() const { return static_cast<int>(workers_.size()); }
  PoolStats stats() const;

  // The process-wide pool (created on first use, never destroyed, so
  // late overflow reaps can't race static teardown). Sized by
  // DQR_POOL_THREADS.
  static WorkerPool& Shared();

 private:
  struct Worker {
    std::thread thread;
    // Per-worker wakeup (still under the pool mu_): Dispatch signals
    // exactly the worker it handed the task to — notify_all on a shared
    // cv would wake every parked worker per dispatch, which on few cores
    // costs more than the spawn it avoids.
    std::condition_variable cv;
    std::function<void()> task;                  // guarded by pool mu_
    std::shared_ptr<TaskHandle::State> handle;   // guarded by pool mu_
  };

  void WorkerMain(Worker* self);

  mutable std::mutex mu_;
  std::condition_variable cv_;  // wakes idle workers + the destructor
  bool stop_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Worker*> idle_;  // stack of workers parked with no task
  // Detached overflow threads still running; the destructor waits for
  // zero so a transient thread can never outlive the pool it counts
  // against.
  int64_t overflow_live_ = 0;

  int busy_ = 0;
  int64_t dispatched_ = 0;
  int64_t spawn_avoided_ = 0;
  int64_t overflow_spawns_ = 0;
};

}  // namespace dqr::exec

#endif  // DQR_EXEC_WORKER_POOL_H_
