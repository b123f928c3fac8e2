#include "exec/worker_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace dqr::exec {

int ResolveCount(int requested, const char* env, int max, int fallback) {
  if (requested > 0) return requested;
  if (const char* value = std::getenv(env)) {
    char* end = nullptr;
    const long v = std::strtol(value, &end, 10);
    if (end != value && *end == '\0' && v > 0 && v <= max) {
      return static_cast<int>(v);
    }
  }
  return fallback;
}

void TaskHandle::Wait() const {
  if (!state_) return;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
}

bool TaskHandle::warm_start() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->warm;
}

WorkerPool::WorkerPool(int num_threads) {
  // Engine tasks block on barriers and candidate queues for most of
  // their life, so the default oversubscribes cores: enough workers that
  // a handful of concurrent queries land warm.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int n = ResolveCount(num_threads, "DQR_POOL_THREADS", 1024,
                             std::max(4, 2 * std::max(hw, 1)));
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto worker = std::make_unique<Worker>();
    Worker* raw = worker.get();
    workers_.push_back(std::move(worker));
    raw->thread = std::thread([this, raw] { WorkerMain(raw); });
  }
  // Wait for every worker to park before accepting dispatches: a fresh
  // thread takes a while to reach idle_, and dispatches arriving in that
  // window would all overflow even though the pool is nominally free.
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return idle_.size() == workers_.size(); });
}

WorkerPool::~WorkerPool() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_ = true;
  cv_.notify_all();
  for (auto& worker : workers_) worker->cv.notify_all();
  // Transient overflow threads are detached; they only touch this pool
  // to decrement overflow_live_, which strictly precedes their handle's
  // completion signal, so waiting for zero here makes destruction safe
  // even if some caller dropped a handle without Wait().
  cv_.wait(lock, [&] { return overflow_live_ == 0; });
  lock.unlock();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void WorkerPool::WorkerMain(Worker* self) {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.push_back(self);
  cv_.notify_all();  // the constructor waits for a fully parked pool
  for (;;) {
    self->cv.wait(lock, [&] { return stop_ || self->task != nullptr; });
    if (self->task) {
      std::function<void()> task = std::move(self->task);
      self->task = nullptr;
      std::shared_ptr<TaskHandle::State> handle = std::move(self->handle);
      lock.unlock();
      task();
      // Park before signalling completion: a caller that dispatches again
      // right after Wait() must find this worker idle (not overflow) and
      // must see busy_ already released.
      lock.lock();
      --busy_;
      idle_.push_back(self);
      lock.unlock();
      {
        std::lock_guard<std::mutex> signal(handle->mu);
        handle->done = true;
      }
      handle->cv.notify_all();
      lock.lock();
      continue;
    }
    if (stop_) break;
  }
}

TaskHandle WorkerPool::Dispatch(std::function<void()> fn) {
  TaskHandle handle;
  handle.state_ = std::make_shared<TaskHandle::State>();
  std::shared_ptr<TaskHandle::State> state = handle.state_;
  std::unique_lock<std::mutex> lock(mu_);
  ++dispatched_;
  if (!idle_.empty() && !stop_) {
    Worker* worker = idle_.back();
    idle_.pop_back();
    ++busy_;
    ++spawn_avoided_;
    state->warm = true;
    worker->handle = std::move(state);
    worker->task = std::move(fn);
    lock.unlock();
    worker->cv.notify_one();
    return handle;
  }
  // No idle worker: run on a transient thread rather than queueing.
  // Engine tasks block on each other (barriers, queues), so parking one
  // behind a busy worker could deadlock the query it belongs to.
  ++overflow_spawns_;
  ++overflow_live_;
  lock.unlock();
  std::thread([this, state, task = std::move(fn)] {
    task();
    {
      // Notify under the lock: once overflow_live_ hits zero and the
      // lock drops, the destructor may free the pool, so this thread
      // must not touch `this` after the critical section.
      std::lock_guard<std::mutex> pool_lock(mu_);
      --overflow_live_;
      cv_.notify_all();
    }
    {
      std::lock_guard<std::mutex> signal(state->mu);
      state->done = true;
    }
    state->cv.notify_all();
  }).detach();
  return handle;
}

PoolStats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PoolStats out;
  out.threads = static_cast<int>(workers_.size());
  out.busy = busy_;
  out.dispatched = dispatched_;
  out.spawn_avoided = spawn_avoided_;
  out.overflow_spawns = overflow_spawns_;
  out.overflow_live = overflow_live_;
  return out;
}

WorkerPool& WorkerPool::Shared() {
  // Leaked on purpose: overflow threads and late Wait() calls must never
  // race static destruction at process exit.
  static WorkerPool* pool = new WorkerPool();
  return *pool;
}

}  // namespace dqr::exec
