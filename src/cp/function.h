#ifndef DQR_CP_FUNCTION_H_
#define DQR_CP_FUNCTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/interval.h"
#include "cp/domain.h"

namespace dqr::cp {

// Opaque, serializable computation state of a constraint function's memo —
// the vehicle for the paper's "saving function states at fails"
// optimization (§4.2): e.g. the memoized window bounds, with their support
// coordinates, that the failed node's check derived. Saved when a fail is
// recorded, restored before the fail is replayed, so the replayed search
// avoids recomputing estimates. Functions that share one memo (see
// ConstraintFunction::ShareMemoWith) share one snapshot.
class FunctionState {
 public:
  virtual ~FunctionState() = default;

  // Deep copy, so a recorded fail owns its snapshot independently of the
  // live function.
  virtual std::unique_ptr<FunctionState> Clone() const = 0;

  // Approximate footprint, reported in engine stats (the paper quotes
  // ~80 bytes per saved aggregate state).
  virtual int64_t SizeBytes() const = 0;
};

// Counters for a constraint function's internal memo cache (e.g. the
// searchlight BoundsCache); functions sharing one memo share its
// counters. Folded into RunStats per solver/validator thread, once per
// memo, so runs expose estimator-cache behaviour — in particular how
// often eviction had to make room during a snapshot Restore, the case the
// paper's §4.2 state-saving depends on never silently dropping.
struct FunctionMemoStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  // Cold entries evicted to make room for restored snapshot entries.
  int64_t restore_evictions = 0;
  // Cross-query shared memo (L2 behind the local cache): local misses that
  // the process-wide SharedBoundsMemo served / failed to serve, and
  // entries it evicted on this thread's publishes.
  int64_t shared_hits = 0;
  int64_t shared_misses = 0;
  int64_t shared_evictions = 0;

  FunctionMemoStats& operator+=(const FunctionMemoStats& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    restore_evictions += other.restore_evictions;
    shared_hits += other.shared_hits;
    shared_misses += other.shared_misses;
    shared_evictions += other.shared_evictions;
    return *this;
  }
};

// A constraint's black-box expression f_c(X): estimable over a whole
// sub-tree (via the synopsis) and exactly evaluable at a bound assignment
// (via the base array). Implementations live in src/searchlight; the CP
// layer only needs this contract.
//
// Concurrency: one instance is owned by one solver or validator thread;
// instances are never shared across threads, and functions that share a
// memo belong to one thread's bundle. Clone() produces an independent
// copy, with a memo of its own, for another thread.
class ConstraintFunction {
 public:
  virtual ~ConstraintFunction() = default;

  virtual std::string name() const = 0;

  // Sound bounds on f over *every* assignment in `box`: the returned
  // interval must contain f(x) for all x in the box. This is the [a', b']
  // of §3/§4.1. May use internal memoization (hence non-const).
  virtual Interval Estimate(const DomainBox& box) = 0;

  // Exact value at a fully bound assignment, computed over the base data.
  // Used by the Validator; counts as (simulated) I/O.
  virtual double Evaluate(const std::vector<int64_t>& point) = 0;

  // Exact values at a batch of fully bound assignments:
  // out[i] = Evaluate(*points[i]), out must hold points.size() doubles.
  // The default loops Evaluate; implementations may override with a
  // vectorized kernel, but the values (and the simulated I/O charged per
  // point) must be identical to the one-at-a-time path — batching is an
  // optimization, never a semantic change.
  virtual void EvaluateBatch(
      const std::vector<const std::vector<int64_t>*>& points, double* out) {
    for (size_t i = 0; i < points.size(); ++i) out[i] = Evaluate(*points[i]);
  }

  // Static range of possible f values, derived from domain knowledge
  // (e.g. signal amplitudes lie in [50, 250]). Normalizes relaxation
  // distances and ranks, and acts as the hard relaxation limit (§3.1).
  virtual Interval value_range() const = 0;

  // Which synopsis resolution level Estimate would consult for the
  // degenerate box at `point` (the region a validated candidate came
  // from). Drives the profiler's per-level estimator-accuracy ledger;
  // -1 (the default) means "no level attribution" and folds into the
  // ledger's first slot. Must be side-effect free.
  virtual int EstimateLevel(const std::vector<int64_t>& point) const {
    (void)point;
    return -1;
  }

  // Independent copy for another thread (shares only immutable inputs
  // such as the array and synopsis).
  virtual std::unique_ptr<ConstraintFunction> Clone() const = 0;

  // --- Optional UDF-state hooks (§4.2 "Saving function states") -------
  //
  // The state these hooks act on is the function's memo. Functions that
  // share a memo share its state, so the hooks below act on the memo as a
  // whole: call them on one of its functions only (ConstraintBundle calls
  // them on each memo's first function).

  // Makes this function read and write `other`'s memo from now on, when
  // both would derive identical memo entries (e.g. bounds over the same
  // synopsis under the same miss cost), so a value either of them needs
  // is derived once. Returns whether it did; the default keeps no memo
  // and declines. Called on a fresh function, before its first estimate.
  virtual bool ShareMemoWith(ConstraintFunction& other) {
    (void)other;
    return false;
  }

  // Snapshot of the reusable computation state relevant to `box` (e.g.
  // the memoized window bounds, with support coordinates, that the check
  // of `box` derived); nullptr if the function keeps none (the default).
  // Saved when a fail at `box` is recorded.
  virtual std::unique_ptr<FunctionState> SaveState(
      const DomainBox& box) const {
    (void)box;
    return nullptr;
  }

  // Merges a previously saved snapshot back into the live memo; called
  // just before the corresponding fail is replayed.
  virtual void RestoreState(const FunctionState& state) { (void)state; }

  // Drops any per-search computation state. The engine calls this between
  // searches (main search, each replay), mirroring the solver-state reset
  // of the modelled system; RestoreState then selectively re-seeds it.
  virtual void ClearState() {}

  // Cumulative counters of the function's memo since construction;
  // zeroes for functions without one (the default).
  virtual FunctionMemoStats memo_stats() const { return {}; }
};

}  // namespace dqr::cp

#endif  // DQR_CP_FUNCTION_H_
