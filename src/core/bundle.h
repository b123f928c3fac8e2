#ifndef DQR_CORE_BUNDLE_H_
#define DQR_CORE_BUNDLE_H_

#include <memory>
#include <vector>

#include "cp/constraint.h"
#include "cp/domain.h"
#include "core/fail_registry.h"
#include "searchlight/query.h"

namespace dqr::core {

// One thread's working set of RangeConstraints, instantiated from a
// QuerySpec's function factories. Each solver, validator, and speculative
// solver owns its own bundle; bundles share only the immutable array and
// synopsis underneath. Within a bundle, functions that read the same
// synopsis share one bounds memo (cp::ConstraintFunction::ShareMemoWith):
// the first such function owns it, and the state hooks below act once per
// memo, through its owner.
class ConstraintBundle {
 public:
  explicit ConstraintBundle(const searchlight::QuerySpec& query);

  int size() const { return static_cast<int>(constraints_.size()); }
  cp::RangeConstraint& at(int c) { return *constraints_[static_cast<size_t>(c)]; }
  std::vector<cp::RangeConstraint*> pointers();

  // Evaluates estimates that a lazily recorded fail left unknown, in
  // place (the deferred half of §4.2's lazy fail evaluation).
  void CompleteEstimates(FailRecord* fail);

  // Snapshots every memo's reusable state for the box, one entry per
  // constraint: states[c] is the snapshot of the memo constraint c owns,
  // and null when it owns none or the memo is empty.
  std::vector<std::unique_ptr<cp::FunctionState>> SaveStates(
      const cp::DomainBox& box) const;

  // Re-seeds each memo from the fail's saved snapshots (null entries
  // skipped); callers ClearStates first.
  void RestoreStates(const FailRecord& fail);
  // Drops every memo's per-search state.
  void ClearStates();

  // Restores every constraint's effective bounds to the originals.
  void ResetEffectiveBounds();

  // Exact per-constraint values at a bound assignment (Validator side).
  std::vector<double> EvaluateAll(const std::vector<int64_t>& point);

  // Exact values for a batch of bound assignments: result[i] is
  // EvaluateAll(*points[i]). Each constraint function sees the whole
  // batch at once (ConstraintFunction::EvaluateBatch), letting it share
  // one SIMD pass over the base data; values are identical to the
  // one-at-a-time path.
  std::vector<std::vector<double>> EvaluateAllBatch(
      const std::vector<const std::vector<int64_t>*>& points);

  // Sum of every memo's counters, each memo counted once; folded into
  // the owning thread's RunStats when the bundle retires.
  cp::FunctionMemoStats MemoStats() const;

 private:
  std::vector<std::unique_ptr<cp::RangeConstraint>> constraints_;
  // Index of the constraint owning each memo, ascending.
  std::vector<size_t> memo_owners_;
};

}  // namespace dqr::core

#endif  // DQR_CORE_BUNDLE_H_
