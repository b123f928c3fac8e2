#include "core/bundle.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace dqr::core {

ConstraintBundle::ConstraintBundle(const searchlight::QuerySpec& query) {
  constraints_.reserve(query.constraints.size());
  for (const searchlight::QueryConstraint& qc : query.constraints) {
    DQR_CHECK_MSG(qc.make_function != nullptr,
                  "query constraint lacks a function factory");
    constraints_.push_back(std::make_unique<cp::RangeConstraint>(
        qc.make_function(), qc.bounds));
    cp::ConstraintFunction& fn = constraints_.back()->function();
    const bool shared = std::any_of(
        memo_owners_.begin(), memo_owners_.end(), [&](size_t owner) {
          return fn.ShareMemoWith(constraints_[owner]->function());
        });
    if (!shared) memo_owners_.push_back(constraints_.size() - 1);
  }
}

std::vector<cp::RangeConstraint*> ConstraintBundle::pointers() {
  std::vector<cp::RangeConstraint*> out;
  out.reserve(constraints_.size());
  for (const auto& c : constraints_) out.push_back(c.get());
  return out;
}

void ConstraintBundle::CompleteEstimates(FailRecord* fail) {
  DQR_CHECK(fail->estimates.size() == constraints_.size());
  for (size_t c = 0; c < constraints_.size(); ++c) {
    if (fail->evaluated[c]) continue;
    fail->estimates[c] = constraints_[c]->function().Estimate(fail->box);
    fail->evaluated[c] = 1;
  }
}

std::vector<std::unique_ptr<cp::FunctionState>> ConstraintBundle::SaveStates(
    const cp::DomainBox& box) const {
  std::vector<std::unique_ptr<cp::FunctionState>> states(
      constraints_.size());
  for (const size_t c : memo_owners_) {
    states[c] = constraints_[c]->function().SaveState(box);
  }
  return states;
}

void ConstraintBundle::RestoreStates(const FailRecord& fail) {
  if (fail.states.empty()) return;
  DQR_CHECK(fail.states.size() == constraints_.size());
  for (const size_t c : memo_owners_) {
    if (fail.states[c] != nullptr) {
      constraints_[c]->function().RestoreState(*fail.states[c]);
    }
  }
}

void ConstraintBundle::ClearStates() {
  for (const size_t c : memo_owners_) {
    constraints_[c]->function().ClearState();
  }
}

void ConstraintBundle::ResetEffectiveBounds() {
  for (const auto& c : constraints_) c->ResetEffectiveBounds();
}

cp::FunctionMemoStats ConstraintBundle::MemoStats() const {
  cp::FunctionMemoStats total;
  for (const size_t c : memo_owners_) {
    total += constraints_[c]->function().memo_stats();
  }
  return total;
}

std::vector<double> ConstraintBundle::EvaluateAll(
    const std::vector<int64_t>& point) {
  std::vector<double> values;
  values.reserve(constraints_.size());
  for (const auto& c : constraints_) {
    values.push_back(c->function().Evaluate(point));
  }
  return values;
}

std::vector<std::vector<double>> ConstraintBundle::EvaluateAllBatch(
    const std::vector<const std::vector<int64_t>*>& points) {
  std::vector<std::vector<double>> values(
      points.size(), std::vector<double>(constraints_.size()));
  std::vector<double> column(points.size());
  for (size_t c = 0; c < constraints_.size(); ++c) {
    constraints_[c]->function().EvaluateBatch(points, column.data());
    for (size_t i = 0; i < points.size(); ++i) values[i][c] = column[i];
  }
  return values;
}

}  // namespace dqr::core
