#include "core/model_builders.h"

#include <memory>
#include <utility>
#include <vector>

#include "cp/function.h"

namespace dqr::core {
namespace {

// Reads each constraint's value range via a prototype function instance.
Status CollectRanges(const searchlight::QuerySpec& query,
                     std::vector<Interval>* ranges) {
  for (const searchlight::QueryConstraint& qc : query.constraints) {
    if (qc.make_function == nullptr) {
      return InvalidArgumentError("constraint lacks a function factory");
    }
    const std::unique_ptr<cp::ConstraintFunction> prototype =
        qc.make_function();
    if (prototype == nullptr) {
      return InvalidArgumentError("function factory returned null");
    }
    const Interval range = prototype->value_range();
    if (range.empty()) {
      return InvalidArgumentError("constraint function value range empty");
    }
    ranges->push_back(range);
  }
  return Status::Ok();
}

}  // namespace

Result<PenaltyModel> BuildPenaltyModel(const searchlight::QuerySpec& query,
                                       double alpha) {
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    return InvalidArgumentError("alpha must lie in [0, 1]");
  }
  std::vector<Interval> ranges;
  if (Status status = CollectRanges(query, &ranges); !status.ok()) {
    return status;
  }
  std::vector<PenaltySpec> specs;
  specs.reserve(query.constraints.size());
  for (size_t c = 0; c < query.constraints.size(); ++c) {
    const searchlight::QueryConstraint& qc = query.constraints[c];
    if (qc.bounds.empty()) {
      return InvalidArgumentError("constraint bounds are empty");
    }
    if (!(qc.relax_weight >= 0.0 && qc.relax_weight <= 1.0)) {
      return InvalidArgumentError("relax weight must lie in [0, 1]");
    }
    specs.push_back(
        PenaltySpec{qc.bounds, ranges[c], qc.relax_weight, qc.relaxable});
  }
  return PenaltyModel(std::move(specs), alpha);
}

Result<RankModel> BuildRankModel(const searchlight::QuerySpec& query) {
  std::vector<Interval> ranges;
  if (Status status = CollectRanges(query, &ranges); !status.ok()) {
    return status;
  }
  std::vector<RankSpec> specs;
  specs.reserve(query.constraints.size());
  for (size_t c = 0; c < query.constraints.size(); ++c) {
    const searchlight::QueryConstraint& qc = query.constraints[c];
    specs.push_back(RankSpec{
        qc.bounds, ranges[c], qc.rank_weight,
        qc.preference == searchlight::RankPreference::kMaximize,
        qc.constrainable});
  }
  return RankModel(std::move(specs));
}

}  // namespace dqr::core
