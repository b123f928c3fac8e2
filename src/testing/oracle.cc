#include "testing/oracle.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/bundle.h"
#include "core/knobs.h"
#include "core/model_builders.h"
#include "core/penalty.h"
#include "core/rank.h"
#include "core/skyline.h"
#include "cp/domain.h"

namespace dqr::fuzz {
namespace {

using core::Solution;

bool ByPenalty(const Solution& a, const Solution& b) {
  if (a.rp != b.rp) return a.rp < b.rp;
  return a.point < b.point;
}

bool ByRank(const Solution& a, const Solution& b) {
  if (a.rk != b.rk) return a.rk > b.rk;
  return a.point < b.point;
}

bool ByPoint(const Solution& a, const Solution& b) {
  return a.point < b.point;
}

// Mirrors ResultTracker::Conflicts/SelectDiverse: two results conflict
// when they lie within a common spacing box on *every* coordinate; the
// filter keeps up to k results greedily in quality order.
bool Conflicts(const std::vector<int64_t>& a, const std::vector<int64_t>& b,
               const std::vector<int64_t>& spacing) {
  for (size_t i = 0; i < a.size(); ++i) {
    const int64_t gap = a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
    if (gap >= spacing[i]) return false;
  }
  return true;
}

std::vector<Solution> SelectDiverse(std::vector<Solution> ordered,
                                    const std::vector<int64_t>& spacing,
                                    int64_t k) {
  if (spacing.empty()) {
    if (static_cast<int64_t>(ordered.size()) > k) {
      ordered.resize(static_cast<size_t>(k));
    }
    return ordered;
  }
  std::vector<Solution> out;
  for (Solution& candidate : ordered) {
    if (static_cast<int64_t>(out.size()) >= k) break;
    bool conflicting = false;
    for (const Solution& kept : out) {
      if (Conflicts(candidate.point, kept.point, spacing)) {
        conflicting = true;
        break;
      }
    }
    if (!conflicting) out.push_back(std::move(candidate));
  }
  return out;
}

}  // namespace

Result<OracleResult> OracleRun(const searchlight::QuerySpec& query,
                               const core::RefineOptions& options,
                               int64_t max_space) {
  if (query.domains.empty()) {
    return InvalidArgumentError("oracle: query has no decision variables");
  }
  if (Status st = core::CheckKnobs(options, query.k); !st.ok()) return st;
  const int64_t space = cp::BoxCardinality(query.domains);
  if (space <= 0) {
    return InvalidArgumentError("oracle: empty search space");
  }
  if (space > max_space) {
    return InvalidArgumentError("oracle: search space of " +
                                std::to_string(space) +
                                " assignments exceeds the brute-force cap");
  }

  // Score with the engine's own models (or the caller's custom ones, the
  // way ExecuteQuery would pick them).
  Result<core::PenaltyModel> penalty_result =
      core::BuildPenaltyModel(query, options.alpha);
  if (!penalty_result.ok()) return penalty_result.status();
  Result<core::RankModel> rank_result = core::BuildRankModel(query);
  if (!rank_result.ok()) return rank_result.status();
  const core::PenaltyModel default_penalty = std::move(penalty_result).value();
  const core::RankModel default_rank = std::move(rank_result).value();
  const core::PenaltyModel& penalty = options.custom_penalty != nullptr
                                          ? *options.custom_penalty
                                          : default_penalty;
  const core::RankModel& rank =
      options.custom_rank != nullptr ? *options.custom_rank : default_rank;

  core::ConstraintBundle bundle(query);

  OracleResult out;
  out.space_size = space;

  // Odometer enumeration of the domain box; every assignment is scored
  // exactly the way the engine's Validator scores a candidate.
  std::vector<Solution> finite;
  std::vector<int64_t> point;
  point.reserve(query.domains.size());
  for (const cp::IntDomain& d : query.domains) point.push_back(d.lo);
  bool done = false;
  while (!done) {
    Solution s;
    s.point = point;
    s.values = bundle.EvaluateAll(s.point);
    s.rp = penalty.Penalty(s.values);
    if (std::isfinite(s.rp)) {
      s.rk = rank.Rank(s.values);
      if (s.rp == 0.0) ++out.exact_count;
      finite.push_back(std::move(s));
    }
    // Odometer increment, last variable fastest.
    size_t i = point.size();
    for (;;) {
      if (i == 0) {
        done = true;
        break;
      }
      --i;
      if (point[i] < query.domains[i].hi) {
        ++point[i];
        break;
      }
      point[i] = query.domains[i].lo;
    }
  }
  out.finite_count = static_cast<int64_t>(finite.size());

  // Final-result assembly, mirroring ResultTracker::FinalResults and the
  // effective-mode arithmetic at the top of ExecuteQuery.
  const int64_t k = options.enable ? query.k : 0;
  const core::ConstrainMode mode =
      k > 0 ? options.constrain : core::ConstrainMode::kNone;
  const int64_t pool_k =
      options.result_spacing.empty()
          ? k
          : std::max(k, k * options.diversity_pool_factor);

  std::vector<Solution> exact;
  for (const Solution& s : finite) {
    if (s.rp == 0.0) exact.push_back(s);
  }

  if (k == 0 || (mode == core::ConstrainMode::kNone &&
                 out.exact_count >= k)) {
    std::sort(exact.begin(), exact.end(), ByPoint);
    out.results = std::move(exact);
    return out;
  }

  if (out.exact_count >= k) {
    if (mode == core::ConstrainMode::kSkyline) {
      // The exact non-dominated frontier. Insertion order does not matter:
      // Skyline::Add keeps every mutually non-dominated member.
      core::Skyline skyline;
      for (Solution& s : exact) {
        core::SkylineEntry entry;
        entry.oriented = rank.OrientForSkyline(s.values);
        entry.solution = std::move(s);
        skyline.Add(std::move(entry));
      }
      for (const core::SkylineEntry& entry : skyline.entries()) {
        out.results.push_back(entry.solution);
      }
      std::sort(out.results.begin(), out.results.end(), ByPoint);
      return out;
    }
    // Rank constraining: top-pool_k by RK, then the diversity filter.
    std::sort(exact.begin(), exact.end(), ByRank);
    if (static_cast<int64_t>(exact.size()) > pool_k) {
      exact.resize(static_cast<size_t>(pool_k));
    }
    out.results = SelectDiverse(std::move(exact), options.result_spacing, k);
    return out;
  }

  // Relaxation: best-pool_k by RP over everything reachable, exact
  // results first (their RP is 0), then the diversity filter.
  std::sort(finite.begin(), finite.end(), ByPenalty);
  if (static_cast<int64_t>(finite.size()) > pool_k) {
    finite.resize(static_cast<size_t>(pool_k));
  }
  out.results = SelectDiverse(std::move(finite), options.result_spacing, k);
  return out;
}

}  // namespace dqr::fuzz
