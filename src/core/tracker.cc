#include "core/tracker.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace dqr::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

ResultTracker::ResultTracker(int64_t k, ConstrainMode mode,
                             const RankModel* rank_model)
    : ResultTracker(k, mode, rank_model, Diversity{}) {}

ResultTracker::ResultTracker(int64_t k, ConstrainMode mode,
                             const RankModel* rank_model,
                             Diversity diversity)
    : k_(k),
      pool_k_(diversity.spacing.empty() ? k
                                        : std::max(k, diversity.pool_k)),
      mode_(mode),
      rank_model_(rank_model),
      diversity_(std::move(diversity)) {
  DQR_CHECK(k_ >= 0);
  if (mode_ != ConstrainMode::kNone && k_ > 0) {
    DQR_CHECK_MSG(rank_model_ != nullptr,
                  "constraining requires a rank model");
  }
  keep_all_exact_ = mode_ == ConstrainMode::kNone || k_ == 0;
}

AddOutcome ResultTracker::Add(Solution solution) {
  std::lock_guard<std::mutex> lock(mu_);
  return AddLocked(std::move(solution));
}

AddOutcome ResultTracker::AddLocked(Solution solution) {
  if (!seen_.insert(solution.point).second) return AddOutcome::kDuplicate;

  const bool exact = solution.rp == 0.0;
  if (!exact) {
    if (phase_ == QueryPhase::kConstraining || k_ == 0) {
      return AddOutcome::kRejected;
    }
    // Relaxed candidate: keep iff it fits the current best-pool by
    // (RP, point) — the point tie-break makes the final top-k
    // deterministic regardless of validation order.
    const double old_mrp =
        static_cast<int64_t>(relax_top_.size()) < pool_k_
            ? 1.0
            : std::prev(relax_top_.end())->rp;
    if (static_cast<int64_t>(relax_top_.size()) >= pool_k_ &&
        !ByPenalty{}(solution, *std::prev(relax_top_.end()))) {
      return AddOutcome::kRejected;
    }
    relax_top_.insert(std::move(solution));
    if (static_cast<int64_t>(relax_top_.size()) > pool_k_) {
      relax_top_.erase(std::prev(relax_top_.end()));
    }
    const double new_mrp =
        static_cast<int64_t>(relax_top_.size()) < pool_k_
            ? 1.0
            : std::prev(relax_top_.end())->rp;
    if (new_mrp < old_mrp) ++mrp_updates_;
    return AddOutcome::kAcceptedRelaxed;
  }

  // Exact result.
  ++exact_count_;
  if (keep_all_exact_ || phase_ == QueryPhase::kCollecting) {
    exact_all_.push_back(solution);
  }
  if (k_ > 0) {
    relax_top_.insert(solution);
    if (static_cast<int64_t>(relax_top_.size()) > pool_k_) {
      relax_top_.erase(std::prev(relax_top_.end()));
      ++mrp_updates_;
    }
  }
  const QueryPhase phase_before = phase_;
  MaybeStartConstraining();
  if (phase_before == QueryPhase::kCollecting &&
      phase_ == QueryPhase::kConstraining) {
    // This solution triggered the transition; the seeding loop above has
    // already inserted it (from exact_all_). Inserting it again here
    // would duplicate it — equal values dominate neither direction, so a
    // skyline would keep both copies.
    return AddOutcome::kAcceptedExact;
  }

  if (phase_ == QueryPhase::kConstraining) {
    if (mode_ == ConstrainMode::kSkyline) {
      DQR_CHECK(rank_model_ != nullptr);
      SkylineEntry entry;
      entry.oriented = rank_model_->OrientForSkyline(solution.values);
      entry.solution = std::move(solution);
      return skyline_.Add(std::move(entry)) ? AddOutcome::kAcceptedExact
                                            : AddOutcome::kRejected;
    }
    DQR_CHECK(mode_ == ConstrainMode::kRank);
    const double old_mrk =
        rank_top_.size() < static_cast<size_t>(pool_k_)
            ? -kInf
            : std::prev(rank_top_.end())->rk;
    if (rank_top_.size() >= static_cast<size_t>(pool_k_) &&
        !ByRank{}(solution, *std::prev(rank_top_.end()))) {
      return AddOutcome::kRejected;
    }
    rank_top_.insert(std::move(solution));
    if (rank_top_.size() > static_cast<size_t>(pool_k_)) {
      rank_top_.erase(std::prev(rank_top_.end()));
    }
    const double new_mrk =
        rank_top_.size() < static_cast<size_t>(pool_k_)
            ? -kInf
            : std::prev(rank_top_.end())->rk;
    if (new_mrk > old_mrk) ++mrk_updates_;
  }
  return AddOutcome::kAcceptedExact;
}

void ResultTracker::MaybeStartConstraining() {
  if (phase_ != QueryPhase::kCollecting) return;
  if (mode_ == ConstrainMode::kNone || k_ == 0) return;
  if (exact_count_ < k_) return;

  phase_ = QueryPhase::kConstraining;
  phase_mirror_.store(phase_, std::memory_order_release);
  // Seed the constraining structures with the exact results found so far.
  for (Solution& s : exact_all_) {
    if (mode_ == ConstrainMode::kSkyline) {
      SkylineEntry entry;
      entry.oriented = rank_model_->OrientForSkyline(s.values);
      entry.solution = s;
      skyline_.Add(std::move(entry));
    } else {
      rank_top_.insert(s);
    }
  }
  if (mode_ == ConstrainMode::kRank) {
    while (rank_top_.size() > static_cast<size_t>(pool_k_)) {
      rank_top_.erase(std::prev(rank_top_.end()));
    }
    if (rank_top_.size() >= static_cast<size_t>(pool_k_)) ++mrk_updates_;
  }
  if (!keep_all_exact_) {
    exact_all_.clear();
    exact_all_.shrink_to_fit();
  }
}

QueryPhase ResultTracker::phase() const {
  return phase_mirror_.load(std::memory_order_acquire);
}

double ResultTracker::Mrp() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (k_ == 0) return 1.0;
  if (static_cast<int64_t>(relax_top_.size()) < pool_k_) return 1.0;
  return std::prev(relax_top_.end())->rp;
}

double ResultTracker::Mrk() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ != QueryPhase::kConstraining ||
      mode_ != ConstrainMode::kRank) {
    return -kInf;
  }
  if (rank_top_.size() < static_cast<size_t>(pool_k_)) return -kInf;
  return std::prev(rank_top_.end())->rk;
}

int64_t ResultTracker::exact_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exact_count_;
}

int64_t ResultTracker::mrp_updates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mrp_updates_;
}

int64_t ResultTracker::mrk_updates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mrk_updates_;
}

bool ResultTracker::SkylineDominatesBox(
    const std::vector<double>& corner) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ != QueryPhase::kConstraining ||
      mode_ != ConstrainMode::kSkyline) {
    return false;
  }
  return skyline_.DominatesBox(corner);
}

std::vector<Solution> ResultTracker::FinalResults() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Solution> out;
  if (phase_ == QueryPhase::kConstraining) {
    if (mode_ == ConstrainMode::kSkyline) {
      for (const SkylineEntry& entry : skyline_.entries()) {
        out.push_back(entry.solution);
      }
      std::sort(out.begin(), out.end(),
                [](const Solution& a, const Solution& b) {
                  return a.point < b.point;
                });
    } else {
      out = SelectDiverse(
          std::vector<Solution>(rank_top_.begin(), rank_top_.end()));
    }
    return out;
  }
  if (k_ == 0 || (mode_ == ConstrainMode::kNone && exact_count_ >= k_)) {
    out = exact_all_;
    std::sort(out.begin(), out.end(),
              [](const Solution& a, const Solution& b) {
                return a.point < b.point;
              });
    return out;
  }
  // Fewer than k exact results: the relaxation top-k (exact ones first,
  // since their RP is 0), spaced apart if diversity is configured.
  out = SelectDiverse(
      std::vector<Solution>(relax_top_.begin(), relax_top_.end()));
  return out;
}

bool ResultTracker::Conflicts(const std::vector<int64_t>& a,
                              const std::vector<int64_t>& b) const {
  DQR_CHECK(diversity_.spacing.size() == a.size());
  DQR_CHECK(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const int64_t gap = a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
    if (gap >= diversity_.spacing[i]) return false;
  }
  return true;
}

std::vector<Solution> ResultTracker::SelectDiverse(
    std::vector<Solution> ordered) const {
  if (diversity_.spacing.empty()) {
    // No spacing configured: the pool size equals k, nothing to do.
    return ordered;
  }
  std::vector<Solution> out;
  for (Solution& candidate : ordered) {
    if (static_cast<int64_t>(out.size()) >= k_) break;
    bool conflicting = false;
    for (const Solution& kept : out) {
      if (Conflicts(candidate.point, kept.point)) {
        conflicting = true;
        break;
      }
    }
    if (!conflicting) out.push_back(std::move(candidate));
  }
  return out;
}

}  // namespace dqr::core
