#ifndef DQR_CORE_TRACKER_H_
#define DQR_CORE_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <vector>

#include "core/options.h"
#include "core/rank.h"
#include "core/skyline.h"
#include "core/solution.h"

namespace dqr::core {

// Execution phase of a refined query (§4.3): while fewer than k exact
// results exist the engine records fails for possible relaxation; once k
// exact results are found it stops fail tracking and starts constraining.
enum class QueryPhase { kCollecting, kConstraining };

// Outcome of offering a validated solution to the tracker.
enum class AddOutcome {
  // An exact result (RP == 0).
  kAcceptedExact,
  // A relaxed result currently within the best-k by RP.
  kAcceptedRelaxed,
  // Worse than the current top-k (or constraining dominated/outranked it).
  kRejected,
  // The same assignment was already tracked (speculative re-exploration).
  kDuplicate,
};

// The shared, thread-safe store of validated results for one query across
// all instances. Maintains:
//   * the best-k solutions by RP (relaxation top-k) and the derived MRP;
//   * once constraining activates, the top-k by RK and the derived MRK,
//     or the skyline set;
//   * every exact result when no constraining applies (the manual "Off"
//     baseline needs them all).
//
// MRP is monotonically non-increasing and MRK monotonically non-decreasing
// over a run, which is what makes the engine's pre/post checks and eager
// fail discarding safe (see DESIGN.md §5).
class ResultTracker {
 public:
  // Optional diversity configuration (see RefineOptions::result_spacing):
  // the top sets track `pool_k` results and FinalResults() greedily
  // selects up to k results no two of which lie within a common spacing
  // box.
  struct Diversity {
    // Per-variable spacing; empty disables the filter.
    std::vector<int64_t> spacing;
    // Tracked pool size; must be >= k. Ignored when spacing is empty.
    int64_t pool_k = 0;
  };

  // `rank_model` may be null when mode != kRank/kSkyline; otherwise it
  // must outlive the tracker. k == 0 disables cardinality handling (all
  // exact results are kept; phase never flips).
  ResultTracker(int64_t k, ConstrainMode mode,
                const RankModel* rank_model);
  ResultTracker(int64_t k, ConstrainMode mode, const RankModel* rank_model,
                Diversity diversity);

  // Offers a validated solution (rp/rk must be filled in by the caller).
  AddOutcome Add(Solution solution);

  // Lock-free: engines read the phase on every search node, fail and
  // candidate, while validators hold the tracker lock in Add.
  QueryPhase phase() const;
  // Maximum Relaxation Penalty: the worst RP a solution may have and
  // still enter the current top-k; 1.0 while fewer than k are tracked.
  double Mrp() const;
  // Minimum result RanK: the rank a solution must beat to enter the
  // top-k; -infinity while fewer than k exact results are ranked.
  double Mrk() const;
  int64_t exact_count() const;

  int64_t mrp_updates() const;
  int64_t mrk_updates() const;

  // True iff the current skyline dominates the sub-tree best corner
  // (skyline constraining's dynamic pruning check). Always false outside
  // skyline constraining.
  bool SkylineDominatesBox(const std::vector<double>& corner) const;

  // Assembles the query's final results:
  //   * constraining active: top-k by RK (desc) or the skyline set;
  //   * >= k exact results without constraining (or k == 0): all exact
  //     results in point order;
  //   * otherwise: best-k by RP (exact results first).
  std::vector<Solution> FinalResults() const;

 private:
  struct ByPenalty {
    bool operator()(const Solution& a, const Solution& b) const {
      if (a.rp != b.rp) return a.rp < b.rp;
      return a.point < b.point;
    }
  };
  struct ByRank {
    bool operator()(const Solution& a, const Solution& b) const {
      if (a.rk != b.rk) return a.rk > b.rk;
      return a.point < b.point;
    }
  };

  AddOutcome AddLocked(Solution solution);
  void MaybeStartConstraining();
  // True iff `a` and `b` lie within a common spacing box.
  bool Conflicts(const std::vector<int64_t>& a,
                 const std::vector<int64_t>& b) const;
  // Greedy spacing filter over a quality-ordered candidate list.
  std::vector<Solution> SelectDiverse(std::vector<Solution> ordered) const;

  const int64_t k_;
  // Cardinality of the tracked top sets: k_, or the diversity pool size.
  const int64_t pool_k_;
  const ConstrainMode mode_;
  const RankModel* rank_model_;
  const Diversity diversity_;

  mutable std::mutex mu_;
  QueryPhase phase_ = QueryPhase::kCollecting;
  // Mirror of phase_ for phase(): stored (release) under mu_ at the one
  // flip, so a read is still linearizable. phase_ stays the tracker's own
  // locked copy.
  std::atomic<QueryPhase> phase_mirror_{QueryPhase::kCollecting};
  std::set<std::vector<int64_t>> seen_;
  // Best-k by RP; exact results have rp == 0.
  std::set<Solution, ByPenalty> relax_top_;
  // All exact results (kept when mode == kNone or k == 0, and used to
  // seed the rank tracker when constraining activates).
  std::vector<Solution> exact_all_;
  bool keep_all_exact_ = false;
  // Top-k by RK, populated in the constraining phase.
  std::set<Solution, ByRank> rank_top_;
  Skyline skyline_;
  int64_t exact_count_ = 0;
  int64_t mrp_updates_ = 0;
  int64_t mrk_updates_ = 0;
};

}  // namespace dqr::core

#endif  // DQR_CORE_TRACKER_H_
