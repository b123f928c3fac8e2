#ifndef DQR_SEARCHLIGHT_FUNCTIONS_H_
#define DQR_SEARCHLIGHT_FUNCTIONS_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "array/array.h"
#include "array/grid.h"
#include "common/interval.h"
#include "cp/function.h"
#include "synopsis/grid_synopsis.h"
#include "synopsis/synopsis.h"

namespace dqr::cache {
class SharedBoundsMemo;
}  // namespace dqr::cache

namespace dqr::searchlight {

// Memoized synopsis bounds: one memo per solver bundle and synopsis,
// shared by every region function of the bundle that reads that synopsis
// (RegionFunction::ShareMemoWith). Keys are (bound kind, region) with the
// region packed into a (lo, hi) pair; values are synopsis intervals
// together with the "support" information that makes re-derivation
// unnecessary. A bound is a pure function of its key, so whichever
// function asks first derives it and pays its miss cost once. This is the
// state captured by the UDF-state-saving optimization (§4.2): fails
// snapshot the memo, replays restore it and skip recomputation.
//
// Eviction is second-chance FIFO: when the cache is full, the oldest
// entry is evicted — unless it sits in the recency ring, in which case it
// is given a second chance (rotated to the back) so the working set that
// SaveRecent snapshots survives. The cache never drops everything at
// once, and Restore always lands every snapshot entry, evicting cold
// entries to make room if necessary.
class BoundsCache {
 public:
  // Saved snapshot of a cache (a cp::FunctionState).
  class Snapshot;

  // The most lookups one Estimate makes: a contrast's two MaxOver calls,
  // each over two regions.
  static constexpr size_t kKeysPerEstimate = 4;

  explicit BoundsCache(size_t capacity = 4096) : capacity_(capacity) {}

  // Registers one more function reading through this memo. The recency
  // ring holds kKeysPerEstimate keys per reader, so a snapshot covers
  // every key that one check of all readers touched.
  void AddReader() { recent_capacity_ += kKeysPerEstimate; }

  // Attaches the process-wide cross-query memo as an L2 behind this
  // cache: local misses probe it under `space` before recomputing, and
  // fresh local inserts publish to it. Restore never publishes (snapshot
  // entries were published when first derived). The L2 is thread-safe;
  // this cache remains single-owner.
  void AttachShared(cache::SharedBoundsMemo* shared, uint64_t space) {
    shared_ = shared;
    shared_space_ = space;
  }

  // Returns the cached interval for (kind, lo, hi) or nullptr. Touched
  // keys (hits and inserts) are remembered in a small recency ring. An
  // attached-L2 hit counts as a hit (no recomputation, no miss cost) and
  // is adopted locally without republishing.
  const Interval* Find(int kind, int64_t lo, int64_t hi);
  void Insert(int kind, int64_t lo, int64_t hi, const Interval& value);

  // Snapshot of the recently touched entries — the window bounds (with
  // their support information) that the most recent Estimate calls used.
  // O(recency ring) in time and size: this is what a fail record saves.
  std::unique_ptr<cp::FunctionState> SaveRecent() const;
  // Inserts every snapshot entry, evicting cold (non-recent) entries when
  // the cache is full — restored UDF state always lands.
  void Restore(const cp::FunctionState& state);

  size_t size() const { return map_.size(); }
  void Clear();

  // Cumulative counters since construction (Clear does not reset them):
  // `evictions` counts Insert-path evictions, `restore_evictions` the
  // cold entries displaced to make room during Restore.
  cp::FunctionMemoStats stats() const { return stats_; }

 private:
  struct Key {
    int kind;
    int64_t lo;
    int64_t hi;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = static_cast<uint64_t>(k.kind) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(k.lo) + 0x9e3779b97f4a7c15ULL + (h << 6);
      h ^= static_cast<uint64_t>(k.hi) + 0x9e3779b97f4a7c15ULL + (h << 6);
      return static_cast<size_t>(h);
    }
  };

  void Touch(const Key& key);
  bool IsRecent(const Key& key) const;
  // Evicts exactly one entry (second-chance FIFO). Precondition: the map
  // is non-empty.
  void EvictOne();

  size_t capacity_;
  cache::SharedBoundsMemo* shared_ = nullptr;
  uint64_t shared_space_ = 0;
  std::unordered_map<Key, Interval, KeyHash> map_;
  // Insertion-order queue over the map's keys (each key appears exactly
  // once); front = eviction candidate, second-chance rotations move
  // recently used keys to the back.
  std::deque<Key> fifo_;
  // Ring of recently touched keys; bounds the cost and size of per-fail
  // state snapshots and marks the entries eviction must protect.
  size_t recent_capacity_ = kKeysPerEstimate;
  std::vector<Key> recent_;
  size_t recent_next_ = 0;
  cp::FunctionMemoStats stats_;
};

// The data a region function of dimension D ranges over, with its
// synopsis: a 1-D array or a 2-D grid.
template <int D>
struct RegionData;

template <>
struct RegionData<1> {
  std::shared_ptr<const array::Array> array;
  std::shared_ptr<const synopsis::Synopsis> synopsis;
};

template <>
struct RegionData<2> {
  std::shared_ptr<const array::Grid> grid;
  std::shared_ptr<const synopsis::GridSynopsis> synopsis;
};

// Shared construction context of a region aggregate function.
template <int D>
struct RegionFunctionContext : RegionData<D> {
  // Static range of the function value (normalization + hard relaxation
  // limit). Empty => derive from the synopsis global value range.
  Interval value_range = Interval::Empty();
  // Artificial per-synopsis-lookup cost in ns on cache misses; models
  // expensive UDF estimation so that the optimizations of §4.2 reproduce
  // their measured effects at laptop scale. 0 by default.
  int64_t estimate_cost_ns = 0;
  // How the miss cost is charged. false (default) spins, modeling
  // CPU-bound estimation. true sleeps, modeling latency-bound misses
  // (cold chunk fetches from disk/network-backed arrays, the dominant
  // cost in the paper's SciDB deployment) — sleeping threads overlap, so
  // scheduling quality shows up in wall clock even on few cores.
  bool cost_is_latency = false;
  // Optional cross-query shared bounds memo (L2 behind the solver's
  // BoundsCache); see cache/bounds_memo.h. The key must identify the
  // (dataset, synopsis configuration, epoch) these bounds are valid for.
  // Null disables sharing. Clones inherit the attachment.
  cache::SharedBoundsMemo* shared_memo = nullptr;
  uint64_t shared_memo_key = 0;
};

using WindowFunctionContext = RegionFunctionContext<1>;
using GridFunctionContext = RegionFunctionContext<2>;

// A D-dimensional region: per-axis [lo, hi) extents, clamped to the data.
template <int D>
struct Region {
  std::array<int64_t, D> lo{};
  std::array<int64_t, D> hi{};

  bool operator==(const Region&) const = default;
  bool empty() const {
    for (int a = 0; a < D; ++a) {
      if (lo[a] >= hi[a]) return true;
    }
    return false;
  }
};

// Base class of the region aggregates: geometry, memoized synopsis
// lookups (through a BoundsCache it may share with the other functions of
// its bundle) and fail-time state snapshots. A region has an origin and an
// extent per axis, read from the decision variables in a fixed order:
// origins first, then extents. 1-D windows [x, x + lx) are (x, lx); 2-D
// rectangles rows [y, y + h) x cols [x, x + w) are (y, x, h, w). The
// refinement framework above is dimension-agnostic, so these functions
// are all it takes to run the full relax/constrain machinery on
// Searchlight's multidimensional workloads.
template <int D>
class RegionFunction : public cp::ConstraintFunction {
 public:
  using Context = RegionFunctionContext<D>;

  explicit RegionFunction(Context ctx);

  Interval value_range() const override { return value_range_; }

  // Synopsis level the estimator consults for the candidate's own region
  // — the profiler's per-level accuracy attribution.
  int EstimateLevel(const std::vector<int64_t>& point) const override;

  // Shares `other`'s memo when it is a region function of the same
  // dimension over the same synopsis, with the same miss cost and L2
  // attachment: then every bound either derives is identical.
  bool ShareMemoWith(cp::ConstraintFunction& other) override;
  std::unique_ptr<cp::FunctionState> SaveState(
      const cp::DomainBox& box) const override;
  void RestoreState(const cp::FunctionState& state) override;
  void ClearState() override;

  cp::FunctionMemoStats memo_stats() const override {
    return memo_->stats();
  }

 protected:
  using Axes = std::array<int64_t, D>;

  // Origin and extent domains per axis, as read from a search box.
  struct Box {
    Axes o_lo, o_hi;  // origin domains
    Axes e_lo, e_hi;  // extent domains
    bool bound;       // every variable bound
  };
  Box ReadBox(const cp::DomainBox& box) const;

  // Per axis, [lo, origin + extent) clamped to the data.
  Region<D> Reach(const Axes& lo, const Axes& origin,
                  const Axes& extent) const;
  // The region of a complete assignment; checks that it is non-empty.
  Region<D> RegionAt(const std::vector<int64_t>& point) const;
  // Union of every region of the box.
  Region<D> Span(const Box& b) const {
    return Reach(b.o_lo, b.o_hi, b.e_hi);
  }
  // Intersection of every region of the box; may be empty.
  Region<D> Core(const Box& b) const {
    return Reach(b.o_hi, b.o_lo, b.e_lo);
  }

  // Sound bounds on the max (min) over every region of the box; memoized.
  Interval MaxOver(const Box& b);
  Interval MinOver(const Box& b);

  // Memoized synopsis bounds over one region.
  enum Bound { kValue, kMax, kMin };
  Interval Cached(Bound bound, const Region<D>& region);

  // Charges the artificial estimation cost of one uncached lookup.
  void ChargeMiss() const;

  // The data's size along an axis.
  int64_t shape(int axis) const { return shape_[axis]; }
  const Context& ctx() const { return ctx_; }

 private:
  Context ctx_;
  Axes shape_;
  Interval value_range_;
  // Own memo, or the one adopted through ShareMemoWith.
  std::shared_ptr<BoundsCache> memo_;
};

// avg over the region — the paper's c1-style amplitude constraint.
template <int D>
class RegionAvgFunction : public RegionFunction<D> {
 public:
  using RegionFunction<D>::RegionFunction;

  std::string name() const override { return D == 1 ? "avg" : "rect_avg"; }
  Interval Estimate(const cp::DomainBox& box) override;
  double Evaluate(const std::vector<int64_t>& point) override;
  std::unique_ptr<cp::ConstraintFunction> Clone() const override {
    return std::make_unique<RegionAvgFunction>(this->ctx());
  }
};

// max over the region.
template <int D>
class RegionMaxFunction : public RegionFunction<D> {
 public:
  using RegionFunction<D>::RegionFunction;

  std::string name() const override { return D == 1 ? "max" : "rect_max"; }
  Interval Estimate(const cp::DomainBox& box) override;
  double Evaluate(const std::vector<int64_t>& point) override;
  // Batched regions share one SIMD pass over the base data.
  void EvaluateBatch(const std::vector<const std::vector<int64_t>*>& points,
                     double* out) override;
  std::unique_ptr<cp::ConstraintFunction> Clone() const override {
    return std::make_unique<RegionMaxFunction>(this->ctx());
  }
};

// |max(region) - max(neighborhood)| — the paper's c2/c3 neighborhood
// contrast. Along the last axis, the neighborhood is the `width`-cell band
// immediately before the region (kLeft) or after it (kRight), clamped to
// the data; on the other axes it spans the region's own extent.
template <int D>
class RegionContrastFunction : public RegionFunction<D> {
 public:
  enum class Side { kLeft, kRight };

  RegionContrastFunction(RegionFunctionContext<D> ctx, Side side,
                         int64_t width);

  std::string name() const override {
    if (side_ == Side::kLeft) {
      return D == 1 ? "contrast_left" : "rect_contrast_left";
    }
    return D == 1 ? "contrast_right" : "rect_contrast_right";
  }
  Interval Estimate(const cp::DomainBox& box) override;
  double Evaluate(const std::vector<int64_t>& point) override;
  // Main regions and non-empty neighborhoods are gathered into one SIMD
  // batch each; empty neighborhoods keep their scalar value of 0.
  void EvaluateBatch(const std::vector<const std::vector<int64_t>*>& points,
                     double* out) override;
  std::unique_ptr<cp::ConstraintFunction> Clone() const override {
    return std::make_unique<RegionContrastFunction>(this->ctx(), side_,
                                                    width_);
  }

 private:
  // Neighborhood of a region; empty at the data edges, where the contrast
  // degenerates to 0.
  Region<D> NeighborhoodOf(const Region<D>& region) const;

  Side side_;
  int64_t width_;
};

extern template class RegionFunction<1>;
extern template class RegionFunction<2>;
extern template class RegionAvgFunction<1>;
extern template class RegionAvgFunction<2>;
extern template class RegionMaxFunction<1>;
extern template class RegionMaxFunction<2>;
extern template class RegionContrastFunction<1>;
extern template class RegionContrastFunction<2>;

// min(x, x + lx); 1-D only.
class MinFunction : public RegionFunction<1> {
 public:
  using RegionFunction<1>::RegionFunction;

  std::string name() const override { return "min"; }
  Interval Estimate(const cp::DomainBox& box) override;
  double Evaluate(const std::vector<int64_t>& point) override;
  // Batched windows share one SIMD pass over the base array.
  void EvaluateBatch(const std::vector<const std::vector<int64_t>*>& points,
                     double* out) override;
  std::unique_ptr<cp::ConstraintFunction> Clone() const override {
    return std::make_unique<MinFunction>(ctx());
  }
};

// The query builders' names for the 1-D window and 2-D rectangle
// instantiations.
using AvgFunction = RegionAvgFunction<1>;
using MaxFunction = RegionMaxFunction<1>;
using NeighborhoodContrastFunction = RegionContrastFunction<1>;
using RectAvgFunction = RegionAvgFunction<2>;
using RectMaxFunction = RegionMaxFunction<2>;
using RectContrastFunction = RegionContrastFunction<2>;

}  // namespace dqr::searchlight

#endif  // DQR_SEARCHLIGHT_FUNCTIONS_H_
