#include "searchlight/functions.h"

#include "obs/histogram.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "cache/bounds_memo.h"
#include "common/check.h"
#include "common/stopwatch.h"

namespace dqr::searchlight {
namespace {

// Calls f(lo_0, hi_0, ..., lo_{D-1}, hi_{D-1}): the argument order of every
// region call on Synopsis, GridSynopsis, Array and Grid.
template <int D, typename F>
auto Expand(const Region<D>& r, F&& f) {
  if constexpr (D == 1) {
    return f(r.lo[0], r.hi[0]);
  } else {
    return f(r.lo[0], r.hi[0], r.lo[1], r.hi[1]);
  }
}

// Regions as per-axis coordinate columns, the layout of the SIMD batch
// kernels.
template <int D>
struct Columns {
  std::array<std::vector<int64_t>, D> lo, hi;

  explicit Columns(size_t capacity) {
    for (int a = 0; a < D; ++a) {
      lo[a].reserve(capacity);
      hi[a].reserve(capacity);
    }
  }
  void Push(const Region<D>& r) {
    for (int a = 0; a < D; ++a) {
      lo[a].push_back(r.lo[a]);
      hi[a].push_back(r.hi[a]);
    }
  }
  int64_t size() const { return static_cast<int64_t>(lo[0].size()); }
};

// The per-dimension adapter: maps regions onto the 1-D Array/Synopsis or
// the 2-D Grid/GridSynopsis calls that have no common name, and packs
// regions into memo keys.
template <int D>
struct Adapter;

template <>
struct Adapter<1> {
  // Memo kinds are kKindBase + RegionFunction::Bound.
  static constexpr int kKindBase = 0;

  static std::array<int64_t, 1> Shape(const WindowFunctionContext& ctx) {
    DQR_CHECK(ctx.array != nullptr);
    return {ctx.array->length()};
  }
  static const array::Array& Data(const WindowFunctionContext& ctx) {
    return *ctx.array;
  }
  static array::WindowAggregates Aggregate(const WindowFunctionContext& ctx,
                                           const Region<1>& r) {
    return ctx.array->AggregateWindow(r.lo[0], r.hi[0]);
  }
  static void MaxOverBatch(const WindowFunctionContext& ctx,
                           const Columns<1>& c, double* out) {
    ctx.array->MaxOverBatch(c.lo[0].data(), c.hi[0].data(), c.size(), out);
  }
  static std::pair<int64_t, int64_t> Key(const Region<1>& r) {
    return {r.lo[0], r.hi[0]};
  }
};

template <>
struct Adapter<2> {
  // Disjoint from the 1-D kinds.
  static constexpr int kKindBase = 10;

  static std::array<int64_t, 2> Shape(const GridFunctionContext& ctx) {
    DQR_CHECK(ctx.grid != nullptr);
    // Key packs two extents into each half of the memo key.
    DQR_CHECK(ctx.grid->rows() < (int64_t{1} << 31) &&
              ctx.grid->cols() < (int64_t{1} << 31));
    return {ctx.grid->rows(), ctx.grid->cols()};
  }
  static const array::Grid& Data(const GridFunctionContext& ctx) {
    return *ctx.grid;
  }
  static array::WindowAggregates Aggregate(const GridFunctionContext& ctx,
                                           const Region<2>& r) {
    return ctx.grid->AggregateRect(r.lo[0], r.hi[0], r.lo[1], r.hi[1]);
  }
  static void MaxOverBatch(const GridFunctionContext& ctx,
                           const Columns<2>& c, double* out) {
    ctx.grid->MaxOverRectsBatch(c.lo[0].data(), c.hi[0].data(),
                                c.lo[1].data(), c.hi[1].data(), c.size(),
                                out);
  }
  static std::pair<int64_t, int64_t> Key(const Region<2>& r) {
    return {(r.lo[0] << 32) | r.hi[0], (r.lo[1] << 32) | r.hi[1]};
  }
};

// The exact max over one region, read from the base data.
template <int D>
double ExactMax(const RegionFunctionContext<D>& ctx, const Region<D>& r) {
  return Expand(r, [&](auto... c) {
    return Adapter<D>::Data(ctx).MaxOver(c...);
  });
}

// Picks the default value range for a contrast function: differences of
// values within the global range span [0, range width].
template <int D>
RegionFunctionContext<D> WithContrastDefaultRange(
    RegionFunctionContext<D> ctx) {
  if (ctx.value_range.empty() && ctx.synopsis != nullptr) {
    ctx.value_range =
        Interval(0.0, ctx.synopsis->global_value_range().width());
  }
  return ctx;
}

}  // namespace

// ---------------------------------------------------------------------
// BoundsCache

class BoundsCache::Snapshot : public cp::FunctionState {
 public:
  explicit Snapshot(std::unordered_map<Key, Interval, KeyHash> map)
      : map_(std::move(map)) {}

  std::unique_ptr<cp::FunctionState> Clone() const override {
    return std::make_unique<Snapshot>(map_);
  }

  int64_t SizeBytes() const override {
    // Key (kind + window coordinates) + interval + the support coordinates
    // a real aggregate keeps; comparable to the ~80 bytes/save the paper
    // reports for 2-D aggregate states.
    return static_cast<int64_t>(map_.size()) *
           static_cast<int64_t>(sizeof(Key) + sizeof(Interval) +
                                2 * sizeof(int64_t));
  }

  const std::unordered_map<Key, Interval, KeyHash>& map() const {
    return map_;
  }

 private:
  std::unordered_map<Key, Interval, KeyHash> map_;
};

void BoundsCache::Touch(const Key& key) {
  if (recent_.size() < recent_capacity_) {
    recent_.push_back(key);
    return;
  }
  recent_[recent_next_] = key;
  recent_next_ = (recent_next_ + 1) % recent_capacity_;
}

bool BoundsCache::IsRecent(const Key& key) const {
  for (const Key& r : recent_) {
    if (r == key) return true;
  }
  return false;
}

void BoundsCache::EvictOne() {
  // Second-chance FIFO: rotate recency-protected keys to the back, evict
  // the first unprotected one. If one full pass finds only protected keys
  // (tiny capacities), fall through and evict the oldest anyway — the
  // cache must shrink, just never wholesale.
  for (size_t guard = fifo_.size(); guard > 0; --guard) {
    const Key key = fifo_.front();
    fifo_.pop_front();
    if (IsRecent(key)) {
      fifo_.push_back(key);
      continue;
    }
    map_.erase(key);
    return;
  }
  if (!fifo_.empty()) {
    map_.erase(fifo_.front());
    fifo_.pop_front();
  }
}

const Interval* BoundsCache::Find(int kind, int64_t lo, int64_t hi) {
  const Key key{kind, lo, hi};
  const auto it = map_.find(key);
  if (it != map_.end()) {
    ++stats_.hits;
    Touch(it->first);
    return &it->second;
  }
  if (shared_ != nullptr) {
    Interval value;
    if (shared_->Lookup(shared_space_, kind, lo, hi, &value)) {
      // Adopt the L2 entry locally without republishing it. Serving the
      // lookup from the memo means the caller skips recomputation and the
      // artificial miss cost — the cross-query perf lever.
      ++stats_.shared_hits;
      const auto [ins, inserted] = map_.emplace(key, value);
      if (inserted) fifo_.push_back(key);
      Touch(key);
      while (map_.size() > capacity_) {
        EvictOne();
        ++stats_.evictions;
      }
      return &ins->second;
    }
    ++stats_.shared_misses;
  }
  ++stats_.misses;
  return nullptr;
}

void BoundsCache::Insert(int kind, int64_t lo, int64_t hi,
                         const Interval& value) {
  const Key key{kind, lo, hi};
  const auto [it, inserted] = map_.emplace(key, value);
  (void)it;
  if (inserted) fifo_.push_back(key);
  Touch(key);
  if (shared_ != nullptr &&
      shared_->Insert(shared_space_, kind, lo, hi, value)) {
    ++stats_.shared_evictions;
  }
  while (map_.size() > capacity_) {
    EvictOne();
    ++stats_.evictions;
  }
}

std::unique_ptr<cp::FunctionState> BoundsCache::SaveRecent() const {
  std::unordered_map<Key, Interval, KeyHash> subset;
  for (const Key& key : recent_) {
    const auto it = map_.find(key);
    if (it != map_.end()) subset.emplace(it->first, it->second);
  }
  if (subset.empty()) return nullptr;
  return std::make_unique<Snapshot>(std::move(subset));
}

void BoundsCache::Restore(const cp::FunctionState& state) {
  const auto* snapshot = dynamic_cast<const Snapshot*>(&state);
  DQR_CHECK_MSG(snapshot != nullptr, "foreign function state");
  for (const auto& [key, value] : snapshot->map()) {
    const auto [it, inserted] = map_.emplace(key, value);
    (void)it;
    if (!inserted) continue;
    fifo_.push_back(key);
    // Restored entries sit at the back of the FIFO, so the evictions
    // making room for them hit the coldest entries first; a restore is
    // never silently truncated.
    while (map_.size() > capacity_) {
      EvictOne();
      ++stats_.restore_evictions;
    }
  }
}

void BoundsCache::Clear() {
  map_.clear();
  fifo_.clear();
  recent_.clear();
  recent_next_ = 0;
}

// ---------------------------------------------------------------------
// RegionFunction

template <int D>
RegionFunction<D>::RegionFunction(Context ctx)
    : ctx_(std::move(ctx)), memo_(std::make_shared<BoundsCache>()) {
  DQR_CHECK(ctx_.synopsis != nullptr);
  shape_ = Adapter<D>::Shape(ctx_);
  value_range_ = ctx_.value_range.empty()
                     ? ctx_.synopsis->global_value_range()
                     : ctx_.value_range;
  if (ctx_.shared_memo != nullptr) {
    memo_->AttachShared(ctx_.shared_memo, ctx_.shared_memo_key);
  }
}

template <int D>
bool RegionFunction<D>::ShareMemoWith(cp::ConstraintFunction& other) {
  auto* owner = dynamic_cast<RegionFunction<D>*>(&other);
  if (owner == nullptr || owner->memo_ == memo_) return false;
  const Context& o = owner->ctx_;
  // The miss cost must match too: a bound's cost is charged by whichever
  // function derives it first.
  if (o.synopsis != ctx_.synopsis ||
      o.estimate_cost_ns != ctx_.estimate_cost_ns ||
      o.cost_is_latency != ctx_.cost_is_latency ||
      o.shared_memo != ctx_.shared_memo ||
      o.shared_memo_key != ctx_.shared_memo_key) {
    return false;
  }
  owner->memo_->AddReader();
  memo_ = owner->memo_;
  return true;
}

template <int D>
std::unique_ptr<cp::FunctionState> RegionFunction<D>::SaveState(
    const cp::DomainBox& box) const {
  // The recently touched entries are exactly the region bounds the failed
  // node's check derived (the search checks constraints on `box` right
  // before a fail is recorded, and the ring holds every key one check of
  // all the memo's readers touches), so no box-based filtering is needed.
  (void)box;
  if (memo_->size() == 0) return nullptr;
  return memo_->SaveRecent();
}

template <int D>
void RegionFunction<D>::RestoreState(const cp::FunctionState& state) {
  memo_->Restore(state);
}

template <int D>
void RegionFunction<D>::ClearState() {
  memo_->Clear();
}

template <int D>
typename RegionFunction<D>::Box RegionFunction<D>::ReadBox(
    const cp::DomainBox& box) const {
  DQR_CHECK(box.size() >= 2 * D);
  Box b;
  b.bound = true;
  for (int a = 0; a < D; ++a) {
    const cp::IntDomain& o = box[a];
    const cp::IntDomain& e = box[D + a];
    DQR_CHECK(o.lo >= 0 && o.hi < shape_[a]);
    DQR_CHECK(e.lo >= 1);
    b.o_lo[a] = o.lo;
    b.o_hi[a] = o.hi;
    b.e_lo[a] = e.lo;
    b.e_hi[a] = e.hi;
    b.bound = b.bound && o.IsBound() && e.IsBound();
  }
  return b;
}

template <int D>
Region<D> RegionFunction<D>::Reach(const Axes& lo, const Axes& origin,
                                   const Axes& extent) const {
  Region<D> r;
  for (int a = 0; a < D; ++a) {
    r.lo[a] = lo[a];
    r.hi[a] = std::min(shape_[a], origin[a] + extent[a]);
  }
  return r;
}

template <int D>
Region<D> RegionFunction<D>::RegionAt(
    const std::vector<int64_t>& point) const {
  Axes origin, extent;
  for (int a = 0; a < D; ++a) {
    origin[a] = point[a];
    extent[a] = point[D + a];
    DQR_CHECK(origin[a] >= 0);
  }
  const Region<D> r = Reach(origin, origin, extent);
  DQR_CHECK(!r.empty());
  return r;
}

template <int D>
int RegionFunction<D>::EstimateLevel(
    const std::vector<int64_t>& point) const {
  if (point.size() < 2 * D) return -1;
  Axes origin, extent;
  for (int a = 0; a < D; ++a) {
    origin[a] = point[a];
    extent[a] = point[D + a];
    if (origin[a] < 0) return -1;
  }
  const Region<D> r = Reach(origin, origin, extent);
  if (r.empty()) return -1;
  return static_cast<int>(Expand(r, [&](auto... c) {
    return ctx_.synopsis->PickLevelIndex(c...);
  }));
}

template <int D>
void RegionFunction<D>::ChargeMiss() const {
  // Spins for CPU-bound estimation, sleeps for latency-bound (I/O)
  // estimation. Sleeping yields the core, so concurrent misses on
  // different threads overlap — see RegionFunctionContext.
  const int64_t ns = ctx_.estimate_cost_ns;
  if (ns <= 0) return;
  if (ctx_.cost_is_latency) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    return;
  }
  BusyWait(ns);
}

template <int D>
Interval RegionFunction<D>::Cached(Bound bound, const Region<D>& region) {
  const int kind = Adapter<D>::kKindBase + bound;
  const auto [klo, khi] = Adapter<D>::Key(region);
  if (const Interval* hit = memo_->Find(kind, klo, khi)) return *hit;
  const obs::ScopedSinkTimer bound_timer;
  ChargeMiss();
  const auto& synopsis = *ctx_.synopsis;
  const Interval result = Expand(region, [&](auto... c) {
    if (bound == kMax) return synopsis.MaxBounds(c...);
    if (bound == kMin) return synopsis.MinBounds(c...);
    return synopsis.ValueBounds(c...);
  });
  memo_->Insert(kind, klo, khi, result);
  return result;
}

template <int D>
Interval RegionFunction<D>::MaxOver(const Box& b) {
  bool fixed_origin = true;
  for (int a = 0; a < D; ++a) {
    DQR_CHECK(0 <= b.o_lo[a] && b.o_lo[a] <= b.o_hi[a] &&
              b.o_hi[a] < shape_[a]);
    DQR_CHECK(1 <= b.e_lo[a] && b.e_lo[a] <= b.e_hi[a]);
    fixed_origin = fixed_origin && b.o_lo[a] == b.o_hi[a];
  }
  if (fixed_origin) {
    // Fixed origin: the max over a clamped region is monotone in every
    // extent, so the smallest and largest regions bound all others.
    const Region<D> smallest = Reach(b.o_lo, b.o_lo, b.e_lo);
    const Region<D> largest = Reach(b.o_lo, b.o_lo, b.e_hi);
    const Interval small = Cached(kMax, smallest);
    const Interval large =
        largest == smallest ? small : Cached(kMax, largest);
    return Interval(small.lo, large.hi);
  }

  const Interval span_values = Cached(kValue, Span(b));
  // Every region contains the common core when that is non-empty, so the
  // core's max bounds every region's max from below.
  const Region<D> core = Core(b);
  double lower = span_values.lo;
  if (!core.empty()) lower = std::max(lower, Cached(kMax, core).lo);
  return Interval(lower, span_values.hi);
}

template <int D>
Interval RegionFunction<D>::MinOver(const Box& b) {
  if (b.bound) return Cached(kMin, Reach(b.o_lo, b.o_lo, b.e_lo));
  const Interval span_values = Cached(kValue, Span(b));
  // Mirror of MaxOver: the common core bounds the min from above.
  const Region<D> core = Core(b);
  double upper = span_values.hi;
  if (!core.empty()) upper = std::min(upper, Cached(kMin, core).hi);
  return Interval(span_values.lo, upper);
}

// ---------------------------------------------------------------------
// RegionAvgFunction

template <int D>
Interval RegionAvgFunction<D>::Estimate(const cp::DomainBox& box) {
  const auto b = this->ReadBox(box);
  if (!b.bound) return this->Cached(this->kValue, this->Span(b));
  // Region sums are keyed by (origin, extent) pairs that rarely repeat,
  // so they are not memoized; the estimation cost is charged directly.
  const obs::ScopedSinkTimer bound_timer;
  this->ChargeMiss();
  return Expand(this->Reach(b.o_lo, b.o_lo, b.e_lo), [&](auto... c) {
    return this->ctx().synopsis->AvgBounds(c...);
  });
}

template <int D>
double RegionAvgFunction<D>::Evaluate(const std::vector<int64_t>& point) {
  return Adapter<D>::Aggregate(this->ctx(), this->RegionAt(point)).avg();
}

// ---------------------------------------------------------------------
// RegionMaxFunction

template <int D>
Interval RegionMaxFunction<D>::Estimate(const cp::DomainBox& box) {
  return this->MaxOver(this->ReadBox(box));
}

template <int D>
double RegionMaxFunction<D>::Evaluate(const std::vector<int64_t>& point) {
  return ExactMax(this->ctx(), this->RegionAt(point));
}

template <int D>
void RegionMaxFunction<D>::EvaluateBatch(
    const std::vector<const std::vector<int64_t>*>& points, double* out) {
  Columns<D> regions(points.size());
  for (const std::vector<int64_t>* point : points) {
    regions.Push(this->RegionAt(*point));
  }
  Adapter<D>::MaxOverBatch(this->ctx(), regions, out);
}

// ---------------------------------------------------------------------
// RegionContrastFunction

template <int D>
RegionContrastFunction<D>::RegionContrastFunction(
    RegionFunctionContext<D> ctx, Side side, int64_t width)
    : RegionFunction<D>(WithContrastDefaultRange(std::move(ctx))),
      side_(side),
      width_(width) {
  DQR_CHECK(width_ >= 1);
}

template <int D>
Region<D> RegionContrastFunction<D>::NeighborhoodOf(
    const Region<D>& region) const {
  constexpr int kLast = D - 1;
  const int64_t n = this->shape(kLast);
  Region<D> nb = region;
  if (side_ == Side::kLeft) {
    nb.lo[kLast] = std::max<int64_t>(0, region.lo[kLast] - width_);
    nb.hi[kLast] = region.lo[kLast];
  } else {
    nb.lo[kLast] = region.hi[kLast];
    nb.hi[kLast] = std::min(n, region.hi[kLast] + width_);
  }
  return nb;
}

template <int D>
Interval RegionContrastFunction<D>::Estimate(const cp::DomainBox& box) {
  constexpr int kLast = D - 1;
  const auto b = this->ReadBox(box);
  const int64_t n = this->shape(kLast);
  const Interval main = this->MaxOver(b);

  // Bounds on max(neighborhood) over every assignment in the box,
  // handling edge truncation along the last axis soundly. `can_be_empty`
  // marks boxes containing at least one assignment whose neighborhood
  // collapses entirely, where the function value degenerates to 0.
  //
  // Without truncation, the neighborhood is a fixed-width region whose
  // origin slides over [lo, hi].
  const auto sliding = [&](int64_t lo, int64_t hi) {
    auto nb = b;
    nb.o_lo[kLast] = lo;
    nb.o_hi[kLast] = hi;
    nb.e_lo[kLast] = nb.e_hi[kLast] = width_;
    return this->MaxOver(nb);
  };
  // Truncated at an edge, it is some non-empty part of [lo, hi); value
  // bounds over that band are sound for its max.
  const auto truncated = [&](int64_t lo, int64_t hi) {
    Region<D> band = this->Span(b);
    band.lo[kLast] = lo;
    band.hi[kLast] = hi;
    return this->Cached(this->kValue, band);
  };
  Interval nbhd = Interval::Empty();
  bool can_be_empty = false;
  if (side_ == Side::kLeft) {
    const int64_t o_lo = b.o_lo[kLast];
    const int64_t o_hi = b.o_hi[kLast];
    if (o_hi == 0) {
      can_be_empty = true;  // the only neighborhood is empty
    } else if (o_lo >= width_) {
      nbhd = sliding(o_lo - width_, o_hi - width_);
    } else {
      nbhd = truncated(0, o_hi);
      can_be_empty = o_lo == 0;
    }
  } else {
    const int64_t e_lo = std::min(n, b.o_lo[kLast] + b.e_lo[kLast]);
    const int64_t e_hi = std::min(n, b.o_hi[kLast] + b.e_hi[kLast]);
    if (e_lo >= n) {
      can_be_empty = true;  // every neighborhood starts past the end
    } else if (e_hi + width_ <= n) {
      nbhd = sliding(e_lo, e_hi);
    } else {
      nbhd = truncated(e_lo, n);
      can_be_empty = e_hi >= n;
    }
  }

  Interval estimate =
      nbhd.empty() ? Interval::Empty() : Abs(main - nbhd);
  if (can_be_empty) {
    // Assignments with an empty neighborhood evaluate to exactly 0.
    estimate = estimate.Union(Interval::Point(0.0));
  }
  DQR_CHECK(!estimate.empty());
  return estimate;
}

template <int D>
double RegionContrastFunction<D>::Evaluate(
    const std::vector<int64_t>& point) {
  const Region<D> region = this->RegionAt(point);
  const double main = ExactMax(this->ctx(), region);
  const Region<D> nb = NeighborhoodOf(region);
  if (nb.empty()) return 0.0;
  return std::abs(main - ExactMax(this->ctx(), nb));
}

template <int D>
void RegionContrastFunction<D>::EvaluateBatch(
    const std::vector<const std::vector<int64_t>*>& points, double* out) {
  const size_t n = points.size();
  Columns<D> mains(n);
  Columns<D> nbs(n);
  std::vector<size_t> nb_owner;  // point index of each neighborhood
  for (size_t i = 0; i < n; ++i) {
    const Region<D> region = this->RegionAt(*points[i]);
    mains.Push(region);
    const Region<D> nb = NeighborhoodOf(region);
    if (!nb.empty()) {
      nbs.Push(nb);
      nb_owner.push_back(i);
    }
  }
  // The scalar path reads the main region even when the neighborhood is
  // empty (and then returns 0), so the batch must charge it for every
  // point too.
  std::vector<double> main_max(n);
  Adapter<D>::MaxOverBatch(this->ctx(), mains, main_max.data());
  std::fill(out, out + n, 0.0);
  if (nb_owner.empty()) return;
  std::vector<double> nb_max(nb_owner.size());
  Adapter<D>::MaxOverBatch(this->ctx(), nbs, nb_max.data());
  for (size_t k = 0; k < nb_owner.size(); ++k) {
    out[nb_owner[k]] = std::abs(main_max[nb_owner[k]] - nb_max[k]);
  }
}

// ---------------------------------------------------------------------
// MinFunction

Interval MinFunction::Estimate(const cp::DomainBox& box) {
  return MinOver(ReadBox(box));
}

double MinFunction::Evaluate(const std::vector<int64_t>& point) {
  const Region<1> r = RegionAt(point);
  return ctx().array->AggregateWindow(r.lo[0], r.hi[0]).min;
}

void MinFunction::EvaluateBatch(
    const std::vector<const std::vector<int64_t>*>& points, double* out) {
  Columns<1> windows(points.size());
  for (const std::vector<int64_t>* point : points) {
    windows.Push(RegionAt(*point));
  }
  ctx().array->MinOverBatch(windows.lo[0].data(), windows.hi[0].data(),
                            windows.size(), out);
}

template class RegionFunction<1>;
template class RegionFunction<2>;
template class RegionAvgFunction<1>;
template class RegionAvgFunction<2>;
template class RegionMaxFunction<1>;
template class RegionMaxFunction<2>;
template class RegionContrastFunction<1>;
template class RegionContrastFunction<2>;

}  // namespace dqr::searchlight
