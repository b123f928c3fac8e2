// Synopsis estimator microbenchmark: ns/query for the sparse-table kernel
// vs a replica of the pre-change estimator, swept over span sizes that
// route to every level of the default configuration, plus build time
// (bottom-up vs the per-level base-array rescans it replaced) and the
// per-level memory cost of the sparse tables.
//
// The old-path replica reproduces all three costs this PR removed: the
// array-of-structs cell layout (24-byte stride scans), the per-level
// division walk of the old PickLevel, and the global atomic query
// counter. Its cells are copies of the same aggregates, so a sanity pass
// checks both implementations return bit-identical intervals when
// evaluated at the same level.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "array/array.h"
#include "array/grid.h"
#include "bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "synopsis/grid_synopsis.h"
#include "synopsis/synopsis.h"

namespace {

using namespace dqr;
using namespace dqr::bench;

using View = synopsis::Synopsis::LevelView;
using GridView = synopsis::GridSynopsis::LevelView;

std::shared_ptr<array::Array> MakeArray(int64_t n) {
  Rng rng(2026);
  std::vector<double> data(static_cast<size_t>(n));
  for (double& v : data) v = rng.Uniform(50, 250);
  array::ArraySchema schema;
  schema.name = "bench_synopsis";
  schema.length = n;
  schema.chunk_size = 4096;
  return array::Array::FromData(schema, data).value();
}

// ---------------------------------------------------------------------
// Old-path replica. The pre-change estimator stored each level as
// std::vector<SynopsisCell> (AoS); cells here are copied from the new SoA
// arrays so both sides aggregate identical doubles.

struct AosLevel {
  int64_t cell_size = 0;
  std::vector<synopsis::SynopsisCell> cells;
};

std::vector<AosLevel> MakeAosReplica(const synopsis::Synopsis& syn) {
  std::vector<AosLevel> levels(syn.num_levels());
  for (size_t li = 0; li < syn.num_levels(); ++li) {
    const View v = syn.level_view(li);
    levels[li].cell_size = v.cell_size;
    levels[li].cells.resize(static_cast<size_t>(v.num_cells));
    for (int64_t c = 0; c < v.num_cells; ++c) {
      levels[li].cells[static_cast<size_t>(c)] = {v.min[c], v.max[c],
                                                  v.sum[c]};
    }
  }
  return levels;
}

// Pre-change PickLevel: one division per level, worst-case cell estimate
// span / cell_size + 2.
size_t OldPickLevel(const std::vector<AosLevel>& levels, int64_t budget,
                    int64_t span) {
  size_t chosen = 0;
  for (size_t i = 0; i < levels.size(); ++i) {
    if (span / levels[i].cell_size + 2 <= budget) chosen = i;
  }
  return chosen;
}

// Pre-change ValueBounds: linear scan over the overlapped AoS cells.
Interval OldValueBounds(const AosLevel& level, int64_t lo, int64_t hi) {
  const int64_t first = lo / level.cell_size;
  const int64_t last = (hi - 1) / level.cell_size;
  double mn = level.cells[static_cast<size_t>(first)].min;
  double mx = level.cells[static_cast<size_t>(first)].max;
  for (int64_t c = first + 1; c <= last; ++c) {
    mn = std::min(mn, level.cells[static_cast<size_t>(c)].min);
    mx = std::max(mx, level.cells[static_cast<size_t>(c)].max);
  }
  return Interval(mn, mx);
}

// Pre-change MaxBounds: per-cell scan with containment tests.
Interval OldMaxBounds(const AosLevel& level, int64_t length, int64_t lo,
                      int64_t hi) {
  const int64_t cs = level.cell_size;
  const int64_t first = lo / cs;
  const int64_t last = (hi - 1) / cs;
  double upper = level.cells[static_cast<size_t>(first)].max;
  double overlap_floor = level.cells[static_cast<size_t>(first)].min;
  double witness = 0.0;
  bool have_contained = false;
  for (int64_t c = first; c <= last; ++c) {
    const synopsis::SynopsisCell& cell =
        level.cells[static_cast<size_t>(c)];
    upper = std::max(upper, cell.max);
    overlap_floor = std::max(overlap_floor, cell.min);
    const int64_t cell_lo = c * cs;
    const int64_t cell_end = std::min(length, cell_lo + cs);
    if (lo <= cell_lo && cell_end <= hi) {
      witness = have_contained ? std::max(witness, cell.max) : cell.max;
      have_contained = true;
    }
  }
  return Interval(
      have_contained ? std::max(witness, overlap_floor) : overlap_floor,
      upper);
}

struct QuerySet {
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;
};

QuerySet MakeQueries(int64_t n, int64_t span, int count, uint64_t seed) {
  QuerySet q;
  Rng rng(seed);
  q.lo.reserve(static_cast<size_t>(count));
  q.hi.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int64_t lo = rng.UniformInt(0, n - span);
    q.lo.push_back(lo);
    q.hi.push_back(lo + span);
  }
  return q;
}

double Checksum(const Interval& i) { return i.lo + i.hi; }

// The pre-change implementation bumped one global atomic per query (the
// contention hotspot the sharded counter replaced); the old-path loops
// charge the same increment.
std::atomic<int64_t> old_queries{0};

// ---------------------------------------------------------------------
// 2-D old-path replica. The pre-change GridSynopsis stored each level as
// a row-major vector of {min, max, sum} cell structs and answered every
// bounds query with a scan over all overlapped cells; cells here are
// copied from the new SoA planes so both sides aggregate identical
// doubles, and the sanity pass demands bit-identical intervals.

struct AosGridLevel {
  int64_t cell_size = 0;
  int64_t cell_rows = 0;
  int64_t cell_cols = 0;
  std::vector<synopsis::SynopsisCell> cells;
};

std::vector<AosGridLevel> MakeAosGridReplica(
    const synopsis::GridSynopsis& syn) {
  std::vector<AosGridLevel> levels(syn.num_levels());
  for (size_t li = 0; li < syn.num_levels(); ++li) {
    const GridView v = syn.level_view(li);
    levels[li].cell_size = v.cell_size;
    levels[li].cell_rows = v.cell_rows;
    levels[li].cell_cols = v.cell_cols;
    levels[li].cells.resize(
        static_cast<size_t>(v.cell_rows * v.cell_cols));
    for (int64_t c = 0; c < v.cell_rows * v.cell_cols; ++c) {
      levels[li].cells[static_cast<size_t>(c)] = {v.min[c], v.max[c],
                                                  v.sum[c]};
    }
  }
  return levels;
}

// Pre-change PickLevel: the same worst-case overlapped-cell estimate the
// new PickLevelIndex preserves, evaluated with one walk over the levels.
size_t OldGridPickLevel(const std::vector<AosGridLevel>& levels,
                        int64_t budget, int64_t rspan, int64_t cspan) {
  size_t chosen = 0;
  for (size_t i = 0; i < levels.size(); ++i) {
    const int64_t cells = (rspan / levels[i].cell_size + 2) *
                          (cspan / levels[i].cell_size + 2);
    if (cells <= budget) chosen = i;
  }
  return chosen;
}

// Pre-change ValueBounds: row-major scan over every overlapped cell.
Interval OldGridValueBounds(const AosGridLevel& level, int64_t r0,
                            int64_t r1, int64_t c0, int64_t c1) {
  const int64_t cs = level.cell_size;
  const int64_t cc = level.cell_cols;
  const int64_t i0 = r0 / cs;
  const int64_t i1 = (r1 - 1) / cs;
  const int64_t j0 = c0 / cs;
  const int64_t j1 = (c1 - 1) / cs;
  double mn = level.cells[static_cast<size_t>(i0 * cc + j0)].min;
  double mx = level.cells[static_cast<size_t>(i0 * cc + j0)].max;
  for (int64_t i = i0; i <= i1; ++i) {
    for (int64_t j = j0; j <= j1; ++j) {
      const synopsis::SynopsisCell& cell =
          level.cells[static_cast<size_t>(i * cc + j)];
      mn = std::min(mn, cell.min);
      mx = std::max(mx, cell.max);
    }
  }
  return Interval(mn, mx);
}

// Pre-change MaxBounds: all-cell scan with containment tests; contained
// cells witness their max from below, any overlapped cell guarantees its
// min is attained somewhere in the overlap.
Interval OldGridMaxBounds(const AosGridLevel& level, int64_t rows,
                          int64_t cols, int64_t r0, int64_t r1, int64_t c0,
                          int64_t c1) {
  const int64_t cs = level.cell_size;
  const int64_t cc = level.cell_cols;
  const int64_t i0 = r0 / cs;
  const int64_t i1 = (r1 - 1) / cs;
  const int64_t j0 = c0 / cs;
  const int64_t j1 = (c1 - 1) / cs;
  double upper = level.cells[static_cast<size_t>(i0 * cc + j0)].max;
  double floor = level.cells[static_cast<size_t>(i0 * cc + j0)].min;
  double witness = 0.0;
  bool have_contained = false;
  for (int64_t i = i0; i <= i1; ++i) {
    for (int64_t j = j0; j <= j1; ++j) {
      const synopsis::SynopsisCell& cell =
          level.cells[static_cast<size_t>(i * cc + j)];
      upper = std::max(upper, cell.max);
      floor = std::max(floor, cell.min);
      const int64_t cr0 = i * cs;
      const int64_t cr1 = std::min(rows, cr0 + cs);
      const int64_t cc0 = j * cs;
      const int64_t cc1 = std::min(cols, cc0 + cs);
      if (r0 <= cr0 && cr1 <= r1 && c0 <= cc0 && cc1 <= c1) {
        witness = have_contained ? std::max(witness, cell.max) : cell.max;
        have_contained = true;
      }
    }
  }
  return Interval(
      have_contained ? std::max(witness, floor) : floor, upper);
}

struct GridQuerySet {
  std::vector<int64_t> r0, r1, c0, c1;
};

GridQuerySet MakeGridQueries(int64_t side, int64_t span, int count,
                             uint64_t seed) {
  GridQuerySet q;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const int64_t r = rng.UniformInt(0, side - span);
    const int64_t c = rng.UniformInt(0, side - span);
    q.r0.push_back(r);
    q.r1.push_back(r + span);
    q.c0.push_back(c);
    q.c1.push_back(c + span);
  }
  return q;
}

std::shared_ptr<array::Grid> MakeBenchGrid(int64_t side) {
  Rng rng(2027);
  std::vector<double> data(static_cast<size_t>(side * side));
  for (double& v : data) v = rng.Uniform(50, 250);
  array::GridSchema schema;
  schema.name = "bench_grid_synopsis";
  schema.rows = side;
  schema.cols = side;
  schema.tile_size = 256;
  return array::Grid::FromData(std::move(schema), std::move(data)).value();
}

}  // namespace

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  const BenchEnv env = BenchEnv::FromEnv();
  const int64_t n = env.synth_length;

  const auto array = MakeArray(n);
  synopsis::SynopsisOptions options;  // default {65536,8192,1024,128}/64

  // --- build time: bottom-up vs emulated per-level rescan -------------
  Stopwatch build_watch;
  auto syn = synopsis::Synopsis::Build(*array, options).value();
  const double build_s = build_watch.ElapsedSeconds();

  // The pre-change build scanned the base array once per level; building
  // one single-level synopsis per cell size reproduces that cost.
  Stopwatch rescan_watch;
  for (const int64_t cs : options.cell_sizes) {
    synopsis::SynopsisOptions single;
    single.cell_sizes = {cs};
    single.max_cells_per_query = options.max_cells_per_query;
    auto s = synopsis::Synopsis::Build(*array, single).value();
    DQR_CHECK(s->MemoryBytes() > 0);
  }
  const double rescan_s = rescan_watch.ElapsedSeconds();

  TablePrinter build_table(
      "synopsis build (n = " + std::to_string(n) + ")",
      {"strategy", "seconds"});
  build_table.AddRow({"bottom-up", Secs(build_s)});
  build_table.AddRow({"per-level rescan", Secs(rescan_s)});
  build_table.Print();

  // --- per-level memory cost of the sparse tables ---------------------
  TablePrinter mem_table("per-level memory (SoA+RMQ vs AoS cells)",
                         {"cell_size", "cells", "bytes", "baseline",
                          "growth"});
  for (size_t li = 0; li < syn->num_levels(); ++li) {
    const View v = syn->level_view(li);
    // The AoS layout this PR replaced: one 24-byte {min,max,sum} struct
    // per cell plus the prefix-sum array.
    const int64_t baseline =
        v.num_cells * 24 + (v.num_cells + 1) * 8;
    const int64_t bytes = syn->LevelMemoryBytes(li);
    const double growth =
        static_cast<double>(bytes) / static_cast<double>(baseline);
    mem_table.AddRow({std::to_string(v.cell_size),
                      std::to_string(v.num_cells), std::to_string(bytes),
                      std::to_string(baseline),
                      std::to_string(growth)});
  }
  mem_table.Print();

  // --- ns/query sweep: spans routing to every level -------------------
  // Span in elements, chosen so the old worst-case estimate and the new
  // exact count route to the same level for (almost) every query — the
  // comparison then measures the same number of cells on both sides.
  // 7936 is the largest span the old estimate keeps on the finest level
  // (62 + 2 = 64 cells); whole-array spans fall back to the coarsest.
  const std::vector<int64_t> spans = {512,  1024,  4096,   7936,
                                      8192, 65536, 524288, n};
  const int kQueries = 2000;
  const int kRounds = 20;
  const int kReps = 7;

  const auto aos = MakeAosReplica(*syn);

  // Noise-robust ns/query: each rep times kRounds passes over the query
  // set; the minimum across reps is the least-disturbed run.
  const auto measure = [&](const auto& body) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      Stopwatch watch;
      for (int r = 0; r < kRounds; ++r) body();
      best = std::min(best, watch.ElapsedSeconds());
    }
    return best * 1e9 / (kRounds * kQueries);
  };

  TablePrinter query_table(
      "bounds queries (ns/query, " + std::to_string(kQueries * kRounds) +
          " queries per cell)",
      {"span", "level_cs", "cells", "value_rmq", "value_old", "max_rmq",
       "max_old", "speedup"});

  double sink = 0.0;
  for (const int64_t span : spans) {
    if (span > n) continue;
    const QuerySet q = MakeQueries(n, span, kQueries, 7777);
    const size_t li = syn->PickLevelIndex(q.lo[0], q.hi[0]);
    const View v = syn->level_view(li);
    const int64_t cells = (q.hi[0] - 1) / v.cell_size -
                          q.lo[0] / v.cell_size + 1;

    // Sanity: at the same level, both implementations must agree
    // interval-for-interval.
    for (int i = 0; i < kQueries; ++i) {
      const Interval fast = syn->ValueBounds(q.lo[i], q.hi[i]);
      const Interval slow = OldValueBounds(
          aos[syn->PickLevelIndex(q.lo[i], q.hi[i])], q.lo[i], q.hi[i]);
      DQR_CHECK(fast == slow);
    }

    const double value_rmq_ns = measure([&] {
      for (int i = 0; i < kQueries; ++i) {
        sink += Checksum(syn->ValueBounds(q.lo[i], q.hi[i]));
      }
    });

    const double value_old_ns = measure([&] {
      for (int i = 0; i < kQueries; ++i) {
        old_queries.fetch_add(1, std::memory_order_relaxed);
        const size_t pli = OldPickLevel(aos, options.max_cells_per_query,
                                        q.hi[i] - q.lo[i]);
        sink += Checksum(OldValueBounds(aos[pli], q.lo[i], q.hi[i]));
      }
    });

    const double max_rmq_ns = measure([&] {
      for (int i = 0; i < kQueries; ++i) {
        sink += Checksum(syn->MaxBounds(q.lo[i], q.hi[i]));
      }
    });

    const double max_old_ns = measure([&] {
      for (int i = 0; i < kQueries; ++i) {
        old_queries.fetch_add(1, std::memory_order_relaxed);
        const size_t pli = OldPickLevel(aos, options.max_cells_per_query,
                                        q.hi[i] - q.lo[i]);
        sink += Checksum(
            OldMaxBounds(aos[pli], n, q.lo[i], q.hi[i]));
      }
    });

    const double speedup = value_old_ns / value_rmq_ns;
    char speedup_buf[32];
    std::snprintf(speedup_buf, sizeof(speedup_buf), "%.2fx", speedup);
    query_table.AddRow(
        {std::to_string(span), std::to_string(v.cell_size),
         std::to_string(cells), std::to_string(value_rmq_ns),
         std::to_string(value_old_ns), std::to_string(max_rmq_ns),
         std::to_string(max_old_ns), speedup_buf});
  }
  query_table.Print();
  std::printf("checksum %.3f, queries served %lld (+%lld old-path)\n",
              sink, static_cast<long long>(syn->queries_served()),
              static_cast<long long>(
                  old_queries.load(std::memory_order_relaxed)));

  // =====================================================================
  // 2-D: the same differential on GridSynopsis (blocked 2-D RMQ + SIMD
  // fringe folds vs the per-cell AoS scan it replaced).
  const int64_t side = 2048;
  const auto grid = MakeBenchGrid(side);
  synopsis::GridSynopsisOptions grid_options;  // default {512,64,16}/256

  Stopwatch grid_build_watch;
  auto gsyn = synopsis::GridSynopsis::Build(*grid, grid_options).value();
  const double grid_build_s = grid_build_watch.ElapsedSeconds();

  // The pre-change build scanned the base grid once per level.
  Stopwatch grid_rescan_watch;
  for (const int64_t cs : grid_options.cell_sizes) {
    synopsis::GridSynopsisOptions single;
    single.cell_sizes = {cs};
    single.max_cells_per_query = grid_options.max_cells_per_query;
    auto s = synopsis::GridSynopsis::Build(*grid, single).value();
    DQR_CHECK(s->MemoryBytes() > 0);
  }
  const double grid_rescan_s = grid_rescan_watch.ElapsedSeconds();

  TablePrinter grid_build_table(
      "2-D synopsis build (" + std::to_string(side) + "x" +
          std::to_string(side) + ")",
      {"strategy", "seconds"});
  grid_build_table.AddRow({"bottom-up", Secs(grid_build_s)});
  grid_build_table.AddRow({"per-level rescan", Secs(grid_rescan_s)});
  grid_build_table.Print();

  // Square spans routed (by the shared worst-case estimate) to each
  // level: cs=16 up to span 224, cs=64 up to span 896, cs=512 beyond.
  const std::vector<int64_t> grid_spans = {64, 128, 224, 512, 896, 2048};
  const auto grid_aos = MakeAosGridReplica(*gsyn);

  TablePrinter grid_query_table(
      "2-D bounds queries (ns/query, " +
          std::to_string(kQueries * kRounds) + " queries per cell)",
      {"span", "level_cs", "cells", "value_rmq", "value_old", "max_rmq",
       "max_old", "speedup"});

  // Interleave the two paths rep by rep so both sample the same
  // frequency / scheduler-noise windows, and take more reps than the 1-D
  // sweep — a grid rep is only a few milliseconds, and run-to-run noise
  // otherwise dominates the comparison.
  const auto measure_pair = [&](const auto& a, const auto& b) {
    constexpr int kGridReps = 21;
    double best_a = std::numeric_limits<double>::infinity();
    double best_b = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kGridReps; ++rep) {
      {
        Stopwatch watch;
        for (int r = 0; r < kRounds; ++r) a();
        best_a = std::min(best_a, watch.ElapsedSeconds());
      }
      {
        Stopwatch watch;
        for (int r = 0; r < kRounds; ++r) b();
        best_b = std::min(best_b, watch.ElapsedSeconds());
      }
    }
    const double scale = 1e9 / (kRounds * kQueries);
    return std::make_pair(best_a * scale, best_b * scale);
  };

  for (const int64_t span : grid_spans) {
    if (span > side) continue;
    const GridQuerySet q = MakeGridQueries(side, span, kQueries, 8888);
    const size_t li =
        gsyn->PickLevelIndex(q.r0[0], q.r1[0], q.c0[0], q.c1[0]);
    const GridView v = gsyn->level_view(li);
    const int64_t cells_per_dim =
        (q.r1[0] - 1) / v.cell_size - q.r0[0] / v.cell_size + 1;

    // Sanity: bit-identical intervals, value and max, at the same level.
    for (int i = 0; i < kQueries; ++i) {
      const size_t pli =
          gsyn->PickLevelIndex(q.r0[i], q.r1[i], q.c0[i], q.c1[i]);
      DQR_CHECK(gsyn->ValueBounds(q.r0[i], q.r1[i], q.c0[i], q.c1[i]) ==
                OldGridValueBounds(grid_aos[pli], q.r0[i], q.r1[i],
                                   q.c0[i], q.c1[i]));
      DQR_CHECK(gsyn->MaxBounds(q.r0[i], q.r1[i], q.c0[i], q.c1[i]) ==
                OldGridMaxBounds(grid_aos[pli], side, side, q.r0[i],
                                 q.r1[i], q.c0[i], q.c1[i]));
    }

    const auto [value_rmq_ns, value_old_ns] = measure_pair(
        [&] {
          for (int i = 0; i < kQueries; ++i) {
            sink += Checksum(
                gsyn->ValueBounds(q.r0[i], q.r1[i], q.c0[i], q.c1[i]));
          }
        },
        [&] {
          for (int i = 0; i < kQueries; ++i) {
            old_queries.fetch_add(1, std::memory_order_relaxed);
            const size_t pli = OldGridPickLevel(
                grid_aos, grid_options.max_cells_per_query,
                q.r1[i] - q.r0[i], q.c1[i] - q.c0[i]);
            sink += Checksum(OldGridValueBounds(
                grid_aos[pli], q.r0[i], q.r1[i], q.c0[i], q.c1[i]));
          }
        });

    const auto [max_rmq_ns, max_old_ns] = measure_pair(
        [&] {
          for (int i = 0; i < kQueries; ++i) {
            sink += Checksum(
                gsyn->MaxBounds(q.r0[i], q.r1[i], q.c0[i], q.c1[i]));
          }
        },
        [&] {
          for (int i = 0; i < kQueries; ++i) {
            old_queries.fetch_add(1, std::memory_order_relaxed);
            const size_t pli = OldGridPickLevel(
                grid_aos, grid_options.max_cells_per_query,
                q.r1[i] - q.r0[i], q.c1[i] - q.c0[i]);
            sink += Checksum(OldGridMaxBounds(grid_aos[pli], side, side,
                                              q.r0[i], q.r1[i], q.c0[i],
                                              q.c1[i]));
          }
        });

    const double speedup = value_old_ns / value_rmq_ns;
    char speedup_buf[32];
    std::snprintf(speedup_buf, sizeof(speedup_buf), "%.2fx", speedup);
    grid_query_table.AddRow(
        {std::to_string(span), std::to_string(v.cell_size),
         std::to_string(cells_per_dim * cells_per_dim),
         std::to_string(value_rmq_ns), std::to_string(value_old_ns),
         std::to_string(max_rmq_ns), std::to_string(max_old_ns),
         speedup_buf});
  }
  grid_query_table.Print();
  std::printf(
      "2-D checksum %.3f, grid queries served %lld (+%lld old-path)\n",
      sink, static_cast<long long>(gsyn->queries_served()),
      static_cast<long long>(old_queries.load(std::memory_order_relaxed)));
  return 0;
}
