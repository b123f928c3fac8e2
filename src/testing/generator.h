#ifndef DQR_TESTING_GENERATOR_H_
#define DQR_TESTING_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/array.h"
#include "array/grid.h"
#include "common/status.h"
#include "core/fault.h"
#include "core/options.h"
#include "searchlight/query.h"
#include "synopsis/grid_synopsis.h"
#include "synopsis/synopsis.h"

namespace dqr::cache {
class SharedBoundsMemo;
}  // namespace dqr::cache

namespace dqr::fuzz {

// Which refinement direction a generated workload targets. Targeting is
// statistical (the generator aims the anchor constraint's bounds at a
// scarce or plentiful quantile of the generated signal); the oracle and
// the differential check are direction-agnostic, so a workload that lands
// on the other side of k still checks something real.
enum class FuzzMode { kRelax, kConstrain, kSkyline };

const char* FuzzModeName(FuzzMode mode);
Result<FuzzMode> FuzzModeFromName(const std::string& name);

// Shrinking knobs: caps applied on top of the seed-derived draw. 0 / false
// means "no override". Same seed + same overrides = same workload, which
// is what lets the shrinker re-run a failing case at reduced size and keep
// a reduction only when the failure persists.
struct WorkloadOverrides {
  int64_t length_cap = 0;    // clamp the array length (min 32 cells)
  int max_constraints = 0;   // truncate the constraint list (min 1)
  int64_t k_cap = 0;         // clamp the result cardinality (min 1)
  int64_t x_width_cap = 0;   // clamp the width of variable 0's domain
  bool no_diversity = false; // drop any result-spacing configuration
  bool default_alpha = false;  // force alpha = 0.5
  // Artificial busy-wait per uncached synopsis estimate (bench sessions
  // only). Timing-only: charged on bounds-cache misses, never changes
  // any computed value or answer.
  int64_t cost_ns = 0;

  bool any() const {
    return length_cap != 0 || max_constraints != 0 || k_cap != 0 ||
           x_width_cap != 0 || no_diversity || default_alpha ||
           cost_ns != 0;
  }
  // "len<=96 cons<=2 k<=1 ..." for reproducer lines; "" when !any().
  std::string ToString() const;
};

// One self-contained generated problem: data + synopsis + query + the
// semantic knobs (alpha, constrain mode, diversity) that define what the
// correct answer *is*. Engine-side execution knobs that must never change
// the answer live in EngineConfig instead.
struct Workload {
  uint64_t seed = 0;
  FuzzMode mode = FuzzMode::kRelax;
  WorkloadOverrides overrides;

  // Exactly one data shape is populated: (array, synopsis) for 1-D
  // window workloads, (grid, grid_synopsis) when grid_workload is set —
  // the refinement engine and the oracle are dimension-agnostic, so both
  // shapes run through the same differential check.
  bool grid_workload = false;
  std::shared_ptr<array::Array> array;
  std::shared_ptr<const synopsis::Synopsis> synopsis;
  std::shared_ptr<array::Grid> grid;
  std::shared_ptr<const synopsis::GridSynopsis> grid_synopsis;
  searchlight::QuerySpec query;

  double alpha = 0.5;
  core::ConstrainMode constrain = core::ConstrainMode::kRank;
  std::vector<int64_t> result_spacing;  // empty = diversity off
  int64_t diversity_pool_factor = 8;

  // Semantic identity of each constraint's function (kind + parameters +
  // value range at full precision), in query.constraints order — the
  // function_ids contract of cache::CachedQuery. Two workloads of one
  // session share ids exactly when the functions compute the same thing.
  std::vector<std::string> function_ids;

  // The query in the data/query_parser text IR, such that
  // BuildQuery(ParseQueryText(query_text), {array, synopsis}) rebuilds
  // `query` answer-identically (same functions, bounds, weights, flags;
  // estimate_cost_ns / shared_memo are timing-only and deliberately not
  // expressible). This is what the fuzz harness's serve transport ships
  // over the wire. Empty for grid workloads — the text IR is 1-D only.
  std::string query_text;

  // One-line human-readable description for logs and repro files.
  std::string summary;
};

// Derives a complete workload from a single uint64 seed: array schema +
// synthetic signal (plateaus, spikes, noise over a calm base), a synopsis,
// 1-4 window constraints (avg/min/max/neighborhood contrast) with seeded
// bounds/ranges/weights/relaxability/preferences, k, alpha, constrain
// mode, and optional diversity spacing. Deterministic in (seed, mode,
// overrides, grid); independent draws are decorrelated across seeds by
// splitmix64. With grid=true the workload is two-dimensional: a tiled
// grid + GridSynopsis and rectangle constraints (rect_avg anchor,
// rect_max / rect_contrast satellites) over four decision variables
// (y, x, h, w). The grid draw uses a decorrelated stream, so 1-D
// workloads of the same seed are unchanged.
// When `shared_memo` is non-null every constraint function of the
// workload attaches it (under `memo_space`) as the L2 behind its local
// BoundsCache — the warm-session configuration. The memo never changes
// any function value (a hit returns exactly what the synopsis would
// recompute), and the workload draw itself is byte-identical with or
// without it.
Workload MakeWorkload(uint64_t seed, FuzzMode mode,
                      const WorkloadOverrides& overrides = {},
                      bool grid = false,
                      cache::SharedBoundsMemo* shared_memo = nullptr,
                      uint64_t memo_space = 0);

// --- correlated query sessions (the session fuzz dimension) ---

// One session step's change relative to the previous step's query.
enum class SessionMutation {
  kRepeat,   // identical query (exact-hit coverage)
  kRelax,    // widen every finite constraint bound (looser query)
  kTighten,  // shrink constraint bounds (tighter query; subsumption prey)
  kShift,    // move variable 0's domain to a sub-window of the base domain
};

const char* SessionMutationName(SessionMutation mutation);
Result<SessionMutation> SessionMutationFromName(const std::string& name);

// An ordered chain of mutations applied cumulatively after the base
// query. Codec round-trips through "relax,shift,repeat".
struct SessionPlan {
  std::vector<SessionMutation> steps;

  std::string ToString() const;
  static Result<SessionPlan> FromString(const std::string& text);
};

// Derives a plan of `num_steps` mutations from the seed. Prefix-stable:
// the first n steps of MakeSessionPlan(seed, m >= n) equal
// MakeSessionPlan(seed, n) — which is what lets the shrinker shorten a
// failing session without changing the steps it keeps.
SessionPlan MakeSessionPlan(uint64_t seed, int num_steps);

// A correlated query session: the base workload plus one mutated copy per
// plan step, all over the same data/synopsis/functions (mutations only
// move constraint bounds and domains). steps[0] is the base;
// steps[i + 1] applies plan.steps[i] to steps[i].
struct QuerySession {
  SessionPlan plan;
  // Identifies the data + synopsis configuration every step shares; the
  // dataset_id of cache::CachedQuery.
  std::string dataset_id;
  std::vector<Workload> steps;
};

// Deterministic in (seed, mode, plan, overrides, grid); each mutation's
// draws depend only on the seed and its step index, never on earlier
// mutations. shared_memo/memo_space thread through to every step's
// functions (the warm-session configuration).
QuerySession MakeSession(uint64_t seed, FuzzMode mode,
                         const SessionPlan& plan,
                         const WorkloadOverrides& overrides = {},
                         bool grid = false,
                         cache::SharedBoundsMemo* shared_memo = nullptr,
                         uint64_t memo_space = 0);

// One engine execution configuration. Everything here is, per the §3
// guarantees, answer-preserving: the differential harness runs the same
// workload under several of these and demands byte-identical canonical
// results, all equal to the oracle.
struct EngineConfig {
  // The engine knobs the config sets: the kConfigKnob rows of the knob
  // table (core/knobs.h) and enable_failure_detector ("det"). Engine
  // defaults, except one shard: the 1x1 sequential baseline. No other
  // field is read: ToOptions builds the run from the config's text.
  core::RefineOptions knobs = [] {
    core::RefineOptions o;
    o.shards_per_instance = 1;
    return o;
  }();
  // > 0 plants this many deterministic crash events (derived from the
  // workload seed) on distinct victim instances; instance 0 is never a
  // victim, so the cluster always retains a survivor and the run must
  // still complete with the full, correct result set.
  int fault_crashes = 0;
  // Attach a flight recorder to the engine run (DESIGN.md §8); the
  // harness owns it, so knobs.trace stays unset. Tracing is an execution
  // knob like the others: it must never change the answer, and the
  // differential check proves that per case.
  bool trace = false;
  // Dispatch min/max reductions to the CPU's vector kernels (AVX2/NEON)
  // instead of the scalar folds. The kernels are value-identical by
  // design (common/simd.h); running each case under both settings makes
  // the differential check prove scalar == SIMD answers.
  bool simd = true;
  // Route the case through a loopback dqr_serve server: the workload's
  // query_text ships over the framed protocol, executes in the shared
  // engine session, and the FINAL frame's canonical body is compared
  // against the oracle. Transport must be answer-preserving; the
  // differential check proves serve == direct per case. Ignored (runs
  // direct) for grid workloads and fault-injection configs — neither is
  // expressible over the wire.
  bool serve = false;
  // Attach a query profiler (obs/profile.h) to the run. Profiling rides
  // an internal flight recorder plus the RunStats histograms, all of
  // which observe the search without steering it — the differential
  // check proves profiled == unprofiled answers per case.
  bool profile = false;

  // Compact, parseable "inst=4;shards=8;..." form used by --config= and
  // reproducer lines. FromString accepts exactly what ToString emits
  // (order-insensitive, unknown keys rejected, absent keys at their
  // defaults, so older lines without vsel/split/bcast still parse) and
  // parses every value with the knob table's strict parsers.
  std::string ToString() const;
  static Result<EngineConfig> FromString(const std::string& text);

  // Materializes RefineOptions for `workload`. When fault_crashes > 0 the
  // derived crash plan is written into *plan (which must outlive the
  // query execution) and referenced from the returned options.
  core::RefineOptions ToOptions(const Workload& workload,
                                core::FaultPlan* plan) const;
};

// The per-seed config matrix: [0] is always the 1x1 sequential baseline,
// [1] a work-stealing multi-instance config (always with simd=0, so every
// matrix differentials the scalar kernels against the SIMD baseline),
// [2] a fault-injection config (crashes + detector + stealing), and any
// further entries are fully seeded random draws. count is clamped to
// [3, 8].
std::vector<EngineConfig> MakeConfigMatrix(uint64_t seed, int count);

}  // namespace dqr::fuzz

#endif  // DQR_TESTING_GENERATOR_H_
