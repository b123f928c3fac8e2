#ifndef DQR_CACHE_SEMANTIC_CACHE_H_
#define DQR_CACHE_SEMANTIC_CACHE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/bounds_memo.h"
#include "common/status.h"
#include "core/options.h"
#include "core/refiner.h"
#include "core/solution.h"
#include "searchlight/query.h"

namespace dqr::cache {

// A query as the semantic cache sees it: the spec plus the identity of
// the data it runs over and of each constraint's function. Two queries
// may share cache state only when their dataset ids match and equal
// function ids really mean "the same UDF with the same parameters and
// value range over the same data" — the caller owns that contract (the
// fuzz generator derives ids from the function kind, its parameters and
// its value range at full precision).
struct CachedQuery {
  searchlight::QuerySpec query;
  std::string dataset_id;
  // One id per constraint, in query.constraints order.
  std::vector<std::string> function_ids;
};

// How ExecuteQueryCached answered one query.
enum class CacheOutcome {
  // Cache unusable for this query (custom penalty/rank models).
  kBypass,
  // Nothing reusable; executed cold (possibly populating the cache).
  kMiss,
  // Byte-identical query seen before on this epoch; answer returned
  // without executing.
  kExactHit,
  // A looser cached answer subsumed this query (every exact answer lies
  // within its certified relaxation radius); answer synthesized without
  // executing.
  kSubsumeHit,
  // Cached solutions of the query seeded the result tracker; executed
  // with the bounds they imply as a pruning head start.
  kWarmStart,
};

const char* CacheOutcomeName(CacheOutcome outcome);

// One completed, reusable answer. Stores a full copy of the query spec
// (factories are value-captured and shared-ptr backed, so copies are
// cheap and safe) plus the semantic knobs that defined the answer.
struct CachedAnswer {
  std::string fingerprint;
  std::string dataset_id;
  uint64_t epoch = 1;
  searchlight::QuerySpec query;
  std::vector<std::string> function_ids;
  bool enable = true;
  double alpha = 0.5;
  core::ConstrainMode constrain = core::ConstrainMode::kRank;
  std::vector<int64_t> result_spacing;
  std::vector<core::Solution> results;
  // Distinct exact results the run confirmed (RunStats::exact_results).
  int64_t exact_results = 0;

  // Effective cardinality / constrain mode, mirroring ExecuteQuery.
  int64_t effective_k() const { return enable ? query.k : 0; }
  core::ConstrainMode effective_mode() const {
    return effective_k() > 0 ? constrain : core::ConstrainMode::kNone;
  }
};

// The warm-start solutions for `tight` (see DESIGN.md "Cross-query
// semantic cache"): every distinct point inside the tight query's domains
// among `candidates` (answers of the current epoch) over the same dataset
// and functions, with the exact function values stored for it. Passed as
// RefineOptions::warm_results, they are admitted as if validated first, so
// final results are byte-identical to a cold run. Empty for custom models,
// effective k == 0 and diversity. Exposed for the cache_invariants
// property tests.
std::vector<core::Solution> WarmResults(
    const CachedQuery& tight, const core::RefineOptions& options,
    const std::vector<std::shared_ptr<const CachedAnswer>>& candidates);

// Attempts to answer `tight` from the single looser cached answer: checks
// the certificate ("every point with re-scored penalty below B is in the
// stored answer"), computes the relaxation radius of the tight query's
// search region under the loose penalty model, and — when radius < B —
// synthesizes the exact answer in the engine's final ordering. Returns
// nullopt when no sound certificate applies. Exposed for the
// cache_invariants property tests.
std::optional<std::vector<core::Solution>> TrySubsume(
    const CachedQuery& tight, const core::RefineOptions& options,
    const CachedAnswer& loose);

// The process-wide semantic cache: a shared bounds memo (L2 behind every
// query's BoundsCache) plus a bounded FIFO of completed answers, both
// epoch-invalidated per dataset. Thread-safe; one instance may serve
// concurrent queries.
class SemanticCache {
 public:
  struct Stats {
    int64_t exact_hits = 0;
    int64_t subsume_hits = 0;
    int64_t warm_starts = 0;
    int64_t misses = 0;
    int64_t bypasses = 0;
    int64_t insertions = 0;
    int64_t invalidations = 0;
  };

  explicit SemanticCache(size_t max_answers = 64);

  SharedBoundsMemo& memo() { return memo_; }

  uint64_t CurrentEpoch(const std::string& dataset_id) const {
    return epochs_.Current(dataset_id);
  }
  // Current memo-space key for queries over `dataset_id`; attach it (with
  // &memo()) to the function contexts of a query to share bounds lookups.
  uint64_t MemoSpace(const std::string& dataset_id) const {
    return MemoSpaceKey(dataset_id, epochs_.Current(dataset_id));
  }

  // The dataset mutated: advances its epoch, drops its cached answers and
  // erases its memo space. Returns the new epoch.
  uint64_t InvalidateDataset(const std::string& dataset_id);

  // Exact-match lookup on the current epoch; nullptr on miss.
  std::shared_ptr<const CachedAnswer> LookupExact(
      const std::string& fingerprint, uint64_t epoch);
  // Every cached answer for (dataset, epoch), newest first.
  std::vector<std::shared_ptr<const CachedAnswer>> AnswersFor(
      const std::string& dataset_id, uint64_t epoch);

  void InsertAnswer(CachedAnswer answer);

  Stats stats() const;

  // Outcome accounting used by ExecuteQueryCached.
  void CountOutcome(CacheOutcome outcome);

 private:
  const size_t max_answers_;
  SharedBoundsMemo memo_;
  EpochRegistry epochs_;

  mutable std::mutex mu_;
  std::deque<std::shared_ptr<const CachedAnswer>> answers_;  // newest front
  std::unordered_map<std::string, std::shared_ptr<const CachedAnswer>>
      by_fingerprint_;
  Stats stats_;
};

// The fingerprint of everything that defines a query's answer: dataset,
// domains, constraints (function ids, bounds, weights, flags), k, and the
// semantic options (enable, alpha, constrain mode, diversity). Engine
// shape and scheduling knobs are deliberately excluded — they are
// answer-preserving by the §3 guarantees the fuzz harness enforces.
std::string QueryFingerprint(const CachedQuery& cq,
                             const core::RefineOptions& options);

// What ResolveQueryCached found: a hit's answer, or the key a miss's
// completed answer is stored under.
struct CacheResolution {
  CacheOutcome outcome = CacheOutcome::kBypass;  // exact/subsume/miss/bypass
  std::optional<core::RunResult> answer;          // set on a hit only
  std::string fingerprint;
  uint64_t epoch = 0;
};

// Semantic-cache-aware ExecuteQuery, in two steps (DESIGN.md §9).
// Resolve: exact hit, then subsumption, answered without executing (RunStats
// carry only the cache counters; on_result streams the answer); else a
// miss, or a bypass for a null cache or custom models. It needs no engine
// task, so EngineSession::ExecuteCached resolves before admission.
// Execute: a hit passes through; anything else runs, warm-started from
// the answers cached by then, and a completed run without custom models
// is stored. ExecuteQueryCached is resolve then execute. `outcome`, when
// non-null, receives how the query was answered; each query is counted
// in SemanticCache::Stats once, a hit by resolve and the rest by execute.
Result<CacheResolution> ResolveQueryCached(SemanticCache* cache,
                                           const CachedQuery& cq,
                                           const core::RefineOptions& options);
Result<core::RunResult> ExecuteResolved(SemanticCache* cache,
                                        const CachedQuery& cq,
                                        const core::RefineOptions& options,
                                        CacheResolution resolution,
                                        CacheOutcome* outcome = nullptr);
Result<core::RunResult> ExecuteQueryCached(SemanticCache* cache,
                                           const CachedQuery& cq,
                                           const core::RefineOptions& options,
                                           CacheOutcome* outcome = nullptr);

}  // namespace dqr::cache

#endif  // DQR_CACHE_SEMANTIC_CACHE_H_
