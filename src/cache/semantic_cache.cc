#include "cache/semantic_cache.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "common/check.h"
#include "core/model_builders.h"
#include "core/penalty.h"
#include "core/rank.h"
#include "obs/trace.h"

namespace dqr::cache {
namespace {

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
  *out += ';';
}

void AppendInt(std::string* out, int64_t v) {
  *out += std::to_string(v);
  *out += ';';
}

bool PointInDomains(const std::vector<int64_t>& point,
                    const cp::DomainBox& domains) {
  if (point.size() != domains.size()) return false;
  for (size_t i = 0; i < point.size(); ++i) {
    if (!domains[i].Contains(point[i])) return false;
  }
  return true;
}

// Whether `answer` describes the same dataset and the same constraint
// functions as `cq` — the precondition for re-scoring its stored values
// under cq's models.
bool SameFunctions(const CachedQuery& cq, const CachedAnswer& answer) {
  return answer.dataset_id == cq.dataset_id &&
         answer.function_ids == cq.function_ids &&
         answer.query.constraints.size() == cq.query.constraints.size();
}

// domains_t lies inside domains_l, dimension by dimension.
bool DomainsContained(const cp::DomainBox& tight, const cp::DomainBox& loose) {
  if (tight.size() != loose.size()) return false;
  for (size_t i = 0; i < tight.size(); ++i) {
    if (tight[i].lo < loose[i].lo || tight[i].hi > loose[i].hi) return false;
  }
  return true;
}

struct ByPointOrder {
  bool operator()(const core::Solution& a, const core::Solution& b) const {
    return a.point < b.point;
  }
};

struct ByRankOrder {
  bool operator()(const core::Solution& a, const core::Solution& b) const {
    if (a.rk != b.rk) return a.rk > b.rk;
    return a.point < b.point;
  }
};

}  // namespace

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kBypass:
      return "bypass";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kExactHit:
      return "exact";
    case CacheOutcome::kSubsumeHit:
      return "subsume";
    case CacheOutcome::kWarmStart:
      return "warm";
  }
  return "unknown";
}

std::string QueryFingerprint(const CachedQuery& cq,
                             const core::RefineOptions& options) {
  std::string fp;
  fp.reserve(256);
  fp += "ds=";
  fp += cq.dataset_id;
  fp += ';';
  AppendInt(&fp, cq.query.k);
  AppendInt(&fp, options.enable ? 1 : 0);
  AppendDouble(&fp, options.alpha);
  AppendInt(&fp, static_cast<int64_t>(options.constrain));
  fp += "sp=";
  for (const int64_t s : options.result_spacing) AppendInt(&fp, s);
  AppendInt(&fp, options.diversity_pool_factor);
  fp += "dom=";
  for (const cp::IntDomain& d : cq.query.domains) {
    AppendInt(&fp, d.lo);
    AppendInt(&fp, d.hi);
  }
  for (size_t c = 0; c < cq.query.constraints.size(); ++c) {
    const searchlight::QueryConstraint& qc = cq.query.constraints[c];
    fp += "c=";
    fp += c < cq.function_ids.size() ? cq.function_ids[c] : "?";
    fp += ';';
    AppendDouble(&fp, qc.bounds.lo);
    AppendDouble(&fp, qc.bounds.hi);
    AppendDouble(&fp, qc.relax_weight);
    AppendInt(&fp, qc.relaxable ? 1 : 0);
    AppendInt(&fp, qc.constrainable ? 1 : 0);
    AppendDouble(&fp, qc.rank_weight);
    AppendInt(&fp,
              qc.preference == searchlight::RankPreference::kMaximize ? 1 : 0);
  }
  return fp;
}

std::vector<core::Solution> WarmResults(
    const CachedQuery& tight, const core::RefineOptions& options,
    const std::vector<std::shared_ptr<const CachedAnswer>>& candidates) {
  std::vector<core::Solution> warm;
  // Custom models are outside the cache's contract, without a cardinality
  // target there is nothing to prune, and diversity stays excluded as in
  // TrySubsume.
  if (options.custom_penalty != nullptr || options.custom_rank != nullptr ||
      !options.enable || tight.query.k <= 0 ||
      !options.result_spacing.empty()) {
    return warm;
  }
  const size_t n = tight.query.constraints.size();
  std::set<std::vector<int64_t>> seen;
  for (const std::shared_ptr<const CachedAnswer>& cand : candidates) {
    if (cand == nullptr || !SameFunctions(tight, *cand)) continue;
    for (const core::Solution& s : cand->results) {
      if (s.values.size() != n) continue;
      if (!PointInDomains(s.point, tight.query.domains)) continue;
      if (seen.insert(s.point).second) warm.push_back(s);
    }
  }
  return warm;
}

std::optional<std::vector<core::Solution>> TrySubsume(
    const CachedQuery& tight, const core::RefineOptions& options,
    const CachedAnswer& loose) {
  if (options.custom_penalty != nullptr || options.custom_rank != nullptr) {
    return std::nullopt;
  }
  // Diversity distorts both the stored pool (certificate) and the final
  // selection (synthesis); neither side may use it.
  if (!options.result_spacing.empty() || !loose.result_spacing.empty()) {
    return std::nullopt;
  }
  if (!SameFunctions(tight, loose)) return std::nullopt;
  if (tight.function_ids.size() != tight.query.constraints.size()) {
    return std::nullopt;
  }
  if (!DomainsContained(tight.query.domains, loose.query.domains)) {
    return std::nullopt;
  }

  const size_t n = tight.query.constraints.size();
  Result<core::PenaltyModel> penalty_l_r =
      core::BuildPenaltyModel(loose.query, loose.alpha);
  Result<core::PenaltyModel> penalty_t_r =
      core::BuildPenaltyModel(tight.query, options.alpha);
  Result<core::RankModel> rank_t_r = core::BuildRankModel(tight.query);
  if (!penalty_l_r.ok() || !penalty_t_r.ok() || !rank_t_r.ok()) {
    return std::nullopt;
  }
  const core::PenaltyModel penalty_l = std::move(penalty_l_r).value();
  const core::PenaltyModel penalty_t = std::move(penalty_t_r).value();
  const core::RankModel rank_t = std::move(rank_t_r).value();

  // Exactness under the tight query must imply "every value inside the
  // tight bounds". That fails only when alpha == 1 hides a violated
  // relaxable constraint whose relax weight is 0.
  if (options.alpha >= 1.0) {
    for (int c = 0; c < penalty_t.num_constraints(); ++c) {
      if (penalty_t.spec(c).relaxable && penalty_t.spec(c).weight <= 0.0) {
        return std::nullopt;
      }
    }
  }

  // Radius soundness, constraint by constraint: the worst-case loose
  // penalty over the tight bounds must really bound the loose penalty of
  // any value inside them. Outside both the loose bounds and the value
  // range the loose penalty is infinite while WorstPenalty clamps at
  // distance 1, and WorstPenalty ignores non-relaxable constraints
  // entirely — so each constraint needs its tight bounds inside the loose
  // bounds (penalty contribution 0) or, if relaxable, inside the value
  // range (no hard-limit region).
  std::vector<Interval> estimates;
  estimates.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    const Interval& bt = tight.query.constraints[c].bounds;
    const core::PenaltySpec& sl = penalty_l.spec(static_cast<int>(c));
    const bool inside_loose = sl.bounds.Contains(bt);
    if (!inside_loose && !(sl.relaxable && sl.value_range.Contains(bt))) {
      return std::nullopt;
    }
    estimates.push_back(bt);
  }

  // Completeness certificate of the stored answer: a threshold B such
  // that every point of the loose search space with loose penalty < B
  // (or == 0 when B == 0) appears in it.
  const int64_t k_l = loose.effective_k();
  const core::ConstrainMode mode_l = loose.effective_mode();
  double certificate;
  if (k_l == 0) {
    certificate = 0.0;  // every exact result stored
  } else if (loose.exact_results >= k_l) {
    if (mode_l != core::ConstrainMode::kNone) {
      // Rank/skyline constraining kept only the top slice of the exact
      // set — no penalty-threshold certificate exists.
      return std::nullopt;
    }
    certificate = 0.0;
  } else if (static_cast<int64_t>(loose.results.size()) < k_l) {
    // Relax branch that ran out of finite-penalty points: the answer is
    // every one of them.
    certificate = std::numeric_limits<double>::infinity();
  } else {
    // Relax branch best-k: complete below the worst stored penalty.
    certificate = 0.0;
    for (const core::Solution& s : loose.results) {
      certificate = std::max(certificate, s.rp);
    }
  }

  const std::vector<char> known(n, 1);
  const double radius = penalty_l.WorstPenalty(estimates, known);
  const bool covered =
      certificate == 0.0 ? radius == 0.0 : radius < certificate;
  if (!covered) return std::nullopt;

  // Every exact answer of the tight query now provably lies in the stored
  // results; collect and re-score them.
  std::vector<core::Solution> exact;
  for (const core::Solution& s : loose.results) {
    if (s.values.size() != n) continue;
    if (!PointInDomains(s.point, tight.query.domains)) continue;
    if (penalty_t.Penalty(s.values) != 0.0) continue;
    core::Solution out;
    out.point = s.point;
    out.values = s.values;
    out.rp = 0.0;
    out.rk = rank_t.Rank(s.values);
    exact.push_back(std::move(out));
  }

  // Synthesize the final list exactly as ResultTracker::FinalResults
  // would order it. Anything needing relaxation or skyline semantics
  // falls back to (warm-started) execution.
  const int64_t k_t = options.enable ? tight.query.k : 0;
  const core::ConstrainMode mode_t =
      k_t > 0 ? options.constrain : core::ConstrainMode::kNone;
  if (k_t == 0 || (mode_t == core::ConstrainMode::kNone &&
                   static_cast<int64_t>(exact.size()) >= k_t)) {
    std::sort(exact.begin(), exact.end(), ByPointOrder());
    return exact;
  }
  if (mode_t == core::ConstrainMode::kRank &&
      static_cast<int64_t>(exact.size()) >= k_t) {
    std::sort(exact.begin(), exact.end(), ByRankOrder());
    exact.resize(static_cast<size_t>(k_t));
    return exact;
  }
  return std::nullopt;
}

SemanticCache::SemanticCache(size_t max_answers)
    : max_answers_(std::max<size_t>(1, max_answers)) {}

uint64_t SemanticCache::InvalidateDataset(const std::string& dataset_id) {
  // Erase the old memo space before bumping so no stale interval can be
  // observed under the new epoch's key (different key anyway — the erase
  // just reclaims memory promptly).
  memo_.EraseSpace(MemoSpaceKey(dataset_id, epochs_.Current(dataset_id)));
  const uint64_t epoch = epochs_.Bump(dataset_id);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = answers_.begin(); it != answers_.end();) {
    if ((*it)->dataset_id == dataset_id) {
      by_fingerprint_.erase((*it)->fingerprint);
      it = answers_.erase(it);
    } else {
      ++it;
    }
  }
  ++stats_.invalidations;
  return epoch;
}

std::shared_ptr<const CachedAnswer> SemanticCache::LookupExact(
    const std::string& fingerprint, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_fingerprint_.find(fingerprint);
  if (it == by_fingerprint_.end() || it->second->epoch != epoch) {
    return nullptr;
  }
  return it->second;
}

std::vector<std::shared_ptr<const CachedAnswer>> SemanticCache::AnswersFor(
    const std::string& dataset_id, uint64_t epoch) {
  std::vector<std::shared_ptr<const CachedAnswer>> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& answer : answers_) {
    if (answer->dataset_id == dataset_id && answer->epoch == epoch) {
      out.push_back(answer);
    }
  }
  return out;
}

void SemanticCache::InsertAnswer(CachedAnswer answer) {
  auto shared = std::make_shared<const CachedAnswer>(std::move(answer));
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = by_fingerprint_.find(shared->fingerprint);
      it != by_fingerprint_.end()) {
    // Refresh: drop the superseded entry from the FIFO as well.
    std::erase(answers_, it->second);
    by_fingerprint_.erase(it);
  }
  answers_.push_front(shared);
  by_fingerprint_[shared->fingerprint] = shared;
  while (answers_.size() > max_answers_) {
    const auto victim = answers_.back();
    answers_.pop_back();
    const auto it = by_fingerprint_.find(victim->fingerprint);
    if (it != by_fingerprint_.end() && it->second == victim) {
      by_fingerprint_.erase(it);
    }
  }
  ++stats_.insertions;
}

SemanticCache::Stats SemanticCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SemanticCache::CountOutcome(CacheOutcome outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (outcome) {
    case CacheOutcome::kBypass:
      ++stats_.bypasses;
      break;
    case CacheOutcome::kMiss:
      ++stats_.misses;
      break;
    case CacheOutcome::kExactHit:
      ++stats_.exact_hits;
      break;
    case CacheOutcome::kSubsumeHit:
      ++stats_.subsume_hits;
      break;
    case CacheOutcome::kWarmStart:
      ++stats_.warm_starts;
      break;
  }
}

Result<CacheResolution> ResolveQueryCached(SemanticCache* cache,
                                           const CachedQuery& cq,
                                           const core::RefineOptions& options) {
  if (cq.function_ids.size() != cq.query.constraints.size()) {
    return InvalidArgumentError(
        "CachedQuery needs one function id per constraint");
  }
  CacheResolution resolution;  // a bypass until the cache applies
  if (cache == nullptr || options.custom_penalty != nullptr ||
      options.custom_rank != nullptr) {
    return resolution;
  }

  resolution.outcome = CacheOutcome::kMiss;
  resolution.epoch = cache->CurrentEpoch(cq.dataset_id);
  resolution.fingerprint = QueryFingerprint(cq, options);

  // Exact hit (the same semantic query on the same epoch), else a looser
  // answer that certifiably contains every exact one.
  std::optional<std::vector<core::Solution>> answer;
  CacheOutcome hit = CacheOutcome::kExactHit;
  if (std::shared_ptr<const CachedAnswer> exact =
          cache->LookupExact(resolution.fingerprint, resolution.epoch)) {
    answer = exact->results;
  } else {
    hit = CacheOutcome::kSubsumeHit;
    for (const std::shared_ptr<const CachedAnswer>& candidate :
         cache->AnswersFor(cq.dataset_id, resolution.epoch)) {
      answer = TrySubsume(cq, options, *candidate);
      if (answer.has_value()) break;
    }
  }
  if (!answer.has_value()) return resolution;

  // The hit's result streams through on_result, as the online-answering
  // contract asks; its stats carry only the cache counter.
  const int trace_epoch =
      options.trace != nullptr ? options.trace->BeginQuery() : -1;
  obs::ThreadTracer tracer =
      obs::MakeTracer(options.trace, /*instance=*/-1,
                      obs::ThreadRole::kSession, options.trace_buffer_events,
                      trace_epoch);
  obs::SpanScope span = tracer.Scope(obs::EventName::kCacheLookup);
  core::RunResult& run = resolution.answer.emplace();
  run.results = std::move(answer).value();
  run.trace_epoch = trace_epoch;
  for (const core::Solution& s : run.results) {
    if (s.rp == 0.0) ++run.stats.exact_results;
    if (options.on_result) options.on_result(s);
  }
  if (hit == CacheOutcome::kExactHit) {
    run.stats.answer_cache_exact_hits = 1;
  } else {
    run.stats.answer_cache_subsumption_hits = 1;
  }
  tracer.Instant(hit == CacheOutcome::kExactHit
                     ? obs::EventName::kCacheExactHit
                     : obs::EventName::kCacheSubsume,
                 static_cast<double>(run.results.size()));
  resolution.outcome = hit;
  cache->CountOutcome(hit);
  return resolution;
}

Result<core::RunResult> ExecuteResolved(SemanticCache* cache,
                                        const CachedQuery& cq,
                                        const core::RefineOptions& options,
                                        CacheResolution resolution,
                                        CacheOutcome* outcome) {
  if (outcome != nullptr) *outcome = resolution.outcome;
  if (resolution.answer.has_value()) return *std::move(resolution.answer);
  if (resolution.outcome == CacheOutcome::kBypass) {
    if (cache != nullptr) cache->CountOutcome(CacheOutcome::kBypass);
    return core::ExecuteQuery(cq.query, options);
  }

  // --- execute, possibly warm-started, sharing the bounds memo ---
  const std::vector<core::Solution> warm = WarmResults(
      cq, options, cache->AnswersFor(cq.dataset_id, resolution.epoch));
  const CacheOutcome resolved =
      warm.empty() ? CacheOutcome::kMiss : CacheOutcome::kWarmStart;
  core::RefineOptions exec_options = options;
  exec_options.warm_results.insert(exec_options.warm_results.end(),
                                   warm.begin(), warm.end());

  Result<core::RunResult> run = core::ExecuteQuery(cq.query, exec_options);
  if (outcome != nullptr) *outcome = resolved;
  cache->CountOutcome(resolved);
  if (!run.ok()) return run;

  // The session tracer ring is pinned to the epoch ExecuteQuery began, so
  // these events land in this query's process group even when concurrent
  // queries have since begun newer epochs.
  obs::ThreadTracer tracer =
      obs::MakeTracer(options.trace, /*instance=*/-1,
                      obs::ThreadRole::kSession, options.trace_buffer_events,
                      run.value().trace_epoch);
  tracer.Instant(resolved == CacheOutcome::kWarmStart
                     ? obs::EventName::kCacheWarmStart
                     : obs::EventName::kCacheMiss,
                 static_cast<double>(run.value().results.size()));
  if (resolved == CacheOutcome::kWarmStart) {
    run.value().stats.answer_cache_warm_starts = 1;
  }

  if (run.value().stats.completed) {
    CachedAnswer answer;
    answer.fingerprint = std::move(resolution.fingerprint);
    answer.dataset_id = cq.dataset_id;
    answer.epoch = resolution.epoch;
    answer.query = cq.query;
    answer.function_ids = cq.function_ids;
    answer.enable = options.enable;
    answer.alpha = options.alpha;
    answer.constrain = options.constrain;
    answer.result_spacing = options.result_spacing;
    answer.results = run.value().results;
    answer.exact_results = run.value().stats.exact_results;
    cache->InsertAnswer(std::move(answer));
    tracer.Instant(obs::EventName::kCacheStore,
                   static_cast<double>(run.value().results.size()));
  }
  return run;
}

Result<core::RunResult> ExecuteQueryCached(SemanticCache* cache,
                                           const CachedQuery& cq,
                                           const core::RefineOptions& options,
                                           CacheOutcome* outcome) {
  if (outcome != nullptr) *outcome = CacheOutcome::kBypass;
  Result<CacheResolution> resolution = ResolveQueryCached(cache, cq, options);
  if (!resolution.ok()) return resolution.status();
  return ExecuteResolved(cache, cq, options, std::move(resolution).value(),
                         outcome);
}

}  // namespace dqr::cache
