#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "core/canonical.h"

namespace perfbench {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Engine::Engine(int pool_width, int slots)
    : pool(pool_width),
      session(dqr::exec::EngineSessionOptions{&pool, &wheel, slots}) {}

// --- References ------------------------------------------------------------

dqr::Result<References> References::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return dqr::NotFoundError("cannot read references " + path);
  References refs;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string id;
    std::string fingerprint;
    std::string extra;
    if (!(fields >> id >> fingerprint) || (fields >> extra)) {
      return dqr::InvalidArgumentError(path + ":" + std::to_string(line_no) +
                                       ": expected '<id> <fingerprint>'");
    }
    refs.Set(id, fingerprint);
  }
  return refs;
}

dqr::Status References::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return dqr::InternalError("cannot write references " + path);
  out << "# <query id> <fingerprint of the canonical answer, 1x1 config>\n";
  for (const auto& [id, fingerprint] : by_id_) {
    out << id << ' ' << fingerprint << '\n';
  }
  out.close();
  if (!out) return dqr::InternalError("short write to " + path);
  return dqr::Status::Ok();
}

bool References::Matches(const std::string& id,
                         const std::string& fingerprint) const {
  const auto it = by_id_.find(id);
  return it != by_id_.end() && it->second == fingerprint;
}

dqr::Status References::CheckCovers(
    const std::vector<std::string>& ids) const {
  for (const std::string& id : ids) {
    if (!Has(id)) {
      return dqr::NotFoundError("no reference for query '" + id +
                                "'; run with --regenerate");
    }
  }
  return dqr::Status::Ok();
}

// --- LayerLedger -----------------------------------------------------------

namespace {

// Summed busy time of every node named `site` below `node` (a site sits
// under each phase it ran in; its children are instance leaves).
int64_t SiteBusyNs(const dqr::obs::ProfileNode& node,
                   const std::string& site) {
  if (node.name == site) return node.total_ns;
  int64_t sum = 0;
  for (const dqr::obs::ProfileNode& child : node.children) {
    sum += SiteBusyNs(child, site);
  }
  return sum;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void LayerLedger::AddRun(const dqr::core::RunStats& stats,
                         const dqr::obs::QueryProfile* profile) {
  std::lock_guard<std::mutex> lock(mu_);
  ++runs_;
  stats_ += stats;
  if (profile != nullptr) {
    shard_ns_ += SiteBusyNs(profile->root, "shard_execute");
    replay_ns_ += SiteBusyNs(profile->root, "replay_execute");
    validate_ns_ += SiteBusyNs(profile->root, "validate");
    barrier_ns_ += SiteBusyNs(profile->root, "barrier_wait");
    trace_dropped_ += profile->trace_dropped;
  }
}

void LayerLedger::AddSample(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].push_back(value);
}

void LayerLedger::Set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  scalars_[name] = value;
}

double LayerLedger::Quantile(const std::string& name, double q) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : QuantileOf(it->second, q);
}

double LayerLedger::Median(const std::string& name) const {
  return Quantile(name, 0.5);
}

double LayerLedger::Scalar(const std::string& name) const {
  const auto it = scalars_.find(name);
  return it == scalars_.end() ? 0.0 : it->second;
}

int64_t LayerLedger::trace_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_dropped_;
}

std::vector<Metric> LayerLedger::Metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  const dqr::core::RunStats& s = stats_;
  const double runs = static_cast<double>(runs_);
  const auto per_run = [runs](double v) { return Ratio(v, runs); };
  const double bound_lookups =
      static_cast<double>(s.estimator_cache_hits + s.estimator_cache_misses);
  const double popped = static_cast<double>(s.replays + s.replays_discarded);
  const double validated = static_cast<double>(s.validated);
  const double memo_lookups =
      static_cast<double>(s.shared_memo_hits + s.shared_memo_misses);
  constexpr double kMiB = 1024.0 * 1024.0;

  return {
      {"data.parse_us", "us", Median("data.parse_us")},
      {"data.build_us", "us", Median("data.build_us")},
      {"data.dataset_build_s", "s", Scalar("data.dataset_build_s")},
      {"searchlight.bounds_hit_ratio", "fraction",
       Ratio(static_cast<double>(s.estimator_cache_hits), bound_lookups)},
      {"searchlight.bounds_misses_per_query", "count",
       per_run(static_cast<double>(s.estimator_cache_misses))},
      {"synopsis.bound_p50_ns", "ns",
       static_cast<double>(s.bound_latency.p50_ns())},
      {"cp.main_nodes_per_query", "count",
       per_run(static_cast<double>(s.main_search.nodes))},
      {"cp.replay_nodes_per_query", "count",
       per_run(static_cast<double>(s.replay_search.nodes))},
      {"cp.monitor_prunes_per_query", "count",
       per_run(static_cast<double>(s.main_search.monitor_prunes +
                                   s.replay_search.monitor_prunes))},
      {"core.shard_execute_busy_ms", "ms",
       per_run(static_cast<double>(shard_ns_)) / 1e6},
      {"core.replay_execute_busy_ms", "ms",
       per_run(static_cast<double>(replay_ns_)) / 1e6},
      {"core.replays_per_query", "count",
       per_run(static_cast<double>(s.replays))},
      {"core.replay_waste_ratio", "fraction",
       Ratio(static_cast<double>(s.replays_discarded), popped)},
      {"core.fails_recorded_per_query", "count",
       per_run(static_cast<double>(s.fails_recorded))},
      {"core.peak_fail_mb", "MiB",
       static_cast<double>(s.max_peak_fail_bytes) / kMiB},
      {"core.validate_busy_ms", "ms",
       per_run(static_cast<double>(validate_ns_)) / 1e6},
      {"core.false_positive_ratio", "fraction",
       Ratio(static_cast<double>(s.false_positives), validated)},
      {"core.validate_batch_fill", "fraction",
       Ratio(static_cast<double>(s.validate_batched_candidates), validated)},
      {"core.barrier_wait_ms", "ms",
       per_run(static_cast<double>(barrier_ns_)) / 1e6},
      {"core.bound_updates_per_query", "count",
       per_run(static_cast<double>(s.mrp_updates + s.mrk_updates))},
      {"exec.admission_wait_p50_ms", "ms",
       Quantile("exec.admission_wait_ms", 0.5)},
      {"exec.admission_wait_p90_ms", "ms",
       Quantile("exec.admission_wait_ms", 0.9)},
      {"exec.queued_frac", "fraction", Scalar("exec.queued_frac")},
      {"exec.session_overhead_us", "us", Median("exec.session_overhead_us")},
      {"exec.overflow_spawns_per_query", "count",
       per_run(static_cast<double>(s.pool_overflow_spawns))},
      {"cache.exact_hit_ratio", "fraction", Scalar("cache.exact_hit_ratio")},
      {"cache.subsume_hit_ratio", "fraction",
       Scalar("cache.subsume_hit_ratio")},
      {"cache.warm_start_ratio", "fraction", Scalar("cache.warm_start_ratio")},
      {"cache.miss_ratio", "fraction", Scalar("cache.miss_ratio")},
      {"cache.hit_latency_us", "us", Median("cache.hit_latency_us")},
      {"cache.memo_hit_ratio", "fraction",
       Ratio(static_cast<double>(s.shared_memo_hits), memo_lookups)},
      {"cache.memo_evictions_per_query", "count",
       per_run(static_cast<double>(s.shared_memo_evictions))},
      {"serve.accept_ms", "ms", Median("serve.accept_ms")},
      {"serve.transport_ms", "ms", Median("serve.transport_ms")},
      {"serve.frames_per_query", "count", Scalar("serve.frames_per_query")},
      {"serve.queries_failed", "count", Scalar("serve.queries_failed")},
      {"obs.trace_dropped", "count", static_cast<double>(trace_dropped_)},
      {"obs.trace_overhead_frac", "fraction",
       Scalar("obs.trace_overhead_frac")},
  };
}

// --- runner ----------------------------------------------------------------

PassResult RunPass(Fixture* fixture, double seconds, int64_t max_per_client,
                   LayerLedger* ledger, std::vector<int64_t>* cursor) {
  constexpr int kReportedFailures = 10;
  const int clients = fixture->clients();
  cursor->resize(static_cast<size_t>(clients), 0);
  std::vector<std::vector<Record>> per_client(static_cast<size_t>(clients));
  std::atomic<int> failures{0};
  const double start = NowS();
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Record>& out = per_client[static_cast<size_t>(c)];
      int64_t& n = (*cursor)[static_cast<size_t>(c)];
      for (int64_t done = 0;; ++done, ++n) {
        if (max_per_client > 0 ? done >= max_per_client
                               : NowS() >= deadline) {
          break;
        }
        const Sample s = fixture->Run(c, n, ledger);
        out.push_back(
            {s.latency_s, s.first_result_s, s.failed, s.mismatch, s.empty});
        if (s.failed && failures++ < kReportedFailures) {
          std::fprintf(stderr,
                       "client %d query %lld %s: %.3f ms, first %.3f ms "
                       "FAILED %s\n",
                       c, static_cast<long long>(n), s.id.c_str(),
                       1e3 * s.latency_s, 1e3 * s.first_result_s,
                       s.error.c_str());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PassResult result;
  result.wall_s = NowS() - start;
  for (const std::vector<Record>& records : per_client) {
    result.records.insert(result.records.end(), records.begin(),
                          records.end());
  }
  return result;
}

std::string AnswerFingerprint(const dqr::core::RunResult& run) {
  return dqr::core::CanonicalFingerprint(
      dqr::core::Canonicalize(run.results));
}

bool CheckAnswer(const dqr::Result<dqr::core::RunResult>& run,
                 const References& refs, Sample* s) {
  if (!run.ok() || !run.value().stats.completed) {
    s->failed = true;
    s->error = run.ok() ? "incomplete run" : run.status().ToString();
    return run.ok();
  }
  s->empty = run.value().results.empty();
  if (!refs.Matches(s->id, AnswerFingerprint(run.value()))) {
    s->failed = s->mismatch = true;
    s->error = "wrong answer";
  }
  return true;
}

double QuantileOf(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void FirstResultClock::Hit() {
  const double now = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  if (first_s_ < 0.0) first_s_ = now - start_s_;
}

double FirstResultClock::SecondsOr(double fallback_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_s_ < 0.0 ? fallback_s : first_s_;
}

namespace {

// Stateless seeded draw: a well-mixed 64-bit value of (seed, a, b).
uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t z = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
               (b * 0xc2b2ae3d27d4eb4fULL + 0x165667b19e3779f9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

size_t CyclePick(uint64_t seed, int client, int64_t n, size_t size) {
  const uint64_t cycle = static_cast<uint64_t>(n) / size;
  const uint64_t h = Mix(seed, static_cast<uint64_t>(client), cycle);
  // An affine map k -> (a k + b) mod size permutes the pool when a is
  // coprime to size.
  uint64_t a = 1 + (h % size);
  while (std::gcd(a, static_cast<uint64_t>(size)) != 1) ++a;
  return static_cast<size_t>((a * (static_cast<uint64_t>(n) % size) +
                              (h >> 32)) %
                             size);
}

double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (double& t : ticks) {
    if (!(in >> t)) return 0.0;
  }
  // user nice system idle iowait irq softirq steal, in clock ticks.
  return ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
