#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// The workload-independent half of the benchmark: arguments, reference
// fingerprints, the closed-loop runner, the per-layer ledger of the
// traced pass, and the metric summaries. Each workload (paper_refine.cc,
// serve_small.cc, explore_cached.cc) supplies a Fixture and a
// WorkloadSpec; main.cc strings them together.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/refiner.h"
#include "core/stats.h"
#include "exec/engine_session.h"
#include "exec/timer_wheel.h"
#include "exec/worker_pool.h"
#include "obs/profile.h"

namespace perfbench {

double NowS();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory holding <workload>.txt reference fingerprints.
  std::string refdir = "perfbench/reference";
  // Rewrite the reference file instead of measuring.
  bool regenerate = false;
  // serve_small only: the first N queries of client 0 name a dataset the
  // server never registered (self-test of the failure accounting).
  int inject_unregistered = 0;
};

// Reference answers: one "<query id> <fingerprint>" line per query of a
// workload's pool, where the fingerprint is core::CanonicalFingerprint of
// the canonical answer under the 1x1 sequential configuration.
class References {
 public:
  static dqr::Result<References> Load(const std::string& path);
  dqr::Status Save(const std::string& path) const;

  void Set(const std::string& id, const std::string& fingerprint) {
    by_id_[id] = fingerprint;
  }
  bool Has(const std::string& id) const { return by_id_.count(id) > 0; }
  bool Matches(const std::string& id, const std::string& fingerprint) const;
  // Ok when every id has a reference; names the first missing one.
  dqr::Status CheckCovers(const std::vector<std::string>& ids) const;

 private:
  std::map<std::string, std::string> by_id_;
};

// One query as its caller saw it.
struct Sample {
  std::string id;               // the pool query's reference id
  double latency_s = 0.0;       // submit -> final answer in hand
  double first_result_s = 0.0;  // submit -> first confirmed result
  bool failed = false;    // error, ERROR frame, incomplete run or mismatch
  bool mismatch = false;  // the answer differs from its reference
  bool empty = false;     // the answer holds no result
  std::string error;      // why it failed, when it did
};

// A reported figure: its name, unit and value.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Per-layer observations of the traced pass, read only through what the
// program exposes (RunStats, the profile tree, cache/session/server
// stats) plus the benchmark's own timers around layer calls. Thread-safe.
class LayerLedger {
 public:
  // One engine execution: its stats and, when profiled, its profile.
  void AddRun(const dqr::core::RunStats& stats,
              const dqr::obs::QueryProfile* profile);
  // One per-query observation of a distribution (medians are reported).
  void AddSample(const std::string& name, double value);
  // A fixture-level figure (ratios of layer counters, set-up times).
  void Set(const std::string& name, double value);

  // Every per-layer metric, by name, with its unit; layers the workload
  // never reached read 0.
  std::vector<Metric> Metrics() const;
  int64_t trace_dropped() const;

 private:
  double Median(const std::string& name) const;
  double Quantile(const std::string& name, double q) const;
  double Scalar(const std::string& name) const;

  mutable std::mutex mu_;
  int64_t runs_ = 0;
  dqr::core::RunStats stats_;
  int64_t shard_ns_ = 0;
  int64_t replay_ns_ = 0;
  int64_t validate_ns_ = 0;
  int64_t barrier_ns_ = 0;
  int64_t trace_dropped_ = 0;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> scalars_;
};

// A worker pool, a timer wheel and the EngineSession over them: the
// engine a workload runs its queries on. References are computed on one
// with a single slot, so every query runs alone.
struct Engine {
  Engine(int pool_width, int slots);

  dqr::exec::WorkerPool pool;
  dqr::exec::TimerWheel wheel;
  dqr::exec::EngineSession session;
};

// A set-up workload, ready to run queries.
class Fixture {
 public:
  virtual ~Fixture() = default;
  // The session every query of the workload goes through.
  virtual const dqr::exec::EngineSession& session() const = 0;
  // Closed-loop clients; each waits for its answer before the next query.
  virtual int clients() const = 0;
  // Runs client `client`'s `n`-th query. Called concurrently for distinct
  // clients, sequentially for one client. `ledger` is non-null only on
  // the traced pass, which also attaches the engine profiler. Negative n
  // are warm-up queries: the same, seed-independent ones in every run.
  virtual Sample Run(int client, int64_t n, LayerLedger* ledger) = 0;
  // Bracket the traced pass, for layer totals read as counter deltas.
  virtual void BeginTraced() {}
  virtual void EndTraced(LayerLedger* ledger) { (void)ledger; }
  // "clients=.. pool=.. slots=.. cost_ns=.." for the run's stamp line.
  virtual std::string Describe() const = 0;
};

struct WorkloadSpec {
  const char* name;
  // Warm-up queries each client runs, as part of set-up, before measuring.
  int warmup_per_client;
  // Builds datasets, pool, session (and server); adds the seconds spent
  // in dataset builders to *dataset_build_s. Fails when a pool query has
  // no reference.
  dqr::Result<std::unique_ptr<Fixture>> (*setup)(const Args& args,
                                                 const References& refs,
                                                 double* dataset_build_s);
  // Recomputes the reference of every pool query.
  dqr::Status (*regenerate)(References* refs);
};

const WorkloadSpec& PaperRefineSpec();
const WorkloadSpec& ServeSmallSpec();
const WorkloadSpec& ExploreCachedSpec();

// What a pass keeps of one query. Compact, so the benchmark's own
// bookkeeping adds little to peak_rss_mb however many queries a run
// completes.
struct Record {
  double latency_s;
  double first_result_s;
  bool failed;
  bool mismatch;
  bool empty;
};

// Runs every client in a closed loop until `seconds` have passed, or
// until each has run `max_per_client` queries when that is > 0. Client
// c continues from query number (*cursor)[c]. The first few failed
// queries of a pass are reported on stderr.
struct PassResult {
  std::vector<Record> records;
  double wall_s = 0.0;
};
PassResult RunPass(Fixture* fixture, double seconds, int64_t max_per_client,
                   LayerLedger* ledger, std::vector<int64_t>* cursor);

// Fingerprint of a run's canonical answer, as the references store it.
std::string AnswerFingerprint(const dqr::core::RunResult& run);

// Marks `s` failed unless `run` completed with the reference answer of
// s->id, and empty when that answer has no result. Returns false when
// there is no completed run to read stats from.
bool CheckAnswer(const dqr::Result<dqr::core::RunResult>& run,
                 const References& refs, Sample* s);

// Linear-interpolated quantile of unsorted values; 0 when empty.
double QuantileOf(std::vector<double> values, double q);

// Per-query first-result clock for direct engine calls: the first
// on_result callback wins.
class FirstResultClock {
 public:
  explicit FirstResultClock(double start_s) : start_s_(start_s) {}
  void Hit();
  // Seconds from start to the first result, or `fallback_s` if none came.
  double SecondsOr(double fallback_s) const;

 private:
  const double start_s_;
  mutable std::mutex mu_;
  double first_s_ = -1.0;
};

// The n-th pick of client `client` from a pool of `size` items. Each
// consecutive block of `size` picks is a seeded permutation of the pool,
// so a long run visits every item equally often whatever the seed and
// the query mix does not drift from run to run.
size_t CyclePick(uint64_t seed, int client, int64_t n, size_t size);

// CPU time the hypervisor gave to others while this machine's CPUs
// wanted to run, summed over CPUs since boot (0 where unknown). A run
// prints its share of the measured pass: a large share means other
// tenants of the host slowed the run, not the program.
double StealSeconds();

// Peak resident set of this process, MiB.
double PeakRssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
