// serve_small: two loopback connections, one per equal-weight tenant,
// send distinct small generated 1-D queries to an in-process dqr_serve
// Server (cached=0, no emulated cost). The engine's share of a query is
// a fraction of a millisecond, so framing, text re-parse, the per-QUERY
// thread, tenant DRR and admission dominate: the serve tax.
//
// The pool is kPoolQueries fuzz workloads with bench_serve's length and
// k caps and its alternating relax/constrain mix, each registered as its
// own dataset. Each client sends every query once per cycle of
// kPoolQueries, in an order the seed draws.

#include <memory>
#include <string>
#include <vector>

#include "core/canonical.h"
#include "data/query_parser.h"
#include "harness.h"
#include "obs/profile.h"
#include "serve/client.h"
#include "serve/server.h"
#include "testing/generator.h"

namespace perfbench {
namespace {

constexpr int kPoolQueries = 512;
constexpr int kClients = 2;
constexpr int kPoolWidth = 4;
constexpr int kSlots = 2;
constexpr const char* kTenants[kClients] = {"t0", "t1"};

dqr::fuzz::WorkloadOverrides Overrides() {
  dqr::fuzz::WorkloadOverrides o;
  o.length_cap = 64;
  o.max_constraints = 1;
  o.k_cap = 2;
  return o;
}

dqr::fuzz::Workload MakeEntryWorkload(int i) {
  const uint64_t seed = static_cast<uint64_t>(i) + 1;
  return dqr::fuzz::MakeWorkload(seed,
                                 i % 2 == 0 ? dqr::fuzz::FuzzMode::kRelax
                                            : dqr::fuzz::FuzzMode::kConstrain,
                                 Overrides());
}

std::string QueryId(const dqr::fuzz::Workload& w) {
  return std::string("q").append(std::to_string(w.seed));
}

std::string DatasetName(const dqr::fuzz::Workload& w) {
  return std::string("w").append(std::to_string(w.seed));
}

// The QUERY frame a client sends for `w`: its text body and the
// semantic attributes that define its answer.
dqr::serve::Frame QueryFrame(const std::string& id,
                             const std::string& dataset,
                             const dqr::fuzz::Workload& w) {
  dqr::serve::Frame q;
  q.type = dqr::serve::frame::kQuery;
  q.Set("id", id);
  q.Set("dataset", dataset);
  q.Set("alpha", w.alpha);
  q.Set("constrain",
        w.constrain == dqr::core::ConstrainMode::kNone   ? "none"
        : w.constrain == dqr::core::ConstrainMode::kRank ? "rank"
                                                         : "skyline");
  if (!w.result_spacing.empty()) {
    std::string spacing;
    for (const int64_t s : w.result_spacing) {
      if (!spacing.empty()) spacing += ',';
      spacing += std::to_string(s);
    }
    q.Set("spacing", spacing);
    q.Set("divpool", w.diversity_pool_factor);
  }
  q.body = w.query_text;
  return q;
}

class ServeSmall : public Fixture {
 public:
  ServeSmall(const Args& args, const References& refs,
             double* dataset_build_s)
      : refs_(refs),
        seed_(args.seed),
        inject_unregistered_(args.inject_unregistered),
        engine_(kPoolWidth, kSlots),
        server_(MakeServerOptions(&engine_.session)) {
    const double t0 = NowS();
    for (int i = 0; i < kPoolQueries; ++i) {
      workloads_.push_back(MakeEntryWorkload(i));
    }
    *dataset_build_s += NowS() - t0;
  }

  dqr::Status Start() {
    dqr::Status st = server_.Start();
    if (!st.ok()) return st;
    for (const dqr::fuzz::Workload& w : workloads_) {
      st = server_.RegisterDataset(
          DatasetName(w), dqr::data::DatasetBundle{w.array, w.synopsis});
      if (!st.ok()) return st;
    }
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<dqr::serve::Client>());
      st = clients_.back()->Connect(server_.port());
      if (st.ok()) st = clients_.back()->Hello(kTenants[c]);
      if (!st.ok()) return st;
    }
    return dqr::Status::Ok();
  }

  std::vector<std::string> Ids() const {
    std::vector<std::string> ids;
    for (const dqr::fuzz::Workload& w : workloads_) ids.push_back(QueryId(w));
    return ids;
  }

  const dqr::exec::EngineSession& session() const override {
    return engine_.session;
  }
  int clients() const override { return kClients; }

  Sample Run(int client, int64_t n, LayerLedger* ledger) override {
    const dqr::fuzz::Workload& w =
        workloads_[n < 0 ? static_cast<size_t>(-n - 1)
                         : CyclePick(seed_, client, n, workloads_.size())];
    const bool unregistered =
        client == 0 && n >= 0 && n < inject_unregistered_;
    dqr::serve::Frame query =
        QueryFrame(std::string("c")
                       .append(std::to_string(client))
                       .append("q")
                       .append(std::to_string(n)),
                   unregistered ? "unregistered" : DatasetName(w), w);
    if (ledger != nullptr) {
      query.Set("profile", "1");
      TimeParseAndBuild(w, ledger);
    }
    dqr::serve::Client& conn = *clients_[static_cast<size_t>(client)];

    Sample s;
    s.id = QueryId(w);
    s.failed = true;  // until a FINAL with the right answer arrives
    const double t0 = NowS();
    double accepted_s = -1.0;
    double first_s = -1.0;
    if (const dqr::Status sent = conn.Send(query); !sent.ok()) {
      s.error = sent.ToString();
      return s;
    }
    dqr::serve::Frame final_frame;
    while (true) {
      auto next = conn.Receive();
      if (!next.ok()) {
        s.error = next.status().ToString();
        return s;
      }
      const double now = NowS() - t0;
      const dqr::serve::Frame& f = next.value();
      if (f.type == dqr::serve::frame::kAccepted) {
        accepted_s = now;
      } else if (f.type == dqr::serve::frame::kResult) {
        if (first_s < 0.0) first_s = now;
      } else if (f.type == dqr::serve::frame::kError) {
        s.latency_s = s.first_result_s = now;
        s.error = "ERROR frame: " + f.body;
        return s;
      } else if (f.type == dqr::serve::frame::kFinal) {
        s.latency_s = now;
        final_frame = std::move(next).value();
        break;
      }
    }
    s.first_result_s = first_s >= 0.0 ? first_s : s.latency_s;
    s.empty = final_frame.body.empty();  // the canonical form of no results
    const std::string* completed = final_frame.Get("completed");
    s.mismatch = !refs_.Matches(
        s.id, dqr::core::CanonicalFingerprint(final_frame.body));
    s.failed = s.mismatch || completed == nullptr || *completed != "1";
    if (s.failed) s.error = s.mismatch ? "wrong answer" : "incomplete run";
    if (ledger == nullptr) return s;

    // profile=1: exactly one PROFILE frame follows the FINAL.
    auto profile_frame = conn.Receive();
    auto profile =
        profile_frame.ok() &&
                profile_frame.value().type == dqr::serve::frame::kProfile
            ? dqr::obs::ProfileFromJson(profile_frame.value().body)
            : dqr::Result<dqr::obs::QueryProfile>(
                  dqr::InternalError("no PROFILE frame after FINAL"));
    if (!profile.ok()) {
      s.failed = true;
      s.error = profile.status().ToString();
      return s;
    }
    const dqr::core::RunStats& stats = profile.value().stats;
    ledger->AddRun(stats, &profile.value());
    ledger->AddSample("exec.admission_wait_ms", 1e3 * stats.admission_wait_s);
    ledger->AddSample("serve.accept_ms", 1e3 * accepted_s);
    ledger->AddSample("serve.transport_ms",
                      1e3 * (s.latency_s - stats.total_s));
    return s;
  }

  void BeginTraced() override { server_before_ = server_.stats(); }

  void EndTraced(LayerLedger* ledger) override {
    const dqr::serve::ServerStats server = server_.stats();
    const double queries = static_cast<double>(
        server.queries_started - server_before_.queries_started);
    const double frames = static_cast<double>(server.frames_sent -
                                              server_before_.frames_sent);
    ledger->Set("serve.frames_per_query", queries > 0 ? frames / queries : 0);
    ledger->Set("serve.queries_failed",
                static_cast<double>(server.queries_failed -
                                    server_before_.queries_failed));
  }

  std::string Describe() const override {
    return "clients=" + std::to_string(kClients) +
           " tenants=2x1 pool=" + std::to_string(kPoolWidth) +
           " slots=" + std::to_string(kSlots) +
           " cost_ns=0 queries=" + std::to_string(kPoolQueries) +
           " relax:constrain=1:1 cached=0";
  }

 private:
  // The server parses and binds every body; time the same two calls on
  // the same body from outside.
  void TimeParseAndBuild(const dqr::fuzz::Workload& w, LayerLedger* ledger) {
    const double t0 = NowS();
    auto parsed = dqr::data::ParseQueryText(w.query_text);
    const double t1 = NowS();
    if (!parsed.ok()) return;
    auto spec = dqr::data::BuildQuery(
        parsed.value(), dqr::data::DatasetBundle{w.array, w.synopsis});
    const double t2 = NowS();
    if (!spec.ok()) return;
    ledger->AddSample("data.parse_us", 1e6 * (t1 - t0));
    ledger->AddSample("data.build_us", 1e6 * (t2 - t1));
  }

  static dqr::serve::ServerOptions MakeServerOptions(
      dqr::exec::EngineSession* session) {
    dqr::serve::ServerOptions o;
    o.session = session;
    for (const char* tenant : kTenants) o.tenants[tenant].weight = 1.0;
    return o;
  }

  const References& refs_;
  const uint64_t seed_;
  const int64_t inject_unregistered_;
  std::vector<dqr::fuzz::Workload> workloads_;
  Engine engine_;
  dqr::serve::Server server_;
  // Declared after the server: connections close before it stops.
  std::vector<std::unique_ptr<dqr::serve::Client>> clients_;
  dqr::serve::ServerStats server_before_;
};

dqr::Result<std::unique_ptr<Fixture>> Setup(const Args& args,
                                            const References& refs,
                                            double* dataset_build_s) {
  auto fixture = std::make_unique<ServeSmall>(args, refs, dataset_build_s);
  dqr::Status st = refs.CheckCovers(fixture->Ids());
  if (st.ok()) st = fixture->Start();
  if (!st.ok()) return st;
  return std::unique_ptr<Fixture>(std::move(fixture));
}

// References come from the 1x1 sequential configuration over the same
// text the clients send, bound the way the server binds it.
dqr::Status Regenerate(References* refs) {
  Engine engine(2, 1);
  for (int i = 0; i < kPoolQueries; ++i) {
    const dqr::fuzz::Workload w = MakeEntryWorkload(i);
    auto spec = dqr::data::ParseQuery(
        w.query_text, dqr::data::DatasetBundle{w.array, w.synopsis});
    if (!spec.ok()) return spec.status();
    const dqr::core::RefineOptions opts =
        dqr::fuzz::EngineConfig{}.ToOptions(w, nullptr);
    const auto run = engine.session.Execute(spec.value(), opts);
    if (!run.ok()) return run.status();
    if (!run.value().stats.completed) {
      return dqr::InternalError(QueryId(w) + " did not complete");
    }
    refs->Set(QueryId(w), AnswerFingerprint(run.value()));
  }
  return dqr::Status::Ok();
}

}  // namespace

const WorkloadSpec& ServeSmallSpec() {
  static const WorkloadSpec spec{"serve_small", 8, &Setup, &Regenerate};
  return spec;
}

}  // namespace perfbench
