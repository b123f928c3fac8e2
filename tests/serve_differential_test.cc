// Server-differential harness (the headline test of the dqr_serve front
// end): seeded generator workloads are shipped to a loopback server as
// text-IR QUERY frames and the streamed FINAL answer must be
// byte-identical — same canonical body, same fingerprint — to a direct
// in-process run of the same query, across pool widths {2, 8} and
// concurrent client counts {1, 4}. The streamed event sequence is also
// checked for protocol shape (ACCEPTED, then phases in order) and bound
// monotonicity (MRP non-increasing, MRK non-decreasing), and cached
// resubmission must produce an exact hit with the identical answer.

#include <gtest/gtest.h>

#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/canonical.h"
#include "core/fault.h"
#include "core/refiner.h"
#include "exec/engine_session.h"
#include "exec/timer_wheel.h"
#include "exec/worker_pool.h"
#include "serve/client.h"
#include "serve/server.h"
#include "testing/generator.h"
#include "testing/harness.h"

namespace dqr::serve {
namespace {

fuzz::FuzzMode ModeFor(uint64_t seed) {
  switch (seed % 3) {
    case 0:
      return fuzz::FuzzMode::kSkyline;
    case 1:
      return fuzz::FuzzMode::kRelax;
    default:
      return fuzz::FuzzMode::kConstrain;
  }
}

// The QUERY frame a workload maps to: the fuzz harness's encoder with
// every engine knob at the server's default, so only the workload's own
// attributes are sent and the server runs 1 instance x 8 shards; the
// text IR is the body.
Frame QueryFrameFor(const std::string& id, const std::string& dataset,
                    const fuzz::Workload& w, bool cached) {
  fuzz::EngineConfig server_defaults;
  server_defaults.knobs = core::RefineOptions{};
  Frame q = fuzz::MakeQueryFrame(id, dataset, w, server_defaults);
  if (cached) q.Set("cached", std::string("1"));
  return q;
}

// The direct leg: the 1 x 1 sequential baseline in process, which the
// server's work-stealing 1 x 8 runs of the same workload must match byte
// for byte.
std::string DirectCanonical(const fuzz::Workload& w) {
  core::FaultPlan plan;
  const core::RefineOptions options =
      fuzz::EngineConfig{}.ToOptions(w, &plan);
  Result<core::RunResult> run = core::ExecuteQuery(w.query, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return "<direct leg failed>";
  EXPECT_TRUE(run.value().stats.completed);
  return core::Canonicalize(run.value().results);
}

// Protocol-shape and bound-monotonicity checks over one query's streamed
// frames.
void CheckStream(const QueryRun& run, const std::string& id) {
  ASSERT_FALSE(run.events.empty()) << id;
  EXPECT_EQ(run.events.front().type, frame::kAccepted) << id;
  int collecting_at = -1;
  int constraining_at = -1;
  double last_mrp = std::numeric_limits<double>::infinity();
  double last_mrk = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < run.events.size(); ++i) {
    const Frame& f = run.events[i];
    ASSERT_NE(f.Get("id"), nullptr);
    EXPECT_EQ(*f.Get("id"), id);
    if (f.type == frame::kAccepted) {
      EXPECT_EQ(i, 0u) << id;
    } else if (f.type == frame::kPhase) {
      ASSERT_NE(f.Get("phase"), nullptr);
      if (*f.Get("phase") == "collecting") {
        collecting_at = static_cast<int>(i);
      } else {
        ASSERT_EQ(*f.Get("phase"), "constraining");
        constraining_at = static_cast<int>(i);
      }
    } else if (f.type == frame::kBound) {
      ASSERT_NE(f.Get("bound"), nullptr);
      Result<double> value = f.GetDouble("value", 0.0);
      ASSERT_TRUE(value.ok());
      if (*f.Get("bound") == "mrp") {
        EXPECT_LE(value.value(), last_mrp) << id << " event " << i;
        last_mrp = value.value();
      } else {
        ASSERT_EQ(*f.Get("bound"), "mrk");
        EXPECT_GE(value.value(), last_mrk) << id << " event " << i;
        last_mrk = value.value();
      }
    } else {
      ASSERT_EQ(f.type, frame::kResult) << id << " event " << i;
      EXPECT_FALSE(f.body.empty());
    }
  }
  // The admission phase always fires once, before any constraining flip.
  ASSERT_GE(collecting_at, 0) << id;
  if (constraining_at >= 0) {
    EXPECT_LT(collecting_at, constraining_at);
  }
}

struct Expected {
  fuzz::Workload workload;
  std::string canonical;
};

// The matrix cell: `clients` concurrent connections, each running every
// seeded workload against `server`, all answers checked byte-for-byte
// against the precomputed direct leg.
void RunClients(Server& server, const std::vector<Expected>& expected,
                int clients) {
  std::vector<std::thread> threads;
  std::mutex failures_mu;
  std::vector<std::string> failures;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      const auto record = [&](const std::string& what) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back(what);
      };
      Client client;
      Status st = client.Connect(server.port());
      if (st.ok()) st = client.Hello("client" + std::to_string(t));
      if (!st.ok()) {
        record("connect: " + st.ToString());
        return;
      }
      for (size_t i = 0; i < expected.size(); ++i) {
        // Appended rather than built with `const char* + std::string&&`,
        // which trips GCC 12's -Wrestrict false positive.
        const std::string id = std::string("c")
                                   .append(std::to_string(t))
                                   .append("q")
                                   .append(std::to_string(i));
        const std::string dataset =
            std::string("w").append(
                std::to_string(expected[i].workload.seed));
        Result<QueryRun> run = client.RunQuery(
            QueryFrameFor(id, dataset, expected[i].workload, false));
        if (!run.ok()) {
          record(id + ": " + run.status().ToString());
          continue;
        }
        if (run.value().canonical() != expected[i].canonical) {
          record(id + ": canonical body diverged from direct run");
        }
        if (run.value().fingerprint() !=
            core::CanonicalFingerprint(run.value().canonical())) {
          record(id + ": fingerprint does not match body");
        }
        CheckStream(run.value(), id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

TEST(ServeDifferential, StreamedAnswersMatchDirectRunsUnderConcurrency) {
  // Precompute workloads + direct-leg answers once; reused across every
  // (pool width, clients) cell so divergence isolates the serve path.
  std::vector<Expected> expected;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Expected e;
    e.workload = fuzz::MakeWorkload(seed, ModeFor(seed));
    e.canonical = DirectCanonical(e.workload);
    expected.push_back(std::move(e));
  }

  for (const int pool_width : {2, 8}) {
    exec::WorkerPool pool(pool_width);
    exec::TimerWheel wheel;
    exec::EngineSessionOptions session_options;
    session_options.pool = &pool;
    session_options.wheel = &wheel;
    session_options.max_concurrent_queries = 4;
    exec::EngineSession session(session_options);

    ServerOptions options;
    options.session = &session;
    Server server(options);
    ASSERT_TRUE(server.Start().ok());
    for (const Expected& e : expected) {
      ASSERT_TRUE(server
                      .RegisterDataset(std::string("w").append(
                                           std::to_string(e.workload.seed)),
                                       data::DatasetBundle{
                                           e.workload.array,
                                           e.workload.synopsis})
                      .ok());
    }

    for (const int clients : {1, 4}) {
      RunClients(server, expected, clients);
    }

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.queries_failed, 0) << "pool=" << pool_width;
    EXPECT_EQ(stats.queries_completed,
              static_cast<int64_t>((1 + 4) * expected.size()))
        << "pool=" << pool_width;
    server.Stop();
  }
}

TEST(ServeDifferential, CachedResubmissionHitsExactlyWithSameAnswer) {
  const fuzz::Workload w = fuzz::MakeWorkload(2, fuzz::FuzzMode::kRelax);
  const std::string direct = DirectCanonical(w);

  Server server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(
      server.RegisterDataset("d", data::DatasetBundle{w.array, w.synopsis})
          .ok());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Hello("cachetest").ok());

  Result<QueryRun> first =
      client.RunQuery(QueryFrameFor("q1", "d", w, true));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_NE(first.value().final.Get("outcome"), nullptr);
  EXPECT_EQ(*first.value().final.Get("outcome"), "miss");
  EXPECT_EQ(first.value().canonical(), direct);

  Result<QueryRun> second =
      client.RunQuery(QueryFrameFor("q2", "d", w, true));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_NE(second.value().final.Get("outcome"), nullptr);
  EXPECT_EQ(*second.value().final.Get("outcome"), "exact");
  EXPECT_EQ(second.value().canonical(), direct);
  EXPECT_EQ(second.value().fingerprint(), first.value().fingerprint());

  server.Stop();
}

// strtod reads "nan", and NaN slips through every `x < lo || x > hi`
// check, so each of these frames used to abort the server. Each must get
// a precise ERROR, and the connection must go on serving.
TEST(ServeDifferential, NanInputsGetErrorsAndTheConnectionKeepsServing) {
  const fuzz::Workload w = fuzz::MakeWorkload(2, fuzz::FuzzMode::kRelax);
  const std::string direct = DirectCanonical(w);

  Server server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(
      server.RegisterDataset("d", data::DatasetBundle{w.array, w.synopsis})
          .ok());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Hello("nantest").ok());

  // Every attribute is parsed, so a NaN after a valid alpha still fails.
  Frame nan_alpha = QueryFrameFor("a", "d", w, false);
  nan_alpha.Set("alpha", std::string("nan"));
  Frame nan_rrd = QueryFrameFor("r", "d", w, false);
  nan_rrd.Set("rrd", std::string("nan"));
  // The first constraint line gets a trailing NaN weight option.
  Frame nan_weight = QueryFrameFor("w", "d", w, false);
  const size_t eol = nan_weight.body.find('\n', nan_weight.body.find(" in "));
  ASSERT_NE(eol, std::string::npos);
  nan_weight.body.insert(eol, " weight nan");

  const struct {
    const Frame* frame;
    const char* want;
  } cases[] = {{&nan_alpha, "knob 'alpha' must lie in [0, 1], got 'nan'"},
               {&nan_rrd, "knob 'rrd' must lie in (0, 1], got 'nan'"},
               {&nan_weight, "weight needs a number in [0, 1]"}};
  for (const auto& c : cases) {
    Result<QueryRun> run = client.RunQuery(*c.frame);
    ASSERT_FALSE(run.ok()) << c.want;
    EXPECT_NE(run.status().message().find(c.want), std::string::npos)
        << run.status().ToString();
  }

  Result<QueryRun> valid = client.RunQuery(QueryFrameFor("v", "d", w, false));
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  EXPECT_EQ(valid.value().canonical(), direct);

  server.Stop();
}

TEST(ServeDifferential, MetricsAndTraceEndpointsServeCompletedQueries) {
  const fuzz::Workload w = fuzz::MakeWorkload(3, fuzz::FuzzMode::kConstrain);

  Server server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(
      server.RegisterDataset("d", data::DatasetBundle{w.array, w.synopsis})
          .ok());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Hello("obs").ok());

  Frame query = QueryFrameFor("traced", "d", w, false);
  query.Set("trace", std::string("1"));
  Result<QueryRun> run = client.RunQuery(query);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Aggregate exposition carries engine, serve, tenant and session
  // samples with the dqr_ prefix.
  Result<std::string> metrics = client.FetchMetrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics.value().find("dqr_serve_queries_completed"),
            std::string::npos);
  EXPECT_NE(metrics.value().find("tenant=\"obs\""), std::string::npos);
  EXPECT_NE(metrics.value().find("dqr_serve_session_queries_admitted"),
            std::string::npos);

  // Per-query metrics and the Chrome trace are fetchable by id.
  Result<std::string> per_query = client.FetchMetrics("traced");
  ASSERT_TRUE(per_query.ok()) << per_query.status().ToString();
  EXPECT_NE(per_query.value().find("query=\"traced\""), std::string::npos);
  Result<std::string> trace = client.FetchTrace("traced");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_NE(trace.value().find("traceEvents"), std::string::npos);

  // Precise errors for unknown ids and untraced queries.
  Result<std::string> missing = client.FetchTrace("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find(
                "no completed query with id 'nope'"),
            std::string::npos);

  server.Stop();
}

}  // namespace
}  // namespace dqr::serve
