#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "core/canonical.h"
#include "core/knobs.h"
#include "data/query_parser.h"
#include "obs/export_chrome.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace dqr::serve {

namespace {

// Error codes carried by ERROR frames (the code= attribute; the human
// message rides in the body, where spaces are legal).
constexpr char kErrBadFrame[] = "bad_frame";  // malformed request frame
constexpr char kErrParse[] = "parse";         // query text rejected
constexpr char kErrNotFound[] = "not_found";  // unknown dataset/query id
constexpr char kErrBudget[] = "budget";       // tenant budget rejection
constexpr char kErrOverload[] = "overload";   // shutdown/cancelled
constexpr char kErrEngine[] = "engine";       // ExecuteQuery failed

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

std::string FormatG(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Derives the semantic-cache function identity of a parsed constraint:
// the function kind, its neighborhood width and its hard value range —
// exactly what defines "the same UDF with the same parameters" for the
// cache contract (constraint bounds/weights are query state, not
// function identity, and are fingerprinted separately).
std::string FunctionId(const data::ParsedConstraint& c) {
  std::string id = c.fn;
  if (c.width > 0) id += "|w=" + std::to_string(c.width);
  if (!c.range.empty()) {
    id += "|r=[" + FormatG(c.range.lo) + "," + FormatG(c.range.hi) + "]";
  }
  return id;
}

// Builds RefineOptions from a QUERY frame's attributes: the QUERY rows of
// core/knobs.h's table plus the serve-level flags. Unknown attributes are
// rejected, so a typo cannot silently run with defaults.
Status OptionsFromFrame(const Frame& frame, core::RefineOptions* opts,
                        bool* cached, bool* want_trace,
                        bool* want_profile) {
  *cached = false;
  *want_trace = false;
  *want_profile = false;
  for (const auto& [key, value] : frame.attrs) {
    if (key == "id" || key == "dataset") continue;
    const Status st =
        key == "cached"    ? core::ParseKnobFlag(key, value, cached)
        : key == "trace"   ? core::ParseKnobFlag(key, value, want_trace)
        : key == "profile" ? core::ParseKnobFlag(key, value, want_profile)
                           : core::SetKnob(key, value, core::kQueryKnob, opts);
    if (!st.ok()) return InvalidArgumentError("QUERY " + st.message());
  }
  return Status::Ok();
}

}  // namespace

// One accepted socket. Shared between the reader thread and any query
// threads it forked; the fd closes when the last holder drops it.
struct Server::Connection {
  ~Connection() {
    if (fd >= 0) close(fd);
  }
  int fd = -1;
  std::string tenant;      // set by HELLO; reader thread only
  std::mutex write_mu;     // serializes whole frames onto the socket
  std::atomic<bool> open{true};
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      session_(options_.session != nullptr ? options_.session
                                           : &exec::EngineSession::Shared()),
      scheduler_(session_->max_concurrent_queries()) {
  for (const auto& [name, config] : options_.tenants) {
    const Status st = scheduler_.Configure(name, config);
    if (!st.ok()) {
      DQR_LOG(kWarning) << "dqr_serve: " << st.ToString();
    }
  }
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.exchange(true)) {
    return FailedPreconditionError("server already started");
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    running_ = false;
    return InternalError(std::string("socket(): ") + strerror(errno));
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = strerror(errno);
    close(fd);
    running_ = false;
    return InternalError("bind(127.0.0.1:" +
                         std::to_string(options_.port) + "): " + err);
  }
  if (listen(fd, options_.backlog) != 0) {
    const std::string err = strerror(errno);
    close(fd);
    running_ = false;
    return InternalError("listen(): " + err);
  }
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (options_.http_metrics_port >= 0) {
    const int hfd = socket(AF_INET, SOCK_STREAM, 0);
    if (hfd < 0) {
      close(fd);
      running_ = false;
      return InternalError(std::string("socket(): ") + strerror(errno));
    }
    setsockopt(hfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in haddr{};
    haddr.sin_family = AF_INET;
    haddr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    haddr.sin_port =
        htons(static_cast<uint16_t>(options_.http_metrics_port));
    if (bind(hfd, reinterpret_cast<sockaddr*>(&haddr), sizeof(haddr)) !=
            0 ||
        listen(hfd, options_.backlog) != 0) {
      const std::string err = strerror(errno);
      close(hfd);
      close(fd);
      running_ = false;
      return InternalError(
          "http metrics bind(127.0.0.1:" +
          std::to_string(options_.http_metrics_port) + "): " + err);
    }
    socklen_t hlen = sizeof(haddr);
    getsockname(hfd, reinterpret_cast<sockaddr*>(&haddr), &hlen);
    http_port_ = ntohs(haddr.sin_port);
    http_listen_fd_.store(hfd);
    http_thread_ = std::thread([this] { HttpLoop(); });
  }
  listen_fd_.store(fd);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::Stop() {
  if (!running_.exchange(false)) return;
  // Unblock queued admissions first: waiters get kCancelled, their
  // queries terminate with ERROR overload frames.
  scheduler_.Shutdown();
  // Unblock the accept loop, then every connection reader.
  const int lfd = listen_fd_.exchange(-1);
  if (lfd >= 0) {
    shutdown(lfd, SHUT_RDWR);
    close(lfd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  const int hfd = http_listen_fd_.exchange(-1);
  if (hfd >= 0) {
    shutdown(hfd, SHUT_RDWR);
    close(hfd);
  }
  if (http_thread_.joinable()) http_thread_.join();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns = connections_;
  }
  for (const auto& conn : conns) {
    conn->open = false;
    shutdown(conn->fd, SHUT_RDWR);
  }
  // Wait for in-flight query threads (they run to completion: a query
  // already admitted to the engine finishes and records its answer) and
  // for every detached connection reader to take its last look at server
  // state — otherwise destroying the server races their teardown.
  std::unique_lock<std::mutex> lock(mu_);
  queries_done_cv_.wait(lock, [this] {
    return active_queries_ == 0 && stats_.connections_active == 0;
  });
}

Status Server::RegisterDataset(const std::string& name,
                               data::DatasetBundle bundle) {
  if (name.empty() || name.find(' ') != std::string::npos ||
      name.find('\n') != std::string::npos) {
    return InvalidArgumentError(
        "dataset name must be non-empty and whitespace-free");
  }
  if (bundle.array == nullptr || bundle.synopsis == nullptr) {
    return InvalidArgumentError("dataset '" + name +
                                "' bundle is incomplete");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it != datasets_.end()) {
    cache_.InvalidateDataset(name);
    it->second = std::move(bundle);
  } else {
    datasets_.emplace(name, std::move(bundle));
  }
  return Status::Ok();
}

void Server::UnregisterDataset(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (datasets_.erase(name) > 0) cache_.InvalidateDataset(name);
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Server::AcceptLoop() {
  while (running_) {
    const int lfd = listen_fd_.load();
    if (lfd < 0) break;
    const int fd = accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (!running_) break;
      continue;  // transient (EINTR / aborted handshake)
    }
    // Small latency-bound frames: disable Nagle or every streamed
    // progress/FINAL round trip eats a delayed-ACK stall.
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->tenant = options_.default_tenant;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.connections_accepted;
      ++stats_.connections_active;
      connections_.push_back(conn);
    }
    std::thread([this, conn] { ConnectionLoop(conn); }).detach();
  }
}

void Server::HttpLoop() {
  while (running_) {
    const int lfd = http_listen_fd_.load();
    if (lfd < 0) break;
    const int fd = accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (!running_) break;
      continue;
    }
    // One request per connection, HTTP/1.0 close semantics: read the
    // request line, answer, hang up. A stalled client cannot wedge
    // Stop() past the receive timeout.
    timeval timeout{};
    timeout.tv_sec = 5;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::string request;
    char buf[2048];
    while (request.find('\n') == std::string::npos &&
           request.size() < 16384) {
      const ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      request.append(buf, static_cast<size_t>(n));
    }
    size_t eol = request.find('\n');
    if (eol == std::string::npos) eol = request.size();
    std::string line = request.substr(0, eol);
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    std::string response;
    if (line.rfind("GET /metrics", 0) == 0 &&
        (line.size() == 12 || line[12] == ' ')) {
      const std::string body = MetricsText();
      response =
          "HTTP/1.0 200 OK\r\n"
          "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
          "Content-Length: " +
          std::to_string(body.size()) +
          "\r\n"
          "Connection: close\r\n\r\n" +
          body;
    } else {
      const std::string body = "not found (try GET /metrics)\n";
      response =
          "HTTP/1.0 404 Not Found\r\n"
          "Content-Type: text/plain; charset=utf-8\r\n"
          "Content-Length: " +
          std::to_string(body.size()) +
          "\r\n"
          "Connection: close\r\n\r\n" +
          body;
    }
    WriteAll(fd, response);
    close(fd);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.http_requests;
  }
}

void Server::ConnectionLoop(std::shared_ptr<Connection> conn) {
  FrameReader reader;
  char buf[4096];
  while (conn->open) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // peer closed / shutdown
    Status st = reader.Feed(buf, static_cast<size_t>(n));
    std::optional<Frame> frame;
    while (st.ok()) {
      st = reader.Poll(&frame);
      if (!st.ok() || !frame.has_value()) break;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.frames_received;
      }
      HandleFrame(conn, std::move(*frame));
    }
    if (!st.ok()) {
      // Framing violations are unrecoverable on a byte stream: report
      // the precise decoder message, then hang up.
      SendError(conn, "-", kErrBadFrame, st.message());
      break;
    }
  }
  conn->open = false;
  shutdown(conn->fd, SHUT_RDWR);
  // Final touch of server state on this detached thread: Stop() waits on
  // the connections_active gauge, and the notify happens under mu_, so
  // once the waiter observes zero this thread can no longer reference
  // the server.
  std::lock_guard<std::mutex> lock(mu_);
  --stats_.connections_active;
  connections_.erase(
      std::remove(connections_.begin(), connections_.end(), conn),
      connections_.end());
  queries_done_cv_.notify_all();
}

void Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         Frame frame) {
  if (frame.type == frame::kHello) {
    if (const std::string* tenant = frame.Get("tenant")) {
      conn->tenant = *tenant;
    }
    Frame welcome;
    welcome.type = frame::kWelcome;
    welcome.Set("tenant", conn->tenant);
    welcome.Set("proto", static_cast<int64_t>(1));
    SendFrame(conn, welcome);
  } else if (frame.type == frame::kQuery) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++active_queries_;
      ++stats_.queries_started;
    }
    // Each query gets its own thread so a connection can pipeline
    // queries; Stop() waits on active_queries_ before returning.
    std::thread([this, conn, f = std::move(frame)]() mutable {
      RunQuery(conn, std::move(f));
      std::lock_guard<std::mutex> lock(mu_);
      --active_queries_;
      queries_done_cv_.notify_all();
    }).detach();
  } else if (frame.type == frame::kMetrics) {
    HandleMetrics(conn, frame);
  } else if (frame.type == frame::kTrace) {
    HandleTrace(conn, frame);
  } else if (frame.type == frame::kProfile) {
    HandleProfile(conn, frame);
  } else if (frame.type == frame::kBye) {
    Frame bye;
    bye.type = frame::kBye;
    SendFrame(conn, bye);
    conn->open = false;
  } else {
    SendError(conn, "-", kErrBadFrame,
              "unknown frame type '" + frame.type + "'");
  }
}

void Server::RunQuery(std::shared_ptr<Connection> conn, Frame frame) {
  const std::string* id_attr = frame.Get("id");
  const std::string id = id_attr != nullptr ? *id_attr : "-";
  const std::string tenant = conn->tenant;
  auto fail = [&](const char* code, const std::string& message) {
    // Count before the ERROR frame goes out, mirroring the completion
    // path: observers that saw the outcome see the counter.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.queries_failed;
    }
    SendError(conn, id, code, message);
  };
  if (id_attr == nullptr) {
    fail(kErrBadFrame, "QUERY frame missing id attribute");
    return;
  }
  const std::string* dataset = frame.Get("dataset");
  if (dataset == nullptr) {
    fail(kErrBadFrame, "QUERY frame missing dataset attribute");
    return;
  }
  data::DatasetBundle bundle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(*dataset);
    if (it != datasets_.end()) bundle = it->second;
  }
  if (bundle.array == nullptr) {
    fail(kErrNotFound, "dataset '" + *dataset + "' is not registered");
    return;
  }
  core::RefineOptions opts;
  bool cached = false;
  bool want_trace = false;
  bool want_profile = false;
  Status st =
      OptionsFromFrame(frame, &opts, &cached, &want_trace, &want_profile);
  if (!st.ok()) {
    fail(kErrBadFrame, st.message());
    return;
  }
  Result<data::ParsedQuery> parsed = data::ParseQueryText(frame.body);
  if (!parsed.ok()) {
    fail(kErrParse, parsed.status().message());
    return;
  }
  Result<searchlight::QuerySpec> spec =
      data::BuildQuery(parsed.value(), bundle, options_.estimate_cost_ns);
  if (!spec.ok()) {
    fail(kErrParse, spec.status().message());
    return;
  }

  std::shared_ptr<obs::Trace> trace;
  if (want_trace) {
    trace = std::make_shared<obs::Trace>();
    opts.trace = trace.get();
  }
  std::shared_ptr<obs::Profile> profile;
  if (want_profile) {
    profile = std::make_shared<obs::Profile>();
    opts.profile = profile.get();
  }
  // Stream every confirmed result and every bound improvement as it
  // happens — the incremental half of the protocol. The callbacks run
  // on validator threads; SendFrame serializes on the connection's
  // write mutex.
  opts.on_result = [this, conn, id](const core::Solution& solution) {
    Frame f;
    f.type = frame::kResult;
    f.Set("id", id);
    f.body = core::CanonicalLine(solution);
    SendFrame(conn, f);
  };
  opts.on_progress = [this, conn, id](const core::ProgressEvent& ev) {
    Frame f;
    f.Set("id", id);
    if (ev.kind == core::ProgressKind::kPhaseConstraining) {
      f.type = frame::kPhase;
      f.Set("phase", "constraining");
    } else {
      f.type = frame::kBound;
      f.Set("bound",
            ev.kind == core::ProgressKind::kMrp ? "mrp" : "mrk");
      f.Set("value", ev.value);
    }
    SendFrame(conn, f);
  };

  const int64_t demand = exec::EngineSession::TaskDemand(opts);
  Frame accepted;
  accepted.type = frame::kAccepted;
  accepted.Set("id", id);
  accepted.Set("tenant", tenant);
  accepted.Set("demand", demand);
  SendFrame(conn, accepted);

  Result<double> admitted = scheduler_.Acquire(tenant, demand);
  if (!admitted.ok()) {
    fail(admitted.status().code() == StatusCode::kResourceExhausted
             ? kErrBudget
             : kErrOverload,
         admitted.status().message());
    return;
  }
  Frame phase;
  phase.type = frame::kPhase;
  phase.Set("id", id);
  phase.Set("phase", "collecting");
  SendFrame(conn, phase);

  Result<core::RunResult> run = InternalError("unreachable");
  std::string outcome = "executed";
  if (cached) {
    cache::CachedQuery cq;
    cq.query = spec.value();
    cq.dataset_id = *dataset;
    for (const auto& c : parsed.value().constraints) {
      cq.function_ids.push_back(FunctionId(c));
    }
    cache::CacheOutcome cache_outcome = cache::CacheOutcome::kMiss;
    run = session_->ExecuteCached(&cache_, cq, opts, &cache_outcome);
    if (run.ok()) outcome = cache::CacheOutcomeName(cache_outcome);
  } else {
    run = session_->Execute(spec.value(), opts);
  }
  scheduler_.Release(tenant, demand);
  if (!run.ok()) {
    fail(kErrEngine, run.status().message());
    return;
  }

  const core::RunResult& result = run.value();
  const std::string canonical = core::Canonicalize(result.results);
  const std::string fingerprint = core::CanonicalFingerprint(canonical);
  Frame final_frame;
  final_frame.type = frame::kFinal;
  final_frame.Set("id", id);
  final_frame.Set("completed",
                  static_cast<int64_t>(result.stats.completed ? 1 : 0));
  final_frame.Set("results",
                  static_cast<int64_t>(result.results.size()));
  final_frame.Set("outcome", outcome);
  final_frame.Set("wait_s", admitted.value());
  final_frame.Set("fingerprint", fingerprint);
  final_frame.body = canonical;

  // Record and count before FINAL goes out: a client that has seen the
  // answer must be able to fetch the query's record (METRICS id= /
  // TRACE id=) and observe the completion counter immediately.
  std::shared_ptr<const std::string> profile_json;
  if (profile != nullptr) {
    profile_json = std::make_shared<const std::string>(
        obs::ProfileToJson(profile->query()));
  }
  QueryRecord record;
  record.id = id;
  record.tenant = tenant;
  record.stats = result.stats;
  record.canonical = canonical;
  record.fingerprint = fingerprint;
  record.outcome = outcome;
  record.trace = trace;
  record.profile_json = profile_json;
  RecordQuery(std::move(record));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries_completed;
  }
  SendFrame(conn, final_frame);
  // The profile rides behind the FINAL: clients that asked for profile=1
  // read exactly one more frame; everyone else never sees it.
  if (profile_json != nullptr) {
    Frame profile_frame;
    profile_frame.type = frame::kProfile;
    profile_frame.Set("id", id);
    profile_frame.body = *profile_json;
    SendFrame(conn, profile_frame);
  }
}

void Server::HandleMetrics(const std::shared_ptr<Connection>& conn,
                           const Frame& frame) {
  Frame reply;
  reply.type = frame::kMetrics;
  if (const std::string* id = frame.Get("id")) {
    std::shared_ptr<const QueryRecord> record = FindRecord(*id);
    if (record == nullptr) {
      SendError(conn, *id, kErrNotFound,
                "no completed query with id '" + *id +
                    "' in the history window");
      return;
    }
    reply.Set("id", *id);
    reply.body =
        obs::MetricsSnapshot(record->stats, "query=\"" + *id + "\"");
  } else {
    reply.body = MetricsText();
  }
  SendFrame(conn, reply);
}

void Server::HandleTrace(const std::shared_ptr<Connection>& conn,
                         const Frame& frame) {
  const std::string* id = frame.Get("id");
  if (id == nullptr) {
    SendError(conn, "-", kErrBadFrame, "TRACE frame missing id attribute");
    return;
  }
  std::shared_ptr<const QueryRecord> record = FindRecord(*id);
  if (record == nullptr) {
    SendError(conn, *id, kErrNotFound,
              "no completed query with id '" + *id +
                  "' in the history window");
    return;
  }
  if (record->trace == nullptr) {
    SendError(conn, *id, kErrNotFound,
              "query '" + *id +
                  "' ran without tracing (submit with trace=1)");
    return;
  }
  Frame reply;
  reply.type = frame::kTrace;
  reply.Set("id", *id);
  reply.body = obs::ExportChromeJson(*record->trace);
  SendFrame(conn, reply);
}

void Server::HandleProfile(const std::shared_ptr<Connection>& conn,
                           const Frame& frame) {
  const std::string* id = frame.Get("id");
  if (id == nullptr) {
    SendError(conn, "-", kErrBadFrame,
              "PROFILE frame missing id attribute");
    return;
  }
  std::shared_ptr<const QueryRecord> record = FindRecord(*id);
  if (record == nullptr) {
    SendError(conn, *id, kErrNotFound,
              "no completed query with id '" + *id +
                  "' in the history window");
    return;
  }
  if (record->profile_json == nullptr) {
    SendError(conn, *id, kErrNotFound,
              "query '" + *id +
                  "' ran without profiling (submit with profile=1)");
    return;
  }
  Frame reply;
  reply.type = frame::kProfile;
  reply.Set("id", *id);
  reply.body = *record->profile_json;
  SendFrame(conn, reply);
}

std::string Server::MetricsText() const {
  // Aggregate engine stats over the history window, then the serve /
  // tenant / session layers as dqr_serve_* samples.
  core::RunStats agg;
  ServerStats server_stats;
  std::vector<std::shared_ptr<const QueryRecord>> history;
  {
    std::lock_guard<std::mutex> lock(mu_);
    history = history_;
    server_stats = stats_;
  }
  // Per-tenant latency histograms over the same window: the engine
  // records query_latency unconditionally, so these populate whether or
  // not the queries were profiled.
  std::map<std::string, obs::LatencyHistogram> tenant_latency;
  for (const auto& record : history) {
    agg += record->stats;
    tenant_latency[record->tenant] += record->stats.query_latency;
  }
  std::string out = obs::MetricsSnapshot(agg, "scope=\"history\"");
  for (const auto& [name, hist] : tenant_latency) {
    obs::AppendLatencyHistogram(
        out, "serve_tenant_query_latency_seconds",
        "End-to-end latency of completed queries, per tenant",
        "tenant=\"" + name + "\"", hist);
  }
  const auto sample = [&out](const std::string& name, const char* help,
                             const char* type, const std::string& labels,
                             double value) {
    obs::AppendMetricSample(out, "serve_" + name, help, type, labels,
                            value);
  };
  sample("connections_accepted", "Connections accepted", "counter", "",
         static_cast<double>(server_stats.connections_accepted));
  sample("connections_active", "Connections open right now", "gauge", "",
         static_cast<double>(server_stats.connections_active));
  sample("frames_received", "Frames decoded from clients", "counter", "",
         static_cast<double>(server_stats.frames_received));
  sample("frames_sent", "Frames written to clients", "counter", "",
         static_cast<double>(server_stats.frames_sent));
  sample("queries_started", "QUERY frames dispatched", "counter", "",
         static_cast<double>(server_stats.queries_started));
  sample("queries_completed", "Queries that reached FINAL", "counter", "",
         static_cast<double>(server_stats.queries_completed));
  sample("queries_failed", "Queries terminated by ERROR", "counter", "",
         static_cast<double>(server_stats.queries_failed));
  sample("http_requests", "Requests served by the HTTP metrics gateway",
         "counter", "", static_cast<double>(server_stats.http_requests));
  for (const auto& [name, t] : scheduler_.Stats()) {
    const std::string labels = "tenant=\"" + name + "\"";
    sample("tenant_weight", "Configured tenant weight", "gauge", labels,
           t.weight);
    sample("tenant_submitted", "Admission requests", "counter", labels,
           static_cast<double>(t.submitted));
    sample("tenant_granted", "Admissions granted", "counter", labels,
           static_cast<double>(t.granted));
    sample("tenant_completed", "Queries completed", "counter", labels,
           static_cast<double>(t.completed));
    sample("tenant_rejected", "Budget rejections", "counter", labels,
           static_cast<double>(t.rejected));
    sample("tenant_queue_depth", "Queries queued right now", "gauge",
           labels, static_cast<double>(t.queue_depth));
    sample("tenant_in_flight", "Queries admitted right now", "gauge",
           labels, static_cast<double>(t.in_flight));
    sample("tenant_completed_demand",
           "Summed task demand of completed queries", "counter", labels,
           static_cast<double>(t.completed_demand));
    sample("tenant_admission_wait_seconds", "Summed admission wait",
           "counter", labels, t.admission_wait_s);
    sample("tenant_max_admission_wait_seconds",
           "Worst single admission wait", "gauge", labels,
           t.max_admission_wait_s);
  }
  const exec::SessionStats session_stats = session_->stats();
  sample("session_active_slots", "Engine session slots running", "gauge",
         "", static_cast<double>(session_stats.active_slots));
  sample("session_peak_slots", "Engine session slot high-water", "gauge",
         "", static_cast<double>(session_stats.peak_slots));
  sample("session_queries_admitted", "Engine session admissions",
         "counter", "",
         static_cast<double>(session_stats.queries_admitted));
  sample("session_queries_queued", "Admissions that waited", "counter",
         "", static_cast<double>(session_stats.queries_queued));
  sample("session_admission_wait_seconds",
         "Summed engine-session admission wait", "counter", "",
         session_stats.admission_wait_s);
  sample("session_max_admission_wait_seconds",
         "Worst single engine-session admission wait", "gauge", "",
         session_stats.max_admission_wait_s);
  sample("session_tasks_in_flight", "Pool-task demand of active slots",
         "gauge", "",
         static_cast<double>(session_stats.tasks_in_flight));
  sample("pool_threads", "Persistent pool workers", "gauge", "",
         static_cast<double>(session_stats.pool.threads));
  sample("pool_busy", "Pool workers running a task", "gauge", "",
         static_cast<double>(session_stats.pool.busy));
  sample("pool_dispatched", "Tasks handed to the pool", "counter", "",
         static_cast<double>(session_stats.pool.dispatched));
  sample("pool_overflow_spawns", "Tasks that needed a transient thread",
         "counter", "",
         static_cast<double>(session_stats.pool.overflow_spawns));
  return out;
}

void Server::SendFrame(const std::shared_ptr<Connection>& conn,
                       const Frame& frame) {
  Result<std::string> wire = EncodeFrame(frame);
  if (!wire.ok()) {
    DQR_LOG(kWarning) << "dqr_serve: dropping unencodable " << frame.type
                  << " frame: " << wire.status().ToString();
    return;
  }
  bool sent = false;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    sent = WriteAll(conn->fd, wire.value());
  }
  if (sent) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.frames_sent;
  }
}

void Server::SendError(const std::shared_ptr<Connection>& conn,
                       const std::string& id, const std::string& code,
                       const std::string& message) {
  Frame frame;
  frame.type = frame::kError;
  frame.Set("id", id.empty() ? "-" : id);
  frame.Set("code", code);
  frame.body = message;
  SendFrame(conn, frame);
}

void Server::RecordQuery(QueryRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  history_.push_back(
      std::make_shared<const QueryRecord>(std::move(record)));
  if (history_.size() > options_.history_capacity) {
    history_.erase(history_.begin());
  }
}

std::shared_ptr<const Server::QueryRecord> Server::FindRecord(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if ((*it)->id == id) return *it;
  }
  return nullptr;
}

}  // namespace dqr::serve
