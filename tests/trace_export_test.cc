// Exporter <-> reader round trip: a hand-built trace with deterministic
// timestamps exports to Chrome trace_event JSON, loads back through the
// reader, passes the CI schema check, and summarizes to the expected
// numbers. Plus the checker's rejection cases, which are what make
// `dqr_trace --check` a real gate.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/export_chrome.h"
#include "obs/trace.h"
#include "obs/trace_reader.h"

namespace dqr::obs {
namespace {

// Emits at origin + us so exported timestamps are exactly `us`.
void At(TraceRing* ring, const Trace& trace, double us, EventKind kind,
        EventName name, double value = 0.0) {
  ring->EmitAt(trace.origin_ns() + static_cast<int64_t>(us * 1000.0), kind,
               name, value);
}

TEST(ChromeExportTest, GoldenRoundTrip) {
  Trace trace;
  trace.BeginQuery();
  TraceRing* solver = trace.CreateRing(0, ThreadRole::kSolver, 64);
  TraceRing* detector = trace.CreateRing(-1, ThreadRole::kDetector, 64);

  At(solver, trace, 1.0, EventKind::kBegin, EventName::kShardExecute);
  At(solver, trace, 1.5, EventKind::kInstant, EventName::kShardPickup, 7.0);
  At(solver, trace, 2.0, EventKind::kInstant, EventName::kResultExact, 2.5);
  At(solver, trace, 3.0, EventKind::kEnd, EventName::kShardExecute);
  At(solver, trace, 3.5, EventKind::kCounter, EventName::kMrp, 5.0);
  At(detector, trace, 4.0, EventKind::kInstant, EventName::kInstanceDead,
     1.0);

  const std::string json = ExportChromeJson(trace);
  const Result<LoadedTrace> loaded = ParseChromeTrace(json);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LoadedTrace& t = loaded.value();
  EXPECT_TRUE(CheckChromeTrace(t).ok())
      << CheckChromeTrace(t).ToString() << "\n" << json;

  // pid layout: epoch 1 => detector (instance -1) at 4096, instance 0 at
  // 4097; thread ids are the role enum values.
  ASSERT_EQ(t.process_names.count(4097), 1u);
  EXPECT_EQ(t.process_names.at(4097), "q1/instance 0");
  ASSERT_EQ(t.process_names.count(4096), 1u);
  EXPECT_EQ(t.process_names.at(4096), "q1/cluster");
  EXPECT_EQ(t.thread_names.at({4097, 0}), "solver");
  EXPECT_EQ(t.thread_names.at({4096, 4}), "detector");

  ASSERT_EQ(t.events.size(), 6u);
  EXPECT_EQ(t.events[0].ph, "B");
  EXPECT_EQ(t.events[0].name, "shard_execute");
  EXPECT_DOUBLE_EQ(t.events[0].ts_us, 1.0);
  EXPECT_FALSE(t.events[0].has_value);
  EXPECT_EQ(t.events[1].ph, "i");
  EXPECT_TRUE(t.events[1].has_value);
  EXPECT_DOUBLE_EQ(t.events[1].value, 7.0);
  EXPECT_EQ(t.events[2].name, "result_exact");
  EXPECT_DOUBLE_EQ(t.events[2].value, 2.5);
  EXPECT_EQ(t.events[3].ph, "E");
  EXPECT_DOUBLE_EQ(t.events[3].ts_us, 3.0);
  EXPECT_EQ(t.events[4].ph, "C");
  EXPECT_EQ(t.events[4].name, "mrp");
  EXPECT_EQ(t.events[5].name, "instance_dead");
  EXPECT_EQ(t.events[5].pid, 4096);

  EXPECT_EQ(t.emitted, 6);
  EXPECT_EQ(t.dropped, 0);

  const TraceSummary summary = Summarize(t);
  EXPECT_EQ(summary.events, 6);
  EXPECT_DOUBLE_EQ(summary.duration_us, 3.0);  // 1.0 .. 4.0
  EXPECT_DOUBLE_EQ(summary.first_result_us, 1.0);  // result_exact at 2.0
  ASSERT_EQ(summary.tracks.size(), 2u);
  // Map order: pid 4096 (cluster) before 4097 (instance 0).
  EXPECT_EQ(summary.tracks[0].process, "q1/cluster");
  EXPECT_EQ(summary.tracks[1].thread, "solver");
  EXPECT_DOUBLE_EQ(summary.tracks[1].busy_us, 2.0);  // span 1.0 -> 3.0
  EXPECT_EQ(summary.tracks[1].spans, 1);
  EXPECT_EQ(summary.tracks[1].instants.at("shard_pickup"), 1);
}

TEST(ChromeExportTest, UnclosedSpanIsSynthesizedClosed) {
  Trace trace;
  trace.BeginQuery();
  TraceRing* ring = trace.CreateRing(0, ThreadRole::kSolver, 64);
  At(ring, trace, 1.0, EventKind::kBegin, EventName::kShardExecute);
  At(ring, trace, 2.0, EventKind::kInstant, EventName::kHeartbeat, 0.0);
  // No End: the producer thread died (or the run was snapshotted live).

  const Result<LoadedTrace> loaded =
      ParseChromeTrace(ExportChromeJson(trace));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(CheckChromeTrace(loaded.value()).ok())
      << CheckChromeTrace(loaded.value()).ToString();
  ASSERT_EQ(loaded.value().events.size(), 3u);
  const LoadedEvent& synthetic = loaded.value().events.back();
  EXPECT_EQ(synthetic.ph, "E");
  EXPECT_EQ(synthetic.name, "shard_execute");
  EXPECT_DOUBLE_EQ(synthetic.ts_us, 2.0);  // closed at the last timestamp
}

TEST(ChromeExportTest, OrphanEndFromTruncationIsDropped) {
  Trace trace;
  trace.BeginQuery();
  // Capacity 2: the Begin is overwritten, leaving an orphaned End — the
  // drop-oldest shape the exporter must tolerate.
  TraceRing* ring = trace.CreateRing(0, ThreadRole::kSolver, 2);
  At(ring, trace, 1.0, EventKind::kBegin, EventName::kShardExecute);
  At(ring, trace, 2.0, EventKind::kEnd, EventName::kShardExecute);
  At(ring, trace, 3.0, EventKind::kInstant, EventName::kHeartbeat, 0.0);

  const Result<LoadedTrace> loaded =
      ParseChromeTrace(ExportChromeJson(trace));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LoadedTrace& t = loaded.value();
  EXPECT_TRUE(CheckChromeTrace(t).ok()) << CheckChromeTrace(t).ToString();
  // The ring kept {End, heartbeat}; the End's Begin is gone, so the
  // exporter must drop the End or the schema check would fail.
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].name, "heartbeat");
  EXPECT_EQ(t.dropped, 1);
}

TEST(ChromeExportTest, EmptyTraceIsValidJson) {
  Trace trace;
  const Result<LoadedTrace> loaded =
      ParseChromeTrace(ExportChromeJson(trace));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(CheckChromeTrace(loaded.value()).ok());
  EXPECT_TRUE(loaded.value().events.empty());
  const TraceSummary summary = Summarize(loaded.value());
  EXPECT_EQ(summary.events, 0);
  EXPECT_LT(summary.first_result_us, 0.0);
}

// --- checker rejections ---------------------------------------------

LoadedTrace NamedTrack() {
  LoadedTrace t;
  t.process_names[1] = "q1/instance 0";
  t.thread_names[{1, 0}] = "solver";
  return t;
}

LoadedEvent Ev(const char* name, const char* ph, double ts,
               bool has_value = false) {
  LoadedEvent e;
  e.name = name;
  e.ph = ph;
  e.pid = 1;
  e.tid = 0;
  e.ts_us = ts;
  e.has_value = has_value;
  return e;
}

TEST(CheckChromeTraceTest, RejectsUnknownPh) {
  LoadedTrace t = NamedTrack();
  t.events.push_back(Ev("heartbeat", "X", 1.0));
  EXPECT_FALSE(CheckChromeTrace(t).ok());
}

TEST(CheckChromeTraceTest, RejectsUnnamedThread) {
  LoadedTrace t = NamedTrack();
  LoadedEvent e = Ev("heartbeat", "i", 1.0, /*has_value=*/true);
  e.tid = 9;  // no thread_name metadata for tid 9
  t.events.push_back(e);
  EXPECT_FALSE(CheckChromeTrace(t).ok());
}

TEST(CheckChromeTraceTest, RejectsTimestampRegression) {
  LoadedTrace t = NamedTrack();
  t.events.push_back(Ev("heartbeat", "i", 2.0, true));
  t.events.push_back(Ev("heartbeat", "i", 1.0, true));
  EXPECT_FALSE(CheckChromeTrace(t).ok());
}

TEST(CheckChromeTraceTest, RejectsUnbalancedSpans) {
  {
    LoadedTrace t = NamedTrack();
    t.events.push_back(Ev("validate", "E", 1.0));  // E without B
    EXPECT_FALSE(CheckChromeTrace(t).ok());
  }
  {
    LoadedTrace t = NamedTrack();
    t.events.push_back(Ev("validate", "B", 1.0));  // B never closed
    EXPECT_FALSE(CheckChromeTrace(t).ok());
  }
  {
    LoadedTrace t = NamedTrack();
    t.events.push_back(Ev("validate", "B", 1.0));
    t.events.push_back(Ev("shard_execute", "E", 2.0));  // name mismatch
    EXPECT_FALSE(CheckChromeTrace(t).ok());
  }
}

TEST(CheckChromeTraceTest, RejectsInstantWithoutValue) {
  LoadedTrace t = NamedTrack();
  t.events.push_back(Ev("heartbeat", "i", 1.0, /*has_value=*/false));
  EXPECT_FALSE(CheckChromeTrace(t).ok());
}

TEST(CheckChromeTraceTest, RejectsMalformedJson) {
  EXPECT_FALSE(ParseChromeTrace("{\"traceEvents\":[").ok());
  EXPECT_FALSE(ParseChromeTrace("[]").ok());
  EXPECT_FALSE(ParseChromeTrace("{}").ok());
}

TEST(CheckChromeTraceTest, RejectsNestingPastTheLimit) {
  const Result<LoadedTrace> deep =
      ParseChromeTrace("{\"traceEvents\":" + std::string(2 << 20, '['));
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.status().message().find(
                "JSON error at byte 526: nesting deeper than 512"),
            std::string::npos)
      << deep.status().ToString();
}

TEST(SummarizeTest, StealLatencyBucketsGapToNextPickup) {
  LoadedTrace t = NamedTrack();
  t.events.push_back(Ev("shard_execute", "B", 0.0));
  t.events.push_back(Ev("shard_execute", "E", 100.0));
  t.events.push_back(Ev("shard_pickup", "i", 105.0, true));   // gap 5us
  t.events.push_back(Ev("shard_execute", "B", 105.0));
  t.events.push_back(Ev("shard_execute", "E", 200.0));
  t.events.push_back(Ev("shard_pickup", "i", 250.0, true));   // gap 50us
  t.events.push_back(Ev("shard_execute", "B", 250.0));
  t.events.push_back(Ev("shard_execute", "E", 300.0));
  t.events.push_back(Ev("shard_pickup", "i", 800.0, true));   // gap 500us
  t.events.push_back(Ev("shard_execute", "B", 800.0));
  t.events.push_back(Ev("shard_execute", "E", 900.0));
  ASSERT_TRUE(CheckChromeTrace(t).ok()) << CheckChromeTrace(t).ToString();

  const TraceSummary summary = Summarize(t);
  EXPECT_EQ(summary.steal_latency[0], 1);
  EXPECT_EQ(summary.steal_latency[1], 1);
  EXPECT_EQ(summary.steal_latency[2], 1);
  EXPECT_EQ(summary.steal_latency[3], 0);
  ASSERT_EQ(summary.tracks.size(), 1u);
  EXPECT_EQ(summary.tracks[0].spans, 4);
  const std::string text = FormatSummary(summary);
  EXPECT_NE(text.find("shard handoff latency"), std::string::npos);
}

}  // namespace
}  // namespace dqr::obs
