// The engine knob table (core/knobs.h): every row round-trips through its
// formatter and parser, and the two parsers built on it — the fuzz config
// codec and a live server's QUERY path — reject the same malformed
// strings with the same message naming the knob.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/knobs.h"
#include "serve/client.h"
#include "serve/server.h"
#include "testing/generator.h"
#include "testing/harness.h"

namespace dqr::core {
namespace {

constexpr unsigned kAnySurface = kQueryKnob | kConfigKnob;

// Every tabled knob away from its default.
RefineOptions AllKnobsSet() {
  RefineOptions o;
  o.alpha = 0.25;
  o.constrain = ConstrainMode::kSkyline;
  o.result_spacing = {64, 0};
  o.diversity_pool_factor = 3;
  o.num_instances = 4;
  o.shards_per_instance = 5;
  o.fail_eval = FailEvalMode::kFull;
  o.speculative = true;
  o.save_function_state = false;
  o.replay_relaxation_distance = 0.1 + 0.2;  // needs all 17 digits
  o.replay_order = ReplayOrder::kFifo;
  o.validator_queue = ValidatorQueueOrder::kFifo;
  o.var_select = cp::VarSelect::kSmallestDomain;
  o.value_split = cp::ValueSplit::kBisectHighFirst;
  o.broadcast_delay_us = 500;
  return o;
}

TEST(KnobTableTest, EveryRowRoundTrips) {
  const std::vector<KnobText> set = FormatKnobs(AllKnobsSet());
  const std::vector<KnobText> defaults = FormatKnobs(RefineOptions{});
  std::vector<std::string> keys;
  RefineOptions parsed;
  for (size_t i = 0; i < set.size(); ++i) {
    keys.push_back(set[i].key);
    EXPECT_NE(set[i].value, defaults[i].value) << set[i].key;
    const Status st = SetKnob(set[i].key, set[i].value, kAnySurface, &parsed);
    EXPECT_TRUE(st.ok()) << set[i].key << ": " << st.ToString();
  }
  // A new row must be added to AllKnobsSet (and so to this test) too.
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "alpha", "constrain", "spacing", "divpool", "inst",
                      "shards", "eval", "spec", "state", "rrd", "replay",
                      "vq", "vsel", "split", "bcast"}));
  const std::vector<KnobText> again = FormatKnobs(parsed);
  for (size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(again[i].value, set[i].value) << set[i].key;
  }
  EXPECT_EQ(parsed.replay_relaxation_distance, 0.1 + 0.2);
  EXPECT_TRUE(CheckKnobs(parsed, 10).ok());

  // The defaults round-trip too; the empty spacing list reads "".
  RefineOptions from_defaults = AllKnobsSet();
  for (const KnobText& k : defaults) {
    EXPECT_TRUE(SetKnob(k.key, k.value, kAnySurface, &from_defaults).ok()) << k.key;
  }
  EXPECT_TRUE(from_defaults.result_spacing.empty());
  const std::vector<KnobText> back = FormatKnobs(from_defaults);
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].value, defaults[i].value) << back[i].key;
  }
  EXPECT_TRUE(CheckKnobs(RefineOptions{}, 10).ok());
}

TEST(KnobTableTest, ParsingIsStrictAndNamesTheKnob) {
  RefineOptions o;
  const struct {
    const char* key;
    const char* value;
    const char* want;
  } cases[] = {
      {"spec", "yes", "knob 'spec' must be 0 or 1, got 'yes'"},
      {"inst", " 2", "knob 'inst' must be an integer in [1, 64], got ' 2'"},
      {"inst", "", "knob 'inst' must be an integer in [1, 64], got ''"},
      {"shards", "99999999999999999999",
       "knob 'shards' must be an integer in [1, 2147483647], got "
       "'99999999999999999999'"},
      {"alpha", "inf", "knob 'alpha' must lie in [0, 1], got 'inf'"},
      {"rrd", "0", "knob 'rrd' must lie in (0, 1], got '0'"},
      {"constrain", "rank ", "knob 'constrain' must be none, rank or "
                             "skyline, got 'rank '"},
      {"eval", "Lazy", "knob 'eval' must be full or lazy, got 'Lazy'"},
      {"spacing", "4,,2", "knob 'spacing' must be comma-separated "
                          "non-negative integers, got '4,,2'"},
      {"spacing", "4,-2", "knob 'spacing' must be comma-separated "
                          "non-negative integers, got '4,-2'"},
      {"bcast", "-1", "knob 'bcast' must be an integer in [0, 1000000], "
                      "got '-1'"},
  };
  const std::string before = FormatKnobs(o)[0].value;
  for (const auto& c : cases) {
    const Status st = SetKnob(c.key, c.value, kAnySurface, &o);
    EXPECT_EQ(st.message(), c.want);
  }
  EXPECT_EQ(SetKnob("bogus", "1", kAnySurface, &o).message(),
            "unknown key 'bogus'");
  // A rejected value leaves the options untouched.
  EXPECT_EQ(FormatKnobs(o)[0].value, before);
  EXPECT_EQ(o.num_instances, 1);
  EXPECT_TRUE(o.result_spacing.empty());
}

TEST(KnobTableTest, ChangedKnobsSplitsTheTableByTheWire) {
  std::vector<std::string> query, fuzz_only;
  for (const KnobText& k : ChangedKnobs(AllKnobsSet(), {}, true)) {
    query.push_back(k.key);
  }
  for (const KnobText& k : ChangedKnobs(AllKnobsSet(), {}, false)) {
    fuzz_only.push_back(k.key);
  }
  EXPECT_EQ(query, (std::vector<std::string>{
                       "alpha", "constrain", "spacing", "divpool", "inst",
                       "shards", "eval", "spec", "state", "rrd", "replay",
                       "vq"}));
  EXPECT_EQ(fuzz_only, (std::vector<std::string>{"vsel", "split", "bcast"}));
  EXPECT_TRUE(ChangedKnobs(RefineOptions{}, {}, true).empty());
  EXPECT_TRUE(ChangedKnobs(RefineOptions{}, {}, false).empty());
  RefineOptions one;
  one.broadcast_delay_us = 50;
  const std::vector<KnobText> changed = ChangedKnobs(one, {}, false);
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0].value, "50");
}

TEST(KnobTableTest, CheckKnobsBoundsTheDiversityPool) {
  RefineOptions o;
  o.result_spacing = {4, 0};
  o.diversity_pool_factor = kMaxDiversityPoolFactor;
  EXPECT_TRUE(CheckKnobs(o, int64_t{1} << 40).ok());
  EXPECT_EQ(CheckKnobs(o, int64_t{1} << 44).message(),
            "knob 'divpool' times k = 17592186044416 overflows the "
            "diversity pool, got '1048576'");
  o.diversity_pool_factor = kMaxDiversityPoolFactor + 1;
  EXPECT_EQ(CheckKnobs(o, 6).message(),
            "knob 'divpool' must be an integer in [1, 1048576], got "
            "'1048577'");
  o.num_instances = 65;
  o.diversity_pool_factor = 8;
  EXPECT_EQ(CheckKnobs(o, 6).message(),
            "knob 'inst' must be an integer in [1, 64], got '65'");
}

// The same malformed strings, through the fuzz config codec and a live
// server's QUERY frame: both reject, and with the same knob message.
TEST(KnobTableTest, FuzzCodecAndServeRejectTheSameStrings) {
  const fuzz::Workload w = fuzz::MakeWorkload(2, fuzz::FuzzMode::kRelax);
  serve::Server server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(
      server.RegisterDataset("d", data::DatasetBundle{w.array, w.synopsis})
          .ok());
  serve::Client client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Hello("knobs").ok());

  const struct {
    const char* key;
    const char* value;
  } cases[] = {{"inst", "2x"},     {"spec", "yes"},
               {"rrd", "nan"},     {"rrd", "0.5abc"},
               {"shards", "4294967297"}, {"divpool", "0"},
               {"eval", "Lazy"},   {"vq", "BRP"},
               {"bogus", "1"}};
  for (const auto& c : cases) {
    const std::string piece = std::string(c.key) + "=" + c.value;
    const Result<fuzz::EngineConfig> config =
        fuzz::EngineConfig::FromString("inst=2;" + piece);
    ASSERT_FALSE(config.ok()) << piece;
    const std::string& fuzz_message = config.status().message();
    ASSERT_EQ(fuzz_message.rfind("config: ", 0), 0u) << fuzz_message;
    const std::string knob_message = fuzz_message.substr(8);
    EXPECT_NE(knob_message.find(std::string("'") + c.key + "'"),
              std::string::npos)
        << knob_message;

    serve::Frame query =
        fuzz::MakeQueryFrame(c.key, "d", w, fuzz::EngineConfig{});
    query.Set(c.key, std::string(c.value));
    const Result<serve::QueryRun> run = client.RunQuery(query);
    ASSERT_FALSE(run.ok()) << piece;
    EXPECT_NE(run.status().message().find("QUERY " + knob_message),
              std::string::npos)
        << run.status().message() << " vs " << knob_message;
  }
  // The connection keeps serving after every rejection.
  const Result<serve::QueryRun> valid = client.RunQuery(
      fuzz::MakeQueryFrame("ok", "d", w, fuzz::EngineConfig{}));
  EXPECT_TRUE(valid.ok()) << valid.status().ToString();
  server.Stop();
}

// Each layer keeps to its own keys: the wire carries no fuzz-only knob,
// a fuzz config cannot override what the workload draws, and a fuzz run
// reads nothing its config line does not carry.
TEST(KnobTableTest, EachLayerTakesOnlyItsOwnKnobs) {
  fuzz::EngineConfig config;
  config.knobs.num_instances = 3;
  config.knobs.time_budget_s = 5.0;
  config.knobs.max_recorded_fails = 7;
  const RefineOptions options = config.ToOptions(
      fuzz::MakeWorkload(2, fuzz::FuzzMode::kRelax), nullptr);
  EXPECT_EQ(options.num_instances, 3);
  EXPECT_EQ(options.time_budget_s, RefineOptions{}.time_budget_s);
  EXPECT_EQ(options.max_recorded_fails, RefineOptions{}.max_recorded_fails);

  const Result<fuzz::EngineConfig> divpool =
      fuzz::EngineConfig::FromString("divpool=4");
  ASSERT_FALSE(divpool.ok());
  EXPECT_EQ(divpool.status().message(),
            "config: knob 'divpool' is not settable here");

  const fuzz::Workload w = fuzz::MakeWorkload(2, fuzz::FuzzMode::kRelax);
  serve::Server server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(
      server.RegisterDataset("d", data::DatasetBundle{w.array, w.synopsis})
          .ok());
  serve::Client client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Hello("knobs").ok());
  serve::Frame query =
      fuzz::MakeQueryFrame("q", "d", w, fuzz::EngineConfig{});
  query.Set("vsel", std::string("first"));
  const Result<serve::QueryRun> run = client.RunQuery(query);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find(
                "QUERY knob 'vsel' is not settable here"),
            std::string::npos)
      << run.status().message();
  for (const char* flag : {"cached", "trace", "profile"}) {
    serve::Frame bad =
        fuzz::MakeQueryFrame("f", "d", w, fuzz::EngineConfig{});
    bad.Set(flag, std::string("yes"));
    const Result<serve::QueryRun> rejected = client.RunQuery(bad);
    ASSERT_FALSE(rejected.ok()) << flag;
    EXPECT_NE(rejected.status().message().find(
                  std::string("QUERY knob '") + flag +
                  "' must be 0 or 1, got 'yes'"),
              std::string::npos)
        << rejected.status().message();
  }
  server.Stop();
}

}  // namespace
}  // namespace dqr::core
