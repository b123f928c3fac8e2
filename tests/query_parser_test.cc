#include "data/query_parser.h"

#include <gtest/gtest.h>

#include "core/refiner.h"

namespace dqr::data {
namespace {

DatasetBundle Bundle() {
  static const DatasetBundle* bundle = [] {
    return new DatasetBundle(
        MakeWaveformDataset(1 << 14, 7).value());
  }();
  return *bundle;
}

constexpr char kMimicQuery[] = R"(
# the paper's running MIMIC query
k 10
var x 8 16000
var lx 8 16
avg x lx in 150 200 range 50 250
contrast_left x lx 8 in 80 inf range 0 200
contrast_right x lx 8 in 80 inf range 0 200
)";

TEST(QueryParserTest, ParsesTheRunningExample) {
  const auto result = ParseQuery(kMimicQuery, Bundle());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const searchlight::QuerySpec& query = result.value();
  EXPECT_EQ(query.k, 10);
  ASSERT_EQ(query.domains.size(), 2u);
  EXPECT_EQ(query.domains[0], cp::IntDomain(8, 16000));
  EXPECT_EQ(query.domains[1], cp::IntDomain(8, 16));
  ASSERT_EQ(query.constraints.size(), 3u);
  EXPECT_EQ(query.constraints[0].name, "avg");
  EXPECT_EQ(query.constraints[0].bounds, Interval(150, 200));
  EXPECT_TRUE(std::isinf(query.constraints[1].bounds.hi));
  auto fn = query.constraints[0].make_function();
  EXPECT_EQ(fn->value_range(), Interval(50, 250));
}

TEST(QueryParserTest, ParsedQueryExecutes) {
  const auto query = ParseQuery(kMimicQuery, Bundle());
  ASSERT_TRUE(query.ok());
  const auto run = core::ExecuteQuery(query.value(), core::RefineOptions{});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_LE(run.value().results.size(), 10u);
}

TEST(QueryParserTest, OptionsApply) {
  const auto result = ParseQuery(R"(
k 3
var x 8 1000
var lx 4 8
avg x lx in 100 200 range 50 250 weight 0.5 minimize rankweight 0.9
max x lx in 120 inf range 50 250 norelax noconstrain
)",
                                 Bundle());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& q = result.value();
  EXPECT_EQ(q.k, 3);
  EXPECT_DOUBLE_EQ(q.constraints[0].relax_weight, 0.5);
  EXPECT_DOUBLE_EQ(q.constraints[0].rank_weight, 0.9);
  EXPECT_EQ(q.constraints[0].preference,
            searchlight::RankPreference::kMinimize);
  EXPECT_FALSE(q.constraints[1].relaxable);
  EXPECT_FALSE(q.constraints[1].constrainable);
}

TEST(QueryParserTest, ReportsErrorsWithLineNumbers) {
  const char* bad_cases[] = {
      "var x 10 5\n",                          // inverted domain
      "var x 0 10\nvar x 0 10\n",              // duplicate
      "k -3\n",                                // negative k
      "frobnicate x\n",                        // unknown statement
      "var x 0 10\nvar l 1 4\navg x l in 5\n",     // missing bound
      "var x 0 10\nvar l 1 4\navg x y in 5 9\n",   // unknown variable
      "var x 0 10\nvar l 1 4\navg l x in 5 9\n",   // swapped roles
      "var x 0 10\nvar l 1 4\navg x l in 5 9 bogus\n",  // bad option
      "var x 0 10\nvar l 1 4\ncontrast_left x l 0 in 5 9\n",  // width < 1
  };
  for (const char* text : bad_cases) {
    const auto result = ParseQuery(text, Bundle());
    EXPECT_FALSE(result.ok()) << "accepted: " << text;
  }
}

TEST(QueryParserTest, SemanticChecksAgainstBundle) {
  // Start domain beyond the array.
  auto result = ParseQuery(
      "var x 0 99999999\nvar l 1 4\navg x l in 5 9\n", Bundle());
  EXPECT_FALSE(result.ok());
  // No constraints.
  result = ParseQuery("var x 0 10\nvar l 1 4\n", Bundle());
  EXPECT_FALSE(result.ok());
  // Not exactly two variables.
  result = ParseQuery("var x 0 10\n", Bundle());
  EXPECT_FALSE(result.ok());
}

TEST(QueryParserTest, SerializeParseRoundTripIsIdentity) {
  const auto parsed = ParseQueryText(kMimicQuery);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string canonical = SerializeQuery(parsed.value());

  const auto reparsed = ParseQueryText(canonical);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  // The canonical form is a fixed point: serialize(parse(serialize(q)))
  // == serialize(q), so nothing is lost or altered in either direction.
  EXPECT_EQ(SerializeQuery(reparsed.value()), canonical);

  const ParsedQuery& q = reparsed.value();
  EXPECT_EQ(q.k, 10);
  ASSERT_EQ(q.var_names.size(), 2u);
  EXPECT_EQ(q.var_names[0], "x");
  EXPECT_EQ(q.var_names[1], "lx");
  ASSERT_EQ(q.constraints.size(), 3u);
  EXPECT_EQ(q.constraints[0].fn, "avg");
  EXPECT_EQ(q.constraints[1].width, 8);
  EXPECT_TRUE(std::isinf(q.constraints[2].bounds.hi));
}

TEST(QueryParserTest, RoundTripPreservesOptionsAndAwkwardNumbers) {
  // 0.1 is not exactly representable; weight printing must round-trip the
  // exact double, not a 6-digit approximation of it.
  const auto parsed = ParseQueryText(R"(
k 3
var x 8 1000
var lx 4 8
avg x lx in 100.25 200 range 50 250 weight 0.1 minimize rankweight 0.9
max x lx in 120 inf norelax noconstrain
contrast_right x lx 5 in -inf 80 weight 0.75
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string canonical = SerializeQuery(parsed.value());
  const auto reparsed = ParseQueryText(canonical);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(SerializeQuery(reparsed.value()), canonical);

  const ParsedQuery& q = reparsed.value();
  EXPECT_DOUBLE_EQ(q.constraints[0].weight, 0.1);
  EXPECT_DOUBLE_EQ(q.constraints[0].rank_weight, 0.9);
  EXPECT_FALSE(q.constraints[0].maximize);
  EXPECT_FALSE(q.constraints[1].relaxable);
  EXPECT_FALSE(q.constraints[1].constrainable);
  EXPECT_TRUE(q.constraints[1].range.empty());
  EXPECT_EQ(q.constraints[2].width, 5);
  EXPECT_TRUE(std::isinf(q.constraints[2].bounds.lo));
}

TEST(QueryParserTest, SerializeOmitsDefaults) {
  const auto parsed = ParseQueryText(
      "var x 0 10\nvar l 1 4\navg x l in 5 9\n");
  ASSERT_TRUE(parsed.ok());
  const std::string canonical = SerializeQuery(parsed.value());
  EXPECT_EQ(canonical, "k 10\nvar x 0 10\nvar l 1 4\navg x l in 5 9\n");
}

TEST(QueryParserTest, BuiltQueryMatchesDirectParse) {
  // Building from the IR must behave exactly like the one-shot ParseQuery.
  const auto parsed = ParseQueryText(kMimicQuery);
  ASSERT_TRUE(parsed.ok());
  const auto built = BuildQuery(parsed.value(), Bundle());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto direct = ParseQuery(kMimicQuery, Bundle());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(built.value().k, direct.value().k);
  EXPECT_EQ(built.value().domains, direct.value().domains);
  ASSERT_EQ(built.value().constraints.size(),
            direct.value().constraints.size());
  for (size_t i = 0; i < built.value().constraints.size(); ++i) {
    EXPECT_EQ(built.value().constraints[i].name,
              direct.value().constraints[i].name);
    EXPECT_EQ(built.value().constraints[i].bounds,
              direct.value().constraints[i].bounds);
  }
}

TEST(QueryParserTest, RejectionsCarryUsefulMessages) {
  const struct {
    const char* text;
    const char* want;  // substring the message must contain
  } cases[] = {
      {"var x 10 5\n", "line 1"},
      {"var x 0 10\nvar x 0 10\n", "duplicate variable 'x'"},
      {"k -3\n", "k needs a non-negative integer"},
      {"frobnicate x\n", "unknown statement 'frobnicate'"},
      {"var x 0 10\nvar l 1 4\navg x l in 5\n", "line 3"},
      {"var x 0 10\nvar l 1 4\navg x y in 5 9\n",
       "unknown variable in constraint"},
      {"var x 0 10\nvar l 1 4\navg l x in 5 9\n",
       "first declared variable as start"},
      {"var x 0 10\nvar l 1 4\navg x l in 5 9 bogus\n",
       "unknown option 'bogus'"},
      {"var x 0 10\nvar l 1 4\ncontrast_left x l 0 in 5 9\n",
       "contrast width must be >= 1"},
      {"var x 0 10\nvar l 1 4\navg x l in 5 9 weight 2\n",
       "weight needs a number in [0, 1]"},
      {"var x 0 10\nvar l 1 4\navg x l in 5 9 weight nan\n",
       "weight needs a number in [0, 1]"},
      {"var x 0 10\nvar l 1 4\navg x l in nan 9\n",
       "line 3: bounds need two ordered numbers"},
      {"var x 0 10\n", "exactly two variables"},
      {"var x 0 10\nvar l 1 4\n", "no constraints"},
  };
  for (const auto& c : cases) {
    const auto result = ParseQueryText(c.text);
    ASSERT_FALSE(result.ok()) << "accepted: " << c.text;
    EXPECT_NE(result.status().message().find(c.want), std::string::npos)
        << "message for <" << c.text << "> was: "
        << result.status().message() << "\nwanted substring: " << c.want;
  }
}

TEST(QueryParserTest, FileRoundTrip) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  path += "/dqr_parser_test.query";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(kMimicQuery, f);
  std::fclose(f);

  const auto result = ParseQueryFile(path, Bundle());
  EXPECT_TRUE(result.ok());
  std::remove(path.c_str());

  EXPECT_FALSE(ParseQueryFile("/no/such/file.query", Bundle()).ok());
}

}  // namespace
}  // namespace dqr::data
