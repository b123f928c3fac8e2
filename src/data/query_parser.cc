#include "data/query_parser.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "searchlight/functions.h"

namespace dqr::data {
namespace {

using searchlight::AvgFunction;
using searchlight::MaxFunction;
using searchlight::MinFunction;
using searchlight::NeighborhoodContrastFunction;
using searchlight::WindowFunctionContext;

// Splits a line into whitespace-separated tokens, dropping '#' comments.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line.substr(0, line.find('#')));
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

Status ParseError(int line_no, const std::string& message) {
  return InvalidArgumentError("line " + std::to_string(line_no) + ": " +
                              message);
}

bool ParseNumber(const std::string& token, double* out) {
  if (token == "inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (token == "-inf") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  // strtod accepts "nan", which every later range check would let through.
  return end != nullptr && *end == '\0' && !token.empty() &&
         !std::isnan(*out);
}

bool ParseInt(const std::string& token, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(token.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && !token.empty();
}

// Round-trip-exact double for the serializer; strtod reads back the same
// bit pattern.
std::string NumberToken(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Parses trailing options: range/weight/rankweight/norelax/noconstrain/
// minimize. `i` indexes the first option token.
Status ParseConstraintOptions(const std::vector<std::string>& t, size_t i,
                              int line_no, ParsedConstraint* c) {
  while (i < t.size()) {
    if (t[i] == "range") {
      double lo = 0.0;
      double hi = 0.0;
      if (i + 2 >= t.size() || !ParseNumber(t[i + 1], &lo) ||
          !ParseNumber(t[i + 2], &hi) || lo > hi) {
        return ParseError(line_no, "range needs two ordered numbers");
      }
      c->range = Interval(lo, hi);
      i += 3;
    } else if (t[i] == "weight") {
      if (i + 1 >= t.size() || !ParseNumber(t[i + 1], &c->weight) ||
          c->weight < 0.0 || c->weight > 1.0) {
        return ParseError(line_no, "weight needs a number in [0, 1]");
      }
      i += 2;
    } else if (t[i] == "rankweight") {
      if (i + 1 >= t.size() || !ParseNumber(t[i + 1], &c->rank_weight)) {
        return ParseError(line_no, "rankweight needs a number");
      }
      i += 2;
    } else if (t[i] == "norelax") {
      c->relaxable = false;
      ++i;
    } else if (t[i] == "noconstrain") {
      c->constrainable = false;
      ++i;
    } else if (t[i] == "minimize") {
      c->maximize = false;
      ++i;
    } else {
      return ParseError(line_no, "unknown option '" + t[i] + "'");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<ParsedQuery> ParseQueryText(const std::string& text) {
  ParsedQuery query;
  std::map<std::string, int> var_index;

  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string> t = Tokenize(line);
    if (t.empty()) continue;

    if (t[0] == "k") {
      int64_t k = 0;
      if (t.size() != 2 || !ParseInt(t[1], &k) || k < 0) {
        return ParseError(line_no, "k needs a non-negative integer");
      }
      query.k = k;
    } else if (t[0] == "var") {
      int64_t lo = 0;
      int64_t hi = 0;
      if (t.size() != 4 || !ParseInt(t[2], &lo) || !ParseInt(t[3], &hi) ||
          lo > hi) {
        return ParseError(line_no, "var needs: var <name> <lo> <hi>");
      }
      if (var_index.count(t[1]) != 0) {
        return ParseError(line_no, "duplicate variable '" + t[1] + "'");
      }
      var_index[t[1]] = static_cast<int>(query.domains.size());
      query.var_names.push_back(t[1]);
      query.domains.emplace_back(lo, hi);
    } else if (t[0] == "avg" || t[0] == "max" || t[0] == "min" ||
               t[0] == "contrast_left" || t[0] == "contrast_right") {
      ParsedConstraint c;
      c.fn = t[0];
      const bool contrast = t[0].rfind("contrast", 0) == 0;
      // Fixed part: <start> <len> [width] in <a> <b>
      const size_t in_pos = contrast ? 4 : 3;
      if (t.size() < in_pos + 3 || t[in_pos] != "in") {
        return ParseError(line_no,
                          "expected: " + t[0] + " <start> <len>" +
                              (contrast ? " <width>" : "") +
                              " in <a> <b> [options]");
      }
      const auto start_it = var_index.find(t[1]);
      const auto len_it = var_index.find(t[2]);
      if (start_it == var_index.end() || len_it == var_index.end()) {
        return ParseError(line_no, "unknown variable in constraint");
      }
      if (start_it->second != 0 || len_it->second != 1) {
        return ParseError(line_no,
                          "constraints must use the first declared "
                          "variable as start and the second as length");
      }
      if (contrast && (!ParseInt(t[3], &c.width) || c.width < 1)) {
        return ParseError(line_no, "contrast width must be >= 1");
      }
      double a = 0.0;
      double b = 0.0;
      if (!ParseNumber(t[in_pos + 1], &a) ||
          !ParseNumber(t[in_pos + 2], &b) || a > b) {
        return ParseError(line_no, "bounds need two ordered numbers");
      }
      c.bounds = Interval(a, b);
      if (Status s = ParseConstraintOptions(t, in_pos + 3, line_no, &c);
          !s.ok()) {
        return s;
      }
      query.constraints.push_back(std::move(c));
    } else {
      return ParseError(line_no, "unknown statement '" + t[0] + "'");
    }
  }

  if (query.domains.size() != 2) {
    return InvalidArgumentError(
        "exactly two variables (window start, length) must be declared");
  }
  if (query.domains[0].lo < 0) {
    return InvalidArgumentError("start variable must be >= 0");
  }
  if (query.domains[1].lo < 1) {
    return InvalidArgumentError("length variable must be >= 1");
  }
  if (query.constraints.empty()) {
    return InvalidArgumentError("query declares no constraints");
  }
  return query;
}

std::string SerializeQuery(const ParsedQuery& query) {
  std::string out = "k " + std::to_string(query.k) + "\n";
  for (size_t i = 0; i < query.domains.size(); ++i) {
    out += "var " + query.var_names[i] + " " +
           std::to_string(query.domains[i].lo) + " " +
           std::to_string(query.domains[i].hi) + "\n";
  }
  for (const ParsedConstraint& c : query.constraints) {
    out += c.fn + " " + query.var_names[0] + " " + query.var_names[1];
    if (c.fn.rfind("contrast", 0) == 0) {
      out += " " + std::to_string(c.width);
    }
    out += " in " + NumberToken(c.bounds.lo) + " " +
           NumberToken(c.bounds.hi);
    if (!c.range.empty()) {
      out += " range " + NumberToken(c.range.lo) + " " +
             NumberToken(c.range.hi);
    }
    if (c.weight != 1.0) out += " weight " + NumberToken(c.weight);
    if (c.rank_weight != -1.0) {
      out += " rankweight " + NumberToken(c.rank_weight);
    }
    if (!c.relaxable) out += " norelax";
    if (!c.constrainable) out += " noconstrain";
    if (!c.maximize) out += " minimize";
    out += "\n";
  }
  return out;
}

Result<searchlight::QuerySpec> BuildQuery(const ParsedQuery& parsed,
                                          const DatasetBundle& bundle,
                                          int64_t estimate_cost_ns) {
  if (bundle.array == nullptr || bundle.synopsis == nullptr) {
    return InvalidArgumentError("dataset bundle is incomplete");
  }
  if (parsed.domains.size() != 2 ||
      parsed.var_names.size() != parsed.domains.size()) {
    return InvalidArgumentError(
        "parsed query must declare exactly two variables");
  }
  if (parsed.domains[0].lo < 0 ||
      parsed.domains[0].hi >= bundle.array->length()) {
    return InvalidArgumentError("start variable exceeds the array");
  }
  if (parsed.domains[1].lo < 1) {
    return InvalidArgumentError("length variable must be >= 1");
  }
  if (parsed.constraints.empty()) {
    return InvalidArgumentError("query declares no constraints");
  }

  searchlight::QuerySpec query;
  query.name = "parsed_query";
  query.k = parsed.k;
  query.domains = parsed.domains;

  WindowFunctionContext base_ctx;
  base_ctx.array = bundle.array;
  base_ctx.synopsis = bundle.synopsis;
  base_ctx.estimate_cost_ns = estimate_cost_ns;

  for (const ParsedConstraint& c : parsed.constraints) {
    searchlight::QueryConstraint qc;
    WindowFunctionContext ctx = base_ctx;
    ctx.value_range = c.range;
    if (c.fn == "avg") {
      qc.make_function = [ctx] {
        return std::make_unique<AvgFunction>(ctx);
      };
    } else if (c.fn == "max") {
      qc.make_function = [ctx] {
        return std::make_unique<MaxFunction>(ctx);
      };
    } else if (c.fn == "min") {
      qc.make_function = [ctx] {
        return std::make_unique<MinFunction>(ctx);
      };
    } else if (c.fn == "contrast_left" || c.fn == "contrast_right") {
      const auto side = c.fn == "contrast_left"
                            ? NeighborhoodContrastFunction::Side::kLeft
                            : NeighborhoodContrastFunction::Side::kRight;
      const int64_t width = c.width;
      qc.make_function = [ctx, side, width] {
        return std::make_unique<NeighborhoodContrastFunction>(ctx, side,
                                                              width);
      };
    } else {
      return InvalidArgumentError("unknown constraint function '" + c.fn +
                                  "'");
    }
    qc.bounds = c.bounds;
    qc.relax_weight = c.weight;
    qc.rank_weight = c.rank_weight;
    qc.relaxable = c.relaxable;
    qc.constrainable = c.constrainable;
    qc.preference = c.maximize ? searchlight::RankPreference::kMaximize
                               : searchlight::RankPreference::kMinimize;
    qc.name = c.fn;
    query.constraints.push_back(std::move(qc));
  }
  return query;
}

Result<searchlight::QuerySpec> ParseQuery(const std::string& text,
                                          const DatasetBundle& bundle) {
  Result<ParsedQuery> parsed = ParseQueryText(text);
  if (!parsed.ok()) return parsed.status();
  return BuildQuery(parsed.value(), bundle);
}

Result<searchlight::QuerySpec> ParseQueryFile(const std::string& path,
                                              const DatasetBundle& bundle) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return NotFoundError("cannot open: " + path);
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return ParseQuery(text, bundle);
}

}  // namespace dqr::data
