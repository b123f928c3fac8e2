#ifndef DQR_DATA_QUERY_PARSER_H_
#define DQR_DATA_QUERY_PARSER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "cp/domain.h"
#include "data/queries.h"
#include "searchlight/query.h"

namespace dqr::data {

// A small line-oriented query language, so tools can run ad-hoc searches
// without recompiling. Grammar (one statement per line; '#' starts a
// comment; 'inf'/'-inf' are accepted as bounds):
//
//   k <cardinality>
//   var <name> <lo> <hi>
//   avg <start_var> <length_var> in <a> <b> [range <lo> <hi>] [opts...]
//   max <start_var> <length_var> in <a> <b> [range <lo> <hi>] [opts...]
//   min <start_var> <length_var> in <a> <b> [range <lo> <hi>] [opts...]
//   contrast_left  <start_var> <length_var> <width> in <a> <b> [range ...]
//   contrast_right <start_var> <length_var> <width> in <a> <b> [range ...]
//
// Constraint options: `weight <w>` (relax weight), `rankweight <w>`,
// `norelax` (exclude from C^r), `noconstrain` (exclude from C^c),
// `minimize` (ranking preference; default maximize).
//
// Example:
//   # the paper's running MIMIC query
//   k 10
//   var x 8 1000000
//   var lx 8 16
//   avg x lx in 150 200 range 50 250
//   contrast_left x lx 8 in 80 inf range 0 200
//   contrast_right x lx 8 in 80 inf range 0 200
//
// Exactly two variables must be declared (window start and length, in
// that order). Parsing is split into a data-independent front end
// (ParseQueryText -> ParsedQuery) and a binding stage (BuildQuery), with
// SerializeQuery as the exact inverse of the front end.

// One parsed constraint statement, before any binding to data.
struct ParsedConstraint {
  // avg | max | min | contrast_left | contrast_right.
  std::string fn;
  int64_t width = 0;  // contrast only
  Interval bounds = Interval::All();
  Interval range = Interval::Empty();  // empty = function default
  double weight = 1.0;
  double rank_weight = -1.0;
  bool relaxable = true;
  bool constrainable = true;
  bool maximize = true;
};

// The parsed, data-independent form of a query text: what the grammar
// expresses, syntactically validated (two variables in start/length
// order, known functions, well-formed numbers and options) but not yet
// bound to a dataset.
struct ParsedQuery {
  int64_t k = 10;
  std::vector<std::string> var_names;  // size 2: start, length
  std::vector<cp::IntDomain> domains;  // parallel to var_names
  std::vector<ParsedConstraint> constraints;
};

// Parses query text into the IR. Errors carry the 1-based line number of
// the offending statement where one applies.
Result<ParsedQuery> ParseQueryText(const std::string& text);

// Emits the canonical text form: one statement per line, default-valued
// options omitted, doubles printed round-trip-exactly ("%.17g", with
// inf/-inf spelled out). For any q from ParseQueryText,
// ParseQueryText(SerializeQuery(q)) reproduces q exactly.
std::string SerializeQuery(const ParsedQuery& query);

// Binds the IR to a dataset: validates the domains against the array and
// materializes the constraint function factories. The only stage that
// needs the data. `estimate_cost_ns`, when non-zero, is the artificial
// per-estimate busy-wait every bound function charges on bounds-cache
// misses (WindowFunctionContext::estimate_cost_ns) — timing-only, never
// changes a computed value, used by benchmarks and saturation tests.
Result<searchlight::QuerySpec> BuildQuery(const ParsedQuery& query,
                                          const DatasetBundle& bundle,
                                          int64_t estimate_cost_ns = 0);

// ParseQueryText + BuildQuery in one step.
Result<searchlight::QuerySpec> ParseQuery(const std::string& text,
                                          const DatasetBundle& bundle);

// Convenience: reads `path` and parses its contents.
Result<searchlight::QuerySpec> ParseQueryFile(const std::string& path,
                                              const DatasetBundle& bundle);

}  // namespace dqr::data

#endif  // DQR_DATA_QUERY_PARSER_H_
