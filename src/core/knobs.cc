#include "core/knobs.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <optional>
#include <utility>

namespace dqr::core {
namespace {

// One whole token, with no blanks, sign prefix '+' or stray characters;
// out-of-range values are rejected rather than saturated.
template <typename T>
std::optional<T> Token(std::string_view t) {
  T v{};
  const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
  if (ec != std::errc() || end != t.data() + t.size()) return std::nullopt;
  return v;
}

// The shortest text that reads back exactly.
std::string Real(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

// Per kind: the domain in words, the text of a value, the value of a
// text, and whether a value lies in the domain. Integers are read as
// int64 and range-checked before any narrowing to the field's type.
std::string Want(const IntKnob& d) {
  return "be an integer in [" + std::to_string(d.lo) + ", " +
         std::to_string(d.hi) + "]";
}
std::string Show(const IntKnob&, int64_t v) { return std::to_string(v); }
std::optional<int64_t> Read(const IntKnob&, std::string_view t) {
  return Token<int64_t>(t);
}
bool InDomain(const IntKnob& d, int64_t v) { return v >= d.lo && v <= d.hi; }

std::string Want(const RealKnob& d) {
  return std::string("lie in ") + (d.lo_open ? "(" : "[") + Real(d.lo) +
         ", " + Real(d.hi) + "]";
}
std::string Show(const RealKnob&, double v) { return Real(v); }
std::optional<double> Read(const RealKnob&, std::string_view t) {
  return Token<double>(t);
}
// Written so that NaN, for which every comparison is false, fails.
bool InDomain(const RealKnob& d, double v) {
  return (d.lo_open ? v > d.lo : v >= d.lo) && v <= d.hi;
}

template <typename E, size_t N>
std::string Want(const EnumKnob<E, N>& d) {
  std::string out = "be ";
  for (size_t i = 0; i < N; ++i) {
    out.append(i == 0 ? "" : i + 1 < N ? ", " : " or ").append(d.names[i]);
  }
  return out;
}
template <typename E, size_t N>
std::string Show(const EnumKnob<E, N>& d, E v) {
  const auto i = static_cast<size_t>(v);
  return i < N ? d.names[i] : std::to_string(i);
}
template <typename E, size_t N>
std::optional<E> Read(const EnumKnob<E, N>& d, std::string_view t) {
  const auto* it = std::find(d.names.begin(), d.names.end(), t);
  if (it == d.names.end()) return std::nullopt;
  return static_cast<E>(it - d.names.begin());
}
template <typename E, size_t N>
bool InDomain(const EnumKnob<E, N>&, E v) {
  return static_cast<size_t>(v) < N;
}

std::string Want(SpacingKnob) {
  return "be comma-separated non-negative integers";
}
std::string Show(SpacingKnob, const std::vector<int64_t>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    out.append(i > 0 ? "," : "").append(std::to_string(v[i]));
  }
  return out;
}
std::optional<std::vector<int64_t>> Read(SpacingKnob, std::string_view t) {
  std::vector<int64_t> out;
  if (t.empty()) return out;
  for (size_t pos = 0; pos <= t.size();) {
    const size_t comma = std::min(t.find(',', pos), t.size());
    const auto s = Token<int64_t>(t.substr(pos, comma - pos));
    if (!s) return std::nullopt;
    out.push_back(*s);
    pos = comma + 1;
  }
  return out;
}
bool InDomain(SpacingKnob, const std::vector<int64_t>& v) {
  return std::all_of(v.begin(), v.end(), [](int64_t s) { return s >= 0; });
}

Status Reject(std::string_view key, const std::string& want,
              std::string_view got) {
  return InvalidArgumentError("knob '" + std::string(key) + "' must " +
                              want + ", got '" + std::string(got) + "'");
}

template <typename Kind, typename T>
Status Parse(const Kind& kind, std::string_view key, std::string_view text,
             T* out) {
  const auto v = Read(kind, text);
  if (!v || !InDomain(kind, *v)) return Reject(key, Want(kind), text);
  *out = static_cast<T>(*v);
  return Status::Ok();
}

template <typename Kind, typename T>
Status Check(const Kind& kind, std::string_view key, const T& value) {
  if (InDomain(kind, value)) return Status::Ok();
  return Reject(key, Want(kind), Show(kind, value));
}

}  // namespace

Status SetKnob(std::string_view key, std::string_view value,
               unsigned surfaces, RefineOptions* options) {
#define DQR_KNOB_SET(k, member, kind, on)                                  \
  if (key == k) {                                                          \
    auto v = options->member;                                              \
    Status st = Parse(kind, k, value, &v);                                 \
    if (st.ok() && (surfaces & (on)) == 0) {                               \
      st = InvalidArgumentError("knob '" k "' is not settable here");      \
    }                                                                      \
    if (st.ok()) options->member = std::move(v);                           \
    return st;                                                             \
  }
  DQR_ENGINE_KNOBS(DQR_KNOB_SET)
#undef DQR_KNOB_SET
  return InvalidArgumentError("unknown key '" + std::string(key) + "'");
}

std::vector<KnobText> FormatKnobs(const RefineOptions& options) {
  std::vector<KnobText> out;
#define DQR_KNOB_FORMAT(k, member, kind, surfaces) \
  out.push_back({k, surfaces, Show(kind, options.member)});
  DQR_ENGINE_KNOBS(DQR_KNOB_FORMAT)
#undef DQR_KNOB_FORMAT
  return out;
}

std::vector<KnobText> ChangedKnobs(const RefineOptions& options,
                                   const RefineOptions& base, bool query) {
  std::vector<KnobText> out;
#define DQR_KNOB_CHANGED(k, member, kind, surfaces)               \
  if ((((surfaces) & kQueryKnob) != 0) == query &&                \
      !(options.member == base.member)) {                         \
    out.push_back({k, surfaces, Show(kind, options.member)});     \
  }
  DQR_ENGINE_KNOBS(DQR_KNOB_CHANGED)
#undef DQR_KNOB_CHANGED
  return out;
}

Status CheckKnobs(const RefineOptions& options, int64_t k) {
#define DQR_KNOB_CHECK(key, member, kind, surfaces)                    \
  if (Status st = Check(kind, key, options.member); !st.ok()) return st;
  DQR_ENGINE_KNOBS(DQR_KNOB_CHECK)
#undef DQR_KNOB_CHECK
  if (!options.result_spacing.empty() && k > 0 &&
      options.diversity_pool_factor >
          std::numeric_limits<int64_t>::max() / k) {
    return InvalidArgumentError(
        "knob 'divpool' times k = " + std::to_string(k) +
        " overflows the diversity pool, got '" +
        std::to_string(options.diversity_pool_factor) + "'");
  }
  return Status::Ok();
}

Status ParseKnobFlag(std::string_view key, std::string_view text,
                     bool* out) {
  return Parse(kFlag, key, text, out);
}

Status ParseKnobInt(std::string_view key, std::string_view text,
                    IntKnob domain, int64_t* out) {
  return Parse(domain, key, text, out);
}

}  // namespace dqr::core
