#ifndef DQR_CORE_KNOBS_H_
#define DQR_CORE_KNOBS_H_

#include <array>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/options.h"

namespace dqr::core {

// Where a knob can be set from outside the engine API.
enum KnobSurface : unsigned {
  kQueryKnob = 1u,   // a dqr_serve QUERY frame attribute
  kConfigKnob = 2u,  // a dqr_fuzz config key (--config= / repro lines)
};

// Knob kinds, each with its domain. Parsing is strict and every rejection
// names the knob: "knob 'spec' must be 0 or 1, got 'yes'".
struct IntKnob { int64_t lo, hi; };  // one base-10 token in [lo, hi]
struct RealKnob { double lo, hi; bool lo_open; };  // finite; (lo, hi] if open
template <typename E, size_t N>
struct EnumKnob { std::array<const char*, N> names; };  // enumerator order
template <typename E, typename... S>
constexpr EnumKnob<E, sizeof...(S)> Spell(S... names) { return {{names...}}; }
inline constexpr EnumKnob<bool, 2> kFlag = Spell<bool>("0", "1");
// Comma-separated non-negative integers; empty means no spacing.
struct SpacingKnob {};

// A pool a million times k is far past any useful oversampling.
inline constexpr int64_t kMaxDiversityPoolFactor = int64_t{1} << 20;

// The engine knob table: every RefineOptions field settable from a QUERY
// frame or a fuzz config, with its one key, kind and domain.
//
//   X(key, member, kind, surfaces)
#define DQR_ENGINE_KNOBS(X)                                                  \
  X("alpha", alpha, (RealKnob{0.0, 1.0, false}), kQueryKnob)                 \
  X("constrain", constrain,                                                  \
    (Spell<ConstrainMode>("none", "rank", "skyline")), kQueryKnob)           \
  X("spacing", result_spacing, SpacingKnob{}, kQueryKnob)                    \
  X("divpool", diversity_pool_factor,                                        \
    (IntKnob{1, kMaxDiversityPoolFactor}), kQueryKnob)                       \
  X("inst", num_instances, (IntKnob{1, 64}), kQueryKnob | kConfigKnob)       \
  X("shards", shards_per_instance, (IntKnob{1, INT_MAX}),                    \
    kQueryKnob | kConfigKnob)                                                \
  X("eval", fail_eval, (Spell<FailEvalMode>("full", "lazy")),                \
    kQueryKnob | kConfigKnob)                                                \
  X("spec", speculative, kFlag, kQueryKnob | kConfigKnob)                   \
  X("state", save_function_state, kFlag, kQueryKnob | kConfigKnob)          \
  X("rrd", replay_relaxation_distance, (RealKnob{0.0, 1.0, true}),           \
    kQueryKnob | kConfigKnob)                                                \
  X("replay", replay_order, (Spell<ReplayOrder>("brp", "fifo")),             \
    kQueryKnob | kConfigKnob)                                                \
  X("vq", validator_queue, (Spell<ValidatorQueueOrder>("fifo", "brp")),      \
    kQueryKnob | kConfigKnob)                                                \
  X("vsel", var_select,                                                      \
    (Spell<cp::VarSelect>("widest", "first", "smallest")), kConfigKnob)      \
  X("split", value_split, (Spell<cp::ValueSplit>("low", "high")),            \
    kConfigKnob)                                                             \
  X("bcast", broadcast_delay_us, (IntKnob{0, 1000000}), kConfigKnob)

// Parses `value` into knob `key` of *options, which a rejected value
// leaves unchanged. A well-formed value for a knob on none of `surfaces`
// is rejected too.
Status SetKnob(std::string_view key, std::string_view value,
               unsigned surfaces, RefineOptions* options);

// One row of the table with the value of `options` that SetKnob reads
// back exactly.
struct KnobText {
  const char* key;
  unsigned surfaces;
  std::string value;
};
std::vector<KnobText> FormatKnobs(const RefineOptions& options);
// The rows that are QUERY attributes (or, when !query, only fuzz config
// keys) whose value in `options` differs from the one in `base`.
std::vector<KnobText> ChangedKnobs(const RefineOptions& options,
                                   const RefineOptions& base, bool query);

// Every tabled knob against its domain, plus the one bound spanning
// knobs: with spacing set, the pool of k * divpool must fit in int64.
Status CheckKnobs(const RefineOptions& options, int64_t k);

// The table's scalar parsers, for keys that live outside RefineOptions.
Status ParseKnobFlag(std::string_view key, std::string_view text, bool* out);
Status ParseKnobInt(std::string_view key, std::string_view text,
                    IntKnob domain, int64_t* out);

}  // namespace dqr::core

#endif  // DQR_CORE_KNOBS_H_
