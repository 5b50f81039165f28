// Expansion helpers for the X-macro counter tables (TILQ_METRIC_COUNTERS
// in support/metrics.hpp, TILQ_HW_COUNTERS in support/perf.hpp). A table
// is a macro taking one argument X and listing one X(name, help) row per
// counter; everything that must name every counter — the struct fields,
// their arithmetic, the JSON and Prometheus serializers — expands from
// the table instead of being written out by hand.
#pragma once

#include <cstdint>

/// Member declarations for a struct `Type` of uint64 counters described by
/// `TABLE`: one zero-initialized field per row, field-wise `operator+=`,
/// the saturating difference `minus()` (counters are monotone between
/// resets; a reset in between saturates at zero instead of wrapping), and
/// `all_zero()`.
#define TILQ_COUNTER_MEMBERS(Type, TABLE)                           \
  TABLE(TILQ_COUNTER_FIELD_)                                        \
  Type& operator+=(const Type& o) noexcept {                        \
    TABLE(TILQ_COUNTER_ADD_)                                        \
    return *this;                                                   \
  }                                                                 \
  [[nodiscard]] Type minus(const Type& o) const noexcept {          \
    Type d;                                                         \
    TABLE(TILQ_COUNTER_SUB_)                                        \
    return d;                                                       \
  }                                                                 \
  [[nodiscard]] bool all_zero() const noexcept {                    \
    return true TABLE(TILQ_COUNTER_ZERO_);                          \
  }

#define TILQ_COUNTER_FIELD_(name, help) std::uint64_t name = 0;
#define TILQ_COUNTER_ADD_(name, help) name += o.name;
#define TILQ_COUNTER_SUB_(name, help) \
  d.name = name >= o.name ? name - o.name : std::uint64_t{0};
#define TILQ_COUNTER_ZERO_(name, help) && name == 0
