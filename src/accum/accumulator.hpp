// Sparse-accumulator interface shared by the dense and hash implementations
// (§III-C). An accumulator stores the partial sums for one output row and
// encodes the mask row so the linear-scan kernels can test membership in
// O(1).
//
// Row protocol (masked kernels, Figs 5/7/9):
//   1. set_mask(M.row_cols(i))        — load the mask into the accumulator
//   2. accumulate(col, product) ...   — add products that hit the mask
//   3. gather(M.row_cols(i), emit)    — emit touched entries in mask order
//   4. finish_row(M.row_cols(i))      — reset state for the next row
//
// Row protocol (vanilla kernel, Fig 3 — no mask pre-load):
//   1. begin_unmasked_row(flop_upper_bound)
//   2. accumulate_any(col, product) ...
//   3. gather_unmasked(emit)          — sorted by column
//   4. finish_row({})
//
// State reset (§III-C):
//   - ResetPolicy::kMarker    — SuiteSparse:GraphBLAS style: a per-slot
//     epoch marker is bumped per row; slots become implicitly invalid.
//     Marker width is tunable (Fig 13); overflow triggers a full reset.
//   - ResetPolicy::kExplicit  — GrB style: all mask slots are cleared
//     explicitly after each row.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>

#include "support/counter_table.hpp"
#include "support/errors.hpp"
#include "support/metrics.hpp"  // TILQ_METRICS_ENABLED gate for the counters

namespace tilq {

/// How accumulator state is invalidated between output rows.
enum class ResetPolicy {
  kMarker,    ///< epoch marker, implicit invalidation, overflow => full reset
  kExplicit,  ///< clear every mask slot after each row
};

[[nodiscard]] constexpr const char* to_string(ResetPolicy policy) noexcept {
  return policy == ResetPolicy::kMarker ? "marker" : "explicit";
}

/// Which accumulator implementation to use (runtime selector).
enum class AccumulatorKind {
  kDense,   ///< value/state vectors of length n (matrix columns)
  kHash,    ///< open-addressing table sized by max mask row nnz
  kBitmap,  ///< 1-bit flags + dense values; explicit reset (tilq extension)
};

[[nodiscard]] constexpr const char* to_string(AccumulatorKind kind) noexcept {
  switch (kind) {
    case AccumulatorKind::kDense:
      return "dense";
    case AccumulatorKind::kHash:
      return "hash";
    case AccumulatorKind::kBitmap:
      return "bitmap";
  }
  return "?";
}

/// Marker bit-width for the lazy-reset state arrays (Fig 13 sweep).
enum class MarkerWidth : int {
  k8 = 8,
  k16 = 16,
  k32 = 32,
  k64 = 64,
};

[[nodiscard]] constexpr int bits(MarkerWidth width) noexcept {
  return static_cast<int>(width);
}

/// Accumulator counter table (support/counter_table.hpp): X(name, help).
#define TILQ_ACCUMULATOR_COUNTERS(X)                                  \
  X(full_resets, "marker overflows => whole-array resets")            \
  X(probes, "hash probe steps (collision metric)")                    \
  X(inserts, "accumulate calls that hit the mask")                    \
  X(rejects, "accumulate calls outside the mask")                     \
  X(collisions, "hash insertions needing >=1 probe step")             \
  X(row_resets, "marker-policy finish_row epoch bumps")               \
  X(explicit_clears, "slots cleared by explicit resets")              \
  X(rehashes, "hash grow-and-rehash events (saturation)")

/// Statistics an accumulator optionally reports — used by tests asserting
/// the overflow/reset trade-off, by the microbenchmarks, and flushed into
/// the global metrics registry (support/metrics.hpp) by the SpGEMM
/// drivers. `full_resets` and `probes` are always maintained; the rest are
/// compiled in only with TILQ_METRICS_ENABLED (docs/METRICS.md).
struct AccumulatorCounters {
  TILQ_COUNTER_MEMBERS(AccumulatorCounters, TILQ_ACCUMULATOR_COUNTERS)
};

/// Thrown (CapacityError subtype) when the hash accumulator's probe chains
/// breach its limit and growing the table past its bound would not help —
/// or when the hash-sat fault site (support/fault.hpp) forces that path.
/// The drivers catch this and degrade the offending row/cell to the dense
/// accumulator when Config::degrade_on_saturation is set (the default).
class AccumulatorSaturatedError : public CapacityError {
 public:
  using CapacityError::CapacityError;
};

/// Compile-time interface check used by the kernels.
template <class Acc, class I>
concept MaskedAccumulator = requires(Acc acc, I col,
                                     typename Acc::value_type value,
                                     std::span<const I> mask_cols) {
  typename Acc::value_type;
  acc.set_mask(mask_cols);
  { acc.accumulate(col, value) } -> std::same_as<bool>;
  { acc.is_masked(col) } -> std::same_as<bool>;
  acc.finish_row(mask_cols);
};

}  // namespace tilq
