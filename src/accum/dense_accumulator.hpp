// Dense sparse-accumulator (§III-C): a value vector and a marker ("state")
// vector of length n = columns of the output. Preferred when the matrix
// dimension is small or writes have spatial locality.
//
// Marker scheme (SuiteSparse:GraphBLAS style, relaxed to narrow widths as in
// the paper): per output row, an epoch e >= 1 is assigned and
//     state_[j] == 2e     means "j is in the mask, no product landed yet"
//     state_[j] == 2e + 1 means "j is in the mask and has a partial sum"
// Anything else is stale. finish_row() bumps the epoch; when 2e+1 would
// overflow the marker type the whole state vector is zeroed (the paper's
// width-vs-reset-time trade, Fig 13). With ResetPolicy::kExplicit the mask
// slots are cleared after every row instead (GrB style) and the epoch never
// moves.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "accum/accumulator.hpp"
#include "core/semiring.hpp"
#include "support/common.hpp"
#include "support/fault.hpp"

namespace tilq {

template <Semiring SR, class I, class Marker>
class DenseAccumulator {
 public:
  using value_type = typename SR::value_type;
  using marker_type = Marker;

  static_assert(std::is_unsigned_v<Marker>,
                "marker type must be unsigned for well-defined overflow");

  /// `cols` is the column count of the output matrix; the dense accumulator
  /// always allocates the full range.
  explicit DenseAccumulator(I cols, ResetPolicy policy = ResetPolicy::kMarker)
      : policy_(policy),
        values_(checked_size(cols), SR::zero()),
        state_(checked_size(cols), Marker{0}) {}

  /// Loads the mask row: marks every listed column as an allowed output slot
  /// and resets its partial sum.
  void set_mask(std::span<const I> mask_cols) noexcept {
    const Marker tag = mask_tag();
    for (const I j : mask_cols) {
      state_[static_cast<std::size_t>(j)] = tag;
      values_[static_cast<std::size_t>(j)] = SR::zero();
    }
  }

  /// Adds `product` into slot `col` iff the mask allows it. Returns whether
  /// the product hit the mask (Fig 5's "if acc[i,j] is not masked" test —
  /// note the paper's pseudo-code reads "not masked" but means "present in
  /// the mask"). Always inlined: this is the innermost call of every dense
  /// kernel loop, and GCC otherwise drops the inlining once a translation
  /// unit reaches its inline-unit-growth budget.
  [[gnu::always_inline]] bool accumulate(I col, value_type product) noexcept {
    const auto j = static_cast<std::size_t>(col);
    const Marker s = state_[j];
    if (s == touched_tag()) {
#if TILQ_METRICS_ENABLED
      ++counters_.inserts;
#endif
      values_[j] = SR::add(values_[j], product);
      return true;
    }
    if (s == mask_tag()) {
#if TILQ_METRICS_ENABLED
      ++counters_.inserts;
#endif
      state_[j] = touched_tag();
      values_[j] = SR::add(values_[j], product);
      return true;
    }
#if TILQ_METRICS_ENABLED
    ++counters_.rejects;
#endif
    return false;
  }

  /// True iff `col` is an allowed output slot for the current row.
  [[nodiscard]] bool is_masked(I col) const noexcept {
    const Marker s = state_[static_cast<std::size_t>(col)];
    return s == mask_tag() || s == touched_tag();
  }

  /// Emits `(col, value)` for every touched slot, in mask order (so output
  /// rows stay sorted when the mask row is sorted).
  template <class EmitFn>
  void gather(std::span<const I> mask_cols, EmitFn&& emit) const {
    for (const I j : mask_cols) {
      if (state_[static_cast<std::size_t>(j)] == touched_tag()) {
        emit(j, values_[static_cast<std::size_t>(j)]);
      }
    }
  }

  /// Invalidates the row's state according to the reset policy. For the
  /// marker policy `mask_cols` is unused.
  void finish_row(std::span<const I> mask_cols) noexcept {
    if (policy_ == ResetPolicy::kExplicit) {
#if TILQ_METRICS_ENABLED
      counters_.explicit_clears += mask_cols.size() + unmasked_touched_.size();
#endif
      for (const I j : mask_cols) {
        state_[static_cast<std::size_t>(j)] = Marker{0};
      }
      for (const I j : unmasked_touched_) {
        state_[static_cast<std::size_t>(j)] = Marker{0};
      }
      unmasked_touched_.clear();
      return;
    }
    unmasked_touched_.clear();
#if TILQ_METRICS_ENABLED
    ++counters_.row_resets;
#endif
    // The marker-wrap fault site forces the overflow full-reset path at any
    // width; results must be unchanged (the wrap is correctness-preserving).
    if (epoch_ >= max_epoch() ||
        fault::should_fire(FaultSite::kMarkerWrap)) {
      std::fill(state_.begin(), state_.end(), Marker{0});
      epoch_ = 1;
      ++counters_.full_resets;
    } else {
      ++epoch_;
    }
  }

  // --- unmasked (vanilla, Fig 3) protocol -------------------------------

  /// Starts an unmasked row. The dense accumulator needs no sizing hint.
  void begin_unmasked_row(I /*flop_upper_bound*/) { unmasked_touched_.clear(); }

  /// Adds `product` into slot `col` unconditionally, tracking first touches
  /// so gather_unmasked can find them.
  void accumulate_any(I col, value_type product) {
#if TILQ_METRICS_ENABLED
    ++counters_.inserts;
#endif
    const auto j = static_cast<std::size_t>(col);
    if (state_[j] == touched_tag()) {
      values_[j] = SR::add(values_[j], product);
    } else {
      state_[j] = touched_tag();
      values_[j] = product;
      unmasked_touched_.push_back(col);
    }
  }

  /// Emits all touched slots sorted by column.
  template <class EmitFn>
  void gather_unmasked(EmitFn&& emit) {
    std::sort(unmasked_touched_.begin(), unmasked_touched_.end());
    for (const I j : unmasked_touched_) {
      emit(j, values_[static_cast<std::size_t>(j)]);
    }
  }

  [[nodiscard]] const AccumulatorCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] ResetPolicy policy() const noexcept { return policy_; }

 private:
  /// Validates `cols` before any vector is constructed (member initializers
  /// run before the constructor body, so the check cannot live there).
  [[nodiscard]] static std::size_t checked_size(I cols) {
    require(cols >= 0, "DenseAccumulator: negative column count");
    return static_cast<std::size_t>(cols);
  }

  [[nodiscard]] Marker mask_tag() const noexcept {
    return static_cast<Marker>(2 * epoch_);
  }
  [[nodiscard]] Marker touched_tag() const noexcept {
    return static_cast<Marker>(2 * epoch_ + 1);
  }
  /// Largest epoch whose touched tag still fits the marker type.
  [[nodiscard]] static constexpr std::uint64_t max_epoch() noexcept {
    return (std::numeric_limits<Marker>::max() - 1) / 2;
  }

  ResetPolicy policy_;
  std::uint64_t epoch_ = 1;
  std::vector<value_type> values_;
  std::vector<Marker> state_;
  std::vector<I> unmasked_touched_;
  AccumulatorCounters counters_;
};

}  // namespace tilq
