// Bitmap dense accumulator — the logical extreme of the paper's marker-
// width study (§III-C / Fig 13). The paper relaxes SS:GB's 64-bit marker
// down to 8 bits and observes the locality-vs-reset trade; this
// accumulator pushes to 1 bit per flag: two bitsets (masked / touched)
// packed into 64-bit words, so the state footprint is 2·n/8 bytes — 32x
// smaller than the 32-bit sweet spot. Epoch counting is impossible with
// one bit, so rows reset explicitly (GrB style), touching exactly the
// mask's words. The ablation benches quantify where the extra reset work
// beats the smaller working set.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "accum/accumulator.hpp"
#include "core/semiring.hpp"
#include "support/common.hpp"

namespace tilq {

template <Semiring SR, class I>
class BitmapAccumulator {
 public:
  using value_type = typename SR::value_type;

  explicit BitmapAccumulator(I cols)
      : values_(checked_size(cols), SR::zero()),
        masked_bits_(word_count(cols), 0),
        touched_bits_(word_count(cols), 0) {}

  void set_mask(std::span<const I> mask_cols) noexcept {
    for (const I j : mask_cols) {
      set_bit(masked_bits_, j);
      values_[static_cast<std::size_t>(j)] = SR::zero();
    }
  }

  /// Always inlined, like DenseAccumulator::accumulate: it is the innermost
  /// call of the bitmap kernels, and GCC otherwise drops the inlining once a
  /// translation unit reaches its inline-unit-growth budget.
  [[gnu::always_inline]] bool accumulate(I col, value_type product) noexcept {
    if (!test_bit(masked_bits_, col)) {
#if TILQ_METRICS_ENABLED
      ++counters_.rejects;
#endif
      return false;
    }
#if TILQ_METRICS_ENABLED
    ++counters_.inserts;
#endif
    set_bit(touched_bits_, col);
    auto& slot = values_[static_cast<std::size_t>(col)];
    slot = SR::add(slot, product);
    return true;
  }

  [[nodiscard]] bool is_masked(I col) const noexcept {
    return test_bit(masked_bits_, col);
  }

  template <class EmitFn>
  void gather(std::span<const I> mask_cols, EmitFn&& emit) const {
    for (const I j : mask_cols) {
      if (test_bit(touched_bits_, j)) {
        emit(j, values_[static_cast<std::size_t>(j)]);
      }
    }
  }

  void finish_row(std::span<const I> mask_cols) noexcept {
#if TILQ_METRICS_ENABLED
    counters_.explicit_clears += mask_cols.size() + unmasked_touched_.size();
#endif
    // Explicit per-row reset: clear exactly the whole words the mask
    // touched (clearing words instead of bits halves the passes; duplicate
    // word clears are harmless).
    for (const I j : mask_cols) {
      masked_bits_[word_of(j)] = 0;
      touched_bits_[word_of(j)] = 0;
    }
    for (const I j : unmasked_touched_) {
      masked_bits_[word_of(j)] = 0;
      touched_bits_[word_of(j)] = 0;
    }
    unmasked_touched_.clear();
  }

  // --- unmasked (vanilla, Fig 3) protocol -------------------------------

  void begin_unmasked_row(I /*flop_upper_bound*/) { unmasked_touched_.clear(); }

  void accumulate_any(I col, value_type product) {
#if TILQ_METRICS_ENABLED
    ++counters_.inserts;
#endif
    if (test_bit(touched_bits_, col)) {
      auto& slot = values_[static_cast<std::size_t>(col)];
      slot = SR::add(slot, product);
    } else {
      set_bit(touched_bits_, col);
      values_[static_cast<std::size_t>(col)] = product;
      unmasked_touched_.push_back(col);
    }
  }

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

 private:
  [[nodiscard]] static std::size_t checked_size(I cols) {
    require(cols >= 0, "BitmapAccumulator: negative column count");
    return static_cast<std::size_t>(cols);
  }
  [[nodiscard]] static std::size_t word_count(I cols) {
    return (checked_size(cols) + 63) / 64;
  }
  [[nodiscard]] static std::size_t word_of(I col) noexcept {
    return static_cast<std::size_t>(col) >> 6;
  }
  [[nodiscard]] static std::uint64_t bit_of(I col) noexcept {
    return std::uint64_t{1} << (static_cast<std::uint64_t>(col) & 63);
  }
  static void set_bit(std::vector<std::uint64_t>& bits, I col) noexcept {
    bits[word_of(col)] |= bit_of(col);
  }
  [[nodiscard]] static bool test_bit(const std::vector<std::uint64_t>& bits,
                                     I col) noexcept {
    return (bits[word_of(col)] & bit_of(col)) != 0;
  }

  std::vector<value_type> values_;
  std::vector<std::uint64_t> masked_bits_;
  std::vector<std::uint64_t> touched_bits_;
  std::vector<I> unmasked_touched_;
  AccumulatorCounters counters_;
};

}  // namespace tilq
