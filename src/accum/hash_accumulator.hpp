// Hash sparse-accumulator (§III-C): an open-addressing table sized by the
// maximum mask-row nnz rather than by the operation count, exploiting the
// paper's observation that with masking there can be at most
// max_i nnz(M[i,:]) output nonzeros per row. More space-efficient than the
// dense accumulator for large dimensions, which improves cache locality.
//
// Layout: parallel arrays keys_ / state_ / values_ with power-of-two
// capacity and linear probing. Staleness uses the same 2e / 2e+1 marker
// scheme as DenseAccumulator; a slot whose marker predates the current
// epoch is treated as empty. Because all inserts for a row happen in
// set_mask (before any lookup), probe chains for the current epoch are
// contiguous and lookups may stop at the first stale slot.
//
// Saturation (docs/ROBUSTNESS.md): an insert whose probe chain exceeds the
// probe limit signals a pathologically clustered table. The accumulator
// grows-and-rehashes (doubling, preserving the current row's live entries,
// counted in counters().rehashes) up to a growth bound; past the bound it
// throws AccumulatorSaturatedError, which the drivers turn into a dense-
// accumulator fallback for the offending row (Config::degrade_on_saturation).
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
class HashAccumulator {
 public:
  using value_type = typename SR::value_type;
  using marker_type = Marker;

  static_assert(std::is_unsigned_v<Marker>,
                "marker type must be unsigned for well-defined overflow");

  /// `max_row_entries` is an upper bound on entries per row: the maximal
  /// mask-row nnz for masked use, or the maximal per-row FLOP count for
  /// unmasked (vanilla) use. The table is sized to keep the load factor
  /// at or below 50%.
  explicit HashAccumulator(I max_row_entries,
                           ResetPolicy policy = ResetPolicy::kMarker)
      : policy_(policy) {
    require(max_row_entries >= 0, "HashAccumulator: negative row bound");
    rebuild(static_cast<std::uint64_t>(max_row_entries));
  }

  /// Loads the mask row: inserts every column as an allowed slot. Throws
  /// AccumulatorSaturatedError when probing degenerates and the growth
  /// bound is exhausted (or the hash-sat fault site fires); the table holds
  /// no current-row accumulated values yet, so the row can be retried on a
  /// fallback accumulator after abort_row().
  void set_mask(std::span<const I> mask_cols) {
    if (fault::should_fire(FaultSite::kHashSaturation)) {
      throw AccumulatorSaturatedError(
          "hash accumulator saturated (injected fault: hash-sat)");
    }
    grow_if_needed(mask_cols.size());
    for (const I j : mask_cols) {
      for (;;) {
        const Marker tag = mask_tag();
        std::size_t slot = home(j);
        std::size_t chain = 0;
        while (state_[slot] >= tag && keys_[slot] != j) {
          slot = (slot + 1) & mask_;
          ++counters_.probes;
          if (++chain > probe_limit_) {
            break;
          }
        }
        if (chain > probe_limit_) {
          grow_rehash();  // throws past the growth bound
          continue;       // retry this key against the regrown table
        }
#if TILQ_METRICS_ENABLED
        if (chain != 0) {
          ++counters_.collisions;
        }
#endif
        keys_[slot] = j;
        state_[slot] = tag;
        values_[slot] = SR::zero();
        if (policy_ == ResetPolicy::kExplicit) {
          row_slots_.push_back(slot);
        }
        break;
      }
    }
  }

  /// Adds `product` into the slot for `col` iff the mask allows it.
  /// Always inlined, like DenseAccumulator::accumulate: it is the innermost
  /// call of the hash kernels, and GCC otherwise drops the inlining once a
  /// translation unit reaches its inline-unit-growth budget.
  [[gnu::always_inline]] bool accumulate(I col, value_type product) noexcept {
    const std::size_t slot = find(col);
    if (slot == kNotFound) {
#if TILQ_METRICS_ENABLED
      ++counters_.rejects;
#endif
      return false;
    }
#if TILQ_METRICS_ENABLED
    ++counters_.inserts;
#endif
    state_[slot] = touched_tag();
    values_[slot] = SR::add(values_[slot], product);
    return true;
  }

  [[nodiscard]] bool is_masked(I col) const noexcept {
    return find(col) != kNotFound;
  }

  /// Emits `(col, value)` for every touched slot, in mask order.
  template <class EmitFn>
  void gather(std::span<const I> mask_cols, EmitFn&& emit) const {
    for (const I j : mask_cols) {
      const std::size_t slot = find(j);
      if (slot != kNotFound && state_[slot] == touched_tag()) {
        emit(j, values_[slot]);
      }
    }
  }

  void finish_row(std::span<const I> /*mask_cols*/) noexcept {
    if (policy_ == ResetPolicy::kExplicit) {
#if TILQ_METRICS_ENABLED
      counters_.explicit_clears += row_slots_.size();
#endif
      // Clear exactly the slots this row occupied (recorded at insertion).
      // Clearing by key lookup instead would break probe chains — the
      // classic open-addressing deletion hazard — leaving unreachable ghost
      // entries that eventually fill the table.
      for (const std::size_t slot : row_slots_) {
        state_[slot] = Marker{0};
      }
      row_slots_.clear();
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

  /// Discards the current row's partial state after a mid-row failure so
  /// the next set_mask starts from a clean epoch — the drivers call this
  /// before recomputing a saturated row on the dense fallback. Same
  /// invalidation as finish_row, but an aborted row is not a completed row,
  /// so the per-row metrics stay untouched.
  void abort_row() noexcept {
    unmasked_touched_.clear();
    if (policy_ == ResetPolicy::kExplicit) {
      for (const std::size_t slot : row_slots_) {
        state_[slot] = Marker{0};
      }
      row_slots_.clear();
      return;
    }
    if (epoch_ >= max_epoch()) {
      std::fill(state_.begin(), state_.end(), Marker{0});
      epoch_ = 1;
      ++counters_.full_resets;
    } else {
      ++epoch_;
    }
  }

  // --- unmasked (vanilla, Fig 3) protocol -------------------------------

  /// Starts an unmasked row; the table is regrown to hold up to
  /// `flop_upper_bound` distinct columns.
  void begin_unmasked_row(I flop_upper_bound) {
    if (fault::should_fire(FaultSite::kHashSaturation)) {
      throw AccumulatorSaturatedError(
          "hash accumulator saturated (injected fault: hash-sat)");
    }
    grow_if_needed(static_cast<std::size_t>(flop_upper_bound));
    unmasked_touched_.clear();
  }

  void accumulate_any(I col, value_type product) {
#if TILQ_METRICS_ENABLED
    ++counters_.inserts;
#endif
    for (;;) {
      const Marker tag = mask_tag();
      std::size_t slot = home(col);
      std::size_t chain = 0;
      while (state_[slot] >= tag && keys_[slot] != col) {
        slot = (slot + 1) & mask_;
        ++counters_.probes;
        if (++chain > probe_limit_) {
          break;
        }
      }
      if (chain > probe_limit_) {
        // Grow-and-rehash preserves the row's accumulated values, so the
        // retry continues the same reduction with no reordering.
        grow_rehash();
        continue;
      }
#if TILQ_METRICS_ENABLED
      if (chain != 0) {
        ++counters_.collisions;
      }
#endif
      if (state_[slot] >= tag) {  // existing current-epoch entry
        values_[slot] = SR::add(values_[slot], product);
      } else {
        keys_[slot] = col;
        state_[slot] = touched_tag();
        values_[slot] = product;
        unmasked_touched_.push_back(col);
        if (policy_ == ResetPolicy::kExplicit) {
          row_slots_.push_back(slot);
        }
      }
      return;
    }
  }

  template <class EmitFn>
  void gather_unmasked(EmitFn&& emit) {
    std::sort(unmasked_touched_.begin(), unmasked_touched_.end());
    for (const I j : unmasked_touched_) {
      const std::size_t slot = find(j);
      assert(slot != kNotFound);
      emit(j, values_[slot]);
    }
  }

  [[nodiscard]] const AccumulatorCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return keys_.size(); }
  [[nodiscard]] ResetPolicy policy() const noexcept { return policy_; }

 private:
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  [[nodiscard]] std::size_t home(I key) const noexcept {
    // Fibonacci (multiplicative) hashing on the column index.
    const auto h = static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> shift_);
  }

  /// Finds the slot holding `key` for the current epoch, or kNotFound. The
  /// chain scan stops at the first stale/empty slot.
  [[nodiscard]] std::size_t find(I key) const noexcept {
    const Marker tag = mask_tag();
    std::size_t slot = home(key);
    while (state_[slot] >= tag) {
      if (keys_[slot] == key) {
        return slot;
      }
      slot = (slot + 1) & mask_;
    }
    return kNotFound;
  }

  [[nodiscard]] Marker mask_tag() const noexcept {
    return static_cast<Marker>(2 * epoch_);
  }
  [[nodiscard]] Marker touched_tag() const noexcept {
    return static_cast<Marker>(2 * epoch_ + 1);
  }
  [[nodiscard]] static constexpr std::uint64_t max_epoch() noexcept {
    return (std::numeric_limits<Marker>::max() - 1) / 2;
  }

  /// Planned (re)sizing for a known entry bound: fresh table at <=50% load,
  /// and a fresh saturation budget (kMaxGrowthDoublings doublings beyond
  /// this capacity before AccumulatorSaturatedError).
  void rebuild(std::uint64_t max_entries) {
    const std::uint64_t capacity = next_pow2(std::max<std::uint64_t>(4, 2 * max_entries));
    allocate(capacity);
    growth_limit_ = capacity << kMaxGrowthDoublings;
  }

  void allocate(std::uint64_t capacity) {
    keys_.assign(static_cast<std::size_t>(capacity), I{});
    state_.assign(static_cast<std::size_t>(capacity), Marker{0});
    values_.assign(static_cast<std::size_t>(capacity), SR::zero());
    mask_ = static_cast<std::size_t>(capacity) - 1;
    shift_ = 64 - floor_log2(capacity);
    probe_limit_ = std::max<std::size_t>(kMinProbeLimit,
                                         static_cast<std::size_t>(capacity) / 4);
    epoch_ = 1;
    row_slots_.clear();
  }

  /// Saturation response: doubles the table and reinserts the current
  /// row's live entries (older epochs are stale by definition), preserving
  /// each slot's partial sum so the retried reduction is bit-identical.
  /// Throws AccumulatorSaturatedError once the growth budget is spent.
  void grow_rehash() {
    const std::uint64_t target = static_cast<std::uint64_t>(keys_.size()) * 2;
    if (target > growth_limit_) {
      throw AccumulatorSaturatedError(
          "hash accumulator saturated: probe limit breached and the "
          "grow-and-rehash bound is exhausted — degrade to the dense "
          "accumulator or replan with a larger row bound");
    }
    const Marker old_mask_tag = mask_tag();
    const Marker old_touched_tag = touched_tag();
    std::vector<I> old_keys = std::move(keys_);
    std::vector<Marker> old_state = std::move(state_);
    std::vector<value_type> old_values = std::move(values_);
    allocate(target);
    for (std::size_t s = 0; s < old_keys.size(); ++s) {
      if (old_state[s] < old_mask_tag) {
        continue;  // stale epoch — dead entry
      }
      const I key = old_keys[s];
      std::size_t slot = home(key);
      while (state_[slot] != Marker{0}) {
        slot = (slot + 1) & mask_;
      }
      keys_[slot] = key;
      state_[slot] = old_state[s] == old_touched_tag ? touched_tag() : mask_tag();
      values_[slot] = old_values[s];
      if (policy_ == ResetPolicy::kExplicit) {
        row_slots_.push_back(slot);
      }
    }
    ++counters_.rehashes;
  }

  void grow_if_needed(std::size_t entries) {
    if (2 * entries > keys_.size()) {
      rebuild(entries);
    }
  }

  /// Probe-chain length past which an insert declares the table saturated.
  static constexpr std::size_t kMinProbeLimit = 16;
  /// Doublings allowed beyond the planned capacity before escalating.
  static constexpr unsigned kMaxGrowthDoublings = 4;

  ResetPolicy policy_;
  std::uint64_t epoch_ = 1;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
  std::size_t probe_limit_ = kMinProbeLimit;
  std::uint64_t growth_limit_ = 0;
  std::vector<I> keys_;
  std::vector<Marker> state_;
  std::vector<value_type> values_;
  std::vector<I> unmasked_touched_;
  /// Slots occupied by the current row — only tracked under kExplicit, to
  /// make the per-row reset exact (see finish_row).
  std::vector<std::size_t> row_slots_;
  AccumulatorCounters counters_;
};

}  // namespace tilq
