// Plan/execute split for the masked-SpGEMM — the symbolic/numeric
// separation of Milaković et al. and Deveci et al., applied to the paper's
// three performance dimensions. Iterative workloads (k-truss, triangle
// census, BFS levels) call the kernel repeatedly with the SAME mask/operand
// sparsity; everything that depends only on structure is computed once by
// plan() and amortized across execute() calls:
//
//   plan(M, A, B, config)      — structure phase, runs once:
//     * per-row work estimates (Eq 2) + FLOP-balanced tile boundaries
//     * per-(i,k) hybrid κ decisions (one flag per A nonzero)
//     * accumulator sizing (mask row bound; FLOP bound for vanilla)
//     * structural fingerprint (rowptr/colidx hash) of all three operands
//   execute(M, A, B [, stats]) — numeric phase, runs per iteration:
//     * compute + compact only, against pooled per-thread accumulators
//       (src/accum/workspace_pool.hpp) and reused bound buffers
//     * verifies the fingerprint first; a structure change since plan()
//       raises StalePlanError instead of computing garbage
//
// Values may change freely between executes — only the sparsity pattern is
// fingerprinted. Outputs are bit-identical to the one-shot masked_spgemm
// path: the planned hybrid kernel replays the exact per-entry decisions the
// inline κ test would make, so the floating-point summation order is
// unchanged, and pooled accumulators gather in mask order, so their reuse
// (continued marker epochs, retained hash capacity) cannot reorder sums.
//
// masked_spgemm is a thin wrapper over this machinery (plan once, execute
// once); see docs/API.md for the lifecycle and the migration table.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "accum/bitmap_accumulator.hpp"
#include "accum/dense_accumulator.hpp"
#include "accum/hash_accumulator.hpp"
#include "accum/workspace_pool.hpp"
#include "core/blocked.hpp"
#include "core/config.hpp"
#include "core/kernels.hpp"
#include "core/tiling.hpp"
#include "core/work_estimate.hpp"
#include "sparse/csr.hpp"
#include "sparse/stats.hpp"
#include "sparse/validate.hpp"
#include "support/common.hpp"
#include "support/env.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/panic.hpp"
#include "support/parallel.hpp"
#include "support/perf.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace tilq {

/// Thrown by Executor::execute when the operands' structure no longer
/// matches the fingerprint recorded at plan() time. A StaleError
/// (kind() == kStale) that remains catchable as PreconditionError.
class StalePlanError : public StaleError {
 public:
  using StaleError::StaleError;
};

/// Structure-phase diagnostics, filled by plan().
struct PlanInfo {
  std::uint64_t fingerprint = 0;      ///< rowptr/colidx hash of M, A, B
  std::int64_t row_tiles = 0;
  std::int64_t col_tiles = 1;         ///< column blocks; 1 on the 1D path
  std::int64_t accumulator_bound = 0; ///< per-row accumulator sizing
  std::int64_t hybrid_decisions = 0;  ///< precomputed per-(i,k) κ picks
  std::int64_t flop_total = 0;        ///< Eq-2 work total Σ_i W[i]
  std::int64_t dense_tiles = 0;       ///< blocked: tiles classified dense
  std::int64_t sparse_tiles = 0;      ///< blocked: tiles classified sparse
  std::int64_t hub_splits = 0;        ///< blocked: hub rows split out
  double build_ms = 0.0;              ///< wall time of the plan() call
};

namespace detail {

/// Mixes `size` bytes into `seed` (64-bit splitmix-style, word at a time);
/// defined in plan.cpp.
[[nodiscard]] std::uint64_t hash_bytes(const void* data, std::size_t size,
                                       std::uint64_t seed) noexcept;

/// Hash of everything structural about the triple (M, A, B): dimensions,
/// nnz, row pointers, and column indices. Values are deliberately excluded —
/// a plan stays valid under value-only updates.
template <class T, class I>
[[nodiscard]] std::uint64_t structural_fingerprint(const Csr<T, I>& mask,
                                                   const Csr<T, I>& a,
                                                   const Csr<T, I>& b) noexcept {
  const auto digest = [](const Csr<T, I>& m) {
    const std::int64_t dims[3] = {static_cast<std::int64_t>(m.rows()),
                                  static_cast<std::int64_t>(m.cols()),
                                  static_cast<std::int64_t>(m.nnz())};
    std::uint64_t h = hash_bytes(dims, sizeof dims, 0x9e3779b97f4a7c15ULL);
    h = hash_bytes(m.row_ptr().data(), m.row_ptr().size_bytes(), h);
    return hash_bytes(m.col_idx().data(), m.col_idx().size_bytes(), h);
  };
  // The triangle-census shape C = A ⊙ (A × A) passes one object three
  // times; same object now means same structure now, so digest it once.
  // Per-operand digests are combined through a seed chain, so the key
  // stays position-sensitive (swapping A and B changes it).
  const std::uint64_t dm = digest(mask);
  const std::uint64_t da = (&a == &mask) ? dm : digest(a);
  const std::uint64_t db =
      (&b == &mask) ? dm : ((&b == &a) ? da : digest(b));
  std::uint64_t h = hash_bytes(&dm, sizeof dm, 0x243f6a8885a308d3ULL);
  h = hash_bytes(&da, sizeof da, h);
  return hash_bytes(&db, sizeof db, h);
}

/// Reused driver-level scratch (distinct from the accumulators, which live
/// in the WorkspacePool): the mask-bounded output slots and per-row/cell
/// counts. ensure() only reallocates on growth, so steady-state executes
/// perform zero allocations here.
template <class T, class I>
struct DriverBuffers {
  std::vector<I> bound_cols;
  std::vector<T> bound_vals;
  std::vector<I> row_counts;
  std::vector<I> cell_counts;  ///< blocked only: rows x blocks, row-major
  std::uint64_t grows = 0;     ///< how many ensure() calls had to grow

  void ensure(std::size_t mask_nnz, std::size_t rows, std::size_t cells) {
    const bool grew = mask_nnz > bound_cols.capacity() ||
                      rows > row_counts.capacity() ||
                      cells > cell_counts.capacity();
    bound_cols.resize(mask_nnz);
    bound_vals.resize(mask_nnz);
    row_counts.assign(rows, I{0});
    cell_counts.assign(cells, I{0});
    if (grew) {
      ++grows;
    }
  }
};

}  // namespace detail

/// Everything plan() derives from structure. Immutable between plan() calls;
/// indexed by the operand triple's fingerprint.
template <class I = std::int64_t>
struct Plan {
  PlanInfo info;
  I rows = 0;
  I inner = 0;
  I cols = 0;
  std::int64_t mask_nnz = 0;
  std::vector<Tile> row_tiles;
  /// Eq-2 work total Σ_i (nnz(M[i,:]) + Σ_{A[i,k]≠0} nnz(B[k,:])) — the
  /// cost model's per-query price tag. The batch engine's admission stage
  /// classifies jobs cheap/expensive from it (docs/SERVING.md), so a plan
  /// cache hit prices a repeat structure for free.
  std::int64_t flop_total = 0;
  I accumulator_bound = 0;
  /// One flag per A nonzero (flat index a.row_ptr[i] + p): the hybrid
  /// strategy's per-(i,k) κ choice. Empty unless the planned config uses
  /// MaskStrategy::kHybrid on the 1D or blocked path.
  std::vector<std::uint8_t> hybrid_coiterate;
  /// Blocked-strategy artifacts (column-block slices, per-tile dense
  /// verdicts); null unless the plan was built with Strategy::kBlocked.
  /// Shared so plan copies (the engine's cache hands plans around) do not
  /// duplicate the slices.
  std::shared_ptr<const BlockedLayout<I>> blocked;

  [[nodiscard]] bool is_blocked() const noexcept { return blocked != nullptr; }
  /// Cells one row tile fans out into: its column blocks, or 1 on the 1D
  /// path. task_count = row_tiles.size() x this.
  [[nodiscard]] std::size_t cells_per_row_tile() const noexcept {
    return blocked != nullptr ? static_cast<std::size_t>(blocked->num_blocks())
                              : 1;
  }
  /// Per-(row, block) output counts the driver buffers hold: rows x blocks
  /// on a blocked plan, none on the 1D path (its counts are per row).
  [[nodiscard]] std::size_t cell_slots() const noexcept {
    return blocked != nullptr
               ? static_cast<std::size_t>(rows) * cells_per_row_tile()
               : 0;
  }
};

namespace detail {

/// Accumulator sizing (§III-C): the hash table is bounded by the maximal
/// mask-row nnz, except the vanilla strategy which fills the accumulator
/// before masking and therefore needs the per-row FLOP bound.
template <class T, class I>
I accumulator_row_bound(const Csr<T, I>& mask, const Csr<T, I>& a,
                        const Csr<T, I>& b, MaskStrategy strategy) {
  if (strategy != MaskStrategy::kVanilla) {
    return max_row_nnz(mask);
  }
  I bound = 0;
  for (I i = 0; i < a.rows(); ++i) {
    bound = std::max(bound, row_flop_bound(a, b, i));
  }
  return std::max(bound, max_row_nnz(mask));
}

/// Precomputes the hybrid kernel's per-(i,k) κ choices — exactly the
/// predicate row_hybrid evaluates inline, hoisted to plan time.
template <class T, class I>
void build_hybrid_decisions(Plan<I>& plan, const Csr<T, I>& mask,
                            const Csr<T, I>& a, const Csr<T, I>& b,
                            double kappa) {
  plan.hybrid_coiterate.assign(static_cast<std::size_t>(a.nnz()), 0);
  const auto a_row_ptr = a.row_ptr();
  parallel_for(I{0}, a.rows(), [&](I i) {
    const auto mask_nnz = static_cast<std::int64_t>(mask.row_nnz(i));
    if (mask_nnz == 0) {
      return;  // the kernel skips the row before reading any decision
    }
    const auto a_cols = a.row_cols(i);
    const auto base = static_cast<std::size_t>(a_row_ptr[static_cast<std::size_t>(i)]);
    for (std::size_t p = 0; p < a_cols.size(); ++p) {
      const auto b_nnz = static_cast<std::int64_t>(b.row_nnz(a_cols[p]));
      plan.hybrid_coiterate[base + p] =
          detail::prefer_coiteration(mask_nnz, b_nnz, kappa) ? 1 : 0;
    }
  });
}

/// The structure phase as a free function: validates shapes (and, under
/// Config::validate_inputs, the operands themselves), builds the
/// FLOP-balanced tile grid, sizes the accumulator, precomputes hybrid κ
/// decisions, and fingerprints the operand structure. Executor::plan and
/// the batch engine's shared plan cache (core/engine.hpp) both delegate
/// here, so a cached engine plan is the plan the Executor would have built.
/// Fills everything but PlanInfo::build_ms, which the caller times.
template <class T, class I>
[[nodiscard]] Plan<I> build_plan(const Csr<T, I>& mask, const Csr<T, I>& a,
                                 const Csr<T, I>& b, const Config& config) {
  require(a.cols() == b.rows(), "plan: inner dimensions must agree");
  require(mask.rows() == a.rows() && mask.cols() == b.cols(),
          "plan: mask shape must equal output shape");
  const bool blocked = config.mode == Strategy::kBlocked;
  require(!(blocked && config.strategy == MaskStrategy::kVanilla),
          "plan: the vanilla strategy has no column-tiled (blocked) "
          "formulation");
  if (config.validate_inputs) {
    // Structural validation at the plan boundary (Config::validate_inputs,
    // on by default in hardened builds): a defect report beats the UB a
    // corrupt rowptr/colidx would cause inside the parallel kernels.
    require_valid(mask, "mask");
    require_valid(a, "A");
    require_valid(b, "B");
  }

  Plan<I> plan;
  plan.rows = a.rows();
  plan.inner = a.cols();
  plan.cols = b.cols();
  plan.mask_nnz = static_cast<std::int64_t>(mask.nnz());

  const int threads = config.threads > 0 ? config.threads : max_threads();
  const std::int64_t num_tiles =
      config.num_tiles > 0 ? config.num_tiles
                           : 2 * static_cast<std::int64_t>(threads);
  {
    TraceSpan span(blocked ? "spgemmblk.analyze" : "spgemm.analyze");
    if (config.tiling == Tiling::kFlopBalanced || blocked) {
      // The blocked strategy needs the per-row Eq-2 work even under uniform
      // tiling: hub-row splitting reads it.
      const std::vector<std::int64_t> prefix = row_work_prefix(mask, a, b);
      plan.flop_total = prefix.empty() ? 0 : prefix.back();
      plan.row_tiles = config.tiling == Tiling::kFlopBalanced
                           ? make_flop_balanced_tiles(prefix, num_tiles)
                           : make_uniform_tiles(plan.rows, num_tiles);
      if (blocked && !plan.row_tiles.empty()) {
        // Hub rows (circuit-style ultra-dense rows holding more than twice
        // a tile's work quota) become singleton tiles: the column blocks
        // then fan each hub into one task per block, parallelizing INSIDE
        // the row instead of serializing one straggler task.
        const std::int64_t quota =
            std::max<std::int64_t>(1, plan.flop_total / std::max<std::int64_t>(
                                                            1, num_tiles));
        std::int64_t splits = 0;
        plan.row_tiles = split_hub_rows(std::move(plan.row_tiles), prefix,
                                        2 * quota, &splits);
        plan.info.hub_splits = splits;
      }
    } else {
      // Same Eq-2 total the prefix sums to, without materializing it.
      plan.flop_total = plan.mask_nnz + total_flops(a, b);
      plan.row_tiles = make_uniform_tiles(plan.rows, num_tiles);
    }
    plan.accumulator_bound =
        detail::accumulator_row_bound(mask, a, b, config.strategy);
    if (blocked) {
      auto layout = std::make_shared<BlockedLayout<I>>(build_blocked_layout(
          mask, b, std::span<const Tile>(plan.row_tiles), config.block_cols));
      // The sparse per-tile accumulator only ever sees one mask (row, block)
      // segment, so its bound is the largest segment, not the full row.
      plan.accumulator_bound = std::max<I>(I{1}, layout->max_seg_entries);
      plan.info.dense_tiles = layout->dense_tiles;
      plan.info.sparse_tiles = layout->sparse_tiles;
      plan.blocked = std::move(layout);
    }
    if (!blocked && config.strategy == MaskStrategy::kHybrid) {
      // 1D only: the blocked driver re-evaluates κ per (cell, k) against
      // SEGMENT sizes, which the full-row precomputation cannot stand for.
      build_hybrid_decisions(plan, mask, a, b, config.coiteration_factor);
    }
    plan.info.fingerprint = detail::structural_fingerprint(mask, a, b);
  }

  plan.info.row_tiles = static_cast<std::int64_t>(plan.row_tiles.size());
  plan.info.col_tiles = static_cast<std::int64_t>(plan.cells_per_row_tile());
  plan.info.accumulator_bound =
      static_cast<std::int64_t>(plan.accumulator_bound);
  plan.info.hybrid_decisions =
      static_cast<std::int64_t>(plan.hybrid_coiterate.size());
  plan.info.flop_total = plan.flop_total;
  return plan;
}

/// Folds the team's per-thread compute shares into `stats`: the raw
/// breakdown plus the derived imbalance statistics (max/mean busy ratio
/// and the coefficient of variation — the measured counterpart of the
/// model's predicted row-work CV). `work` is indexed by OpenMP thread
/// number and sized for the requested team; `team_size` is how many
/// threads the runtime actually granted.
inline void finalize_thread_work(std::vector<ThreadWork>&& work,
                                 int team_size, ExecutionStats* stats) {
  if (stats == nullptr) {
    return;
  }
  if (team_size > 0 &&
      static_cast<std::size_t>(team_size) < work.size()) {
    work.resize(static_cast<std::size_t>(team_size));
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  double max = 0.0;
  for (const ThreadWork& t : work) {
    sum += t.busy_ms;
    sum_sq += t.busy_ms * t.busy_ms;
    max = std::max(max, t.busy_ms);
  }
  if (!work.empty() && sum > 0.0) {
    const double n = static_cast<double>(work.size());
    const double mean = sum / n;
    const double variance = std::max(0.0, sum_sq / n - mean * mean);
    stats->imbalance_ratio = max / mean;
    stats->busy_cv = std::sqrt(variance) / mean;
  }
  stats->thread_work = std::move(work);
}

/// Degradation target when an accumulator saturates: the hash accumulator
/// escalates the offending row/cell to a dense accumulator with the same
/// marker type (identical accumulate-and-gather order => bit-identical
/// results). Dense and bitmap accumulators cannot saturate.
template <class Acc>
struct FallbackAccumulator {
  using type = std::monostate;
  static constexpr bool available = false;
};

template <Semiring SR, class I, class Marker>
struct FallbackAccumulator<HashAccumulator<SR, I, Marker>> {
  using type = DenseAccumulator<SR, I, Marker>;
  static constexpr bool available = true;
};

/// Accounting one tile task reports back to its driver.
struct TileTaskStats {
  std::int64_t rows = 0;       ///< row visits performed by this task
  std::uint64_t degrades = 0;  ///< rows/cells replayed on the dense fallback
};

/// The one accounting path for tile work, shared by the OpenMP driver (one
/// instance per thread, covering its share of the region) and the batch
/// engine (one per pool task). Four steps: add() each task's stats,
/// settle() the accumulator events as the delta from the entry snapshot
/// (pooled accumulators keep counting across executes) plus the dense
/// fallback's counters (built fresh, so no snapshot), flush() into the
/// thread's metrics slot, and write() a team sum into ExecutionStats.
struct TaskAccounting {
  AccumulatorCounters events;   ///< accumulator events since entry
  std::uint64_t degrades = 0;   ///< rows/cells replayed on the dense fallback
  std::int64_t tiles = 0;       ///< tile tasks run
  std::int64_t rows = 0;        ///< row visits performed
  double busy_ms = 0.0;         ///< wall time spent running the tasks

  void add(const TileTaskStats& tile) noexcept {
    ++tiles;
    rows += tile.rows;
    degrades += tile.degrades;
  }

  template <class Acc>
  void settle(
      const Acc& acc, const AccumulatorCounters& at_entry,
      const std::optional<typename FallbackAccumulator<Acc>::type>& fallback)
      noexcept {
    events += acc.counters().minus(at_entry);
    if constexpr (FallbackAccumulator<Acc>::available) {
      if (fallback.has_value()) {
        events += fallback->counters();
      }
    }
  }

  void flush(MetricCounters& m) const noexcept {
    m.tiles_executed += static_cast<std::uint64_t>(tiles);
    m.rows_processed += static_cast<std::uint64_t>(rows);
    m.busy_ns += static_cast<std::uint64_t>(busy_ms * 1e6);
    m.hash_probes += events.probes;
    m.hash_collisions += events.collisions;
    m.accum_inserts += events.inserts;
    m.accum_rejects += events.rejects;
    m.marker_row_resets += events.row_resets;
    m.marker_overflow_resets += events.full_resets;
    m.explicit_reset_slots += events.explicit_clears;
    m.accum_rehashes += events.rehashes;
    m.accum_degrades += degrades;
  }

  TaskAccounting& operator+=(const TaskAccounting& o) noexcept {
    events += o.events;
    degrades += o.degrades;
    tiles += o.tiles;
    rows += o.rows;
    busy_ms += o.busy_ms;
    return *this;
  }

  void write(ExecutionStats& stats) const noexcept {
    stats.accumulator_full_resets = events.full_resets;
    stats.hash_probes = events.probes;
    stats.accum_inserts = events.inserts;
    stats.accum_rejects = events.rejects;
    stats.hash_collisions = events.collisions;
    stats.marker_row_resets = events.row_resets;
    stats.explicit_reset_slots = events.explicit_clears;
    stats.accum_rehashes = events.rehashes;
    stats.accum_degrades = degrades;
    stats.degraded = degrades > 0;
  }
};

/// One (row tile x column block) task of the blocked driver. The per-tile
/// dense/sparse verdict picks the accumulator out of the workspace; a
/// sparse-side saturation replays the cell on the workspace's own dense
/// accumulator (same block width => same gather order => bit-identical),
/// so no external fallback is needed. Output slots come straight from the
/// mask slice's entry_begin — the slice IS the slot map, no binary search.
template <Semiring SR, class T, class I, class Ws>
TileTaskStats run_blocked_tile_task(const Plan<I>& plan, const Config& config,
                                    const Csr<T, I>& a, const Csr<T, I>& b,
                                    std::int64_t task, Ws& ws,
                                    DriverBuffers<T, I>& buffers) {
  const BlockedLayout<I>& layout = *plan.blocked;
  const auto blocks = static_cast<std::size_t>(layout.num_blocks());
  const std::size_t rt = static_cast<std::size_t>(task) / blocks;
  const std::size_t t = static_cast<std::size_t>(task) % blocks;
  const Tile row_tile = plan.row_tiles[rt];
  const BlockSlice<I>& mslice = layout.m_blocks[t];
  const BlockSlice<I>& bslice = layout.b_blocks[t];
  const I col_base = layout.block_begin[t];
  const bool dense_tile = layout.dense_tile(rt, t);
  TraceSpan tile_span("tileblk", task);
  TileTaskStats out;
  out.rows += row_tile.row_end - row_tile.row_begin;
#if TILQ_METRICS_ENABLED
  if (MetricCounters* const counters = metrics_thread_counters()) {
    if (dense_tile) {
      ++counters->blocked_dense_picks;
    } else {
      ++counters->blocked_sparse_picks;
    }
  }
#endif
  for (I i = static_cast<I>(row_tile.row_begin);
       i < static_cast<I>(row_tile.row_end); ++i) {
    const auto slot = static_cast<std::size_t>(
        mslice.entry_begin[static_cast<std::size_t>(i)]);
    I* const out_cols = buffers.bound_cols.data() + slot;
    T* const out_vals = buffers.bound_vals.data() + slot;
    I count = 0;
    if (dense_tile) {
      count = compute_block_cell_direct<SR>(
          mslice, bslice, a, b, i, col_base, config.strategy,
          config.coiteration_factor, ws.direct(), out_cols, out_vals);
    } else {
      try {
        count = compute_block_cell<SR>(
            mslice, bslice, a, b, i, col_base, config.strategy,
            config.coiteration_factor, ws.sparse(), out_cols, out_vals);
      } catch (const AccumulatorSaturatedError&) {
        if (!config.degrade_on_saturation) {
          throw;
        }
        ws.abort_sparse_row();
        count = compute_block_cell<SR>(
            mslice, bslice, a, b, i, col_base, config.strategy,
            config.coiteration_factor, ws.dense(), out_cols, out_vals);
        ++out.degrades;
      }
    }
    buffers.cell_counts[static_cast<std::size_t>(i) * blocks + t] = count;
  }
  return out;
}

/// One 1D tile task of the numeric phase: row tile `task` of `plan`, run
/// against `acc`, writing into `buffers`' mask-bounded slots. This is the
/// single shared body behind both schedulers — the OpenMP worksharing loop
/// in planned_execute and the batch engine's pool workers (core/engine.hpp)
/// call exactly this function, so the two paths stay bit-identical by
/// construction. `fallback` is the caller's lazily-built dense escalation
/// target, kept across tasks so a degrading worker builds it only once.
template <Semiring SR, class T, class I, class Acc>
TileTaskStats run_scalar_tile_task(
    const Plan<I>& plan, const Config& config, const Csr<T, I>& mask,
    const Csr<T, I>& a, const Csr<T, I>& b, std::int64_t task, Acc& acc,
    std::optional<typename FallbackAccumulator<Acc>::type>& fallback,
    DriverBuffers<T, I>& buffers) {
  using Fallback = FallbackAccumulator<Acc>;
  const auto mask_row_ptr = mask.row_ptr();
  const std::span<const std::uint8_t> decisions(plan.hybrid_coiterate);
  TileTaskStats out;
  const Tile tile = plan.row_tiles[static_cast<std::size_t>(task)];
  TraceSpan tile_span("tile", task);
  out.rows += tile.row_end - tile.row_begin;
  for (I i = static_cast<I>(tile.row_begin); i < static_cast<I>(tile.row_end);
       ++i) {
    I* out_cols =
        buffers.bound_cols.data() + mask_row_ptr[static_cast<std::size_t>(i)];
    T* out_vals =
        buffers.bound_vals.data() + mask_row_ptr[static_cast<std::size_t>(i)];
    I count = 0;
    const auto emit = [&](I col, T value) {
      out_cols[count] = col;
      out_vals[count] = value;
      ++count;
    };
    if constexpr (Fallback::available) {
      try {
        compute_row_planned<SR>(config.strategy, config.coiteration_factor,
                                decisions, mask, a, b, i, acc, emit);
      } catch (const AccumulatorSaturatedError&) {
        if (!config.degrade_on_saturation) {
          throw;
        }
        // The kernels emit only while gathering at the end of a row, so a
        // saturation mid-row has produced no output yet; discard the hash
        // accumulator's partial epoch and replay the whole row on the
        // dense fallback. Accumulation and gather order are unchanged
        // => bit-identical values.
        acc.abort_row();
        count = 0;
        if (!fallback.has_value()) {
          fallback.emplace(plan.cols, config.reset);
        }
        compute_row_planned<SR>(config.strategy, config.coiteration_factor,
                                decisions, mask, a, b, i, *fallback, emit);
        ++out.degrades;
      }
    } else {
      compute_row_planned<SR>(config.strategy, config.coiteration_factor,
                              decisions, mask, a, b, i, acc, emit);
    }
    buffers.row_counts[static_cast<std::size_t>(i)] = count;
  }
  return out;
}

/// Compile-time dispatch over the workspace type: a BlockedWorkspace runs
/// the blocked driver, a plain accumulator the 1D one. Instantiating only
/// the matching branch is what lets one worksharing loop (and the engine's
/// one pool-worker body) serve both execution spaces.
template <Semiring SR, class T, class I, class Acc>
TileTaskStats run_tile_task(
    const Plan<I>& plan, const Config& config, const Csr<T, I>& mask,
    const Csr<T, I>& a, const Csr<T, I>& b, std::int64_t task, Acc& acc,
    std::optional<typename FallbackAccumulator<Acc>::type>& fallback,
    DriverBuffers<T, I>& buffers) {
  if constexpr (is_blocked_workspace_v<Acc>) {
    (void)mask;
    (void)fallback;
    return run_blocked_tile_task<SR>(plan, config, a, b, task, acc, buffers);
  } else {
    return run_scalar_tile_task<SR>(plan, config, mask, a, b, task, acc,
                                    fallback, buffers);
  }
}

/// The compact phase against filled driver buffers. `parallel` selects the
/// OpenMP row loop (planned_execute) or a plain serial one (the batch
/// engine's pool workers, which must not open a nested OpenMP team). Rows
/// are independent, so both orders produce the same output.
template <class T, class I>
Csr<T, I> compact_planned(const Plan<I>& plan, const Csr<T, I>& mask,
                          DriverBuffers<T, I>& buffers, bool parallel) {
  const I rows = plan.rows;
  const auto mask_row_ptr = mask.row_ptr();
  const std::size_t col_tile_count = plan.cells_per_row_tile();
  const auto for_rows = [&](auto&& body) {
    if (parallel) {
      parallel_for(I{0}, rows, body);
    } else {
      for (I i = 0; i < rows; ++i) {
        body(i);
      }
    }
  };
  if (plan.is_blocked()) {
    for_rows([&](I i) {
      I total = 0;
      for (std::size_t ct = 0; ct < col_tile_count; ++ct) {
        total += buffers.cell_counts[static_cast<std::size_t>(i) * col_tile_count + ct];
      }
      buffers.row_counts[static_cast<std::size_t>(i)] = total;
    });
  }
  std::vector<I> out_row_ptr(static_cast<std::size_t>(rows) + 1);
  const I out_nnz =
      parallel ? exclusive_scan<I>(buffers.row_counts, out_row_ptr)
               : exclusive_scan_serial<I>(buffers.row_counts, out_row_ptr);
  std::vector<I> out_cols(static_cast<std::size_t>(out_nnz));
  std::vector<T> out_vals(static_cast<std::size_t>(out_nnz));
  if (plan.is_blocked()) {
    // Stitch the per-block segments in block order; the mask slice's
    // entry_begin is the slot map, so no per-cell search is needed.
    const BlockedLayout<I>& layout = *plan.blocked;
    for_rows([&](I i) {
      auto dst = static_cast<std::size_t>(out_row_ptr[static_cast<std::size_t>(i)]);
      for (std::size_t ct = 0; ct < col_tile_count; ++ct) {
        const auto slot = static_cast<std::size_t>(
            layout.m_blocks[ct].entry_begin[static_cast<std::size_t>(i)]);
        const auto len = static_cast<std::size_t>(
            buffers.cell_counts[static_cast<std::size_t>(i) * col_tile_count + ct]);
        for (std::size_t p = 0; p < len; ++p) {
          out_cols[dst + p] = buffers.bound_cols[slot + p];
          out_vals[dst + p] = buffers.bound_vals[slot + p];
        }
        dst += len;
      }
    });
  } else {
    for_rows([&](I i) {
      const auto src = static_cast<std::size_t>(mask_row_ptr[static_cast<std::size_t>(i)]);
      const auto dst = static_cast<std::size_t>(out_row_ptr[static_cast<std::size_t>(i)]);
      const auto len = static_cast<std::size_t>(buffers.row_counts[static_cast<std::size_t>(i)]);
      for (std::size_t p = 0; p < len; ++p) {
        out_cols[dst + p] = buffers.bound_cols[src + p];
        out_vals[dst + p] = buffers.bound_vals[src + p];
      }
    });
  }
  return Csr<T, I>(rows, plan.cols, std::move(out_row_ptr),
                   std::move(out_cols), std::move(out_vals));
}

/// Per-workspace-type facts, defined once for every caller: make() builds
/// one workspace for a plan, capability() is its WorkspacePool rebuild key
/// (a resident workspace is reused while its key covers the request), and
/// slots() is its element footprint, which the engine's memory governor
/// charges at sizeof(T) + sizeof(I) bytes per slot.
template <class Acc>
struct WorkspaceTraits;

template <Semiring SR, class I, class Marker>
struct WorkspaceTraits<DenseAccumulator<SR, I, Marker>> {
  static DenseAccumulator<SR, I, Marker> make(const Plan<I>& p,
                                              const Config& c) {
    return DenseAccumulator<SR, I, Marker>(p.cols, c.reset);
  }
  static std::uint64_t capability(const Plan<I>& p) noexcept {
    return static_cast<std::uint64_t>(p.cols);
  }
  static std::uint64_t slots(const Plan<I>& p) noexcept {
    return capability(p);
  }
};

/// 1-bit flags: the marker width and reset policy are fixed by the
/// representation (explicit reset only).
template <Semiring SR, class I>
struct WorkspaceTraits<BitmapAccumulator<SR, I>> {
  static BitmapAccumulator<SR, I> make(const Plan<I>& p, const Config&) {
    return BitmapAccumulator<SR, I>(p.cols);
  }
  static std::uint64_t capability(const Plan<I>& p) noexcept {
    return static_cast<std::uint64_t>(p.cols);
  }
  static std::uint64_t slots(const Plan<I>& p) noexcept {
    return capability(p);
  }
};

template <Semiring SR, class I, class Marker>
struct WorkspaceTraits<HashAccumulator<SR, I, Marker>> {
  static HashAccumulator<SR, I, Marker> make(const Plan<I>& p,
                                             const Config& c) {
    return HashAccumulator<SR, I, Marker>(p.accumulator_bound, c.reset);
  }
  static std::uint64_t capability(const Plan<I>& p) noexcept {
    return static_cast<std::uint64_t>(p.accumulator_bound);
  }
  static std::uint64_t slots(const Plan<I>& p) noexcept {
    return capability(p);
  }
};

/// The blocked workspace: a block-width dense accumulator and DirectWindow
/// plus the sparse-tile accumulator, sized by the block width (dense,
/// bitmap) or the largest mask segment (hash). Its pool key packs
/// (block width, segment bound) and is not a size, so slots() counts the
/// three parts instead.
template <Semiring SR, class I, class Marker, class SparseAcc>
struct WorkspaceTraits<BlockedWorkspace<SR, I, Marker, SparseAcc>> {
  using Ws = BlockedWorkspace<SR, I, Marker, SparseAcc>;
  static Ws make(const Plan<I>& p, const Config& c) {
    return Ws(p.blocked->block_width, p.accumulator_bound, c.reset);
  }
  static std::uint64_t capability(const Plan<I>& p) noexcept {
    return Ws::capability(p.blocked->block_width, p.accumulator_bound);
  }
  static std::uint64_t slots(const Plan<I>& p) noexcept {
    const auto width = static_cast<std::uint64_t>(p.blocked->block_width);
    const std::uint64_t sparse =
        std::is_same_v<SparseAcc, HashAccumulator<SR, I, Marker>>
            ? static_cast<std::uint64_t>(p.accumulator_bound)
            : width;
    return 2 * width + sparse;
  }
};

/// The one workspace dispatch (§III-C): resolves (Config::marker_width,
/// Config::accumulator, blocked plan) to the concrete workspace type `Acc`
/// and calls `bind(std::type_identity<Acc>{})`. A blocked plan wraps the
/// configured accumulator as the sparse side of a BlockedWorkspace.
template <Semiring SR, class I, class Bind>
void dispatch_workspace(const Config& config, bool blocked, Bind&& bind) {
  const auto with_marker = [&]<class Marker>(std::type_identity<Marker>) {
    const auto pick = [&]<class Acc>(std::type_identity<Acc>) {
      if (blocked) {
        bind(std::type_identity<BlockedWorkspace<SR, I, Marker, Acc>>{});
      } else {
        bind(std::type_identity<Acc>{});
      }
    };
    switch (config.accumulator) {
      case AccumulatorKind::kDense:
        return pick(std::type_identity<DenseAccumulator<SR, I, Marker>>{});
      case AccumulatorKind::kBitmap:
        return pick(std::type_identity<BitmapAccumulator<SR, I>>{});
      case AccumulatorKind::kHash:
        return pick(std::type_identity<HashAccumulator<SR, I, Marker>>{});
    }
    require(false, "plan: invalid accumulator kind");
  };
  switch (config.marker_width) {
    case MarkerWidth::k8:
      return with_marker(std::type_identity<std::uint8_t>{});
    case MarkerWidth::k16:
      return with_marker(std::type_identity<std::uint16_t>{});
    case MarkerWidth::k32:
      return with_marker(std::type_identity<std::uint32_t>{});
    case MarkerWidth::k64:
      return with_marker(std::type_identity<std::uint64_t>{});
  }
  require(false, "plan: invalid marker width");
}

/// The numeric phase (compute + compact) against a built plan, for the 1D
/// and the blocked driver. Trace spans are "spgemm.*" / "tile" on the 1D
/// path and "spgemmblk.*" / "tileblk" on the blocked one. Per-thread
/// workspaces come from `pool`, built and keyed by WorkspaceTraits<Acc>.
template <Semiring SR, class T, class I, class Acc>
Csr<T, I> planned_execute(const Plan<I>& plan, const Config& config,
                          const Csr<T, I>& mask, const Csr<T, I>& a,
                          const Csr<T, I>& b, WorkspacePool<Acc>& pool,
                          DriverBuffers<T, I>& buffers,
                          ExecutionStats* stats) {
  const bool blocked = plan.is_blocked();
  WallTimer phase;
  const int threads = config.threads > 0 ? config.threads : max_threads();

  buffers.ensure(static_cast<std::size_t>(mask.nnz()),
                 static_cast<std::size_t>(plan.rows), plan.cell_slots());
  pool.reserve(threads);

  set_runtime_schedule(config.schedule);
  const auto task_count = static_cast<std::int64_t>(
      plan.row_tiles.size() * plan.cells_per_row_tile());

  // Per-thread compute shares, indexed by OpenMP thread number and each
  // written once at region end: the measured load-imbalance signal next to
  // the model's predicted CV, and the accounting the stats sum.
  std::vector<ThreadWork> thread_work(static_cast<std::size_t>(threads));
  std::vector<TaskAccounting> accounting(static_cast<std::size_t>(threads));
  int team_size = threads;

  // First worker exception is captured here and rethrown after the join;
  // remaining tiles become no-ops. No exception may cross the region
  // boundary (that would be std::terminate under OpenMP).
  ParallelGuard guard;

  {
    TraceSpan compute_span(blocked ? "spgemmblk.compute" : "spgemm.compute");

#pragma omp parallel num_threads(threads)
    {
      const int thread_num = omp_get_thread_num();
#pragma omp single
      team_size = omp_get_num_threads();

      // A thread whose acquisition failed must still encounter the
      // worksharing loop below (OpenMP requires the whole team to meet the
      // same constructs), so failure leaves `acc` null and the loop bodies
      // become no-ops instead of the thread bailing out of the region.
      Acc* acc = nullptr;
      AccumulatorCounters at_entry;
      guard.run([&] {
        acc = &pool.acquire(
            thread_num, WorkspaceTraits<Acc>::capability(plan),
            [&] { return WorkspaceTraits<Acc>::make(plan, config); });
        at_entry = acc->counters();
      });
      // Saturated rows/cells re-run on a dense fallback with the same
      // marker type, built lazily on first degrade (most executes never
      // touch it).
      std::optional<typename FallbackAccumulator<Acc>::type> fallback;
      MetricCounters* const thread_counters = metrics_thread_counters();
      // Hardware counters for this thread's share of the region; inactive
      // (zero-cost) when metrics are off or perf_event_open failed.
      const PerfScope perf_scope(thread_counters != nullptr);
      TaskAccounting mine;
      WallTimer busy;

#pragma omp for schedule(runtime) nowait
      for (std::int64_t task = 0; task < task_count; ++task) {
        if (acc == nullptr || guard.cancelled()) {
          continue;  // cooperative cancellation: skip the body, not the loop
        }
        guard.run([&] {
          mine.add(run_tile_task<SR>(plan, config, mask, a, b, task, *acc,
                                     fallback, buffers));
        });
      }
      mine.busy_ms = busy.milliseconds();
      if (acc != nullptr) {
        mine.settle(*acc, at_entry, fallback);
      }
      if (thread_counters != nullptr) {
        mine.flush(*thread_counters);
        if (HwCounters* const hw = metrics_thread_hw()) {
          *hw += perf_scope.delta();
        }
      }
      if (thread_num >= 0 && thread_num < threads) {
        const auto slot = static_cast<std::size_t>(thread_num);
        thread_work[slot] = {thread_num, mine.busy_ms, mine.tiles, mine.rows};
        accounting[slot] = mine;
      }
    }
  }
  guard.rethrow_if_failed();
  if (stats != nullptr) {
    TaskAccounting team;
    for (const TaskAccounting& t : accounting) {
      team += t;
    }
    stats->compute_ms = phase.milliseconds();
    stats->tiles = task_count;
    team.write(*stats);
  }
  finalize_thread_work(std::move(thread_work), team_size, stats);

  // --- compact -----------------------------------------------------------
  phase.reset();
  TraceSpan compact_span(blocked ? "spgemmblk.compact" : "spgemm.compact");
  Csr<T, I> result = compact_planned(plan, mask, buffers, /*parallel=*/true);
  if (stats != nullptr) {
    stats->compact_ms = phase.milliseconds();
    stats->output_nnz = static_cast<std::int64_t>(result.nnz());
  }
  return result;
}

}  // namespace detail

/// Reusable execution engine: plan() runs the structure phase and binds the
/// accumulator dispatch once; execute() runs the numeric phase against
/// pooled per-thread workspaces. One Executor serves one operand structure
/// at a time; replanning (same Executor, new structure or config) keeps the
/// workspace pool warm whenever the accumulator type is unchanged.
template <Semiring SR, class T = typename SR::value_type,
          class I = std::int64_t>
class Executor {
 public:
  /// Structure phase. Config::mode selects the 1D or the blocked driver.
  void plan(const Csr<T, I>& mask, const Csr<T, I>& a, const Csr<T, I>& b,
            const Config& config = {}) {
    static_assert(std::is_same_v<T, typename SR::value_type>,
                  "matrix value type must match the semiring");
    WallTimer build;
    config_ = config;
    plan_ = detail::build_plan(mask, a, b, config);
    detail::dispatch_workspace<SR, I>(config_, plan_.is_blocked(),
                                      [this](auto tag) { bind_runner(tag); });
    plan_.info.build_ms = build.milliseconds();
    planned_ = true;
  }

  /// Numeric phase. Throws PreconditionError if no plan was built and
  /// StalePlanError if the operands' structure changed since plan().
  Csr<T, I> execute(const Csr<T, I>& mask, const Csr<T, I>& a,
                    const Csr<T, I>& b) {
    return execute_impl(mask, a, b, nullptr);
  }

  Csr<T, I> execute(const Csr<T, I>& mask, const Csr<T, I>& a,
                    const Csr<T, I>& b, ExecutionStats& stats) {
    return execute_impl(mask, a, b, &stats);
  }

  [[nodiscard]] bool planned() const noexcept { return planned_; }

  /// True when a plan exists and `mask`/`a`/`b` carry the planned
  /// structure (same fingerprint). The non-throwing form of the execute()
  /// staleness check.
  [[nodiscard]] bool matches(const Csr<T, I>& mask, const Csr<T, I>& a,
                             const Csr<T, I>& b) const noexcept {
    return planned_ &&
           detail::structural_fingerprint(mask, a, b) == plan_.info.fingerprint;
  }

  [[nodiscard]] const Plan<I>& plan_data() const noexcept { return plan_; }
  [[nodiscard]] const PlanInfo& info() const noexcept { return plan_.info; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Aggregated workspace-pool counters (zero until the first execute).
  [[nodiscard]] WorkspacePoolStats pool_stats() const {
    return pool_ ? pool_->stats() : WorkspacePoolStats{};
  }

  /// Driver-buffer growth count: flat across executes once warmed up.
  [[nodiscard]] std::uint64_t buffer_grows() const noexcept {
    return buffers_->grows;
  }

  /// Drops the plan and every pooled workspace.
  void reset() {
    plan_ = Plan<I>{};
    config_ = Config{};
    run_ = nullptr;
    pool_.reset();
    *buffers_ = detail::DriverBuffers<T, I>{};
    planned_ = false;
  }

 private:
  using Runner = std::function<Csr<T, I>(
      const Plan<I>&, const Config&, const Csr<T, I>&, const Csr<T, I>&,
      const Csr<T, I>&, detail::DriverBuffers<T, I>&, ExecutionStats*)>;

  Csr<T, I> execute_impl(const Csr<T, I>& mask, const Csr<T, I>& a,
                         const Csr<T, I>& b, ExecutionStats* stats) {
    require(planned_, "Executor::execute: no plan built — call plan() first");
    TraceSpan span("plan.execute");
    WallTimer verify;
    // The plan-fingerprint fault site corrupts this comparison, forcing the
    // staleness path without touching real operands.
    if (detail::structural_fingerprint(mask, a, b) != plan_.info.fingerprint ||
        fault::should_fire(FaultSite::kPlanFingerprint)) {
      throw StalePlanError(
          "Executor::execute: operand structure does not match the plan "
          "(rowptr/colidx fingerprint mismatch) — re-plan() after any "
          "sparsity change; only values may differ between executes");
    }
    if (stats != nullptr) {
      // The structure phase ran at plan() time; what is left of "analyze"
      // per execute is the staleness check.
      stats->analyze_ms = verify.milliseconds();
    }
    return run_(plan_, config_, mask, a, b, *buffers_, stats);
  }

  /// Binds the runner for workspace type `Acc`, reusing the pool when a
  /// replan keeps the same type.
  template <class Acc>
  void bind_runner(std::type_identity<Acc>) {
    auto pool = std::dynamic_pointer_cast<WorkspacePool<Acc>>(pool_);
    if (pool == nullptr) {
      pool = std::make_shared<WorkspacePool<Acc>>();
      pool_ = pool;
    }
    run_ = [pool](const Plan<I>& plan, const Config& config,
                  const Csr<T, I>& mask, const Csr<T, I>& a,
                  const Csr<T, I>& b, detail::DriverBuffers<T, I>& buffers,
                  ExecutionStats* stats) {
      return detail::planned_execute<SR>(plan, config, mask, a, b, *pool,
                                         buffers, stats);
    };
  }

  Plan<I> plan_{};
  Config config_{};
  Runner run_;
  std::shared_ptr<WorkspacePoolBase> pool_;
  std::shared_ptr<detail::DriverBuffers<T, I>> buffers_ =
      std::make_shared<detail::DriverBuffers<T, I>>();
  bool planned_ = false;
};

/// Plan-reuse convenience for iterative algorithms: execute() replans
/// automatically when the operand structure or the config changes and runs
/// the cached plan otherwise. Replans keep the workspace pool warm (same
/// accumulator type => zero reallocation), which is exactly the k-truss /
/// BFS-loop pattern where the matrix shrinks every few iterations.
template <Semiring SR, class T = typename SR::value_type,
          class I = std::int64_t>
class PlanCache {
 public:
  Csr<T, I> execute(const Csr<T, I>& mask, const Csr<T, I>& a,
                    const Csr<T, I>& b, const Config& config = {}) {
    return execute_impl(mask, a, b, config, nullptr);
  }

  Csr<T, I> execute(const Csr<T, I>& mask, const Csr<T, I>& a,
                    const Csr<T, I>& b, const Config& config,
                    ExecutionStats& stats) {
    return execute_impl(mask, a, b, config, &stats);
  }

  [[nodiscard]] const Executor<SR, T, I>& executor() const noexcept {
    return exec_;
  }
  [[nodiscard]] std::uint64_t replans() const noexcept { return replans_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }

 private:
  Csr<T, I> execute_impl(const Csr<T, I>& mask, const Csr<T, I>& a,
                         const Csr<T, I>& b, const Config& config,
                         ExecutionStats* stats) {
    if (!exec_.planned() || !(exec_.config() == config) ||
        !exec_.matches(mask, a, b)) {
      exec_.plan(mask, a, b, config);
      ++replans_;
    } else {
      ++hits_;
    }
    return stats != nullptr ? exec_.execute(mask, a, b, *stats)
                            : exec_.execute(mask, a, b);
  }

  Executor<SR, T, I> exec_;
  std::uint64_t replans_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace tilq
