// Kernel observability: process-wide, per-thread event counters with a
// versioned JSON-lines sink (docs/METRICS.md is the schema reference).
//
// Why counters and not just timers: the paper's explanations of its own
// figures — FLOP imbalance across tiles (Fig 10/11), hash-probe cost and
// marker-reset storms (Fig 13), binary-search work in the co-iteration
// kernel (Fig 14) — are all statements about *event counts*, not wall
// time. This module makes those counts observable from any run.
//
// Design:
//   * Counting is compiled in only when TILQ_METRICS_ENABLED is 1 (the
//     default; the CMake option TILQ_METRICS=OFF turns every hook into a
//     no-op with zero code in the hot paths).
//   * When compiled in, counting is still gated at run time by the
//     TILQ_METRICS environment variable (or set_metrics_enabled()); the
//     gate is a single relaxed bool read, checked once per row/tile, so a
//     disabled-at-runtime build stays within noise of the seed.
//   * Each thread owns a MetricCounters slot (registered on first use,
//     leaked on purpose so late aggregation never dereferences a dead
//     thread's storage). Hot code batches increments locally and flushes
//     per row or per tile; metrics_snapshot() sums the slots.
//
// Thread-safety contract: increments are plain (non-atomic) writes to the
// owning thread's slot. metrics_snapshot() / metrics_reset() must not be
// called concurrently with a running kernel; call them between kernel
// invocations (every in-tree caller does).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#ifndef TILQ_METRICS_ENABLED
#define TILQ_METRICS_ENABLED 1
#endif

#include "support/counter_table.hpp"
#include "support/perf.hpp"  // HwCounters ride along with the thread slots

namespace tilq {

/// Version of the metrics schema (counter set + JSON-lines layout). Bump
/// when a counter is renamed/removed or the record layout changes; adding
/// a counter is backward compatible and does not bump the version.
/// v2: added the nullable `hw` and `imbalance` record objects and the
/// busy-time counter. v3: added the batch-engine counters
/// (docs/CONCURRENCY.md), later extended compatibly with the serving
/// counters and the nullable `engine_latency` object (docs/SERVING.md),
/// the telemetry, resilience and online-tuning counters
/// (docs/TELEMETRY.md, docs/ROBUSTNESS.md, docs/TUNING.md).
inline constexpr int kMetricsSchemaVersion = 3;

/// True when the counter hooks are compiled into this build (CMake option
/// TILQ_METRICS). When false every function below is an inline no-op.
inline constexpr bool kMetricsCompiled = TILQ_METRICS_ENABLED != 0;

/// The counter table: one X(name, help) row per MetricCounters field, in
/// record order, with `help` the Prometheus HELP text. The struct fields,
/// their arithmetic, the JSON record (`counters` object), the Prometheus
/// exporter (`tilq_<name>` series) and the doc lint
/// (tools/check_metrics_docs.py) all expand from these rows, so adding a
/// counter is one line here plus its docs/METRICS.md row.
#define TILQ_METRIC_COUNTERS(X)                                                \
  X(flops, "semiring multiplications performed")                               \
  X(accum_inserts, "accumulator inserts inside the mask")                      \
  X(accum_rejects, "accumulator probes outside the mask")                      \
  X(hash_probes, "hash probe-chain steps past the home slot")                  \
  X(hash_collisions, "hash insertions that needed chain steps")                \
  X(marker_row_resets, "marker-policy per-row epoch bumps")                    \
  X(marker_overflow_resets, "whole-state clears on marker overflow")           \
  X(explicit_reset_slots, "slots cleared by explicit resets")                  \
  X(accum_rehashes, "hash grow-and-rehash saturation responses")               \
  X(accum_degrades, "rows escalated to the dense fallback")                    \
  X(binary_search_steps, "halving steps in co-iteration searches")             \
  X(hybrid_coiter_picks, "pairs where hybrid chose co-iteration")              \
  X(hybrid_linear_picks, "pairs where hybrid chose linear scan")               \
  X(blocked_dense_picks, "blocked tile tasks run on the dense accumulator")    \
  X(blocked_sparse_picks, "blocked tile tasks run on the sparse accumulator")  \
  X(tiles_created, "tiles produced by the tilers")                             \
  X(tiles_executed, "tiles processed in compute phases")                       \
  X(rows_processed, "output rows computed")                                    \
  X(busy_ns, "compute-loop busy wall time in nanoseconds")                     \
  X(engine_jobs, "batch-engine jobs completed")                                \
  X(engine_job_ns, "total submit-to-done job latency in nanoseconds")          \
  X(engine_queue_ns, "total submit-to-first-task wait in nanoseconds")         \
  X(engine_queue_depth, "in-flight jobs summed over submits")                  \
  X(engine_tasks, "tile tasks run on engine pool workers")                     \
  X(engine_steals, "engine tasks taken from another worker")                   \
  X(engine_jobs_shed, "expensive jobs refused at the shed bound")              \
  X(engine_jobs_deferred, "expensive jobs demoted to the background lane")     \
  X(engine_jobs_expensive, "admitted jobs the cost model priced expensive")    \
  X(engine_deadline_misses, "jobs cancelled past their deadline")              \
  X(engine_jobs_stuck, "in-flight jobs flagged by the watchdog")               \
  X(engine_retries, "retry attempts (auto-replan and degraded-config)")        \
  X(engine_brownouts, "memory-governor transitions into brownout")             \
  X(engine_telemetry_samples, "telemetry sampler ticks taken")                 \
  X(autotune_explorations, "bandit draws that served a non-best arm")          \
  X(autotune_arm_switches, "fingerprints whose best arm changed")              \
  X(autotune_converged, "fingerprints frozen onto their best arm")

/// The full counter set. One instance per thread; aggregate via
/// metrics_snapshot(). Every field is documented in docs/METRICS.md.
struct MetricCounters {
  TILQ_COUNTER_MEMBERS(MetricCounters, TILQ_METRIC_COUNTERS)
};

/// One thread's contribution. Thread ids are assigned in registration
/// order (first counter touched), not OpenMP thread numbers. `hw` carries
/// the thread's hardware-counter deltas (support/perf.hpp) when the
/// drivers could read them; all-zero otherwise.
struct ThreadMetrics {
  int thread_id = 0;
  MetricCounters counters;
  HwCounters hw;
};

/// Aggregate view over every registered thread. `hw_total.all_zero()`
/// means no hardware data was collected (perf unavailable or disabled) —
/// the JSON record then carries an explicit `"hw":null`.
struct MetricsSnapshot {
  MetricCounters total;
  HwCounters hw_total;
  std::vector<ThreadMetrics> per_thread;
};

/// The serving engine's latency-percentile block, serialized as the
/// nullable `engine_latency` record object (every key inside it carries
/// the `engine_latency_` prefix; docs/SERVING.md has the field glossary).
/// `present == false` — the default — emits `"engine_latency":null`, the
/// same nullable-object convention as `hw` and `imbalance`.
struct EngineLatencyRecord {
  bool present = false;
  std::uint64_t jobs = 0;      ///< completed jobs the percentiles cover
  double p50_ms = 0.0;         ///< submit-to-done latency percentiles
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double queue_p50_ms = 0.0;   ///< submit-to-first-task wait percentiles
  double queue_p99_ms = 0.0;
  double run_p50_ms = 0.0;     ///< first-task-to-done execute percentiles
  double run_p99_ms = 0.0;
};

/// One JSON-lines record; see docs/METRICS.md for the field-by-field
/// schema. `snapshot` should be a delta covering exactly `runs` kernel
/// executions.
struct MetricsRecord {
  std::string source;      ///< emitting binary or bench name
  std::string matrix;      ///< input identity (collection name or file)
  std::string config;      ///< Config::describe() of the measured config
  std::int64_t runs = 0;   ///< kernel executions covered by the counters
  double median_ms = 0.0;  ///< median per-run wall time
  EngineLatencyRecord engine_latency;  ///< null unless a serving bench fills it
};

#if TILQ_METRICS_ENABLED

namespace metrics_detail {
/// Fast-path runtime gate; initialized from the TILQ_METRICS environment
/// variable, overridable via set_metrics_enabled().
extern bool g_runtime_enabled;
/// Returns this thread's registered slot, creating it on first use.
[[nodiscard]] MetricCounters& thread_slot();
/// Hardware-counter slot riding along with the same registration.
[[nodiscard]] HwCounters& thread_hw_slot();
}  // namespace metrics_detail

/// True when counting is active (compiled in AND runtime-enabled).
[[nodiscard]] inline bool metrics_enabled() noexcept {
  return metrics_detail::g_runtime_enabled;
}

/// This thread's counter slot, or nullptr when counting is inactive. Hot
/// code fetches the pointer once per row/tile/region and batches into it.
[[nodiscard]] inline MetricCounters* metrics_thread_counters() {
  return metrics_enabled() ? &metrics_detail::thread_slot() : nullptr;
}

/// This thread's hardware-delta slot, or nullptr when counting is
/// inactive. The drivers add their PerfScope deltas here so hardware
/// readings flow through the same snapshot/delta/record machinery as the
/// software counters.
[[nodiscard]] inline HwCounters* metrics_thread_hw() {
  return metrics_enabled() ? &metrics_detail::thread_hw_slot() : nullptr;
}

/// Runtime on/off switch (overrides the TILQ_METRICS environment variable).
void set_metrics_enabled(bool enabled) noexcept;

/// Zeroes every registered thread slot.
void metrics_reset() noexcept;

/// Sums every registered thread slot. Threads whose counters are all zero
/// are omitted from `per_thread`.
[[nodiscard]] MetricsSnapshot metrics_snapshot();

/// Where emit_metrics_record() writes: "" means stdout, anything else is a
/// file path opened in append mode. Initialized from the TILQ_METRICS
/// value when it names a path (see docs/METRICS.md).
void set_metrics_sink_path(const std::string& path);
[[nodiscard]] std::string metrics_sink_path();

/// Serializes `record` + `snapshot` as one JSON line (schema version
/// kMetricsSchemaVersion) and writes it to the sink. No-op when metrics
/// are runtime-disabled.
void emit_metrics_record(const MetricsRecord& record,
                         const MetricsSnapshot& snapshot);

/// The JSON line emit_metrics_record() would write (exposed for tests).
[[nodiscard]] std::string format_metrics_record(const MetricsRecord& record,
                                                const MetricsSnapshot& snapshot);

#else  // !TILQ_METRICS_ENABLED — every hook is a no-op.

[[nodiscard]] constexpr bool metrics_enabled() noexcept { return false; }
[[nodiscard]] inline MetricCounters* metrics_thread_counters() noexcept {
  return nullptr;
}
[[nodiscard]] inline HwCounters* metrics_thread_hw() noexcept {
  return nullptr;
}
inline void set_metrics_enabled(bool) noexcept {}
inline void metrics_reset() noexcept {}
[[nodiscard]] inline MetricsSnapshot metrics_snapshot() { return {}; }
inline void set_metrics_sink_path(const std::string&) {}
[[nodiscard]] inline std::string metrics_sink_path() { return {}; }
inline void emit_metrics_record(const MetricsRecord&, const MetricsSnapshot&) {}
[[nodiscard]] inline std::string format_metrics_record(const MetricsRecord&,
                                                       const MetricsSnapshot&) {
  return {};
}

#endif  // TILQ_METRICS_ENABLED

/// Delta between two snapshots taken around a measured region: totals and
/// per-thread contributions (matched by thread id; threads registered
/// after `before` count from zero). Works in both build modes.
[[nodiscard]] MetricsSnapshot metrics_delta(const MetricsSnapshot& before,
                                            const MetricsSnapshot& after);

}  // namespace tilq
