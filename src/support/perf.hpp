// Hardware performance counters via Linux perf_event_open, the attribution
// layer underneath the software event counters (support/metrics.hpp).
//
// Why: the paper's three design dimensions are memory-system stories — the
// Fig 10/11 tiling wins come from cache residency and load balance, the
// Fig 13 marker widths trade reset sweeps against accumulator footprint —
// but software counters can only count algorithmic events, not explain
// where cycles go. Cycles, instructions, LLC loads/misses, branch misses
// and stalled cycles close that gap, the same way the KNL/many-core SpGEMM
// studies attribute their kernels with cache/bandwidth counters.
//
// Design:
//   * One perf event *group* per thread (leader: cycles), opened lazily on
//     the thread's first PerfScope and counting continuously; a scope is
//     two group reads (construction and delta()), so nesting and per-span
//     attribution are cheap.
//   * Counters the kernel/PMU rejects are skipped individually; a group
//     that cannot be scheduled at all (or a failing perf_event_open — CI
//     containers, perf_event_paranoid, non-Linux) degrades to "perf
//     unavailable": every scope becomes a no-op and at most ONE one-line
//     notice is printed, and only when metrics are runtime-enabled
//     (TILQ_METRICS). Silence is the contract — never per-scope warnings.
//   * Values are scaled by time_enabled/time_running when the kernel
//     multiplexed the group, the standard correction.
//
// The instrumentation shares the TILQ_METRICS_ENABLED compile gate with
// the rest of the observability layer: a TILQ_METRICS=OFF build compiles
// every function here to a no-op returning zeros.
//
// Environment: TILQ_PERF=0/off/false disables the counters outright (the
// fallback path without a syscall attempt); unset or any other value lets
// the first open decide. set_perf_enabled() is the runtime override.
#pragma once

#include <cstdint>

#include "support/counter_table.hpp"

// Same compile-time gate as support/metrics.hpp (which includes this header
// for HwCounters, so the gate default is replicated instead of included).
#ifndef TILQ_METRICS_ENABLED
#define TILQ_METRICS_ENABLED 1
#endif

namespace tilq {

/// The hardware counter table: one X(name, help) row per HwCounters
/// field, in perf group slot order (perf.cpp's Slot enum; the leader
/// first). Fields and the `hw` JSON record object expand from it, as for
/// TILQ_METRIC_COUNTERS.
#define TILQ_HW_COUNTERS(X)                                        \
  X(cycles, "CPU cycles (group leader)")                           \
  X(instructions, "retired instructions")                          \
  X(llc_loads, "last-level-cache read accesses")                   \
  X(llc_misses, "last-level-cache read misses")                    \
  X(branch_misses, "mispredicted branches")                        \
  X(stalled_cycles, "cycles with no issue (backend, or frontend "  \
                    "where backend is absent)")

/// One reading (or delta) of the hardware counter group. A field the PMU
/// could not provide stays 0; `all_zero()` distinguishes "no data at all"
/// (perf unavailable) from a real reading, since the leader never reads 0
/// across a non-empty measured region. Documented field-by-field in
/// docs/METRICS.md (machine-checked by tools/check_metrics_docs.py).
struct HwCounters {
  TILQ_COUNTER_MEMBERS(HwCounters, TILQ_HW_COUNTERS)
};

/// Pure classifier for the TILQ_PERF environment value: true for the
/// disabling spellings ("0", "off", "false", case-insensitive). Exposed
/// for tests; nullptr (unset) does not disable.
[[nodiscard]] bool perf_env_disables(const char* value) noexcept;

#if TILQ_METRICS_ENABLED

/// True when THIS thread can read hardware counters. The first call on
/// each thread opens the thread's group; the first failure anywhere marks
/// perf unavailable process-wide so no other thread retries or warns.
[[nodiscard]] bool perf_available() noexcept;

/// Runtime override: false forces every subsequent PerfScope inactive
/// without touching already-open groups; true re-allows opening (subject
/// to the hardware actually cooperating). Tests use this to exercise the
/// fallback path deterministically.
void set_perf_enabled(bool enabled) noexcept;

/// Number of "hardware counters unavailable" notices printed so far —
/// 0 or 1 by contract, never one per scope. Exposed for the env test.
[[nodiscard]] int perf_unavailable_notices() noexcept;

/// Cumulative reading of this thread's group (zeros when unavailable).
[[nodiscard]] HwCounters perf_read_thread() noexcept;

/// RAII-style delta reader: snapshots this thread's group at construction;
/// delta() returns the events since then. Inactive scopes (perf or the
/// `enable` argument off) cost one branch and return zeros.
class PerfScope {
 public:
  explicit PerfScope(bool enable = true) noexcept {
    if (enable && perf_available()) {
      active_ = true;
      start_ = perf_read_thread();
    }
  }

  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Events on this thread since construction (zeros when inactive).
  [[nodiscard]] HwCounters delta() const noexcept {
    return active_ ? perf_read_thread().minus(start_) : HwCounters{};
  }

 private:
  HwCounters start_;
  bool active_ = false;
};

#else  // !TILQ_METRICS_ENABLED — hardware counting is compiled out.

[[nodiscard]] constexpr bool perf_available() noexcept { return false; }
inline void set_perf_enabled(bool) noexcept {}
[[nodiscard]] constexpr int perf_unavailable_notices() noexcept { return 0; }
[[nodiscard]] inline HwCounters perf_read_thread() noexcept { return {}; }

class PerfScope {
 public:
  explicit PerfScope(bool = true) noexcept {}
  [[nodiscard]] bool active() const noexcept { return false; }
  [[nodiscard]] HwCounters delta() const noexcept { return {}; }
};

#endif  // TILQ_METRICS_ENABLED

}  // namespace tilq
