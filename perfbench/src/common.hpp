// Shared pieces of the benchmark program: options, the result record, the
// span recorder, input generation and the bit-for-bit output check.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tilq/tilq.hpp"

namespace perfbench {

using SR = tilq::PlusTimes<double>;
using Matrix = tilq::GraphMatrix;

/// Command-line options, as run.py passes them.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// engine_open: the p90 latency limit a ladder rate must meet.
  double p90_limit_ms = 0.0;
  /// Where the traced run writes its span file ("" = nowhere).
  std::string trace_path;
  int threads = 1;  ///< hardware threads (nproc)
};

/// One named metric of the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the query accounting and the
/// metrics of the mode it ran in (end-to-end or per-layer).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< errors, rejections, sheds, misses
  std::uint64_t mismatches = 0;  ///< outputs that differ from the reference
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Milliseconds on the steady clock since an arbitrary fixed origin.
inline double now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// The benchmark's span recorder: spans live in memory and are written out
/// as a Chrome trace when the run ends. Only the single driving thread
/// records, so no synchronisation is needed. Disabled recorders record
/// nothing.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start_ms;
    double end_ms;
    int parent;             ///< index of the enclosing span, -1 at the root
    std::uint64_t request;  ///< spans of one query share this id
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int open(const char* name, std::uint64_t request, int parent = -1) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back({name, now_ms(), 0.0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Closes span `index` and returns its duration in ms (0 when disabled).
  double close(int index) {
    if (index < 0) {
      return 0.0;
    }
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ms = now_ms();
    return s.end_ms - s.start_ms;
  }

  /// Records a span with explicit times; close() may end it later. An
  /// open-loop query's span starts at its due time, not when the generator
  /// got to it.
  int record(const char* name, double start_ms, double end_ms,
             std::uint64_t request, int parent = -1) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back({name, start_ms, end_ms, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Writes the spans as Chrome-trace JSON; returns false on an I/O error.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII form of Tracer::open/close.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint64_t request,
            int parent = -1)
      : tracer_(tracer), index_(tracer.open(name, request, parent)) {}
  ~SpanScope() { tracer_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] int index() const noexcept { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

/// Generates collection graph `name` at `scale` from `seed`, and replaces
/// its unit values with seeded values in [0.5, 1.5) so the bit-for-bit
/// check also covers floating-point summation order.
Matrix make_input(const std::string& name, double scale, std::uint64_t seed);

/// Bit-for-bit equality of two outputs: shapes, then memcmp over
/// row_ptr, col_idx and values.
bool same_bits(const Matrix& x, const Matrix& y);

/// Bytes of one matrix's CSR arrays.
double csr_bytes(const Matrix& m);

/// Derives an independent stream seed from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Median of the values (nearest rank); 0 for an empty list.
double median_or_zero(const std::vector<double>& values);

/// Counter deltas of one traced interval, turned into the accumulator and
/// kernel per-layer metrics, per query. `static_bytes` is the summed CSR
/// size of the operand and the output over those queries: the computed
/// bytes of a query count its operand (A = M = B) and its output once and
/// one B entry per multiplication — a model from array sizes, not a
/// measurement of memory traffic.
void add_counter_metrics(Result& r, const tilq::MetricCounters& d,
                         double queries, double static_bytes);

// The three workloads (one translation unit each).
Result run_warm_kernel(const Options& options);
Result run_cold_oneshot(const Options& options);
Result run_engine_open(const Options& options);

}  // namespace perfbench
