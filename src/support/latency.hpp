// Fixed-bucket log-scale latency histogram — the serving engine's
// percentile aggregation (docs/SERVING.md). Latency distributions under
// mixed load are heavy-tailed, which is exactly what makes a mean (or the
// additive engine_job_ns counter) misleading: one circuit-sized query
// moves the mean by more than a thousand road-sized ones. Percentiles are
// the SLO currency, but exact percentiles need every sample; this
// histogram trades a bounded relative error for O(1) space and a
// wait-free record path safe to call from every pool worker concurrently.
//
// Bucket layout: one underflow bucket for zero, exact unit-wide buckets
// for 1..3 ns (octaves narrower than the sub-bucket grid), then
// kSubBuckets geometric sub-buckets per power of two of nanoseconds.
// With 4 sub-buckets a bucket spans at most 1/4 of its octave, so a
// reported quantile (the upper edge of the bucket holding the target
// rank, clamped to the recorded max) is within +25% of the true sample
// and never above the largest one — tests/latency_test.cpp pins both
// bounds against a sorted-vector oracle. 42 octaves cover ~1 ns to
// ~73 minutes; anything beyond saturates into the last bucket.
//
// Thread-safety: record_ns()/record_ms() are wait-free relaxed atomic
// increments, callable from any thread at any time. quantile_ms() and
// summary() read the buckets without synchronization — concurrent with
// recording they see a consistent-enough snapshot (each counter is
// atomic; cross-bucket skew only perturbs ranks by in-flight samples).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

namespace tilq {

/// Value snapshot of a histogram's percentiles (EngineStats, CLI output).
/// All times in milliseconds; `count` is the number of recorded samples
/// (all other fields are 0 when it is 0).
struct LatencySummary {
  std::uint64_t count = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
};

class LatencyHistogram {
 public:
  /// Geometric sub-buckets per power of two; 4 bounds the quantile
  /// overshoot at +25% of the true sample.
  static constexpr int kSubBuckets = 4;
  /// Powers of two of nanoseconds covered before saturation (~73 min).
  static constexpr int kOctaves = 42;
  /// First octave wide enough for the sub-bucket grid (base/kSubBuckets
  /// >= 1); values below its base get exact unit-wide buckets instead.
  static constexpr int kFirstSplitOctave = 2;  // log2(kSubBuckets)
  /// Bucket 0 holds zero-valued samples, buckets 1..3 the unit range,
  /// and the rest the sub-bucketed octave grid — a gap-free, strictly
  /// increasing partition of the uint64 nanosecond axis.
  static constexpr int kBucketCount =
      1 + ((1 << kFirstSplitOctave) - 1) +
      (kOctaves - kFirstSplitOctave) * kSubBuckets;

  /// Plain-value snapshot of the bucket counters — the baseline a windowed
  /// reader (the telemetry sampler, docs/TELEMETRY.md) carries between
  /// snapshot_delta() calls. Default-constructed it is the zero baseline,
  /// so the first delta covers the histogram's whole history.
  struct Counts {
    std::array<std::uint64_t, kBucketCount> buckets{};
    std::uint64_t sum_ns = 0;
  };

  void record_ms(double ms) noexcept {
    record_ns(ms <= 0.0 ? 0 : static_cast<std::uint64_t>(ms * 1e6));
  }

  void record_ns(std::uint64_t ns) noexcept {
    counts_[static_cast<std::size_t>(bucket_index(ns))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
    while (ns > seen &&
           !max_ns_.compare_exchange_weak(seen, ns,
                                          std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  /// The q-quantile (q in [0, 1]) as the upper edge of the bucket holding
  /// the nearest-rank sample, clamped to the recorded max: never below the
  /// true sample, at most +25% above it (the kSubBuckets bound), and never
  /// above anything observed. 0 when the histogram is empty.
  [[nodiscard]] double quantile_ms(double q) const noexcept {
    const std::uint64_t n = count();
    if (n == 0) {
      return 0.0;
    }
    const std::uint64_t max_ns = max_ns_.load(std::memory_order_relaxed);
    const double scaled = q * static_cast<double>(n);
    std::uint64_t rank = static_cast<std::uint64_t>(scaled);
    if (static_cast<double>(rank) < scaled) {
      ++rank;  // ceil(q * n): nearest-rank quantile
    }
    rank = rank == 0 ? 1 : (rank > n ? n : rank);
    std::uint64_t cumulative = 0;
    for (int i = 0; i < kBucketCount; ++i) {
      cumulative +=
          counts_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
      if (cumulative >= rank) {
        return static_cast<double>(std::min(bucket_upper_ns(i), max_ns)) /
               1e6;
      }
    }
    return static_cast<double>(max_ns) / 1e6;
  }

  [[nodiscard]] double max_ms() const noexcept {
    return static_cast<double>(max_ns_.load(std::memory_order_relaxed)) / 1e6;
  }

  [[nodiscard]] double mean_ms() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(
                        sum_ns_.load(std::memory_order_relaxed)) /
                        (1e6 * static_cast<double>(n));
  }

  [[nodiscard]] LatencySummary summary() const noexcept {
    LatencySummary s;
    s.count = count();
    s.p50_ms = quantile_ms(0.50);
    s.p95_ms = quantile_ms(0.95);
    s.p99_ms = quantile_ms(0.99);
    s.max_ms = max_ms();
    s.mean_ms = mean_ms();
    return s;
  }

  /// Relaxed snapshot of the current bucket counters. Buckets only ever
  /// grow, so a snapshot taken earlier is bucket-wise <= one taken later —
  /// the invariant snapshot_delta() subtracts on.
  [[nodiscard]] Counts counts() const noexcept {
    Counts c;
    for (int i = 0; i < kBucketCount; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      c.buckets[idx] = counts_[idx].load(std::memory_order_relaxed);
    }
    c.sum_ns = sum_ns_.load(std::memory_order_relaxed);
    return c;
  }

  /// Windowed percentiles: the summary of only the samples recorded since
  /// `since` was last updated, after which `since` advances to the current
  /// totals. Merge-based and reset-free — recorders are never touched, so
  /// the sampler can never race them: a concurrent record_ns() lands in
  /// either this window or the next, never in both and never lost. The
  /// window max is the upper edge of its highest occupied bucket (the
  /// exact max_ns_ counter cannot be windowed), so it obeys the same +25%
  /// bound as the quantiles. Not reentrant per `since` baseline: each
  /// concurrent reader must own its own Counts.
  [[nodiscard]] LatencySummary snapshot_delta(Counts& since) const noexcept {
    const Counts now = counts();
    std::array<std::uint64_t, kBucketCount> delta{};
    std::uint64_t n = 0;
    int highest = -1;
    for (int i = 0; i < kBucketCount; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      delta[idx] = now.buckets[idx] - since.buckets[idx];
      n += delta[idx];
      if (delta[idx] > 0) {
        highest = i;
      }
    }
    LatencySummary s;
    s.count = n;
    if (n > 0) {
      s.p50_ms = delta_quantile_ms(delta, n, 0.50);
      s.p95_ms = delta_quantile_ms(delta, n, 0.95);
      s.p99_ms = delta_quantile_ms(delta, n, 0.99);
      s.max_ms = static_cast<double>(bucket_upper_ns(highest)) / 1e6;
      // sum_ns_ and the buckets are separate relaxed counters, so under
      // concurrent recording the sum delta can momentarily disagree with
      // the bucket delta by in-flight samples; saturate instead of
      // wrapping.
      const std::uint64_t sum =
          now.sum_ns >= since.sum_ns ? now.sum_ns - since.sum_ns : 0;
      s.mean_ms = static_cast<double>(sum) / (1e6 * static_cast<double>(n));
    }
    since = now;
    return s;
  }

  /// Folds another histogram's buckets into this one (aggregation across
  /// engines; percentiles merge exactly because the grid is shared).
  void merge(const LatencyHistogram& other) noexcept {
    for (int i = 0; i < kBucketCount; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      counts_[idx].fetch_add(other.counts_[idx].load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    }
    count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    sum_ns_.fetch_add(other.sum_ns_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    const std::uint64_t other_max =
        other.max_ns_.load(std::memory_order_relaxed);
    std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
    while (other_max > seen &&
           !max_ns_.compare_exchange_weak(seen, other_max,
                                          std::memory_order_relaxed)) {
    }
  }

  /// Grid position of a nanosecond value: bucket 0 for zero, the value
  /// itself below the first split octave (unit-wide buckets), then
  /// (octave, sub-bucket) with sub = the top kSubBuckets-worth of
  /// mantissa bits; values past the last octave saturate.
  [[nodiscard]] static constexpr int bucket_index(std::uint64_t ns) noexcept {
    if (ns < (std::uint64_t{1} << kFirstSplitOctave)) {
      return static_cast<int>(ns);  // 0 is the underflow bucket
    }
    const int octave = static_cast<int>(std::bit_width(ns)) - 1;
    if (octave >= kOctaves) {
      return kBucketCount - 1;
    }
    const std::uint64_t base = std::uint64_t{1} << octave;
    const int sub = static_cast<int>(
        ((ns - base) * static_cast<std::uint64_t>(kSubBuckets)) >> octave);
    return 1 + ((1 << kFirstSplitOctave) - 1) +
           (octave - kFirstSplitOctave) * kSubBuckets + sub;
  }

  /// Inclusive upper edge of a bucket — what quantile_ms() reports up to
  /// the recorded max, so quantiles err high (conservative for SLO
  /// checks), never low.
  [[nodiscard]] static constexpr std::uint64_t bucket_upper_ns(
      int index) noexcept {
    constexpr int kUnitBuckets = (1 << kFirstSplitOctave) - 1;
    if (index <= kUnitBuckets) {
      return index <= 0 ? 0 : static_cast<std::uint64_t>(index);
    }
    const int grid = index - 1 - kUnitBuckets;
    const int octave = kFirstSplitOctave + grid / kSubBuckets;
    const int sub = grid % kSubBuckets;
    const std::uint64_t base = std::uint64_t{1} << octave;
    const std::uint64_t step =
        base / static_cast<std::uint64_t>(kSubBuckets);
    return base + static_cast<std::uint64_t>(sub + 1) * step - 1;
  }

 private:
  /// Nearest-rank quantile over a plain bucket-delta array — quantile_ms()
  /// restated for windowed counts.
  [[nodiscard]] static double delta_quantile_ms(
      const std::array<std::uint64_t, kBucketCount>& delta, std::uint64_t n,
      double q) noexcept {
    const double scaled = q * static_cast<double>(n);
    std::uint64_t rank = static_cast<std::uint64_t>(scaled);
    if (static_cast<double>(rank) < scaled) {
      ++rank;
    }
    rank = rank == 0 ? 1 : (rank > n ? n : rank);
    std::uint64_t cumulative = 0;
    for (int i = 0; i < kBucketCount; ++i) {
      cumulative += delta[static_cast<std::size_t>(i)];
      if (cumulative >= rank) {
        return static_cast<double>(bucket_upper_ns(i)) / 1e6;
      }
    }
    return 0.0;
  }

  std::array<std::atomic<std::uint64_t>, kBucketCount> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

}  // namespace tilq
