// LatencyHistogram tests: the bucket math (index/upper-edge round trip),
// and the quantile exactness bound — a reported quantile is never below
// the true nearest-rank sample and at most +25% above it (the kSubBuckets
// guarantee docs/SERVING.md relies on), pinned against a sorted-vector
// oracle over adversarial and randomized sample sets.
#include "support/latency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "support/rng.hpp"

namespace tilq {
namespace {

/// Exact nearest-rank quantile of a sample set, the definition
/// quantile_ms() approximates: the smallest sample whose rank reaches
/// ceil(q * n).
double oracle_quantile_ms(std::vector<std::uint64_t> ns, double q) {
  std::sort(ns.begin(), ns.end());
  const double scaled = q * static_cast<double>(ns.size());
  auto rank = static_cast<std::size_t>(std::ceil(scaled));
  rank = std::clamp<std::size_t>(rank, 1, ns.size());
  return static_cast<double>(ns[rank - 1]) / 1e6;
}

/// The histogram's contract versus the oracle: never below, at most +25%
/// (plus one absolute nanosecond for the integer bucket edges), and never
/// above the largest recorded sample.
void expect_within_bound(const LatencyHistogram& hist,
                         const std::vector<std::uint64_t>& samples, double q) {
  const double oracle = oracle_quantile_ms(samples, q);
  const double reported = hist.quantile_ms(q);
  EXPECT_GE(reported, oracle) << "q=" << q;
  EXPECT_LE(reported, oracle * 1.25 + 1e-6) << "q=" << q;
  EXPECT_LE(reported, hist.max_ms()) << "q=" << q;
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  const LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.quantile_ms(0.5), 0.0);
  EXPECT_EQ(hist.max_ms(), 0.0);
  EXPECT_EQ(hist.mean_ms(), 0.0);
  const LatencySummary summary = hist.summary();
  EXPECT_EQ(summary.count, 0u);
  EXPECT_EQ(summary.p99_ms, 0.0);
}

TEST(LatencyHistogramTest, BucketIndexRoundTripsThroughUpperEdge) {
  // Every bucket's upper edge must map back into that bucket, and the
  // value one past it into a later bucket — the grid has no gaps or
  // overlaps.
  for (int index = 0; index < LatencyHistogram::kBucketCount - 1; ++index) {
    const std::uint64_t upper = LatencyHistogram::bucket_upper_ns(index);
    EXPECT_EQ(LatencyHistogram::bucket_index(upper), index) << upper;
    EXPECT_GT(LatencyHistogram::bucket_index(upper + 1), index) << upper;
  }
}

TEST(LatencyHistogramTest, BucketEdgesAreStrictlyIncreasing) {
  for (int index = 1; index < LatencyHistogram::kBucketCount; ++index) {
    EXPECT_GT(LatencyHistogram::bucket_upper_ns(index),
              LatencyHistogram::bucket_upper_ns(index - 1));
  }
}

TEST(LatencyHistogramTest, ExtremesSaturateSafely) {
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(1), 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(~std::uint64_t{0}),
            LatencyHistogram::kBucketCount - 1);
  LatencyHistogram hist;
  hist.record_ms(-3.0);  // negative clamps into the zero bucket
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.quantile_ms(0.5), 0.0);
}

TEST(LatencyHistogramTest, CountMeanAndMaxAreExact) {
  // Count, mean, and max come from exact counters, not buckets.
  LatencyHistogram hist;
  const std::vector<std::uint64_t> samples = {1'000'000, 3'000'000, 8'000'000};
  for (const std::uint64_t ns : samples) {
    hist.record_ns(ns);
  }
  EXPECT_EQ(hist.count(), samples.size());
  EXPECT_DOUBLE_EQ(hist.max_ms(), 8.0);
  EXPECT_DOUBLE_EQ(hist.mean_ms(), 4.0);
}

TEST(LatencyHistogramTest, QuantilesMatchOracleOnHeavyTail) {
  // The serving shape: many cheap samples, a few expensive ones. The p99
  // must land on the tail, within the +25% bound.
  LatencyHistogram hist;
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 980; ++i) {
    samples.push_back(1'000'000 + static_cast<std::uint64_t>(i) * 1000);
  }
  for (int i = 0; i < 20; ++i) {
    samples.push_back(50'000'000 + static_cast<std::uint64_t>(i) * 100'000);
  }
  for (const std::uint64_t ns : samples) {
    hist.record_ns(ns);
  }
  for (const double q : {0.5, 0.9, 0.95, 0.99, 1.0}) {
    expect_within_bound(hist, samples, q);
  }
  // p99 of 1000 samples ranks into the 20-sample tail.
  EXPECT_GE(hist.quantile_ms(0.99), 50.0);
}

TEST(LatencyHistogramTest, QuantilesMatchOracleOnRandomSamples) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    LatencyHistogram hist;
    std::vector<std::uint64_t> samples;
    const int n = 1 + static_cast<int>(rng.uniform_below(2000));
    for (int i = 0; i < n; ++i) {
      // Log-uniform over ~9 decades, the histogram's intended regime.
      const double exponent = 18.0 * rng.uniform();
      samples.push_back(
          static_cast<std::uint64_t>(std::exp2(exponent)));
      hist.record_ns(samples.back());
    }
    for (const double q : {0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
      expect_within_bound(hist, samples, q);
    }
  }
}

TEST(LatencyHistogramTest, QuantileIsMonotoneInQ) {
  Xoshiro256 rng(11);
  LatencyHistogram hist;
  for (int i = 0; i < 500; ++i) {
    hist.record_ns(rng.uniform_below(1'000'000'000));
  }
  double previous = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double value = hist.quantile_ms(q);
    EXPECT_GE(value, previous);
    previous = value;
  }
}

TEST(LatencyHistogramTest, MergeMatchesRecordingIntoOne) {
  // Merging two histograms must equal recording every sample into one:
  // same grid, so bucket counts add exactly.
  LatencyHistogram left;
  LatencyHistogram right;
  LatencyHistogram combined;
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 400; ++i) {
    samples.push_back(rng.uniform_below(100'000'000));
    (i % 2 == 0 ? left : right).record_ns(samples.back());
    combined.record_ns(samples.back());
  }
  left.merge(right);
  EXPECT_EQ(left.count(), combined.count());
  EXPECT_DOUBLE_EQ(left.max_ms(), combined.max_ms());
  EXPECT_DOUBLE_EQ(left.mean_ms(), combined.mean_ms());
  for (const double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(left.quantile_ms(q), combined.quantile_ms(q));
  }
}

TEST(LatencyHistogramTest, SnapshotDeltaEmptyWindowIsAllZeros) {
  LatencyHistogram hist;
  LatencyHistogram::Counts since;
  // First window over an empty histogram, and a second window with no
  // recording in between: both must be the zero summary.
  for (int round = 0; round < 2; ++round) {
    const LatencySummary window = hist.snapshot_delta(since);
    EXPECT_EQ(window.count, 0u);
    EXPECT_EQ(window.p50_ms, 0.0);
    EXPECT_EQ(window.p99_ms, 0.0);
    EXPECT_EQ(window.max_ms, 0.0);
    EXPECT_EQ(window.mean_ms, 0.0);
  }
}

TEST(LatencyHistogramTest, SnapshotDeltaSeesOnlyItsOwnWindow) {
  // Two disjoint recording bursts with very different magnitudes; each
  // window's percentiles must match the oracle over that burst alone —
  // the earlier (and much larger) history must not bleed through.
  LatencyHistogram hist;
  LatencyHistogram::Counts since;
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 500; ++i) {
    first.push_back(400'000'000 + static_cast<std::uint64_t>(i) * 1'000'000);
    hist.record_ns(first.back());
  }
  LatencySummary window = hist.snapshot_delta(since);
  EXPECT_EQ(window.count, first.size());

  std::vector<std::uint64_t> second;
  for (int i = 0; i < 50; ++i) {
    second.push_back(1'000'000 + static_cast<std::uint64_t>(i) * 10'000);
    hist.record_ns(second.back());
  }
  window = hist.snapshot_delta(since);
  EXPECT_EQ(window.count, second.size());
  for (const double q : {0.5, 0.95, 0.99}) {
    const double oracle = oracle_quantile_ms(second, q);
    const double reported = q == 0.5   ? window.p50_ms
                            : q == 0.95 ? window.p95_ms
                                        : window.p99_ms;
    EXPECT_GE(reported, oracle) << "q=" << q;
    EXPECT_LE(reported, oracle * 1.25 + 1e-6) << "q=" << q;
  }
  // The window max is the whole point: ~1.5 ms here, not the 900 ms the
  // lifetime histogram would report. Same +25% bucket-edge bound.
  const double oracle_max = oracle_quantile_ms(second, 1.0);
  EXPECT_GE(window.max_ms, oracle_max);
  EXPECT_LE(window.max_ms, oracle_max * 1.25 + 1e-6);
  const double oracle_mean =
      static_cast<double>(std::accumulate(second.begin(), second.end(),
                                          std::uint64_t{0})) /
      (1e6 * static_cast<double>(second.size()));
  EXPECT_NEAR(window.mean_ms, oracle_mean, 1e-9);
}

TEST(LatencyHistogramTest, SnapshotDeltaWindowsPartitionRandomStreams) {
  // Random bursts through random window boundaries: every window matches
  // its own oracle, and the window counts sum to the lifetime count.
  Xoshiro256 rng(29);
  LatencyHistogram hist;
  LatencyHistogram::Counts since;
  std::uint64_t windowed_total = 0;
  for (int window_index = 0; window_index < 30; ++window_index) {
    std::vector<std::uint64_t> burst;
    const int n = static_cast<int>(rng.uniform_below(200));
    for (int i = 0; i < n; ++i) {
      const double exponent = 18.0 * rng.uniform();
      burst.push_back(static_cast<std::uint64_t>(std::exp2(exponent)));
      hist.record_ns(burst.back());
    }
    const LatencySummary window = hist.snapshot_delta(since);
    ASSERT_EQ(window.count, static_cast<std::uint64_t>(n));
    windowed_total += window.count;
    if (n == 0) {
      EXPECT_EQ(window.p99_ms, 0.0);
      continue;
    }
    for (const double q : {0.5, 0.95, 0.99}) {
      const double oracle = oracle_quantile_ms(burst, q);
      const double reported = q == 0.5   ? window.p50_ms
                              : q == 0.95 ? window.p95_ms
                                          : window.p99_ms;
      EXPECT_GE(reported, oracle) << "window " << window_index << " q=" << q;
      EXPECT_LE(reported, oracle * 1.25 + 1e-6)
          << "window " << window_index << " q=" << q;
    }
  }
  EXPECT_EQ(windowed_total, hist.count());
}

TEST(LatencyHistogramTest, SnapshotDeltaUnderConcurrentRecordingConserves) {
  // Recorders hammer the histogram while a sampler takes windows; no
  // sample may be lost or double-counted across windows (each relaxed
  // bucket increment lands in exactly one delta).
  LatencyHistogram hist;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  std::atomic<bool> stop{false};
  std::uint64_t windowed_total = 0;
  LatencyHistogram::Counts since;
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      windowed_total += hist.snapshot_delta(since).count;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> recorders;
  recorders.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.record_ns(static_cast<std::uint64_t>(i) * 1000);
      }
    });
  }
  for (std::thread& thread : recorders) {
    thread.join();
  }
  stop.store(true, std::memory_order_release);
  sampler.join();
  windowed_total += hist.snapshot_delta(since).count;  // the final window
  EXPECT_EQ(windowed_total,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(windowed_total, hist.count());
}

TEST(LatencyHistogramTest, ConcurrentRecordingLosesNoSamples) {
  LatencyHistogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.record_ns(static_cast<std::uint64_t>(t) * 1'000'000 +
                       static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(hist.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const LatencySummary summary = hist.summary();
  EXPECT_EQ(summary.count, hist.count());
  EXPECT_GT(summary.p99_ms, 0.0);
}

}  // namespace
}  // namespace tilq
