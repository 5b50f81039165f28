// Percentiles and means computed from the benchmark's own raw samples.
//
// Every percentile is a nearest-rank order statistic: the value at rank
// ceil(q * n) of the sorted samples. It is always one of the observed
// samples, so it can never exceed the observed maximum — unlike the
// library's fixed-bucket histograms, which report a bucket's upper edge.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` for q in (0, 1]. Throws on an empty
/// sample set or a q outside (0, 1].
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    throw std::invalid_argument("percentile: no samples");
  }
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile: q must lie in (0, 1]");
  }
  const auto n = static_cast<double>(samples.size());
  // The small epsilon keeps q * n from landing one rank high through
  // rounding (0.9 * 10 must give rank 9, not 10).
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Geometric mean of strictly positive values. Throws when `values` is
/// empty or holds a value <= 0.
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) {
    throw std::invalid_argument("geomean: no values");
  }
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) {
      throw std::invalid_argument("geomean: values must be positive");
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Each segment's q-quantile, in segment order: `segment[i]` is the segment
/// (0 .. segments-1) of `samples[i]`; segments without samples are skipped.
/// Throws when the two vectors differ in length or a segment id is out of
/// range.
inline std::vector<double> per_segment_percentiles(
    const std::vector<double>& samples, const std::vector<int>& segment,
    int segments, double q) {
  if (samples.size() != segment.size()) {
    throw std::invalid_argument("per_segment_percentiles: length mismatch");
  }
  std::vector<std::vector<double>> by_segment(
      static_cast<std::size_t>(std::max(segments, 0)));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (segment[i] < 0 || segment[i] >= segments) {
      throw std::invalid_argument("per_segment_percentiles: bad segment");
    }
    by_segment[static_cast<std::size_t>(segment[i])].push_back(samples[i]);
  }
  std::vector<double> out;
  for (const std::vector<double>& v : by_segment) {
    if (!v.empty()) {
      out.push_back(percentile(v, q));
    }
  }
  return out;
}

/// Lower quartile over segments of each segment's q-quantile. Host CPU
/// contention only ever adds time, and it comes in bursts; the lower
/// quartile reads a segment the bursts left alone as long as a quarter of
/// the segments are undisturbed, where the median needs half of them.
/// Throws when no segment has a sample.
inline double segmented_percentile(const std::vector<double>& samples,
                                   const std::vector<int>& segment,
                                   int segments, double q) {
  return percentile(per_segment_percentiles(samples, segment, segments, q),
                    0.25);
}

/// The summary printed for every latency series: sample count, median,
/// p90, p99 and maximum, all nearest-rank.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

inline Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  s.p50 = percentile(samples, 0.50);
  s.p90 = percentile(samples, 0.90);
  s.p99 = percentile(samples, 0.99);
  s.max = *std::max_element(samples.begin(), samples.end());
  return s;
}

}  // namespace perfbench
