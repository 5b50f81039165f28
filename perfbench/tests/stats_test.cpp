// Self-test of the benchmark's percentile and mean code (src/stats.hpp).
// Exits non-zero on the first failed check; run.py runs it before every
// benchmark run, and `ctest` runs it in the perfbench build directory.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

}  // namespace

int main() {
  using perfbench::percentile;

  // Nearest rank on 1..10: rank ceil(q * 10).
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) {  // unsorted input on purpose
    ten.push_back(i);
  }
  check(percentile(ten, 0.5) == 5.0, "p50 of 1..10 is 5");
  check(percentile(ten, 0.9) == 9.0, "p90 of 1..10 is 9, not 10");
  check(percentile(ten, 0.99) == 10.0, "p99 of 1..10 is 10");
  check(percentile(ten, 1.0) == 10.0, "p100 is the maximum");
  check(percentile(ten, 0.01) == 1.0, "p1 of 1..10 is the minimum");

  // 1..100: p90 is exactly the 90th value.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  check(percentile(hundred, 0.9) == 90.0, "p90 of 1..100 is 90");
  check(percentile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");

  // A heavy tail: the percentile is an observed sample, never above max.
  std::vector<double> tail(999, 1.0);
  tail.push_back(500.0);
  const perfbench::Summary s = perfbench::summarize(tail);
  check(s.count == 1000, "summary counts every sample");
  check(s.p99 == 1.0, "p99 of 999 ones and one outlier is 1");
  check(s.max == 500.0, "max is the outlier");
  check(s.p50 <= s.max && s.p90 <= s.max && s.p99 <= s.max,
        "no percentile exceeds the observed maximum");
  check(percentile({7.0}, 0.5) == 7.0, "one sample is every percentile");

  check(std::fabs(perfbench::geomean({1.0, 4.0, 16.0}) - 4.0) < 1e-12,
        "geomean of 1, 4, 16 is 4");
  check(std::fabs(perfbench::geomean({2.5}) - 2.5) < 1e-12,
        "geomean of one value is the value");

  // Segmented: the lower quartile of per-segment quantiles ignores the
  // stalled segments as long as a quarter of them are clean.
  const std::vector<double> lat = {1, 2, 3, 4, 5, 6, 100, 200, 300,
                                   400, 500, 600};
  const std::vector<int> seg = {0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3};
  check(perfbench::per_segment_percentiles(lat, seg, 4, 0.5) ==
            std::vector<double>({2, 5, 200, 500}),
        "per-segment medians in segment order");
  check(perfbench::segmented_percentile(lat, seg, 4, 0.5) == 2.0,
        "segmented quantile reads a clean segment");
  check(perfbench::segmented_percentile(lat, seg, 6, 0.9) == 3.0,
        "empty segments are skipped");
  using perfbench::per_segment_percentiles;
  check(throws([] { (void)per_segment_percentiles({1.0}, {}, 1, 0.5); }),
        "segmented length mismatch throws");
  check(throws([] { (void)per_segment_percentiles({1.0}, {2}, 2, 0.5); }),
        "segment out of range throws");

  check(throws([] { (void)percentile({}, 0.5); }), "empty input throws");
  check(throws([] { (void)percentile({1.0}, 0.0); }), "q = 0 throws");
  check(throws([] { (void)percentile({1.0}, 1.5); }), "q > 1 throws");
  check(throws([] { (void)perfbench::geomean({1.0, 0.0}); }),
        "geomean of a zero throws");
  check(throws([] { (void)perfbench::geomean({}); }),
        "geomean of nothing throws");

  if (failures != 0) {
    std::fprintf(stderr, "perfbench_stats_test: %d check(s) failed\n",
                 failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench_stats_test: all checks passed\n");
  return EXIT_SUCCESS;
}
