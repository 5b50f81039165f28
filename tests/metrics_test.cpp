// Tests for the observability layer (support/metrics.hpp, support/trace.hpp):
// counter aggregation across threads against hand-computed event counts,
// agreement with ExecutionStats, the disabled mode counting nothing, the
// JSON-lines record format, and Chrome-trace JSON validity. Every test
// skips itself when the instrumentation is compiled out (TILQ_METRICS=OFF).
#include "support/metrics.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "core/masked_spgemm.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"
#include "test_util.hpp"

namespace tilq {
namespace {

using I = std::int64_t;
using SR = PlusTimes<double>;

// --- minimal JSON validator ----------------------------------------------
// Recursive-descent acceptor for the JSON grammar subset the sinks emit
// (objects, arrays, strings without escapes-beyond-\", numbers, literals).
// Shares no code with the serializers, so acceptance is meaningful.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) {
      return false;
    }
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  [[nodiscard]] bool value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  [[nodiscard]] bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) {
        return false;
      }
      skip_ws();
      if (peek() != ':') {
        return false;
      }
      ++pos_;
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  [[nodiscard]] bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  [[nodiscard]] bool string() {
    if (peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;  // accept any escaped character
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing '"'
    return true;
  }

  [[nodiscard]] bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// --- hand-computed expectations ------------------------------------------

/// Mask-first FLOP count (Eq 2's dominant term): every B[k,:] entry is
/// read once per A[i,k] nonzero, for every row whose mask is non-empty.
std::uint64_t expected_mask_first_flops(const Csr<double, I>& mask,
                                        const Csr<double, I>& a,
                                        const Csr<double, I>& b) {
  std::uint64_t flops = 0;
  for (I i = 0; i < a.rows(); ++i) {
    if (mask.row_cols(i).empty()) {
      continue;
    }
    for (const I k : a.row_cols(i)) {
      flops += b.row_cols(k).size();
    }
  }
  return flops;
}

/// Number of (i, k) pairs the hybrid kernel classifies: one per A[i,k]
/// nonzero in rows with a non-empty mask.
std::uint64_t expected_hybrid_decisions(const Csr<double, I>& mask,
                                        const Csr<double, I>& a) {
  std::uint64_t pairs = 0;
  for (I i = 0; i < a.rows(); ++i) {
    if (!mask.row_cols(i).empty()) {
      pairs += a.row_cols(i).size();
    }
  }
  return pairs;
}

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kMetricsCompiled) {
      GTEST_SKIP() << "instrumentation compiled out (TILQ_METRICS=OFF)";
    }
    set_metrics_enabled(true);
    metrics_reset();
  }

  void TearDown() override {
    set_metrics_enabled(false);
    set_trace_path("");
    trace_clear();
  }
};

TEST_F(MetricsTest, MaskFirstFlopsMatchHandCount) {
  const auto a = test::random_matrix<double, I>(80, 80, 0.06, 7);
  Config config;
  config.strategy = MaskStrategy::kMaskFirst;
  (void)masked_spgemm<SR>(a, a, a, config);

  const MetricsSnapshot snapshot = metrics_snapshot();
  EXPECT_EQ(snapshot.total.flops, expected_mask_first_flops(a, a, a));
  EXPECT_EQ(snapshot.total.rows_processed,
            static_cast<std::uint64_t>(a.rows()));
  EXPECT_EQ(snapshot.total.binary_search_steps, 0u)
      << "mask-first performs no binary searches";
  EXPECT_GT(snapshot.total.accum_inserts, 0u);
}

TEST_F(MetricsTest, TotalsEqualPerThreadSumAcrossThreads) {
  const auto a = test::random_matrix<double, I>(120, 120, 0.05, 11);
  Config config;
  config.strategy = MaskStrategy::kMaskFirst;
  config.threads = 4;
  config.num_tiles = 16;
  ExecutionStats stats;
  (void)masked_spgemm<SR>(a, a, a, config, stats);

  const MetricsSnapshot snapshot = metrics_snapshot();
  MetricCounters summed;
  for (const ThreadMetrics& thread : snapshot.per_thread) {
    EXPECT_FALSE(thread.counters.all_zero())
        << "all-zero threads must be omitted from per_thread";
    summed += thread.counters;
  }
  EXPECT_EQ(summed.flops, snapshot.total.flops);
  EXPECT_EQ(summed.accum_inserts, snapshot.total.accum_inserts);
  EXPECT_EQ(summed.tiles_executed, snapshot.total.tiles_executed);
  EXPECT_EQ(summed.rows_processed, snapshot.total.rows_processed);

  // Counters and ExecutionStats are two views of the same events.
  EXPECT_EQ(snapshot.total.tiles_executed,
            static_cast<std::uint64_t>(stats.tiles));
  EXPECT_EQ(snapshot.total.accum_inserts, stats.accum_inserts);
  EXPECT_EQ(snapshot.total.accum_rejects, stats.accum_rejects);
  EXPECT_EQ(snapshot.total.hash_probes, stats.hash_probes);
  EXPECT_EQ(snapshot.total.hash_collisions, stats.hash_collisions);
  EXPECT_EQ(snapshot.total.marker_row_resets, stats.marker_row_resets);
  EXPECT_EQ(snapshot.total.explicit_reset_slots, stats.explicit_reset_slots);
  EXPECT_EQ(snapshot.total.marker_overflow_resets,
            stats.accumulator_full_resets);
}

TEST_F(MetricsTest, CoIterationCountsBinarySearchSteps) {
  const auto a = test::random_matrix<double, I>(60, 60, 0.1, 13);
  Config config;
  config.strategy = MaskStrategy::kCoIterate;
  (void)masked_spgemm<SR>(a, a, a, config);
  EXPECT_GT(metrics_snapshot().total.binary_search_steps, 0u);
}

TEST_F(MetricsTest, HybridDecisionsPartitionTheIterationPairs) {
  const auto a = test::random_matrix<double, I>(60, 60, 0.1, 17);
  Config config;
  config.strategy = MaskStrategy::kHybrid;
  config.coiteration_factor = 1.0;
  (void)masked_spgemm<SR>(a, a, a, config);

  const MetricsSnapshot snapshot = metrics_snapshot();
  EXPECT_EQ(snapshot.total.hybrid_coiter_picks +
                snapshot.total.hybrid_linear_picks,
            expected_hybrid_decisions(a, a));
}

TEST_F(MetricsTest, DisabledAtRuntimeCountsNothing) {
  set_metrics_enabled(false);
  const auto a = test::random_matrix<double, I>(50, 50, 0.1, 19);
  (void)masked_spgemm<SR>(a, a, a, Config{});
  const MetricsSnapshot snapshot = metrics_snapshot();
  EXPECT_TRUE(snapshot.total.all_zero());
  EXPECT_TRUE(snapshot.per_thread.empty());
}

TEST_F(MetricsTest, ResetClearsEveryThreadSlot) {
  const auto a = test::random_matrix<double, I>(50, 50, 0.1, 23);
  Config config;
  config.threads = 2;
  (void)masked_spgemm<SR>(a, a, a, config);
  ASSERT_FALSE(metrics_snapshot().total.all_zero());
  metrics_reset();
  EXPECT_TRUE(metrics_snapshot().total.all_zero());
}

TEST_F(MetricsTest, DeltaIsolatesOneMeasuredRegion) {
  const auto a = test::random_matrix<double, I>(50, 50, 0.1, 29);
  Config config;
  config.strategy = MaskStrategy::kMaskFirst;
  (void)masked_spgemm<SR>(a, a, a, config);  // counted, then excluded
  const MetricsSnapshot before = metrics_snapshot();
  (void)masked_spgemm<SR>(a, a, a, config);
  const MetricsSnapshot delta = metrics_delta(before, metrics_snapshot());
  EXPECT_EQ(delta.total.flops, expected_mask_first_flops(a, a, a));
}

TEST_F(MetricsTest, BlockedDriverCountsCells) {
  const auto a = test::random_matrix<double, I>(60, 60, 0.1, 31);
  Config config;
  config.strategy = MaskStrategy::kMaskFirst;
  config.mode = Strategy::kBlocked;
  config.block_cols = 15;  // four blocks across the 60 columns
  config.num_tiles = 4;
  ExecutionStats stats;
  (void)masked_spgemm<SR>(a, a, a, config, stats);

  const MetricsSnapshot snapshot = metrics_snapshot();
  EXPECT_EQ(stats.tiles % 4, 0);
  EXPECT_EQ(snapshot.total.tiles_executed,
            static_cast<std::uint64_t>(stats.tiles));
  EXPECT_GT(snapshot.total.flops, 0u);
  EXPECT_EQ(snapshot.total.accum_inserts, stats.accum_inserts);
}

TEST_F(MetricsTest, RecordFormatsAsSchemaThreeJson) {
  const auto a = test::random_matrix<double, I>(50, 50, 0.1, 37);
  Config config;
  config.threads = 2;
  (void)masked_spgemm<SR>(a, a, a, config);

  MetricsRecord record;
  record.source = "metrics_test";
  record.matrix = "random50 \"quoted\"";  // exercises string escaping
  record.config = config.describe();
  record.runs = 1;
  record.median_ms = 1.25;
  const std::string line = format_metrics_record(record, metrics_snapshot());

  EXPECT_TRUE(JsonChecker(line).valid()) << line;
  EXPECT_EQ(line.find("{\"tilq_metrics\":3,"), 0u);
  for (const char* field :
       {"\"source\"", "\"matrix\"", "\"config\"", "\"runs\"", "\"median_ms\"",
        "\"counters\"", "\"hw\"", "\"imbalance\"", "\"threads\"", "\"flops\"",
        "\"accum_inserts\"", "\"binary_search_steps\"", "\"tiles_executed\"",
        "\"rows_processed\"", "\"busy_ns\"", "\"engine_jobs\"",
        "\"engine_steals\""}) {
    EXPECT_NE(line.find(field), std::string::npos) << "missing " << field;
  }
}

// Golden exposition: every counter set by name to a distinct value must
// serialize to exactly these bytes in the JSON record (software and
// hardware counters) and the free Prometheus renderer. Names, order, HELP text and formatting are a
// contract with dashboards and the bench harness; any drift fails here.
TEST_F(MetricsTest, GoldenCounterExpositionIsByteStable) {
  metrics_reset();
  MetricCounters& c = *metrics_thread_counters();
  c.flops = 1000;
  c.accum_inserts = 1001;
  c.accum_rejects = 1002;
  c.hash_probes = 1003;
  c.hash_collisions = 1004;
  c.marker_row_resets = 1005;
  c.marker_overflow_resets = 1006;
  c.explicit_reset_slots = 1007;
  c.accum_rehashes = 1008;
  c.accum_degrades = 1009;
  c.binary_search_steps = 1010;
  c.hybrid_coiter_picks = 1011;
  c.hybrid_linear_picks = 1012;
  c.blocked_dense_picks = 1013;
  c.blocked_sparse_picks = 1014;
  c.tiles_created = 1015;
  c.tiles_executed = 1016;
  c.rows_processed = 1017;
  c.busy_ns = 1018;
  c.engine_jobs = 1019;
  c.engine_job_ns = 1020;
  c.engine_queue_ns = 1021;
  c.engine_queue_depth = 1022;
  c.engine_tasks = 1023;
  c.engine_steals = 1024;
  c.engine_jobs_shed = 1025;
  c.engine_jobs_deferred = 1026;
  c.engine_jobs_expensive = 1027;
  c.engine_deadline_misses = 1028;
  c.engine_jobs_stuck = 1029;
  c.engine_retries = 1030;
  c.engine_brownouts = 1031;
  c.engine_telemetry_samples = 1032;
  c.autotune_explorations = 1033;
  c.autotune_arm_switches = 1034;
  c.autotune_converged = 1035;
  HwCounters& hw = *metrics_thread_hw();
  hw.cycles = 2000;
  hw.instructions = 2001;
  hw.llc_loads = 2002;
  hw.llc_misses = 2003;
  hw.branch_misses = 2004;
  hw.stalled_cycles = 2005;

  const std::string line = format_metrics_record({}, metrics_snapshot());
  const std::size_t begin = line.find("\"counters\":");
  ASSERT_NE(begin, std::string::npos) << line;
  EXPECT_EQ(line.substr(begin, line.find('}', begin) - begin + 1),
            R"("counters":{"flops":1000,"accum_inserts":1001,"accum_rejects":1002,"hash_probes":1003,"hash_collisions":1004,"marker_row_resets":1005,"marker_overflow_resets":1006,"explicit_reset_slots":1007,"accum_rehashes":1008,"accum_degrades":1009,"binary_search_steps":1010,"hybrid_coiter_picks":1011,"hybrid_linear_picks":1012,"blocked_dense_picks":1013,"blocked_sparse_picks":1014,"tiles_created":1015,"tiles_executed":1016,"rows_processed":1017,"busy_ns":1018,"engine_jobs":1019,"engine_job_ns":1020,"engine_queue_ns":1021,"engine_queue_depth":1022,"engine_tasks":1023,"engine_steals":1024,"engine_jobs_shed":1025,"engine_jobs_deferred":1026,"engine_jobs_expensive":1027,"engine_deadline_misses":1028,"engine_jobs_stuck":1029,"engine_retries":1030,"engine_brownouts":1031,"engine_telemetry_samples":1032,"autotune_explorations":1033,"autotune_arm_switches":1034,"autotune_converged":1035})");
  const std::size_t hw_begin = line.find("\"hw\":");
  ASSERT_NE(hw_begin, std::string::npos) << line;
  EXPECT_EQ(line.substr(hw_begin, line.find('}', hw_begin) - hw_begin + 1),
            R"("hw":{"cycles":2000,"instructions":2001,"llc_loads":2002,)"
            R"("llc_misses":2003,"branch_misses":2004,"stalled_cycles":2005})");

  std::string exposition;
  render_prometheus(exposition);
  EXPECT_EQ(exposition, R"(# HELP tilq_flops semiring multiplications performed
# TYPE tilq_flops counter
tilq_flops 1000
# HELP tilq_accum_inserts accumulator inserts inside the mask
# TYPE tilq_accum_inserts counter
tilq_accum_inserts 1001
# HELP tilq_accum_rejects accumulator probes outside the mask
# TYPE tilq_accum_rejects counter
tilq_accum_rejects 1002
# HELP tilq_hash_probes hash probe-chain steps past the home slot
# TYPE tilq_hash_probes counter
tilq_hash_probes 1003
# HELP tilq_hash_collisions hash insertions that needed chain steps
# TYPE tilq_hash_collisions counter
tilq_hash_collisions 1004
# HELP tilq_marker_row_resets marker-policy per-row epoch bumps
# TYPE tilq_marker_row_resets counter
tilq_marker_row_resets 1005
# HELP tilq_marker_overflow_resets whole-state clears on marker overflow
# TYPE tilq_marker_overflow_resets counter
tilq_marker_overflow_resets 1006
# HELP tilq_explicit_reset_slots slots cleared by explicit resets
# TYPE tilq_explicit_reset_slots counter
tilq_explicit_reset_slots 1007
# HELP tilq_accum_rehashes hash grow-and-rehash saturation responses
# TYPE tilq_accum_rehashes counter
tilq_accum_rehashes 1008
# HELP tilq_accum_degrades rows escalated to the dense fallback
# TYPE tilq_accum_degrades counter
tilq_accum_degrades 1009
# HELP tilq_binary_search_steps halving steps in co-iteration searches
# TYPE tilq_binary_search_steps counter
tilq_binary_search_steps 1010
# HELP tilq_hybrid_coiter_picks pairs where hybrid chose co-iteration
# TYPE tilq_hybrid_coiter_picks counter
tilq_hybrid_coiter_picks 1011
# HELP tilq_hybrid_linear_picks pairs where hybrid chose linear scan
# TYPE tilq_hybrid_linear_picks counter
tilq_hybrid_linear_picks 1012
# HELP tilq_blocked_dense_picks blocked tile tasks run on the dense accumulator
# TYPE tilq_blocked_dense_picks counter
tilq_blocked_dense_picks 1013
# HELP tilq_blocked_sparse_picks blocked tile tasks run on the sparse accumulator
# TYPE tilq_blocked_sparse_picks counter
tilq_blocked_sparse_picks 1014
# HELP tilq_tiles_created tiles produced by the tilers
# TYPE tilq_tiles_created counter
tilq_tiles_created 1015
# HELP tilq_tiles_executed tiles processed in compute phases
# TYPE tilq_tiles_executed counter
tilq_tiles_executed 1016
# HELP tilq_rows_processed output rows computed
# TYPE tilq_rows_processed counter
tilq_rows_processed 1017
# HELP tilq_busy_ns compute-loop busy wall time in nanoseconds
# TYPE tilq_busy_ns counter
tilq_busy_ns 1018
# HELP tilq_engine_jobs batch-engine jobs completed
# TYPE tilq_engine_jobs counter
tilq_engine_jobs 1019
# HELP tilq_engine_job_ns total submit-to-done job latency in nanoseconds
# TYPE tilq_engine_job_ns counter
tilq_engine_job_ns 1020
# HELP tilq_engine_queue_ns total submit-to-first-task wait in nanoseconds
# TYPE tilq_engine_queue_ns counter
tilq_engine_queue_ns 1021
# HELP tilq_engine_queue_depth in-flight jobs summed over submits
# TYPE tilq_engine_queue_depth counter
tilq_engine_queue_depth 1022
# HELP tilq_engine_tasks tile tasks run on engine pool workers
# TYPE tilq_engine_tasks counter
tilq_engine_tasks 1023
# HELP tilq_engine_steals engine tasks taken from another worker
# TYPE tilq_engine_steals counter
tilq_engine_steals 1024
# HELP tilq_engine_jobs_shed expensive jobs refused at the shed bound
# TYPE tilq_engine_jobs_shed counter
tilq_engine_jobs_shed 1025
# HELP tilq_engine_jobs_deferred expensive jobs demoted to the background lane
# TYPE tilq_engine_jobs_deferred counter
tilq_engine_jobs_deferred 1026
# HELP tilq_engine_jobs_expensive admitted jobs the cost model priced expensive
# TYPE tilq_engine_jobs_expensive counter
tilq_engine_jobs_expensive 1027
# HELP tilq_engine_deadline_misses jobs cancelled past their deadline
# TYPE tilq_engine_deadline_misses counter
tilq_engine_deadline_misses 1028
# HELP tilq_engine_jobs_stuck in-flight jobs flagged by the watchdog
# TYPE tilq_engine_jobs_stuck counter
tilq_engine_jobs_stuck 1029
# HELP tilq_engine_retries retry attempts (auto-replan and degraded-config)
# TYPE tilq_engine_retries counter
tilq_engine_retries 1030
# HELP tilq_engine_brownouts memory-governor transitions into brownout
# TYPE tilq_engine_brownouts counter
tilq_engine_brownouts 1031
# HELP tilq_engine_telemetry_samples telemetry sampler ticks taken
# TYPE tilq_engine_telemetry_samples counter
tilq_engine_telemetry_samples 1032
# HELP tilq_autotune_explorations bandit draws that served a non-best arm
# TYPE tilq_autotune_explorations counter
tilq_autotune_explorations 1033
# HELP tilq_autotune_arm_switches fingerprints whose best arm changed
# TYPE tilq_autotune_arm_switches counter
tilq_autotune_arm_switches 1034
# HELP tilq_autotune_converged fingerprints frozen onto their best arm
# TYPE tilq_autotune_converged counter
tilq_autotune_converged 1035
)");
}

TEST_F(MetricsTest, RecordCarriesImbalanceAndExplicitHwNull) {
  const auto a = test::random_matrix<double, I>(60, 60, 0.08, 59);
  Config config;
  config.threads = 2;
  config.num_tiles = 8;
  (void)masked_spgemm<SR>(a, a, a, config);
  const MetricsSnapshot snapshot = metrics_snapshot();

  // The drivers always record per-thread busy time, so the imbalance
  // object must be a populated object, never null, after a kernel run.
  EXPECT_GT(snapshot.total.busy_ns, 0u);
  MetricsRecord record;
  record.source = "metrics_test";
  record.runs = 1;
  const std::string line = format_metrics_record(record, snapshot);
  EXPECT_TRUE(JsonChecker(line).valid()) << line;
  EXPECT_EQ(line.find("\"imbalance\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"imbalance\":{\"threads\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"max_busy_ms\""), std::string::npos);
  EXPECT_NE(line.find("\"ratio\""), std::string::npos);
  EXPECT_NE(line.find("\"cv\""), std::string::npos);

  // hw is either a populated object (perf counters readable) or an
  // explicit null (the fallback contract) — never absent.
  if (snapshot.hw_total.all_zero()) {
    EXPECT_NE(line.find("\"hw\":null"), std::string::npos) << line;
  } else {
    EXPECT_NE(line.find("\"hw\":{\"cycles\":"), std::string::npos) << line;
  }
}

TEST_F(MetricsTest, EmptySnapshotEmitsNullHwAndImbalance) {
  metrics_reset();
  MetricsRecord record;
  record.source = "metrics_test";
  const std::string line = format_metrics_record(record, metrics_snapshot());
  EXPECT_TRUE(JsonChecker(line).valid()) << line;
  EXPECT_NE(line.find("\"hw\":null"), std::string::npos);
  EXPECT_NE(line.find("\"imbalance\":null"), std::string::npos);
}

TEST_F(MetricsTest, ExecutionStatsCarryPerThreadWork) {
  const auto a = test::random_matrix<double, I>(120, 120, 0.05, 61);
  Config config;
  config.threads = 2;
  config.num_tiles = 8;
  ExecutionStats stats;
  (void)masked_spgemm<SR>(a, a, a, config, stats);

  ASSERT_FALSE(stats.thread_work.empty());
  EXPECT_LE(stats.thread_work.size(), 2u);
  std::int64_t tiles = 0;
  std::int64_t rows = 0;
  for (std::size_t t = 0; t < stats.thread_work.size(); ++t) {
    EXPECT_EQ(stats.thread_work[t].thread, static_cast<int>(t));
    tiles += stats.thread_work[t].tiles;
    rows += stats.thread_work[t].rows;
  }
  EXPECT_EQ(tiles, stats.tiles);
  EXPECT_EQ(rows, static_cast<std::int64_t>(a.rows()));
  EXPECT_GE(stats.imbalance_ratio, 1.0);
  EXPECT_GE(stats.busy_cv, 0.0);

  // The same invariants through the blocked driver: every row is visited
  // once per column block.
  Config blocked = config;
  blocked.mode = Strategy::kBlocked;
  blocked.block_cols = 40;  // three blocks across the 120 columns
  ExecutionStats blocked_stats;
  (void)masked_spgemm<SR>(a, a, a, blocked, blocked_stats);
  std::int64_t blocked_rows = 0;
  for (const ThreadWork& t : blocked_stats.thread_work) {
    blocked_rows += t.rows;
  }
  EXPECT_EQ(blocked_rows, static_cast<std::int64_t>(a.rows()) * 3);
  EXPECT_GE(blocked_stats.imbalance_ratio, 1.0);
}

TEST_F(MetricsTest, HwDeltaMachineryIsConsistent) {
  // Whether or not the machine grants perf counters, the snapshot/delta
  // algebra over hw must hold: delta(before, after) isolates the region.
  HwCounters a;
  a.cycles = 100;
  a.llc_misses = 7;
  HwCounters b = a;
  b.cycles = 250;
  b.instructions = 40;
  const HwCounters d = b.minus(a);
  EXPECT_EQ(d.cycles, 150u);
  EXPECT_EQ(d.instructions, 40u);
  EXPECT_EQ(d.llc_misses, 0u);
  EXPECT_FALSE(d.all_zero());
  EXPECT_TRUE(a.minus(b).all_zero() || a.minus(b).cycles == 0u);

  MetricsSnapshot before;
  MetricsSnapshot after;
  after.hw_total = b;
  after.per_thread.push_back({0, MetricCounters{}, b});
  before.hw_total = a;
  before.per_thread.push_back({0, MetricCounters{}, a});
  const MetricsSnapshot delta = metrics_delta(before, after);
  EXPECT_EQ(delta.hw_total.cycles, 150u);
  ASSERT_EQ(delta.per_thread.size(), 1u);
  EXPECT_EQ(delta.per_thread[0].hw.cycles, 150u);
}

TEST_F(MetricsTest, SinkFileReceivesOneLinePerRecord) {
  const std::string path = ::testing::TempDir() + "tilq_metrics_sink.jsonl";
  std::remove(path.c_str());
  set_metrics_sink_path(path);

  const auto a = test::random_matrix<double, I>(40, 40, 0.1, 41);
  (void)masked_spgemm<SR>(a, a, a, Config{});
  MetricsRecord record;
  record.source = "metrics_test";
  record.runs = 1;
  emit_metrics_record(record, metrics_snapshot());
  emit_metrics_record(record, metrics_snapshot());
  set_metrics_sink_path("");

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST_F(MetricsTest, TraceFileIsLoadableChromeJson) {
  const std::string path = ::testing::TempDir() + "tilq_trace.json";
  std::remove(path.c_str());
  trace_clear();
  set_trace_path(path);

  const auto a = test::random_matrix<double, I>(50, 50, 0.1, 43);
  Config config;
  config.num_tiles = 4;
  (void)masked_spgemm<SR>(a, a, a, config);
  ASSERT_TRUE(trace_flush());
  EXPECT_GE(trace_event_count(), 3u) << "phases + tiles expected";

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text.substr(0, 400);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"spgemm.compute\""), std::string::npos);
  EXPECT_NE(text.find("\"tile\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(MetricsTest, DisabledTraceRecordsNoSpans) {
  set_trace_path("");
  trace_clear();
  const auto a = test::random_matrix<double, I>(40, 40, 0.1, 47);
  (void)masked_spgemm<SR>(a, a, a, Config{});
  EXPECT_EQ(trace_event_count(), 0u);
}

// Compiled-out builds still expose the whole API as no-ops; this test runs
// in BOTH modes and pins down the "no-op mode returns zeros" contract.
TEST(MetricsNoOp, SnapshotIsZeroWhenNothingCounts) {
  set_metrics_enabled(false);
  metrics_reset();  // drop counts left behind by the gated fixture tests
  const auto a = test::random_matrix<double, I>(30, 30, 0.1, 53);
  (void)masked_spgemm<SR>(a, a, a, Config{});
  const MetricsSnapshot snapshot = metrics_snapshot();
  EXPECT_TRUE(snapshot.total.all_zero());
  EXPECT_TRUE(snapshot.per_thread.empty());
  EXPECT_TRUE(metrics_delta(snapshot, snapshot).total.all_zero());
}

}  // namespace
}  // namespace tilq
