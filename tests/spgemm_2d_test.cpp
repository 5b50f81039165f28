// Tests for 2D (row tile x column tile) masked SpGEMM. Column tiling runs
// through Strategy::kBlocked: n column tiles is block_cols = ⌈cols / n⌉.
// Checks agreement with the dense oracle and with the 1D driver across
// column tile counts, strategies, accumulators and marker widths.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "core/masked_spgemm.hpp"
#include "core/plan.hpp"
#include "test_util.hpp"

namespace tilq {
namespace {

using I = std::int64_t;
using SR = PlusTimes<double>;

struct Problem {
  Csr<double, I> mask;
  Csr<double, I> a;
  Csr<double, I> b;
};

/// A blocked config with `col_tiles` column blocks over `cols` columns: the
/// block width ⌈cols / col_tiles⌉ is how a caller asks for n column tiles.
Config two_d_config(I cols, std::int64_t col_tiles) {
  Config config;
  config.mode = Strategy::kBlocked;
  config.block_cols = ceil_div(static_cast<std::int64_t>(cols), col_tiles);
  return config;
}

Problem make_problem(std::uint64_t seed) {
  return {test::random_matrix<double, I>(35, 45, 0.15, seed),
          test::random_matrix<double, I>(35, 30, 0.15, seed + 1),
          test::random_matrix<double, I>(30, 45, 0.15, seed + 2)};
}

class Spgemm2dColTiles
    : public ::testing::TestWithParam<std::tuple<std::int64_t, MaskStrategy, AccumulatorKind>> {
};

TEST_P(Spgemm2dColTiles, MatchesOracle) {
  // Column tile counts from one up to more tiles than columns (width 1).
  for (const std::uint64_t seed : {1u, 5u}) {
    const Problem p = make_problem(seed);
    Config config = two_d_config(p.b.cols(), std::get<0>(GetParam()));
    config.strategy = std::get<1>(GetParam());
    config.accumulator = std::get<2>(GetParam());
    config.num_tiles = 6;
    const auto expected = test::reference_masked_spgemm<SR>(p.mask, p.a, p.b);
    const auto actual = masked_spgemm<SR>(p.mask, p.a, p.b, config);
    EXPECT_TRUE(actual.check());
    EXPECT_TRUE(test::csr_equal(expected, actual))
        << config.describe() << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Spgemm2dColTiles,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 2, 3, 7, 45, 100),
                       ::testing::Values(MaskStrategy::kMaskFirst,
                                         MaskStrategy::kCoIterate,
                                         MaskStrategy::kHybrid),
                       ::testing::Values(AccumulatorKind::kDense,
                                         AccumulatorKind::kHash)));

TEST(Spgemm2d, SingleColumnTileEqualsOneDimensional) {
  const Problem p = make_problem(9);
  const Config config = two_d_config(p.b.cols(), 1);
  const auto two_d = masked_spgemm<SR>(p.mask, p.a, p.b, config);
  Config plain = config;
  plain.mode = Strategy::k1D;
  const auto one_d = masked_spgemm<SR>(p.mask, p.a, p.b, plain);
  EXPECT_TRUE(test::csr_equal(one_d, two_d));
}

TEST(Spgemm2d, VanillaStrategyIsRejected) {
  const Problem p = make_problem(11);
  Config config = two_d_config(p.b.cols(), 1);
  config.strategy = MaskStrategy::kVanilla;
  EXPECT_THROW(masked_spgemm<SR>(p.mask, p.a, p.b, config),
               PreconditionError);
}

TEST(Spgemm2d, StatsCountRowByColumnTiles) {
  const Problem p = make_problem(13);
  Config config = two_d_config(p.b.cols(), 3);
  config.num_tiles = 4;
  Executor<SR> exec;
  exec.plan(p.mask, p.a, p.b, config);
  ExecutionStats stats;
  (void)exec.execute(p.mask, p.a, p.b, stats);
  EXPECT_EQ(exec.info().col_tiles, 3);
  EXPECT_EQ(stats.tiles, exec.info().row_tiles * 3);
}

TEST(Spgemm2d, EmptyMask) {
  const Problem p = make_problem(17);
  const Csr<double, I> empty_mask(p.a.rows(), p.b.cols());
  const Config config = two_d_config(p.b.cols(), 4);
  const auto c = masked_spgemm<SR>(empty_mask, p.a, p.b, config);
  EXPECT_EQ(c.nnz(), 0);
}

TEST(Spgemm2d, SelfMaskedKernelAcrossMarkerWidths) {
  const auto a = test::random_matrix<double, I>(60, 60, 0.1, 21);
  const auto expected = test::reference_masked_spgemm<SR>(a, a, a);
  for (const MarkerWidth width : {MarkerWidth::k8, MarkerWidth::k64}) {
    Config config = two_d_config(a.cols(), 5);
    config.marker_width = width;
    EXPECT_TRUE(test::csr_equal(expected, masked_spgemm<SR>(a, a, a, config)))
        << bits(width);
  }
}

TEST(Spgemm2d, ExplicitResetPolicy) {
  const Problem p = make_problem(23);
  Config config = two_d_config(p.b.cols(), 4);
  config.reset = ResetPolicy::kExplicit;
  const auto expected = test::reference_masked_spgemm<SR>(p.mask, p.a, p.b);
  EXPECT_TRUE(test::csr_equal(expected,
                              masked_spgemm<SR>(p.mask, p.a, p.b, config)));
}

}  // namespace
}  // namespace tilq
