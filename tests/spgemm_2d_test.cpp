// Tests for the 2D-tiled masked-SpGEMM (masked_spgemm under
// Strategy::k2D): agreement with the dense oracle and with the 1D driver
// across column tile counts, strategies, and accumulators.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "core/masked_spgemm.hpp"
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

/// A 2D config: Config::mode is the only execution-space selector.
Config two_d_config(std::int64_t col_tiles) {
  Config config;
  config.mode = Strategy::k2D;
  config.num_col_tiles = col_tiles;
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
  Config config = two_d_config(std::get<0>(GetParam()));
  config.strategy = std::get<1>(GetParam());
  config.accumulator = std::get<2>(GetParam());
  config.num_tiles = 6;
  for (const std::uint64_t seed : {1u, 5u}) {
    const Problem p = make_problem(seed);
    const auto expected = test::reference_masked_spgemm<SR>(p.mask, p.a, p.b);
    const auto actual = masked_spgemm<SR>(p.mask, p.a, p.b, config);
    EXPECT_TRUE(actual.check());
    EXPECT_TRUE(test::csr_equal(expected, actual))
        << "col_tiles=" << config.num_col_tiles << " "
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
  const Config config = two_d_config(1);
  const auto two_d = masked_spgemm<SR>(p.mask, p.a, p.b, config);
  Config plain = config;
  plain.mode = Strategy::k1D;
  const auto one_d = masked_spgemm<SR>(p.mask, p.a, p.b, plain);
  EXPECT_TRUE(test::csr_equal(one_d, two_d));
}

TEST(Spgemm2d, VanillaStrategyIsRejected) {
  const Problem p = make_problem(11);
  Config config = two_d_config(1);
  config.strategy = MaskStrategy::kVanilla;
  EXPECT_THROW(masked_spgemm<SR>(p.mask, p.a, p.b, config),
               PreconditionError);
}

TEST(Spgemm2d, StatsCountRowByColumnTiles) {
  const Problem p = make_problem(13);
  Config config = two_d_config(3);
  config.num_tiles = 4;
  ExecutionStats stats;
  (void)masked_spgemm<SR>(p.mask, p.a, p.b, config, stats);
  EXPECT_EQ(stats.tiles, 12);
}

TEST(Spgemm2d, EmptyMask) {
  const Problem p = make_problem(17);
  const Csr<double, I> empty_mask(p.a.rows(), p.b.cols());
  const Config config = two_d_config(4);
  const auto c = masked_spgemm<SR>(empty_mask, p.a, p.b, config);
  EXPECT_EQ(c.nnz(), 0);
}

TEST(Spgemm2d, SelfMaskedKernelAcrossMarkerWidths) {
  const auto a = test::random_matrix<double, I>(60, 60, 0.1, 21);
  const auto expected = test::reference_masked_spgemm<SR>(a, a, a);
  for (const MarkerWidth width : {MarkerWidth::k8, MarkerWidth::k64}) {
    Config config = two_d_config(5);
    config.marker_width = width;
    EXPECT_TRUE(test::csr_equal(expected, masked_spgemm<SR>(a, a, a, config)))
        << bits(width);
  }
}

TEST(Spgemm2d, ExplicitResetPolicy) {
  const Problem p = make_problem(23);
  Config config = two_d_config(4);
  config.reset = ResetPolicy::kExplicit;
  const auto expected = test::reference_masked_spgemm<SR>(p.mask, p.a, p.b);
  EXPECT_TRUE(test::csr_equal(expected,
                              masked_spgemm<SR>(p.mask, p.a, p.b, config)));
}

}  // namespace
}  // namespace tilq
