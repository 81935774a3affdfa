#include "stats/contingency.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/special.hpp"
#include "support/reference_clump.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace ldga::stats {
namespace {

ContingencyTable example_2x3() {
  // Row totals 50/50, column totals 30/40/30, grand 100.
  ContingencyTable t(2, 3);
  t.set(0, 0, 20);
  t.set(0, 1, 20);
  t.set(0, 2, 10);
  t.set(1, 0, 10);
  t.set(1, 1, 20);
  t.set(1, 2, 20);
  return t;
}

TEST(ContingencyTable, Totals) {
  const auto t = example_2x3();
  EXPECT_DOUBLE_EQ(t.row_total(0), 50.0);
  EXPECT_DOUBLE_EQ(t.row_total(1), 50.0);
  EXPECT_DOUBLE_EQ(t.col_total(0), 30.0);
  EXPECT_DOUBLE_EQ(t.col_total(1), 40.0);
  EXPECT_DOUBLE_EQ(t.col_total(2), 30.0);
  EXPECT_DOUBLE_EQ(t.grand_total(), 100.0);
}

TEST(ContingencyTable, ExpectedUnderIndependence) {
  const auto t = example_2x3();
  EXPECT_DOUBLE_EQ(t.expected(0, 0), 15.0);
  EXPECT_DOUBLE_EQ(t.expected(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(t.expected(1, 2), 15.0);
}

TEST(ContingencyTable, PearsonChiSquareByHand) {
  const auto t = example_2x3();
  // chi2 = sum (o-e)^2/e = 25/15*4 + 0 = 6.6667 with cells (20,15)x2,
  // (10,15)x2, (20,20)x2.
  const auto chi = t.pearson_chi_square();
  EXPECT_NEAR(chi.statistic, 4 * (25.0 / 15.0), 1e-9);
  EXPECT_EQ(chi.df, 2u);
  EXPECT_NEAR(chi.p_value, chi_square_sf(chi.statistic, 2.0), 1e-12);
}

TEST(ContingencyTable, IndependentTableHasZeroStatistic) {
  ContingencyTable t(2, 2);
  t.set(0, 0, 10);
  t.set(0, 1, 30);
  t.set(1, 0, 20);
  t.set(1, 1, 60);
  const auto chi = t.pearson_chi_square();
  EXPECT_NEAR(chi.statistic, 0.0, 1e-9);
  EXPECT_NEAR(chi.p_value, 1.0, 1e-9);
}

TEST(ContingencyTable, EmptyColumnsReduceDf) {
  ContingencyTable t(2, 4);
  t.set(0, 0, 10);
  t.set(0, 2, 5);
  t.set(1, 0, 5);
  t.set(1, 2, 10);
  // Columns 1 and 3 are empty: effective table is 2x2 -> df 1.
  EXPECT_EQ(t.pearson_chi_square().df, 1u);
}

TEST(ContingencyTable, DegenerateTableGivesZero) {
  ContingencyTable t(2, 2);
  t.set(0, 0, 5);
  t.set(0, 1, 5);  // row 1 all zero
  const auto chi = t.pearson_chi_square();
  EXPECT_DOUBLE_EQ(chi.statistic, 0.0);
  EXPECT_EQ(chi.df, 0u);
}

TEST(ContingencyTable, ClumpColumnsKeepsAndAggregates) {
  const auto t = example_2x3();
  const auto clumped = t.clump_columns({1});
  ASSERT_EQ(clumped.cols(), 2u);
  EXPECT_DOUBLE_EQ(clumped.at(0, 0), 20.0);   // kept column 1
  EXPECT_DOUBLE_EQ(clumped.at(0, 1), 30.0);   // rest: cols 0+2
  EXPECT_DOUBLE_EQ(clumped.at(1, 1), 30.0);
  EXPECT_DOUBLE_EQ(clumped.grand_total(), 100.0);
}

TEST(ContingencyTable, CollapseToTwo) {
  const auto t = example_2x3();
  const auto two = t.collapse_to_two({0, 2});
  ASSERT_EQ(two.cols(), 2u);
  EXPECT_DOUBLE_EQ(two.at(0, 0), 30.0);
  EXPECT_DOUBLE_EQ(two.at(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(two.at(1, 0), 30.0);
  EXPECT_DOUBLE_EQ(two.at(1, 1), 20.0);
}

TEST(ContingencyTable, DropEmptyColumns) {
  ContingencyTable t(2, 3);
  t.set(0, 0, 1);
  t.set(1, 2, 2);
  const auto dropped = t.drop_empty_columns();
  EXPECT_EQ(dropped.cols(), 2u);
  EXPECT_DOUBLE_EQ(dropped.grand_total(), 3.0);
}

TEST(ContingencyTable, DropAllEmptyKeepsShapeValid) {
  ContingencyTable t(2, 3);
  const auto dropped = t.drop_empty_columns();
  EXPECT_EQ(dropped.cols(), 1u);
}

TEST(ContingencyTable, SampleNullPreservesMarginalsExactly) {
  const auto t = example_2x3();
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const auto null = reference::sample_null(t, rng);
    for (std::uint32_t r = 0; r < 2; ++r) {
      EXPECT_DOUBLE_EQ(null.row_total(r), t.row_total(r));
    }
    for (std::uint32_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(null.col_total(c), t.col_total(c));
    }
  }
}

TEST(ContingencyTable, SampleNullStatisticIsUsuallySmall) {
  // For a strongly associated observed table, null resamples should
  // rarely reach the observed statistic.
  ContingencyTable t(2, 2);
  t.set(0, 0, 40);
  t.set(0, 1, 10);
  t.set(1, 0, 10);
  t.set(1, 1, 40);
  const double observed = t.pearson_chi_square().statistic;
  Rng rng(7);
  int reached = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const ContingencyTable null = reference::sample_null(t, rng);
    if (null.pearson_chi_square().statistic >= observed) ++reached;
  }
  EXPECT_LT(reached, 4);
}

TEST(ContingencyTable, SampleNullRoundsFractionalCounts) {
  ContingencyTable t(2, 2);
  t.set(0, 0, 10.4);
  t.set(0, 1, 9.6);
  t.set(1, 0, 5.2);
  t.set(1, 1, 14.8);
  Rng rng(3);
  const auto null = reference::sample_null(t, rng);
  EXPECT_DOUBLE_EQ(null.grand_total(), 40.0);
  EXPECT_DOUBLE_EQ(null.row_total(0), 20.0);
}

TEST(ContingencyTable, NullResamplesAreCalibrated) {
  // p-values of null resamples, scored against the analytic chi-square,
  // should be roughly uniform: their mean near 0.5 and a reasonable
  // share below 0.2. This ties the null sampler (the reference CLUMP's
  // sample_null, whose tables the Monte-Carlo engine reproduces cell for
  // cell from the shuffle's draws over the bottom row's positions only)
  // and chi_square_sf together.
  ContingencyTable t(2, 3);
  t.set(0, 0, 40);
  t.set(0, 1, 35);
  t.set(0, 2, 25);
  t.set(1, 0, 38);
  t.set(1, 1, 36);
  t.set(1, 2, 26);
  Rng rng(99);
  RunningStats p_values;
  int below_02 = 0;
  const int trials = 600;
  for (int trial = 0; trial < trials; ++trial) {
    const auto chi = reference::sample_null(t, rng).pearson_chi_square();
    p_values.add(chi.p_value);
    if (chi.p_value < 0.2) ++below_02;
  }
  EXPECT_NEAR(p_values.mean(), 0.5, 0.08);
  EXPECT_NEAR(below_02 / static_cast<double>(trials), 0.2, 0.08);
}

TEST(ContingencyTable, OutOfRangeDies) {
  const ContingencyTable t(2, 2);
  EXPECT_DEATH(t.at(2, 0), "precondition");
  EXPECT_DEATH(t.at(0, 2), "precondition");
}

}  // namespace
}  // namespace ldga::stats
