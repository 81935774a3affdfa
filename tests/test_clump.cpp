#include "stats/clump.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "genomics/synthetic.hpp"
#include "stats/eh_diall.hpp"
#include "stats/special.hpp"
#include "support/reference_clump.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace ldga::stats {
namespace {

/// A 2x4 table with one strongly associated column (0) and rare
/// columns (2, 3).
ContingencyTable example_table() {
  ContingencyTable t(2, 4);
  t.set(0, 0, 30);
  t.set(0, 1, 15);
  t.set(0, 2, 3);
  t.set(0, 3, 2);
  t.set(1, 0, 10);
  t.set(1, 1, 33);
  t.set(1, 2, 4);
  t.set(1, 3, 3);
  return t;
}

TEST(Clump, T1MatchesPearsonOnFullTable) {
  const Clump clump;
  const auto t = example_table();
  Rng rng(1);
  const auto result = clump.analyze(t, rng);
  const auto direct = t.pearson_chi_square();
  EXPECT_NEAR(result.t1.statistic, direct.statistic, 1e-9);
  EXPECT_EQ(result.t1.df, direct.df);
  EXPECT_FALSE(result.t1.p_monte_carlo.has_value());
}

TEST(Clump, T2ClumpsRareColumns) {
  ClumpConfig config;
  config.rare_expected_threshold = 5.0;
  const Clump clump(config);
  Rng rng(2);
  const auto result = clump.analyze(example_table(), rng);
  // Columns 2 and 3 have expected counts < 5 and get clumped: the T2
  // table is 2x3 -> df 2.
  EXPECT_EQ(result.t2.df, 2u);
  EXPECT_GT(result.t2.statistic, 0.0);
}

TEST(Clump, T3IsTheBestSingleColumnSplit) {
  const Clump clump;
  const auto t = example_table();
  Rng rng(3);
  const auto result = clump.analyze(t, rng);
  // T3 must equal the max over explicit 2x2 collapses.
  double best = 0.0;
  for (std::uint32_t c = 0; c < t.cols(); ++c) {
    best = std::max(best,
                    t.collapse_to_two({c}).pearson_chi_square().statistic);
  }
  EXPECT_NEAR(result.t3.statistic, best, 1e-9);
  EXPECT_EQ(result.t3.df, 1u);
}

TEST(Clump, T4AtLeastT3) {
  const Clump clump;
  Rng rng(4);
  const auto result = clump.analyze(example_table(), rng);
  EXPECT_GE(result.t4.statistic, result.t3.statistic - 1e-12);
  EXPECT_FALSE(result.t4_group.empty());
}

TEST(Clump, T4GroupReproducesStatistic) {
  const Clump clump;
  const auto t = example_table();
  Rng rng(5);
  const auto result = clump.analyze(t, rng);
  // Recompute the 2x2 statistic from the reported group (indices refer
  // to the empty-column-pruned table, which here equals the original).
  const auto chi =
      t.collapse_to_two(result.t4_group).pearson_chi_square();
  EXPECT_NEAR(chi.statistic, result.t4.statistic, 1e-9);
}

TEST(Clump, MonteCarloPValuesPresentAndValid) {
  ClumpConfig config;
  config.monte_carlo_trials = 200;
  const Clump clump(config);
  Rng rng(6);
  const auto result = clump.analyze(example_table(), rng);
  for (const auto* stat : {&result.t1, &result.t2, &result.t3, &result.t4}) {
    ASSERT_TRUE(stat->p_monte_carlo.has_value());
    EXPECT_GT(*stat->p_monte_carlo, 0.0);
    EXPECT_LE(*stat->p_monte_carlo, 1.0);
  }
}

TEST(Clump, MonteCarloIsDeterministicGivenSeed) {
  ClumpConfig config;
  config.monte_carlo_trials = 100;
  const Clump clump(config);
  Rng rng1(77), rng2(77);
  const auto a = clump.analyze(example_table(), rng1);
  const auto b = clump.analyze(example_table(), rng2);
  EXPECT_EQ(*a.t1.p_monte_carlo, *b.t1.p_monte_carlo);
  EXPECT_EQ(*a.t4.p_monte_carlo, *b.t4.p_monte_carlo);
}

TEST(Clump, MonteCarloPValuesInvariantUnderWorkerCount) {
  // Every replicate runs from its own child stream whose seed is drawn
  // sequentially before any work fans out, so the p-values are a pure
  // function of (seed, trial count) — never of the worker count.
  ClumpConfig config;
  config.monte_carlo_trials = 150;
  std::vector<ClumpResult> results;
  for (const std::uint32_t workers : {1u, 2u, 5u, 0u}) {
    config.monte_carlo_workers = workers;
    const Clump clump(config);
    Rng rng(2026);
    results.push_back(clump.analyze(example_table(), rng));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(*results[0].t1.p_monte_carlo, *results[i].t1.p_monte_carlo);
    EXPECT_EQ(*results[0].t2.p_monte_carlo, *results[i].t2.p_monte_carlo);
    EXPECT_EQ(*results[0].t3.p_monte_carlo, *results[i].t3.p_monte_carlo);
    EXPECT_EQ(*results[0].t4.p_monte_carlo, *results[i].t4.p_monte_carlo);
  }
}

TEST(Clump, MonteCarloLeavesCallerRngIndependentOfTrialWork) {
  // The caller's RNG advances exactly `trials` draws — one seed per
  // replicate — so downstream consumers see the same stream whatever
  // the trial outcomes or worker count.
  ClumpConfig config;
  config.monte_carlo_trials = 32;
  config.monte_carlo_workers = 3;
  const Clump clump(config);
  Rng rng(5);
  clump.analyze(example_table(), rng);
  Rng expected(5);
  for (int i = 0; i < 32; ++i) expected();
  EXPECT_EQ(rng(), expected());
}

TEST(Clump, MonteCarloAgreesWithAnalyticOnLargeCounts) {
  // For a well-populated table the empirical T1 p-value should be in
  // the same ballpark as the analytic chi-square p-value.
  ContingencyTable t(2, 3);
  t.set(0, 0, 50);
  t.set(0, 1, 30);
  t.set(0, 2, 20);
  t.set(1, 0, 35);
  t.set(1, 1, 38);
  t.set(1, 2, 27);
  ClumpConfig config;
  config.monte_carlo_trials = 2000;
  const Clump clump(config);
  Rng rng(8);
  const auto result = clump.analyze(t, rng);
  EXPECT_NEAR(*result.t1.p_monte_carlo, result.t1.p_analytic, 0.05);
}

TEST(Clump, StrongAssociationGetsSmallMonteCarloP) {
  ContingencyTable t(2, 2);
  t.set(0, 0, 45);
  t.set(0, 1, 5);
  t.set(1, 0, 5);
  t.set(1, 1, 45);
  ClumpConfig config;
  config.monte_carlo_trials = 500;
  const Clump clump(config);
  Rng rng(9);
  const auto result = clump.analyze(t, rng);
  EXPECT_LE(*result.t1.p_monte_carlo, 2.0 / 501.0 + 1e-12);
}

TEST(Clump, NullTableScoresLow) {
  ContingencyTable t(2, 2);
  t.set(0, 0, 25);
  t.set(0, 1, 25);
  t.set(1, 0, 25);
  t.set(1, 1, 25);
  const Clump clump;
  Rng rng(10);
  const auto result = clump.analyze(t, rng);
  EXPECT_NEAR(result.t1.statistic, 0.0, 1e-9);
  EXPECT_NEAR(result.t1.p_analytic, 1.0, 1e-9);
}

TEST(Clump, ConfigValidation) {
  ClumpConfig config;
  config.rare_expected_threshold = -1.0;
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(Clump, RequiresTwoRows) {
  const Clump clump;
  ContingencyTable t(3, 2);
  Rng rng(11);
  EXPECT_DEATH(clump.analyze(t, rng), "precondition");
}

TEST(Clump, FixedModeReportsFullReplicateCount) {
  ClumpConfig config;
  config.monte_carlo_trials = 120;
  const Clump clump(config);
  Rng rng(12);
  const auto result = clump.analyze(example_table(), rng);
  EXPECT_EQ(result.mc_replicates_run, 120u);
  EXPECT_FALSE(result.mc_early_stopped);

  const Clump no_mc;
  Rng rng2(12);
  EXPECT_EQ(no_mc.analyze(example_table(), rng2).mc_replicates_run, 0u);
}

TEST(Clump, EarlyStopSavesReplicatesOnClearCalls) {
  // Every example-table statistic has an MC p-value around 2e-4, so
  // each q̂ sits essentially at zero, far below α = 0.05. Deciding
  // q̂ + ε < α needs ε < 0.05, i.e. roughly n > ln(2/δ)/(2·0.05²)
  // ≈ 2.2k replicates at the configured error rate; with 16k trials
  // the doubling schedule has look points at 4096 and 8192, so the
  // stopper must fire well short of the full budget.
  ClumpConfig config;
  config.monte_carlo_trials = 16000;
  config.mc_early_stop = true;
  config.mc_min_batch = 64;
  const Clump clump(config);
  Rng rng(13);
  const auto result = clump.analyze(example_table(), rng);
  EXPECT_TRUE(result.mc_early_stopped);
  EXPECT_LE(result.mc_replicates_run, 8192u);
  EXPECT_GE(result.mc_replicates_run, 64u);
  for (const auto* stat : {&result.t1, &result.t2, &result.t3, &result.t4}) {
    ASSERT_TRUE(stat->p_monte_carlo.has_value());
  }
}

TEST(Clump, EarlyStopSignificanceCallsAgreeWithFixedRun) {
  // The statistical acceptance property: on every decided statistic the
  // early-stopped significance call (p <= α vs p > α) matches the full
  // fixed-replicate run. Checked across several seeds and two tables —
  // the configured error rate (1e-3 per analysis) makes a disagreement
  // in 20 analyses essentially impossible (p < 1 - (1 - 1e-3)^20 ≈ 2%
  // even if every bound were exactly tight, and the Hoeffding bound is
  // conservative).
  ContingencyTable weak(2, 3);
  weak.set(0, 0, 30);
  weak.set(0, 1, 28);
  weak.set(0, 2, 22);
  weak.set(1, 0, 25);
  weak.set(1, 1, 27);
  weak.set(1, 2, 28);

  ClumpConfig fixed_config;
  fixed_config.monte_carlo_trials = 3000;
  const Clump fixed(fixed_config);

  ClumpConfig early_config = fixed_config;
  early_config.mc_early_stop = true;
  early_config.mc_min_batch = 128;
  const Clump early(early_config);

  const double alpha = early_config.mc_significance;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    for (const ContingencyTable& table : {example_table(), weak}) {
      Rng rng_fixed(seed), rng_early(seed);
      const auto full = fixed.analyze(table, rng_fixed);
      const auto stopped = early.analyze(table, rng_early);
      const auto call = [alpha](const ClumpStatistic& s) {
        return *s.p_monte_carlo <= alpha;
      };
      EXPECT_EQ(call(stopped.t1), call(full.t1)) << "seed " << seed;
      EXPECT_EQ(call(stopped.t2), call(full.t2)) << "seed " << seed;
      EXPECT_EQ(call(stopped.t3), call(full.t3)) << "seed " << seed;
      EXPECT_EQ(call(stopped.t4), call(full.t4)) << "seed " << seed;
    }
  }
}

TEST(Clump, EarlyStopConsumesSameRngAsFixedRun) {
  // Both modes pre-draw every configured trial seed, so the caller's
  // stream advances identically whether or not the stopper fires — a
  // GA run's downstream randomness cannot depend on the MC mode.
  ClumpConfig config;
  config.monte_carlo_trials = 256;
  config.mc_early_stop = true;
  const Clump early(config);
  Rng rng(14);
  early.analyze(example_table(), rng);
  Rng expected(14);
  for (int i = 0; i < 256; ++i) expected();
  EXPECT_EQ(rng(), expected());
}

TEST(Clump, EarlyStopInvariantUnderWorkerCount) {
  ClumpConfig config;
  config.monte_carlo_trials = 2000;
  config.mc_early_stop = true;
  std::vector<ClumpResult> results;
  for (const std::uint32_t workers : {1u, 3u, 0u}) {
    config.monte_carlo_workers = workers;
    const Clump clump(config);
    Rng rng(15);
    results.push_back(clump.analyze(example_table(), rng));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].mc_replicates_run, results[i].mc_replicates_run);
    EXPECT_EQ(*results[0].t1.p_monte_carlo, *results[i].t1.p_monte_carlo);
    EXPECT_EQ(*results[0].t4.p_monte_carlo, *results[i].t4.p_monte_carlo);
  }
}

TEST(Clump, EarlyStopConfigValidation) {
  ClumpConfig config;
  config.mc_early_stop = true;
  config.monte_carlo_trials = 0;  // stopping needs a replicate ceiling
  EXPECT_THROW(config.validate(), ConfigError);

  config.monte_carlo_trials = 100;
  config.mc_min_batch = 0;
  EXPECT_THROW(config.validate(), ConfigError);

  config.mc_min_batch = 16;
  for (const double bad : {0.0, 1.0, -0.1, 1.5}) {
    config.mc_significance = bad;
    EXPECT_THROW(config.validate(), ConfigError) << bad;
  }
  config.mc_significance = 0.05;
  for (const double bad : {0.0, 1.0, -1e-6, 2.0}) {
    config.mc_error_rate = bad;
    EXPECT_THROW(config.validate(), ConfigError) << bad;
  }
  config.mc_error_rate = 1e-3;
  EXPECT_NO_THROW(config.validate());
}

class ClumpReference : public ::testing::Test {
 protected:
  void TearDown() override { util::simd_force_level(std::nullopt); }
};

TEST_F(ClumpReference, ProductionMatchesOracleAtEveryLevelAndWorkerCount) {
  // Production CLUMP — dispatched kernels and the replicate-batched
  // Monte-Carlo engine — against the Kahan-summed per-trial oracle, on
  // EM-estimated tables of 2–6 loci, hand-built tables that reach every
  // branch of the partial deal and integer tables whose null replicates
  // tie the observed statistic: statistics to 1e-9 relative, df
  // and T4's group equal, and the same Monte-Carlo exceedance count
  // per statistic, at every dispatch level with the replicates run
  // inline and fanned over three workers. 300 trials leave a partial
  // 64-replicate sub-batch.
  genomics::SyntheticConfig cohort;
  cohort.snp_count = 12;
  cohort.affected_count = 80;
  cohort.unaffected_count = 80;
  cohort.unknown_count = 0;
  cohort.active_snp_count = 2;
  Rng cohort_rng(31);
  const auto synthetic = genomics::generate_synthetic(cohort, cohort_rng);
  const EhDiall eh_diall(synthetic.dataset);

  std::vector<ContingencyTable> tables;
  Rng pick(32);
  for (std::uint32_t i = 0; i < 20; ++i) {
    std::vector<genomics::SnpIndex> snps(cohort.snp_count);
    std::iota(snps.begin(), snps.end(), genomics::SnpIndex{0});
    pick.shuffle(std::span<genomics::SnpIndex>(snps));
    snps.resize(2 + i % 5);
    std::sort(snps.begin(), snps.end());
    tables.push_back(eh_diall.analyze(snps).to_contingency_table());
  }
  // The EM tables above have equal rounded rows of 160 (cut = N/2).
  // With N rounded observations, the deal draws positions [cut, N) and
  // takes the top row as the column totals minus that tail. The
  // hand-built tables below reach its other branches.
  const auto table_of = [](std::vector<double> top,
                           std::vector<double> bottom) {
    ContingencyTable table(2, static_cast<std::uint32_t>(top.size()));
    for (std::uint32_t c = 0; c < top.size(); ++c) {
      table.set(0, c, top[c]);
      table.set(1, c, bottom[c]);
    }
    return table;
  };
  // Integer counts: some null replicates tie the observed statistic
  // exactly, and the oracle's Kahan sums and the kernels may round such
  // a tie to different sides; reaches_observed counts it either way.
  // The rows-30/100 table both ways, then the 2×3 and 2×2 tables of
  // MonteCarloAgreesWithAnalyticOnLargeCounts and
  // StrongAssociationGetsSmallMonteCarloP.
  tables.push_back(table_of({12, 8, 5, 3, 2}, {20, 30, 25, 15, 10}));
  tables.push_back(table_of({20, 30, 25, 15, 10}, {12, 8, 5, 3, 2}));
  tables.push_back(table_of({50, 30, 20}, {35, 38, 27}));
  tables.push_back(table_of({45, 5}, {5, 45}));
  // Unequal rows of 30 and 100: cut = 30 of N = 130 (100 draws), then
  // with the rows swapped cut = 100 (30 draws).
  const std::vector<double> small{12.3, 7.9, 5.2, 3.1, 1.7};
  const std::vector<double> large{19.6, 30.4, 24.8, 15.3, 10.1};
  tables.push_back(table_of(small, large));
  tables.push_back(table_of(large, small));
  // The top row rounds to 0: cut = 0, so all N positions are drawn and
  // dealt to the bottom row (the draw over position 0 is the identity).
  tables.push_back(table_of({0.2, 0.1, 0.1, 0.05}, {10, 20, 15, 5}));
  // The bottom row rounds to 0: q1 = 0 and cut = N, so no draws.
  tables.push_back(table_of({10, 20, 15, 5}, {0.2, 0.1, 0.1, 0.05}));
  // Twelve columns of 2.52–2.56 round to 3 each (36) against rows of
  // 12.29 and 18.25 (12 + 18 = 30): the rounding fix clamps column 0
  // from 3 − 6 to 0, so N = 33 labels outnumber q0 + q1 = 30. The
  // draws over [30, 33) go to no row and [12, 30) to the bottom row.
  tables.push_back(table_of({2.51, 2.02, 0.53, 1.54, 1.01, 2.03, 0.52, 0.04,
                             1.02, 0.51, 0.53, 0.03},
                            {0.01, 0.52, 2.03, 1.01, 1.52, 0.53, 2.04, 2.51,
                             1.53, 2.02, 2.01, 2.52}));

  ClumpConfig config;
  config.monte_carlo_trials = 300;
  std::vector<ClumpResult> want;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    Rng rng(1000 + i);
    want.push_back(reference::clump_analyze(tables[i], config, rng));
  }
  const auto exceedances = [&](const ClumpStatistic& stat) {
    return std::lround(*stat.p_monte_carlo * (1.0 + config.monte_carlo_trials) -
                       1.0);
  };

  for (const util::SimdLevel level : util::simd_available_levels()) {
    util::simd_force_level(level);
    for (const std::uint32_t workers : {1u, 3u}) {
      config.monte_carlo_workers = workers;
      const Clump clump(config);
      for (std::size_t i = 0; i < tables.size(); ++i) {
        SCOPED_TRACE(::testing::Message()
                     << util::simd_level_name(level) << " workers " << workers
                     << " table " << i << " (" << tables[i].cols()
                     << " columns)");
        Rng rng(1000 + i);
        const ClumpResult got = clump.analyze(tables[i], rng);
        for (const auto member : {&ClumpResult::t1, &ClumpResult::t2,
                                  &ClumpResult::t3, &ClumpResult::t4}) {
          const ClumpStatistic& g = got.*member;
          const ClumpStatistic& w = want[i].*member;
          EXPECT_NEAR(g.statistic, w.statistic,
                      1e-9 * std::abs(w.statistic) + 1e-300);
          EXPECT_EQ(g.df, w.df);
          EXPECT_EQ(exceedances(g), exceedances(w));
        }
        EXPECT_EQ(got.t4_group, want[i].t4_group);
        EXPECT_EQ(got.mc_replicates_run, want[i].mc_replicates_run);
      }
    }
  }
}

}  // namespace
}  // namespace ldga::stats
