#include "stats/permutation.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "util/error.hpp"

namespace ldga::stats {
namespace {

using genomics::SnpIndex;

TEST(Permutation, ConfigValidation) {
  PermutationConfig config;
  config.permutations = 0;
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(Permutation, PlantedSignalGetsSmallPValue) {
  const auto synthetic = ldga::testing::small_synthetic(12, 2, 515);
  PermutationConfig config;
  config.permutations = 99;
  config.seed = 3;
  const auto result = permutation_test(synthetic.dataset,
                                       synthetic.truth.snps, {}, config);
  EXPECT_GT(result.observed, result.permutation_mean);
  EXPECT_LE(result.p_value, 0.05 + 1e-12);
}

TEST(Permutation, NullSetGetsLargePValue) {
  // A pure-null cohort: no SNP set should look significant on average.
  genomics::SyntheticConfig data_config;
  data_config.snp_count = 10;
  data_config.affected_count = 40;
  data_config.unaffected_count = 40;
  data_config.unknown_count = 0;
  data_config.active_snp_count = 0;
  Rng rng(21);
  const auto synthetic = genomics::generate_synthetic(data_config, rng);

  PermutationConfig config;
  config.permutations = 99;
  config.seed = 4;
  const auto result = permutation_test(
      synthetic.dataset, std::vector<SnpIndex>{1, 5}, {}, config);
  EXPECT_GT(result.p_value, 0.01);
}

TEST(Permutation, DeterministicForSeed) {
  const auto synthetic = ldga::testing::small_synthetic(10, 2, 616);
  PermutationConfig config;
  config.permutations = 50;
  config.seed = 9;
  const auto a = permutation_test(synthetic.dataset,
                                  std::vector<SnpIndex>{0, 3}, {}, config);
  const auto b = permutation_test(synthetic.dataset,
                                  std::vector<SnpIndex>{0, 3}, {}, config);
  EXPECT_EQ(a.ge_count, b.ge_count);
  EXPECT_DOUBLE_EQ(a.p_value, b.p_value);
}

TEST(Permutation, WorkerCountDoesNotChangeResults) {
  const auto synthetic = ldga::testing::small_synthetic(10, 2, 717);
  PermutationConfig serial;
  serial.permutations = 60;
  serial.seed = 11;
  serial.workers = 1;
  PermutationConfig parallel_config = serial;
  parallel_config.workers = 4;
  const auto a = permutation_test(synthetic.dataset,
                                  std::vector<SnpIndex>{2, 7}, {}, serial);
  const auto b = permutation_test(
      synthetic.dataset, std::vector<SnpIndex>{2, 7}, {}, parallel_config);
  EXPECT_EQ(a.ge_count, b.ge_count);
  EXPECT_DOUBLE_EQ(a.permutation_mean, b.permutation_mean);
}

TEST(Permutation, ObservedIsTheFullEvaluationsFitnessBitForBit) {
  // Cohorts are scored through fitness(), which skips the pooled EM
  // under T1–T4; the statistic must not move by a bit.
  const auto synthetic = ldga::testing::small_synthetic(12, 2, 919);
  EvaluatorConfig t3;
  t3.fitness_statistic = FitnessStatistic::T3;
  t3.clump.monte_carlo_trials = 200;
  PermutationConfig config;
  config.permutations = 5;
  for (const EvaluatorConfig& evaluator_config : {EvaluatorConfig{}, t3}) {
    const auto result = permutation_test(
        synthetic.dataset, synthetic.truth.snps, evaluator_config, config);
    const HaplotypeEvaluator evaluator(synthetic.dataset, evaluator_config);
    EXPECT_EQ(result.observed,
              evaluator.evaluate_full(synthetic.truth.snps).fitness);
  }
}

TEST(Permutation, PValueBounds) {
  const auto synthetic = ldga::testing::small_synthetic(10, 2, 818);
  PermutationConfig config;
  config.permutations = 19;
  const auto result = permutation_test(synthetic.dataset,
                                       std::vector<SnpIndex>{0, 1}, {},
                                       config);
  EXPECT_GE(result.p_value, 1.0 / 20.0 - 1e-12);
  EXPECT_LE(result.p_value, 1.0);
  EXPECT_GE(result.permutation_max, result.permutation_mean);
}

}  // namespace
}  // namespace ldga::stats
