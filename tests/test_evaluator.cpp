#include "stats/evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "genomics/synthetic.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace ldga::stats {
namespace {

using genomics::SnpIndex;

TEST(Evaluator, ConfigValidation) {
  const auto dataset = ldga::testing::tiny_dataset();
  EvaluatorConfig config;
  config.max_loci = 0;
  EXPECT_THROW(HaplotypeEvaluator(dataset, config), ConfigError);
  config = {};
  config.max_loci = kMaxEmLoci + 1;
  EXPECT_THROW(HaplotypeEvaluator(dataset, config), ConfigError);
}

TEST(Evaluator, FitnessIsDeterministic) {
  const auto dataset = ldga::testing::tiny_dataset();
  const HaplotypeEvaluator ev1(dataset);
  const HaplotypeEvaluator ev2(dataset);
  const std::vector<SnpIndex> snps{0, 2};
  EXPECT_DOUBLE_EQ(ev1.fitness(snps), ev2.fitness(snps));
}

TEST(Evaluator, CacheCountsMissesOnly) {
  const auto dataset = ldga::testing::tiny_dataset();
  const HaplotypeEvaluator evaluator(dataset);
  const std::vector<SnpIndex> a{0, 1};
  const std::vector<SnpIndex> b{0, 2};

  evaluator.fitness(a);
  evaluator.fitness(a);
  evaluator.fitness(b);
  evaluator.fitness(a);
  EXPECT_EQ(evaluator.evaluation_count(), 2u);
  EXPECT_EQ(evaluator.request_count(), 4u);

  evaluator.reset_counters();
  EXPECT_EQ(evaluator.evaluation_count(), 0u);
  // Cache survives counter reset: no new evaluation for a known key.
  evaluator.fitness(a);
  EXPECT_EQ(evaluator.evaluation_count(), 0u);
  EXPECT_EQ(evaluator.request_count(), 1u);
}

TEST(Evaluator, CachedAndUncachedAgree) {
  const auto dataset = ldga::testing::tiny_dataset();
  const HaplotypeEvaluator evaluator(dataset);
  const std::vector<SnpIndex> snps{0, 1, 3};
  EXPECT_DOUBLE_EQ(evaluator.fitness(snps),
                   evaluator.evaluate_full(snps).fitness);
}

TEST(Evaluator, UnsortedInputDies) {
  const auto dataset = ldga::testing::tiny_dataset();
  const HaplotypeEvaluator evaluator(dataset);
  EXPECT_DEATH(evaluator.fitness(std::vector<SnpIndex>{2, 0}),
               "precondition");
}

TEST(Evaluator, PerfectSeparatorOutscoresNoise) {
  const auto dataset = ldga::testing::tiny_dataset();
  const HaplotypeEvaluator evaluator(dataset);
  const double strong = evaluator.fitness(std::vector<SnpIndex>{0});
  const double weak = evaluator.fitness(std::vector<SnpIndex>{2});
  EXPECT_GT(strong, weak);
}

TEST(Evaluator, FitnessGrowsWithHaplotypeSize) {
  // The paper's §3 observation: larger haplotypes produce larger
  // statistics (more table columns), so sizes are not comparable.
  const auto synthetic = ldga::testing::small_synthetic(10, 2, 11);
  const HaplotypeEvaluator evaluator(synthetic.dataset);
  double mean2 = 0.0, mean4 = 0.0;
  int n = 0;
  for (SnpIndex a = 0; a + 3 < 10; a += 2) {
    mean2 += evaluator
                 .evaluate_full(std::vector<SnpIndex>{a, static_cast<SnpIndex>(a + 1)})
                 .fitness;
    mean4 += evaluator
                 .evaluate_full(std::vector<SnpIndex>{
                     a, static_cast<SnpIndex>(a + 1),
                     static_cast<SnpIndex>(a + 2), static_cast<SnpIndex>(a + 3)})
                 .fitness;
    ++n;
  }
  EXPECT_GT(mean4 / n, mean2 / n);
}

TEST(Evaluator, ConcurrentRequestsAreConsistent) {
  const auto synthetic = ldga::testing::small_synthetic(10, 2, 13);
  const HaplotypeEvaluator evaluator(synthetic.dataset);

  // Serial reference values.
  std::vector<std::vector<SnpIndex>> keys;
  for (SnpIndex a = 0; a + 1 < 10; ++a) {
    for (SnpIndex b = a + 1; b < 10; ++b) {
      keys.push_back({a, b});
    }
  }
  std::vector<double> reference(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    reference[i] = evaluator.evaluate_full(keys[i]).fitness;
  }

  std::vector<double> results(keys.size(), -1.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < keys.size();
           i += 4) {
        results[i] = evaluator.fitness(keys[i]);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i], reference[i]);
  }
}

TEST(Evaluator, AlternativeFitnessStatistics) {
  const auto dataset = ldga::testing::tiny_dataset();
  const std::vector<SnpIndex> snps{0, 1};

  EvaluatorConfig lrt_config;
  lrt_config.fitness_statistic = FitnessStatistic::Lrt;
  const HaplotypeEvaluator lrt_eval(dataset, lrt_config);
  const auto full = lrt_eval.evaluate_full(snps);
  EXPECT_DOUBLE_EQ(full.fitness, full.lrt);

  EvaluatorConfig t3_config;
  t3_config.fitness_statistic = FitnessStatistic::T3;
  const HaplotypeEvaluator t3_eval(dataset, t3_config);
  const auto t3_full = t3_eval.evaluate_full(snps);
  const auto clump = t3_eval.clump_analysis(snps);
  EXPECT_NEAR(t3_full.fitness, clump.t3.statistic, 1e-9);
}

TEST(Evaluator, FitnessPathMatchesEvaluateFullBitForBit) {
  // The cached fitness path skips the pooled EM unless the statistic
  // reads it; evaluate_full always runs all three. The fitness must be
  // the same bits either way: every statistic (Monte Carlo on for
  // T2–T4), sizes 2–6, both missing-data policies, on a cohort with
  // missing calls.
  genomics::SyntheticConfig cohort;
  cohort.snp_count = 10;
  cohort.affected_count = 50;
  cohort.unaffected_count = 50;
  cohort.unknown_count = 0;
  cohort.active_snp_count = 2;
  cohort.missing_rate = 0.08;
  Rng rng(77);
  const auto synthetic = genomics::generate_synthetic(cohort, rng);
  const std::vector<std::vector<SnpIndex>> candidates{
      {0, 3}, {1, 4, 7}, {0, 2, 5, 9}, {1, 3, 4, 6, 8}, {0, 2, 3, 5, 7, 9}};

  for (const MissingPolicy policy :
       {MissingPolicy::CompleteCase, MissingPolicy::Marginalize}) {
    for (const FitnessStatistic statistic :
         {FitnessStatistic::T1, FitnessStatistic::T2, FitnessStatistic::T3,
          FitnessStatistic::T4, FitnessStatistic::Lrt}) {
      EvaluatorConfig config;
      config.em.missing = policy;
      config.fitness_statistic = statistic;
      config.clump.monte_carlo_trials = 50;
      const HaplotypeEvaluator evaluator(synthetic.dataset, config);
      for (const auto& snps : candidates) {
        SCOPED_TRACE(::testing::Message()
                     << "statistic " << static_cast<int>(statistic)
                     << " size " << snps.size() << " marginalize "
                     << (policy == MissingPolicy::Marginalize));
        const double full = evaluator.evaluate_full(snps).fitness;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(evaluator.fitness(snps)),
                  std::bit_cast<std::uint64_t>(full));
      }
      EXPECT_EQ(evaluator.failed_evaluation_count(), 0u);
    }
  }
}

TEST(Evaluator, ReportsEmDiagnostics) {
  const auto dataset = ldga::testing::tiny_dataset();
  const HaplotypeEvaluator evaluator(dataset);
  const auto result = evaluator.evaluate_full(std::vector<SnpIndex>{0, 1});
  EXPECT_TRUE(result.em_converged);
  EXPECT_GT(result.em_iterations_total, 0u);
  EXPECT_GE(result.table_columns, 1u);
  EXPECT_LE(result.table_columns, 4u);
}

TEST(EvaluatorDegradation, StrictEmFailureMapsToPenalty) {
  // max_iterations = 1 with an unreachable tolerance cannot converge;
  // in strict mode with the penalize policy, the candidate scores the
  // penalty instead of poisoning the evaluation phase.
  const auto dataset = ldga::testing::tiny_dataset();
  EvaluatorConfig config;
  config.em.max_iterations = 1;
  config.em.tolerance = 1e-300;
  config.require_em_convergence = true;
  config.penalty_fitness = -1.0;
  const HaplotypeEvaluator evaluator(dataset, config);
  const std::vector<SnpIndex> snps{0, 1};
  ASSERT_FALSE(evaluator.evaluate_full(snps).em_converged);

  EXPECT_DOUBLE_EQ(evaluator.fitness(snps), -1.0);
  EXPECT_EQ(evaluator.failed_evaluation_count(), 1u);
  EXPECT_NE(evaluator.last_failure().find("EM did not converge"),
            std::string::npos);
  // The SNP set is reported 1-based, matching every other report.
  EXPECT_NE(evaluator.last_failure().find("{1 2}"), std::string::npos);

  // The penalty is cached like any fitness: no second pipeline run.
  evaluator.fitness(snps);
  EXPECT_EQ(evaluator.failed_evaluation_count(), 1u);
}

TEST(EvaluatorDegradation, PropagatePolicyThrowsTypedError) {
  const auto dataset = ldga::testing::tiny_dataset();
  EvaluatorConfig config;
  config.em.max_iterations = 1;
  config.em.tolerance = 1e-300;
  config.require_em_convergence = true;
  config.failure_policy = EvaluationFailurePolicy::kPropagate;
  const HaplotypeEvaluator evaluator(dataset, config);
  try {
    evaluator.fitness(std::vector<SnpIndex>{0, 1});
    FAIL() << "expected EvaluationError";
  } catch (const EvaluationError& error) {
    EXPECT_EQ(error.reason(), EvaluationError::Reason::kEmNotConverged);
  }
  EXPECT_EQ(evaluator.failed_evaluation_count(), 1u);
}

TEST(EvaluatorDegradation, LenientModeKeepsUnconvergedStatistic) {
  // Default policy: a capped EM still yields the statistic (original EH
  // behaviour), so nothing is penalized.
  const auto dataset = ldga::testing::tiny_dataset();
  EvaluatorConfig config;
  config.em.max_iterations = 1;
  config.em.tolerance = 1e-300;
  const HaplotypeEvaluator evaluator(dataset, config);
  const std::vector<SnpIndex> snps{0, 1};
  EXPECT_DOUBLE_EQ(evaluator.fitness(snps),
                   evaluator.evaluate_full(snps).fitness);
  EXPECT_EQ(evaluator.failed_evaluation_count(), 0u);
  EXPECT_TRUE(evaluator.last_failure().empty());
}

TEST(EvaluatorDegradation, StrictModeChecksThePooledEm) {
  // Strict mode fails a candidate when any of the three EH-DIALL runs
  // stops at its cap, so its fitness path must run the pooled EM that a
  // lenient T1 fitness skips. Take a candidate whose pooled EM needs
  // more iterations than both group EMs and cap EM at the groups' need:
  // only the pooled run then stops short.
  const auto synthetic = ldga::testing::small_synthetic(10, 2, 31);
  const EhDiall uncapped(synthetic.dataset);
  std::vector<SnpIndex> snps;
  std::uint32_t cap = 0;
  for (SnpIndex a = 0; a < 10 && snps.empty(); ++a) {
    for (SnpIndex b = a + 1; b < 10 && snps.empty(); ++b) {
      const std::vector<SnpIndex> pair{a, b};
      const EhDiallResult eh = uncapped.analyze(pair);
      const std::uint32_t groups =
          std::max(eh.affected.iterations, eh.unaffected.iterations);
      if (eh.pooled.value().iterations > groups) {
        snps = pair;
        cap = groups;
      }
    }
  }
  ASSERT_FALSE(snps.empty());

  EvaluatorConfig config;
  config.em.max_iterations = cap;
  const EhDiallResult capped =
      EhDiall(synthetic.dataset, config.em).analyze(snps);
  ASSERT_TRUE(capped.affected.converged);
  ASSERT_TRUE(capped.unaffected.converged);
  ASSERT_FALSE(capped.pooled.value().converged);

  const HaplotypeEvaluator lenient(synthetic.dataset, config);
  const double statistic = lenient.evaluate_full(snps).fitness;
  EXPECT_EQ(lenient.fitness(snps), statistic);
  EXPECT_EQ(lenient.failed_evaluation_count(), 0u);

  config.require_em_convergence = true;
  config.penalty_fitness = -1.0;
  const HaplotypeEvaluator strict(synthetic.dataset, config);
  EXPECT_DOUBLE_EQ(strict.fitness(snps), -1.0);
  EXPECT_EQ(strict.failed_evaluation_count(), 1u);

  config.failure_policy = EvaluationFailurePolicy::kPropagate;
  const HaplotypeEvaluator propagating(synthetic.dataset, config);
  try {
    propagating.fitness(snps);
    FAIL() << "expected EvaluationError";
  } catch (const EvaluationError& error) {
    EXPECT_EQ(error.reason(), EvaluationError::Reason::kEmNotConverged);
  }
}

TEST(EvaluatorDegradation, NonFinitePenaltyIsRejected) {
  const auto dataset = ldga::testing::tiny_dataset();
  EvaluatorConfig config;
  config.penalty_fitness = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(HaplotypeEvaluator(dataset, config), ConfigError);
}

TEST(Evaluator, TooManyLociDies) {
  const auto synthetic = ldga::testing::small_synthetic(20, 0, 3);
  EvaluatorConfig config;
  config.max_loci = 3;
  const HaplotypeEvaluator evaluator(synthetic.dataset, config);
  EXPECT_DEATH(
      evaluator.evaluate_full(std::vector<SnpIndex>{0, 1, 2, 3}),
      "precondition");
}

TEST(Evaluator, ValidatedRejectsBadEarlyStopSettings) {
  // Early stopping without replicates: the stopper has no ceiling to
  // work under, so validated() must refuse rather than silently no-op.
  EvaluatorConfig config;
  config.clump.mc_early_stop = true;
  config.clump.monte_carlo_trials = 0;
  EXPECT_THROW(config.validated(), ConfigError);

  config = {};
  config.clump.monte_carlo_trials = 100;
  config.clump.mc_early_stop = true;
  config.clump.mc_significance = 1.0;  // must be strictly inside (0, 1)
  EXPECT_THROW(config.validated(), ConfigError);
  config.clump.mc_significance = 0.0;
  EXPECT_THROW(config.validated(), ConfigError);
  config.clump.mc_significance = 0.05;
  config.clump.mc_error_rate = 1.0;
  EXPECT_THROW(config.validated(), ConfigError);
  config.clump.mc_error_rate = 1e-3;
  EXPECT_NO_THROW(config.validated());
}

TEST(Evaluator, MonteCarloReplicateCountersTrackClumpRuns) {
  const auto synthetic = ldga::testing::small_synthetic();
  EvaluatorConfig config;
  config.fitness_statistic = FitnessStatistic::T3;
  config.clump.monte_carlo_trials = 200;
  const HaplotypeEvaluator evaluator(synthetic.dataset, config);
  EXPECT_EQ(evaluator.mc_replicates_run(), 0u);
  (void)evaluator.evaluate_full(std::vector<SnpIndex>{0, 1});
  EXPECT_EQ(evaluator.mc_replicates_run(), 200u);
  EXPECT_EQ(evaluator.mc_replicates_saved(), 0u);

  EvaluatorConfig early = config;
  early.clump.mc_early_stop = true;
  early.clump.mc_min_batch = 16;
  const HaplotypeEvaluator stopper(synthetic.dataset, early);
  (void)stopper.evaluate_full(std::vector<SnpIndex>{0, 1});
  const std::uint64_t run = stopper.mc_replicates_run();
  EXPECT_GT(run, 0u);
  EXPECT_EQ(stopper.mc_replicates_saved(), 200u - run);

  stopper.reset_counters();
  EXPECT_EQ(stopper.mc_replicates_run(), 0u);
  EXPECT_EQ(stopper.mc_replicates_saved(), 0u);
}

TEST(Evaluator, EarlyStoppingNeverChangesFitness) {
  // GA fitness for T2/T3/T4 is the statistic value, not the MC p-value,
  // so the early stopper must leave every fitness bit-identical.
  const auto synthetic = ldga::testing::small_synthetic(12, 2, 31);
  for (const FitnessStatistic stat :
       {FitnessStatistic::T2, FitnessStatistic::T3, FitnessStatistic::T4}) {
    EvaluatorConfig fixed;
    fixed.fitness_statistic = stat;
    fixed.clump.monte_carlo_trials = 400;
    EvaluatorConfig early = fixed;
    early.clump.mc_early_stop = true;
    const HaplotypeEvaluator a(synthetic.dataset, fixed);
    const HaplotypeEvaluator b(synthetic.dataset, early);
    for (const auto& snps : std::vector<std::vector<SnpIndex>>{
             {0, 1}, {2, 5, 8}, {1, 3, 6, 9}}) {
      EXPECT_EQ(a.fitness(snps), b.fitness(snps));
    }
  }
}

}  // namespace
}  // namespace ldga::stats
