#include "ga/engine.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "parallel/fault_injection.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace ldga::ga {
namespace {

/// A small, fast configuration used across the engine tests.
GaConfig fast_config() {
  GaConfig config;
  config.min_size = 2;
  config.max_size = 4;
  config.population_size = 30;
  config.min_subpopulation = 5;
  config.crossovers_per_generation = 6;
  config.mutations_per_generation = 10;
  config.stagnation_generations = 15;
  config.random_immigrant_stagnation = 6;
  config.max_generations = 60;
  config.seed = 5;
  return config;
}

const genomics::Dataset& shared_dataset() {
  static const auto synthetic = ldga::testing::small_synthetic(12, 2, 321);
  return synthetic.dataset;
}

const stats::HaplotypeEvaluator& shared_evaluator() {
  static const stats::HaplotypeEvaluator evaluator(shared_dataset());
  return evaluator;
}

TEST(GaConfigValidation, CatchesBadSettings) {
  GaConfig config = fast_config();
  config.min_size = 0;
  EXPECT_THROW(config.validate(), ConfigError);

  config = fast_config();
  config.population_size = 5;  // < 3 sizes * 5 minimum
  EXPECT_THROW(config.validate(), ConfigError);

  config = fast_config();
  config.mutation_global_rate = 0.0;
  EXPECT_THROW(config.validate(), ConfigError);

  config = fast_config();
  config.min_operator_rate = 0.5;  // 3 * 0.5 > 0.9
  EXPECT_THROW(config.validate(), ConfigError);

  config = fast_config();
  config.crossovers_per_generation = 0;
  config.mutations_per_generation = 0;
  EXPECT_THROW(config.validate(), ConfigError);

  config = fast_config();
  EXPECT_NO_THROW(config.validate());
}

TEST(GaEngine, RejectsMaxSizeBeyondEvaluator) {
  stats::EvaluatorConfig eval_config;
  eval_config.max_loci = 3;
  const auto synthetic = ldga::testing::small_synthetic(12, 2, 1);
  const stats::HaplotypeEvaluator evaluator(synthetic.dataset, eval_config);
  GaConfig config = fast_config();  // max_size = 4 > 3
  EXPECT_THROW(GaEngine(evaluator, config), ConfigError);
}

TEST(GaEngine, RejectsPanelWithNoSpareSnps) {
  const auto synthetic = ldga::testing::small_synthetic(4, 0, 2);
  const stats::HaplotypeEvaluator evaluator(synthetic.dataset);
  GaConfig config = fast_config();  // max_size = 4 == panel size
  EXPECT_THROW(GaEngine(evaluator, config), ConfigError);
}

TEST(GaEngine, RunProducesBestPerSize) {
  GaEngine engine(shared_evaluator(), fast_config());
  const GaResult result = engine.run();
  ASSERT_EQ(result.best_by_size.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto& best = result.best_by_size[i];
    EXPECT_EQ(best.size(), 2u + i);
    EXPECT_TRUE(best.evaluated());
    EXPECT_GE(best.fitness(), 0.0);
  }
  EXPECT_GT(result.generations, 0u);
  EXPECT_GT(result.evaluations, 0u);
}

TEST(GaEngine, DeterministicForFixedSeed) {
  GaEngine engine1(shared_evaluator(), fast_config());
  GaEngine engine2(shared_evaluator(), fast_config());
  const GaResult r1 = engine1.run();
  const GaResult r2 = engine2.run();
  ASSERT_EQ(r1.best_by_size.size(), r2.best_by_size.size());
  for (std::size_t i = 0; i < r1.best_by_size.size(); ++i) {
    EXPECT_TRUE(r1.best_by_size[i].same_snps(r2.best_by_size[i]));
    EXPECT_DOUBLE_EQ(r1.best_by_size[i].fitness(),
                     r2.best_by_size[i].fitness());
  }
  EXPECT_EQ(r1.generations, r2.generations);
}

TEST(GaEngine, BackendsProduceIdenticalSearch) {
  // The batched evaluation service scatters results in task order, so
  // serial, pool and farm runs must walk the identical trajectory.
  // Each run gets a fresh evaluator (cold cache) so every backend does
  // its own full share of pipeline work.
  const stats::HaplotypeEvaluator serial_eval(shared_dataset());
  const GaResult rs =
      GaEngine(serial_eval, fast_config(),
               stats::make_serial_backend(serial_eval))
          .run();

  stats::BackendOptions pool_options;
  pool_options.workers = 3;
  const stats::HaplotypeEvaluator pool_eval(shared_dataset());
  const GaResult rp =
      GaEngine(pool_eval, fast_config(),
               stats::make_thread_pool_backend(pool_eval, pool_options))
          .run();

  stats::BackendOptions farm_options;
  farm_options.workers = 2;
  const stats::HaplotypeEvaluator farm_eval(shared_dataset());
  const GaResult rf =
      GaEngine(farm_eval, fast_config(),
               stats::make_farm_backend(farm_eval, farm_options))
          .run();

  ASSERT_EQ(rs.best_by_size.size(), rp.best_by_size.size());
  for (std::size_t i = 0; i < rs.best_by_size.size(); ++i) {
    EXPECT_TRUE(rs.best_by_size[i].same_snps(rp.best_by_size[i]));
    EXPECT_TRUE(rs.best_by_size[i].same_snps(rf.best_by_size[i]));
  }
  EXPECT_EQ(rs.generations, rp.generations);
  EXPECT_EQ(rs.generations, rf.generations);
  // Identical trajectories must also cost identical pipeline work.
  EXPECT_EQ(serial_eval.evaluation_count(), pool_eval.evaluation_count());
  EXPECT_EQ(serial_eval.evaluation_count(), farm_eval.evaluation_count());
}

TEST(GaEngine, StagnationTerminatesTheRun) {
  GaConfig config = fast_config();
  config.stagnation_generations = 5;
  config.max_generations = 1000;
  config.schemes.random_immigrants = false;
  GaEngine engine(shared_evaluator(), config);
  const GaResult result = engine.run();
  EXPECT_TRUE(result.terminated_by_stagnation);
  EXPECT_LT(result.generations, 1000u);
}

TEST(GaEngine, MaxGenerationsCapsTheRun) {
  GaConfig config = fast_config();
  config.stagnation_generations = 100000;
  config.max_generations = 7;
  GaEngine engine(shared_evaluator(), config);
  const GaResult result = engine.run();
  EXPECT_EQ(result.generations, 7u);
  EXPECT_FALSE(result.terminated_by_stagnation);
}

TEST(GaEngine, MaxEvaluationsStopsEarly) {
  GaConfig config = fast_config();
  config.stagnation_generations = 100000;
  config.max_generations = 100000;
  config.max_evaluations = 200;
  GaEngine engine(shared_evaluator(), config);
  const GaResult result = engine.run();
  // Stops at the first generation boundary past the budget.
  EXPECT_LT(result.evaluations, 600u);
}

TEST(GaEngine, RandomImmigrantsFireUnderStagnation) {
  GaConfig config = fast_config();
  config.random_immigrant_stagnation = 3;
  config.stagnation_generations = 20;
  GaEngine engine(shared_evaluator(), config);
  const GaResult result = engine.run();
  EXPECT_GT(result.immigrant_events, 0u);
}

TEST(GaEngine, SchemesDisableMechanisms) {
  GaConfig config = fast_config();
  config.schemes = GaSchemes::baseline();
  GaEngine engine(shared_evaluator(), config);
  const GaResult result = engine.run();
  EXPECT_EQ(result.immigrant_events, 0u);
  // Baseline still produces valid per-size results.
  EXPECT_EQ(result.best_by_size.size(), 3u);
}

TEST(GaEngine, HistoryAndCallback) {
  GaConfig config = fast_config();
  config.record_history = true;
  GaEngine engine(shared_evaluator(), config);
  std::uint32_t callbacks = 0;
  engine.set_generation_callback(
      [&callbacks](const GenerationInfo& info) {
        ++callbacks;
        EXPECT_EQ(info.best_by_size.size(), 3u);
        EXPECT_EQ(info.rates.mutation.size(), 3u);
        EXPECT_EQ(info.rates.crossover.size(), 2u);
        double mutation_sum = 0.0;
        for (const double r : info.rates.mutation) mutation_sum += r;
        EXPECT_NEAR(mutation_sum, 0.9, 1e-9);
      });
  const GaResult result = engine.run();
  EXPECT_EQ(callbacks, result.generations);
  EXPECT_EQ(result.history.size(), result.generations);
  // Evaluations are cumulative in history.
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_GE(result.history[i].evaluations,
              result.history[i - 1].evaluations);
  }
}

TEST(GaEngine, DisabledSizeMutationsKeepSingleOperator) {
  GaConfig config = fast_config();
  config.schemes.size_mutations = false;
  config.record_history = true;
  GaEngine engine(shared_evaluator(), config);
  const GaResult result = engine.run();
  ASSERT_FALSE(result.history.empty());
  EXPECT_EQ(result.history.front().rates.mutation.size(), 1u);
}

TEST(GaEngine, DisabledInterCrossoverKeepsSingleOperator) {
  GaConfig config = fast_config();
  config.schemes.inter_population_crossover = false;
  config.record_history = true;
  GaEngine engine(shared_evaluator(), config);
  const GaResult result = engine.run();
  ASSERT_FALSE(result.history.empty());
  EXPECT_EQ(result.history.front().rates.crossover.size(), 1u);
}

TEST(GaEngine, WarmStartsEnterThePopulation) {
  // Seed the known best size-2 set; the GA's size-2 winner can then
  // never be worse than it.
  GaConfig config = fast_config();
  config.warm_starts = {{0, 1}, {2, 5, 9}};
  config.max_generations = 5;
  config.stagnation_generations = 5;
  GaEngine engine(shared_evaluator(), config);
  const GaResult result = engine.run();
  const double seeded_fitness =
      shared_evaluator().evaluate_full(std::vector<SnpIndex>{0, 1}).fitness;
  EXPECT_GE(result.best_by_size[0].fitness(), seeded_fitness - 1e-9);
}

TEST(GaEngine, WarmStartOutsideSizeRangeIsRejected) {
  GaConfig config = fast_config();  // sizes 2..4
  config.warm_starts = {{0, 1, 2, 3, 4}};
  EXPECT_THROW(GaEngine(shared_evaluator(), config), ConfigError);
}

TEST(GaEngine, DuplicateWarmStartsAreDeduplicated) {
  GaConfig config = fast_config();
  config.warm_starts = {{0, 1}, {1, 0}, {0, 1}};
  config.max_generations = 3;
  config.stagnation_generations = 3;
  GaEngine engine(shared_evaluator(), config);
  EXPECT_NO_THROW(engine.run());
}

TEST(GaEngine, UniformAllocationAlsoRuns) {
  GaConfig config = fast_config();
  config.allocation = AllocationPolicy::Uniform;
  GaEngine engine(shared_evaluator(), config);
  const GaResult result = engine.run();
  EXPECT_EQ(result.best_by_size.size(), 3u);
  for (const auto& best : result.best_by_size) {
    EXPECT_TRUE(best.evaluated());
  }
}

TEST(GaEngine, RespectsFeasibilityFilterInWinners) {
  // With an enabled filter and a panel with plenty of feasible pairs,
  // the per-size winners must satisfy the §2.3 conditions.
  static const auto synthetic = ldga::testing::small_synthetic(12, 2, 808);
  static const stats::HaplotypeEvaluator evaluator(synthetic.dataset);
  static const auto ld = genomics::LdMatrix::compute(synthetic.dataset);
  static const auto freqs =
      genomics::AlleleFrequencyTable::estimate(synthetic.dataset);
  ConstraintConfig constraint_config;
  constraint_config.max_pairwise_d_prime = 0.995;
  const FeasibilityFilter filter(ld, freqs, constraint_config);
  ASSERT_TRUE(filter.enabled());

  GaConfig config = fast_config();
  config.max_generations = 40;
  GaEngine engine(evaluator, config, filter);
  const GaResult result = engine.run();
  for (const auto& best : result.best_by_size) {
    EXPECT_TRUE(filter.feasible(best.snps()))
        << "winner " << best.to_string() << " violates constraints";
  }
}

TEST(GaEngineFaultTolerance, FarmWithInjectedFaultsMatchesSerialRun) {
  // Acceptance: with a deterministic 20% injected failure rate on every
  // evaluation attempt, a full farm run must complete every phase and
  // still walk the exact serial trajectory (faults are retried, never
  // change results).
  GaConfig config = fast_config();
  config.max_generations = 15;

  const stats::HaplotypeEvaluator serial_eval(shared_dataset());
  const GaResult rs = GaEngine(serial_eval, config).run();

  parallel::FaultInjector::Config faults;
  faults.seed = 99;
  faults.throw_probability = 0.2;
  auto injector = std::make_shared<parallel::FaultInjector>(faults);

  stats::BackendOptions options;
  options.workers = 3;
  // 20% per attempt exhausts the default 2 retries once in ~125 tasks;
  // give the policy enough headroom that exhaustion never happens.
  options.farm_policy.max_task_retries = 8;
  options.fault_injector = injector;
  const stats::HaplotypeEvaluator farm_eval(shared_dataset());
  GaEngine noisy(farm_eval, config,
                 stats::make_farm_backend(farm_eval, options));
  const GaResult rf = noisy.run();

  ASSERT_EQ(rf.best_by_size.size(), rs.best_by_size.size());
  for (std::size_t i = 0; i < rs.best_by_size.size(); ++i) {
    EXPECT_TRUE(rf.best_by_size[i].same_snps(rs.best_by_size[i]));
    EXPECT_DOUBLE_EQ(rf.best_by_size[i].fitness(),
                     rs.best_by_size[i].fitness());
  }
  EXPECT_EQ(rf.generations, rs.generations);
  EXPECT_GT(injector->injected_throws(), 0u);
  EXPECT_GT(rf.farm_stats.retries, 0u);
  EXPECT_EQ(rf.farm_stats.retries, rf.farm_stats.failures);
  // The fault-free serial run reports phases but no failures.
  EXPECT_GT(rs.farm_stats.phases, 0u);
  EXPECT_EQ(rs.farm_stats.failures, 0u);
}

class GaEngineCheckpoint : public ::testing::Test {
 protected:
  // One file per test: ctest runs each test as its own process, in
  // parallel under -j, so a shared path would let one test's
  // SetUp/TearDown delete another's checkpoint.
  std::string path_ =
      ::testing::TempDir() + "ldga_engine_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".ckpt";

  void SetUp() override { std::remove(path_.c_str()); }
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(GaEngineCheckpoint, KilledRunResumesToIdenticalResult) {
  // Acceptance: run A executes uninterrupted; run B is "killed" after
  // 11 generations (last snapshot at 8) and then resumed. Both must
  // reach the identical final best-per-size haplotypes and stop at the
  // same generation, because resume restores the complete
  // inter-generation state (population, rates, RNG stream, stagnation
  // counters).
  GaConfig base = fast_config();
  base.max_generations = 30;
  const GaResult full = GaEngine(shared_evaluator(), base).run();

  GaConfig interrupted = base;
  interrupted.checkpoint.path = path_;
  interrupted.checkpoint.every = 4;
  interrupted.max_generations = 11;  // the "kill"
  const GaResult partial = GaEngine(shared_evaluator(), interrupted).run();
  ASSERT_EQ(partial.generations, 11u);
  ASSERT_TRUE(checkpoint_exists(path_));

  GaConfig resumed_config = base;
  resumed_config.checkpoint.path = path_;
  resumed_config.checkpoint.every = 4;
  resumed_config.checkpoint.resume = true;
  const GaResult resumed =
      GaEngine(shared_evaluator(), resumed_config).run();

  EXPECT_EQ(resumed.resumed_from_generation, 8u);
  EXPECT_EQ(resumed.generations, full.generations);
  EXPECT_EQ(resumed.immigrant_events, full.immigrant_events);
  EXPECT_EQ(resumed.terminated_by_stagnation,
            full.terminated_by_stagnation);
  ASSERT_EQ(resumed.best_by_size.size(), full.best_by_size.size());
  for (std::size_t i = 0; i < full.best_by_size.size(); ++i) {
    EXPECT_TRUE(resumed.best_by_size[i].same_snps(full.best_by_size[i]));
    EXPECT_DOUBLE_EQ(resumed.best_by_size[i].fitness(),
                     full.best_by_size[i].fitness());
  }
}

TEST_F(GaEngineCheckpoint, ResumeRejectsIncompatibleConfig) {
  GaConfig writer = fast_config();
  writer.checkpoint.path = path_;
  writer.checkpoint.every = 3;
  writer.max_generations = 6;
  GaEngine(shared_evaluator(), writer).run();
  ASSERT_TRUE(checkpoint_exists(path_));

  GaConfig reader = writer;
  reader.checkpoint.resume = true;
  reader.seed = writer.seed + 1;  // different trajectory → incompatible
  EXPECT_THROW(GaEngine(shared_evaluator(), reader).run(),
               CheckpointError);
}

TEST_F(GaEngineCheckpoint, ResumeWithoutFileStartsFresh) {
  GaConfig config = fast_config();
  config.checkpoint.path = path_;
  config.checkpoint.every = 5;
  config.checkpoint.resume = true;  // nothing on disk yet
  config.max_generations = 5;
  const GaResult result = GaEngine(shared_evaluator(), config).run();
  EXPECT_EQ(result.resumed_from_generation, 0u);
  EXPECT_EQ(result.generations, 5u);
  EXPECT_TRUE(checkpoint_exists(path_));  // gen 5 was snapshotted
}

TEST_F(GaEngineCheckpoint, ResumeWithoutPathIsRejected) {
  GaConfig config = fast_config();
  config.checkpoint.resume = true;  // no path
  EXPECT_THROW(GaEngine(shared_evaluator(), config), ConfigError);
}

TEST(GaEngineValidation, FarmPolicyIsValidated) {
  // The policy moved into BackendOptions; every factory validates it.
  stats::BackendOptions options;
  options.farm_policy.quarantine_after = 0;
  EXPECT_THROW(stats::make_serial_backend(shared_evaluator(), options),
               ConfigError);
  EXPECT_THROW(stats::make_thread_pool_backend(shared_evaluator(), options),
               ConfigError);
  EXPECT_THROW(stats::make_farm_backend(shared_evaluator(), options),
               ConfigError);
}

TEST(GaEngineValidation, MaxEvaluationsBelowPopulationIsRejected) {
  GaConfig config = fast_config();
  config.max_evaluations = config.population_size - 1;
  EXPECT_THROW(config.validated(), ConfigError);
  config.max_evaluations = config.population_size;
  EXPECT_NO_THROW(config.validated());
}

TEST(GaEngine, CacheCountersAreExactUnderThreadPoolBackend) {
  // GaResult's cache counters come from the evaluator's lock-free
  // stats; under the thread-pool backend they must match the serial
  // run exactly (identical trajectory ⇒ identical probe sequence) and
  // balance internally: with the default unbounded fitness cache each
  // miss is computed and inserted exactly once.
  const GaConfig config = fast_config();

  const stats::HaplotypeEvaluator serial_eval(shared_dataset());
  const GaResult rs = GaEngine(serial_eval, config,
                               stats::make_serial_backend(serial_eval))
                          .run();

  stats::BackendOptions pool_options;
  pool_options.workers = 4;
  const stats::HaplotypeEvaluator pool_eval(shared_dataset());
  const GaResult rp =
      GaEngine(pool_eval, config,
               stats::make_thread_pool_backend(pool_eval, pool_options))
          .run();

  EXPECT_EQ(rp.cache_stats.hits, rs.cache_stats.hits);
  EXPECT_EQ(rp.cache_stats.misses, rs.cache_stats.misses);
  EXPECT_GT(rp.cache_stats.hits + rp.cache_stats.misses, 0u);

  const auto pool_stats = pool_eval.cache_stats();
  EXPECT_EQ(rp.cache_stats.hits, pool_stats.hits);
  EXPECT_EQ(rp.cache_stats.misses, pool_stats.misses);
  EXPECT_EQ(pool_stats.misses, pool_stats.insertions);
  EXPECT_EQ(pool_stats.evictions, 0u);
  EXPECT_EQ(pool_eval.evaluation_count(), serial_eval.evaluation_count());
}

TEST(GaEngine, PerGenerationTelemetryDeltasMatchCumulativeCounters) {
  // Each GenerationInfo carries both the cumulative counters and the
  // per-generation deltas; every delta must equal the difference of
  // consecutive cumulative values, and the last cumulative value must
  // equal the run total in GaResult.
  GaConfig config = fast_config();
  config.record_history = true;
  const stats::HaplotypeEvaluator evaluator(shared_dataset());
  const GaResult result = GaEngine(evaluator, config).run();
  ASSERT_GE(result.history.size(), 2u);
  for (std::size_t g = 1; g < result.history.size(); ++g) {
    const auto& prev = result.history[g - 1];
    const auto& cur = result.history[g];
    EXPECT_EQ(cur.gen_cache_hits, cur.cache_hits - prev.cache_hits)
        << "generation " << g;
    EXPECT_EQ(cur.gen_cache_misses, cur.cache_misses - prev.cache_misses)
        << "generation " << g;
  }
  const auto& last = result.history.back();
  EXPECT_EQ(last.cache_hits, result.cache_stats.hits);
  EXPECT_EQ(last.cache_misses, result.cache_stats.misses);
  EXPECT_EQ(last.mc_replicates_run, result.mc_replicates_run);
}

TEST(GaEngine, BestFitnessNeverDecreasesOverGenerations) {
  GaConfig config = fast_config();
  config.record_history = true;
  GaEngine engine(shared_evaluator(), config);
  const GaResult result = engine.run();
  for (std::size_t s = 0; s < 3; ++s) {
    double previous = 0.0;
    for (const auto& info : result.history) {
      EXPECT_GE(info.best_by_size[s], previous - 1e-9);
      previous = info.best_by_size[s];
    }
  }
}

}  // namespace
}  // namespace ldga::ga
