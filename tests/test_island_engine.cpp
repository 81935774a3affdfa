#include "ga/island_engine.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "analysis/enumeration.hpp"
#include "ga/telemetry_writer.hpp"
#include "genomics/synthetic.hpp"
#include "parallel/fault_injection.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace ldga::ga {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ldga_" + name;
}

/// Small, fast configuration mirroring test_engine.cpp's fast_config,
/// with tight async cadences so migration / rate syncs / immigrant
/// waves all fire inside a short run.
IslandConfig fast_config() {
  IslandConfig config;
  config.ga.min_size = 2;
  config.ga.max_size = 4;
  config.ga.population_size = 30;
  config.ga.min_subpopulation = 5;
  config.ga.crossovers_per_generation = 6;
  config.ga.mutations_per_generation = 10;
  config.ga.stagnation_generations = 15;
  config.ga.random_immigrant_stagnation = 6;
  config.ga.max_generations = 60;
  config.ga.seed = 5;
  config.lanes = 2;
  config.max_coalesce = 8;
  config.max_pending = 4;
  config.migration_interval = 8;
  config.rate_sync_interval = 4;
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

TEST(IslandConfigValidation, CatchesBadSettings) {
  IslandConfig config = fast_config();
  config.lanes = 0;
  EXPECT_THROW(config.validate(), ConfigError);

  config = fast_config();
  config.max_coalesce = 0;
  EXPECT_THROW(config.validate(), ConfigError);

  config = fast_config();
  config.max_pending = 0;
  EXPECT_THROW(config.validate(), ConfigError);

  config = fast_config();
  config.migration_interval = 0;
  EXPECT_THROW(config.validate(), ConfigError);

  config = fast_config();
  config.rate_sync_interval = 0;
  EXPECT_THROW(config.validate(), ConfigError);

  config = fast_config();
  config.poll_timeout = std::chrono::milliseconds(0);
  EXPECT_THROW(config.validate(), ConfigError);

  // Bad base GA settings surface through the nested validate.
  config = fast_config();
  config.ga.min_size = 0;
  EXPECT_THROW(config.validate(), ConfigError);

  config = fast_config();
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.applications_per_generation(), 16u);
}

TEST(IslandEngine, RejectsMaxSizeBeyondEvaluator) {
  stats::EvaluatorConfig eval_config;
  eval_config.max_loci = 3;
  const auto synthetic = ldga::testing::small_synthetic(12, 2, 1);
  const stats::HaplotypeEvaluator evaluator(synthetic.dataset, eval_config);
  EXPECT_THROW(IslandEngine(evaluator, fast_config()), ConfigError);
}

TEST(IslandEngine, RunProducesBestPerSize) {
  IslandEngine engine(shared_evaluator(), fast_config());
  const IslandRunResult result = engine.run();

  ASSERT_EQ(result.best_by_size.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto& best = result.best_by_size[i];
    EXPECT_EQ(best.size(), 2u + i);
    EXPECT_TRUE(best.evaluated());
    EXPECT_GE(best.fitness(), 0.0);
  }
  EXPECT_GT(result.evaluations, 0u);
  EXPECT_GT(result.total_steps, 0u);
  ASSERT_EQ(result.steps_by_island.size(), 3u);
  std::uint64_t steps = 0;
  for (const std::uint64_t s : result.steps_by_island) steps += s;
  EXPECT_EQ(steps, result.total_steps);
  EXPECT_GT(result.wall_seconds, 0.0);
  // Every submission was either delivered or accounted as failed.
  EXPECT_EQ(result.stream_stats.completed + result.stream_stats.failed,
            result.stream_stats.submitted);
}

TEST(IslandEngine, MigrationAndImmigrantsFire) {
  IslandConfig config = fast_config();
  config.migration_interval = 4;  // push elites eagerly
  IslandEngine engine(shared_evaluator(), config);
  const IslandRunResult result = engine.run();
  EXPECT_GT(result.migrations_sent, 0u);
  EXPECT_GT(result.migrations_received, 0u);
}

TEST(IslandEngine, ReachesTheEnumeratedOptimum) {
  // The acceptance criterion for the async rewrite: no generation
  // barrier, yet the same planted haplotypes as the synchronous
  // reference (whose own test pins it to the enumerated optimum).
  genomics::SyntheticConfig synth;
  synth.snp_count = 14;
  synth.affected_count = 50;
  synth.unaffected_count = 50;
  synth.unknown_count = 10;
  synth.active_snps = {4, 9};
  synth.disease.relative_risk = 8.0;
  Rng rng(7777);
  const auto synthetic = genomics::generate_synthetic(synth, rng);
  const stats::HaplotypeEvaluator evaluator(synthetic.dataset);

  IslandConfig config = fast_config();
  config.ga.min_size = 2;
  config.ga.max_size = 3;
  config.ga.population_size = 40;
  config.ga.min_subpopulation = 10;
  config.ga.crossovers_per_generation = 8;
  config.ga.mutations_per_generation = 16;
  config.ga.stagnation_generations = 30;
  config.ga.max_generations = 200;
  config.ga.seed = 99;
  IslandEngine engine(evaluator, config);
  const IslandRunResult result = engine.run();

  for (std::uint32_t size = 2; size <= 3; ++size) {
    const auto exact = analysis::enumerate_all(evaluator, size);
    const auto& best = result.best_by_size[size - 2];
    EXPECT_NEAR(best.fitness(), exact.best.front().fitness, 1e-9)
        << "size " << size;
    EXPECT_EQ(best.snps(), exact.best.front().snps) << "size " << size;
  }
  // And the size-2 optimum is the planted pair (sanity of the claim).
  EXPECT_EQ(result.best_by_size[0].snps(), synthetic.truth.snps);
}

TEST(IslandEngine, EventTelemetryIsWritten) {
  std::stringstream out;
  IslandEventCsvWriter writer(out);
  IslandEngine engine(shared_evaluator(), fast_config());
  engine.set_event_callback(writer.callback());
  const IslandRunResult result = engine.run();
  EXPECT_GT(result.total_steps, 0u);

  EXPECT_GT(writer.rows_written(), 0u);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("wall_seconds,event,island"), std::string::npos);
  // Every island reports the end of its initial scoring.
  EXPECT_NE(csv.find("initialized"), std::string::npos);
}

TEST(IslandEngine, HonorsEvaluationBudget) {
  IslandConfig config = fast_config();
  config.ga.max_evaluations = 40;
  IslandEngine engine(shared_evaluator(), config);
  const IslandRunResult result = engine.run();
  // The budget is a stop signal, not a hard ceiling: in-flight
  // evaluations finish, so allow the bounded overshoot of one window.
  const std::uint64_t slack =
      static_cast<std::uint64_t>(config.max_pending) * 3 + config.lanes;
  EXPECT_LE(result.evaluations, 40u + slack * config.max_coalesce);
  EXPECT_GT(result.evaluations, 0u);
}

TEST(IslandEngine, CheckpointsAndResumes) {
  const std::string path = temp_path("island_resume.ckpt");
  std::remove(path.c_str());

  IslandConfig config = fast_config();
  config.ga.checkpoint.path = path;
  config.ga.checkpoint.every = 1;  // one generation-equivalent of steps
  {
    IslandEngine engine(shared_evaluator(), config);
    const IslandRunResult result = engine.run();
    ASSERT_TRUE(checkpoint_exists(path));
    EXPECT_EQ(result.resumed_steps, 0u);

    const IslandCheckpoint cp = load_island_checkpoint(path);
    EXPECT_EQ(cp.islands.size(), 3u);
    EXPECT_GT(cp.total_steps, 0u);
    for (const auto& island : cp.islands) {
      EXPECT_FALSE(island.members.empty());
      for (const auto& member : island.members) {
        EXPECT_TRUE(member.evaluated());
      }
    }
  }

  // Resume from the snapshot: the run continues past the saved step
  // count and still reports one best per size.
  config.ga.checkpoint.resume = true;
  const std::uint64_t saved = load_island_checkpoint(path).total_steps;
  IslandEngine resumed(shared_evaluator(), config);
  const IslandRunResult result = resumed.run();
  EXPECT_EQ(result.resumed_steps, saved);
  ASSERT_EQ(result.best_by_size.size(), 3u);
  for (const auto& best : result.best_by_size) {
    EXPECT_TRUE(best.evaluated());
  }
  std::remove(path.c_str());
}

TEST(IslandEngine, RefusesResumeUnderDifferentConfig) {
  const std::string path = temp_path("island_mismatch.ckpt");
  std::remove(path.c_str());

  IslandConfig config = fast_config();
  config.ga.checkpoint.path = path;
  config.ga.checkpoint.every = 1;
  IslandEngine(shared_evaluator(), config).run();
  ASSERT_TRUE(checkpoint_exists(path));

  config.ga.checkpoint.resume = true;
  config.ga.seed = 777;  // fingerprint covers the seed
  IslandEngine resumed(shared_evaluator(), config);
  EXPECT_THROW(resumed.run(), CheckpointError);
  std::remove(path.c_str());
}

TEST(IslandEngine, SurvivesInjectedFaultsAndStragglers) {
  // Injected throws exercise the retry ladder; the heavy-tailed
  // straggler preset exercises exactly the schedule the generation
  // barrier cannot absorb. The run must complete and still report an
  // evaluated best per size.
  auto fault_config = parallel::FaultInjector::straggler_preset(
      11, 0.10, std::chrono::milliseconds(1));
  fault_config.throw_probability = 0.05;
  IslandConfig config = fast_config();
  config.fault_injector =
      std::make_shared<parallel::FaultInjector>(fault_config);

  IslandEngine engine(shared_evaluator(), config);
  const IslandRunResult result = engine.run();
  ASSERT_EQ(result.best_by_size.size(), 3u);
  for (const auto& best : result.best_by_size) {
    EXPECT_TRUE(best.evaluated());
  }
  EXPECT_GT(config.fault_injector->injected_stragglers(), 0u);
  EXPECT_GT(config.fault_injector->injected_throws(), 0u);
}

int soak_repetitions() {
  const char* soak = std::getenv("LDGA_CHAOS_SOAK");
  return (soak != nullptr && soak[0] != '\0' && soak[0] != '0') ? 3 : 1;
}

TEST(IslandEngineChaos, FindsThePlantedPairUnderStragglerChaos) {
  // The async engine's chaos acceptance (scripts/check.sh --soak
  // regex, CI chaos job plain + TSan): under the heavy-tailed
  // straggler schedule plus injected throws, the islands must still
  // converge to the planted haplotype — chaos may cost time, never the
  // destination. LDGA_CHAOS_SOAK=1 repeats the run across injector
  // seeds.
  genomics::SyntheticConfig synth;
  synth.snp_count = 14;
  synth.affected_count = 50;
  synth.unaffected_count = 50;
  synth.unknown_count = 10;
  synth.active_snps = {4, 9};
  synth.disease.relative_risk = 8.0;
  Rng rng(7777);
  const auto synthetic = genomics::generate_synthetic(synth, rng);
  const stats::HaplotypeEvaluator evaluator(synthetic.dataset);

  std::uint64_t stragglers_across_reps = 0;
  for (int rep = 0; rep < soak_repetitions(); ++rep) {
    auto fault_config = parallel::FaultInjector::straggler_preset(
        100 + static_cast<std::uint64_t>(rep), 0.10,
        std::chrono::milliseconds(1));
    fault_config.throw_probability = 0.05;

    IslandConfig config = fast_config();
    config.ga.min_size = 2;
    config.ga.max_size = 3;
    config.ga.population_size = 40;
    config.ga.min_subpopulation = 10;
    config.ga.crossovers_per_generation = 8;
    config.ga.mutations_per_generation = 16;
    config.ga.stagnation_generations = 30;
    config.ga.max_generations = 200;
    config.ga.seed = 99 + static_cast<std::uint64_t>(rep);
    config.fault_injector =
        std::make_shared<parallel::FaultInjector>(fault_config);

    IslandEngine engine(evaluator, config);
    const IslandRunResult result = engine.run();
    EXPECT_EQ(result.best_by_size[0].snps(), synthetic.truth.snps)
        << "rep " << rep;
    stragglers_across_reps += config.fault_injector->injected_stragglers();
  }
  // A fast-converging seed may finish before its schedule fires; the
  // chaos claim only needs the soak as a whole to have injected some.
  EXPECT_GT(stragglers_across_reps, 0u);
}

}  // namespace
}  // namespace ldga::ga
