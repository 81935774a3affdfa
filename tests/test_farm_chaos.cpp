// Chaos acceptance for the master/slave farm: a GA run whose
// evaluations go through the farm's slave threads, under injected
// kills, dropped replies, throws, delays, and stale duplicates, must
// walk the exact trajectory of the serial reference — fault tolerance
// may cost time, never correctness.
//
// Set LDGA_CHAOS_SOAK=1 (scripts/check.sh --soak, CI chaos job) to
// repeat the runs across several injector seeds.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <numeric>
#include <vector>

#include "ga/engine.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/farm_policy.hpp"
#include "parallel/master_slave.hpp"
#include "stats/evaluation_backend.hpp"
#include "stats/evaluator.hpp"
#include "test_support.hpp"

namespace ldga {
namespace {

using parallel::FaultInjector;
using parallel::MasterSlaveFarm;

int soak_repetitions() {
  const char* soak = std::getenv("LDGA_CHAOS_SOAK");
  return (soak != nullptr && soak[0] != '\0' && soak[0] != '0') ? 3 : 1;
}

/// The full menu of slave faults on deterministic schedules, plus
/// probabilistic throws and delays, every generation.
FaultInjector::Config chaos_faults(std::uint64_t seed) {
  FaultInjector::Config faults;
  faults.seed = seed;
  faults.throw_probability = 0.1;
  faults.delay_probability = 0.05;
  faults.stale_on_tasks = {0};
  faults.kill_on_tasks = {1, 2};
  faults.throw_on_tasks = {3};
  faults.drop_on_tasks = {5};
  return faults;
}

/// Policy with every recovery mechanism armed: retries, quarantine with
/// respawn, per-task deadlines (the only way a dropped reply resolves),
/// and fast respawn backoff so the test stays quick.
parallel::FarmPolicy chaos_policy() {
  parallel::FarmPolicy policy;
  policy.max_task_retries = 8;
  policy.quarantine_after = 3;
  policy.respawn_quarantined = true;
  policy.task_deadline = std::chrono::milliseconds(250);
  policy.respawn_backoff = std::chrono::milliseconds(5);
  policy.respawn_backoff_cap = std::chrono::milliseconds(100);
  return policy;
}

TEST(FarmChaos, FarmUnderChaosMatchesPlainResults) {
  // Farm-level sanity before the full GA: a plain numeric farm,
  // with every fault kind injected, still returns the exact task-ordered
  // results.
  for (int rep = 0; rep < soak_repetitions(); ++rep) {
    auto injector =
        std::make_shared<FaultInjector>(chaos_faults(1000 + static_cast<std::uint64_t>(rep)));
    MasterSlaveFarm<double, double> farm(
        3, [](const double& x) { return x * x + 0.25; }, chaos_policy(),
        injector);
    for (int phase = 0; phase < 3; ++phase) {
      std::vector<double> tasks(12);
      std::iota(tasks.begin(), tasks.end(), static_cast<double>(phase));
      const auto results = farm.run(tasks);
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_DOUBLE_EQ(results[i], tasks[i] * tasks[i] + 0.25)
            << "rep " << rep << " phase " << phase << " task " << i;
      }
    }
    // Every scheduled slave fault must actually have fired.
    EXPECT_GT(injector->injected_kills(), 0u);
    EXPECT_GT(injector->injected_drops(), 0u);
    const auto& stats = farm.stats();
    EXPECT_GT(stats.worker_losses, 0u);
    EXPECT_GT(stats.respawns, 0u);
  }
}

TEST(FarmChaos, GaOverFarmUnderChaosIsBitIdenticalToSerial) {
  // The Table-2-style acceptance run: 10 GA generations through the
  // evaluation farm, chaos injected throughout. Results must be
  // bit-identical to the serial reference — same best-per-size
  // haplotypes, same fitnesses, same generation and evaluation counts.
  const auto synthetic = ldga::testing::small_synthetic(12, 2, 321);

  ga::GaConfig config;
  config.min_size = 2;
  config.max_size = 4;
  config.population_size = 30;
  config.min_subpopulation = 5;
  config.crossovers_per_generation = 6;
  config.mutations_per_generation = 10;
  config.stagnation_generations = 15;
  config.random_immigrant_stagnation = 6;
  config.max_generations = 10;
  config.seed = 5;

  const stats::HaplotypeEvaluator serial_eval(synthetic.dataset);
  const ga::GaResult rs = ga::GaEngine(serial_eval, config).run();

  for (int rep = 0; rep < soak_repetitions(); ++rep) {
    auto injector =
        std::make_shared<FaultInjector>(chaos_faults(2004 + static_cast<std::uint64_t>(rep)));

    stats::BackendOptions options;
    options.workers = 3;
    options.farm_policy = chaos_policy();
    options.fault_injector = injector;

    const stats::HaplotypeEvaluator farm_eval(synthetic.dataset);
    ga::GaEngine chaotic(farm_eval, config,
                         stats::make_farm_backend(farm_eval, options));
    const ga::GaResult rf = chaotic.run();

    ASSERT_EQ(rf.best_by_size.size(), rs.best_by_size.size());
    for (std::size_t i = 0; i < rs.best_by_size.size(); ++i) {
      EXPECT_TRUE(rf.best_by_size[i].same_snps(rs.best_by_size[i]))
          << "rep " << rep << " size slot " << i;
      EXPECT_DOUBLE_EQ(rf.best_by_size[i].fitness(),
                       rs.best_by_size[i].fitness())
          << "rep " << rep << " size slot " << i;
    }
    EXPECT_EQ(rf.generations, rs.generations);
    EXPECT_EQ(rf.evaluations, rs.evaluations);

    // The run was genuinely chaotic, not a quiet pass.
    EXPECT_GT(injector->injected_kills(), 0u);
    EXPECT_GT(rf.farm_stats.worker_losses, 0u);
    EXPECT_GT(rf.farm_stats.respawns, 0u);
    EXPECT_GT(rf.farm_stats.retries, 0u);
  }
}

}  // namespace
}  // namespace ldga
