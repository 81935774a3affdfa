// Conformance suite: every EvaluationBackend implementation must honor
// the same contract — task-ordered results identical to direct
// evaluation, retry-with-attempt-history fault semantics, and health
// counters reported through parallel::FarmStats.
#include "stats/evaluation_backend.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "parallel/fault_injection.hpp"
#include "parallel/farm_policy.hpp"
#include "stats/evaluator.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace ldga::stats {
namespace {

using Factory = std::shared_ptr<EvaluationBackend> (*)(
    const HaplotypeEvaluator&, BackendOptions);

// gtest prints the parameter into every discovered ctest name
// ("farm  # GetParam() = 16-byte object <...>"). The case therefore holds
// its label inline and no pointers — an address would change the
// registered names with every build — and looks its factory up by label.
struct BackendCase {
  char label[16];

  Factory factory() const {
    const std::string_view name(label);
    if (name == "serial") return &make_serial_backend;
    if (name == "thread_pool") return &make_thread_pool_backend;
    if (name == "farm") return &make_farm_backend;
    throw std::invalid_argument("unknown backend case: " + std::string(name));
  }
};
static_assert(sizeof(BackendCase) == 16, "the size is part of every test name");

class BackendConformance : public ::testing::TestWithParam<BackendCase> {
 protected:
  BackendConformance()
      : synthetic_(ldga::testing::small_synthetic(12, 2, 777)),
        evaluator_(synthetic_.dataset) {}

  std::shared_ptr<EvaluationBackend> make(BackendOptions options = {}) const {
    return GetParam().factory()(evaluator_, options);
  }

  static std::vector<Candidate> sample_batch() {
    return {{0, 1},       {2, 7},    {0, 1, 5}, {3, 4, 9},
            {1, 6, 8, 11}, {5, 10},  {0, 2, 3}, {4, 7, 10}};
  }

  genomics::SyntheticDataset synthetic_;
  HaplotypeEvaluator evaluator_;
};

TEST_P(BackendConformance, ReportsIdentity) {
  auto backend = make();
  EXPECT_FALSE(backend->name().empty());
  EXPECT_GE(backend->worker_count(), 1u);
}

TEST_P(BackendConformance, BatchMatchesDirectEvaluation) {
  auto backend = make();
  const auto batch = sample_batch();
  const auto results = backend->evaluate_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  // Reference values from a separate evaluator over the same dataset:
  // the pipeline is deterministic, so equality is exact.
  const HaplotypeEvaluator reference(synthetic_.dataset);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(results[i], reference.fitness(batch[i])) << "task " << i;
  }
}

TEST_P(BackendConformance, CountsAndCachesEveryScoredCandidate) {
  // The GA's evaluation budget and cache live in the master's evaluator,
  // whichever thread scored the candidate.
  auto backend = make();
  const auto batch = sample_batch();
  const auto results = backend->evaluate_batch(batch);
  EXPECT_EQ(evaluator_.evaluation_count(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(evaluator_.cached_fitness(batch[i]), results[i]) << "task " << i;
  }
}

TEST_P(BackendConformance, StageTimesLandInTheCallersEvaluator) {
  // Stage times are the caller's evaluator's cost profile, whichever
  // thread scored the candidate.
  auto backend = make();
  backend->evaluate_batch(sample_batch());
  const StageTimings timings = evaluator_.stage_timings();
  EXPECT_GT(timings.pattern_build_seconds, 0.0);
  EXPECT_GT(timings.em_seconds, 0.0);
  EXPECT_GT(timings.clump_seconds, 0.0);
}

TEST_P(BackendConformance, ResultsIndependentOfWorkerCount) {
  const auto batch = sample_batch();
  BackendOptions one_worker;
  one_worker.workers = 1;
  BackendOptions four_workers;
  four_workers.workers = 4;
  const auto narrow = make(one_worker)->evaluate_batch(batch);
  const auto wide = make(four_workers)->evaluate_batch(batch);
  EXPECT_EQ(narrow, wide);
}

TEST_P(BackendConformance, WorkersCountEveryScoringThread) {
  // `workers` = N means N threads score a batch, the in-process
  // caller among them (the farm's master does not score, so it starts N
  // slaves); the serial backend ignores it. N + 1 tasks that each sleep
  // `delay` take at least 2 × delay on at most N concurrent scorers,
  // where N + 1 would finish in about one delay.
  const bool serial = std::string_view(GetParam().label) == "serial";
  constexpr auto delay = std::chrono::milliseconds(30);
  const auto batch = sample_batch();
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    parallel::FaultInjector::Config fault_config;
    fault_config.delay_probability = 1.0;
    fault_config.delay = delay;
    BackendOptions options;
    options.workers = workers;
    options.fault_injector =
        std::make_shared<parallel::FaultInjector>(fault_config);
    auto backend = make(options);
    EXPECT_EQ(backend->worker_count(), serial ? 1u : workers);

    const std::vector<Candidate> tasks(batch.begin(),
                                       batch.begin() + workers + 1);
    const auto start = std::chrono::steady_clock::now();
    const auto results = backend->evaluate_batch(tasks);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(results.size(), tasks.size());
    EXPECT_GE(elapsed, 2 * delay) << workers << " workers";
  }
}

TEST_P(BackendConformance, TracksPhasesInFarmStats) {
  auto backend = make();
  const auto batch = sample_batch();
  backend->evaluate_batch(batch);
  backend->evaluate_batch(batch);
  const auto stats = backend->farm_stats();
  EXPECT_GE(stats.phases, 2u);
  EXPECT_EQ(stats.failures, 0u);
}

TEST_P(BackendConformance, InjectedFaultsAreRetriedWithoutChangingResults) {
  const auto batch = sample_batch();
  const auto clean = make()->evaluate_batch(batch);

  parallel::FaultInjector::Config fault_config;
  // First attempt of these task indices throws in every phase; the
  // retry ladder must absorb the fault and reproduce the clean result.
  fault_config.throw_on_tasks = {0, 3, 5};
  BackendOptions options;
  options.workers = 3;
  options.fault_injector =
      std::make_shared<parallel::FaultInjector>(fault_config);
  options.farm_policy.max_task_retries = 4;
  auto backend = make(options);

  const auto faulted = backend->evaluate_batch(batch);
  EXPECT_EQ(faulted, clean);
  const auto stats = backend->farm_stats();
  // One failed attempt and one recovering retry per scheduled fault.
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.failures, 3u);
  EXPECT_EQ(options.fault_injector->injected_throws(), 3u);
}

TEST_P(BackendConformance, RetryExhaustionRaisesFarmPhaseError) {
  parallel::FaultInjector::Config fault_config;
  fault_config.throw_probability = 1.0;  // every attempt fails
  BackendOptions options;
  options.workers = 2;
  options.fault_injector =
      std::make_shared<parallel::FaultInjector>(fault_config);
  options.farm_policy.max_task_retries = 2;
  auto backend = make(options);

  const auto batch = sample_batch();
  try {
    backend->evaluate_batch(batch);
    FAIL() << "expected FarmPhaseError";
  } catch (const parallel::FarmPhaseError& error) {
    ASSERT_TRUE(error.task_index().has_value());
    EXPECT_LT(*error.task_index(), batch.size());
    // One original attempt plus max_task_retries retries, all recorded.
    EXPECT_EQ(error.attempts().size(), 3u);
  }
}

TEST_P(BackendConformance, InvalidPolicyIsRejectedAtConstruction) {
  BackendOptions options;
  options.farm_policy.quarantine_after = 0;
  EXPECT_THROW(make(options), ConfigError);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformance,
    ::testing::Values(BackendCase{"serial"}, BackendCase{"thread_pool"},
                      BackendCase{"farm"}),
    [](const ::testing::TestParamInfo<BackendCase>& param_info) {
      return std::string(param_info.param.label);
    });

}  // namespace
}  // namespace ldga::stats
