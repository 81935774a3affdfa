#include "stats/evaluation_service.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "parallel/fault_injection.hpp"
#include "stats/evaluation_backend.hpp"
#include "stats/evaluator.hpp"
#include "test_support.hpp"

namespace ldga::stats {
namespace {

class EvaluationServiceTest : public ::testing::Test {
 protected:
  EvaluationServiceTest()
      : synthetic_(ldga::testing::small_synthetic(12, 2, 4242)),
        evaluator_(synthetic_.dataset),
        service_(evaluator_, make_serial_backend(evaluator_)) {}

  genomics::SyntheticDataset synthetic_;
  HaplotypeEvaluator evaluator_;
  EvaluationService service_;
};

TEST_F(EvaluationServiceTest, EvaluationCountEqualsUniqueCandidates) {
  // 9 tasks, 5 distinct candidates; the backend must run the pipeline
  // exactly once per distinct candidate.
  const std::vector<Candidate> batch = {
      {0, 1}, {2, 3}, {0, 1}, {4, 5, 6}, {2, 3},
      {0, 1}, {7, 8}, {4, 5, 6}, {9, 10, 11}};
  const auto results = service_.evaluate(batch);
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_EQ(evaluator_.evaluation_count(), 5u);

  const auto& stats = service_.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.candidates, 9u);
  EXPECT_EQ(stats.duplicates, 4u);
  EXPECT_EQ(stats.dispatched, 5u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST_F(EvaluationServiceTest, DuplicatePositionsGetTheFirstOccurrenceValue) {
  const std::vector<Candidate> batch = {
      {0, 1}, {2, 3}, {0, 1}, {4, 5, 6}, {2, 3}, {0, 1}};
  const auto results = service_.evaluate(batch);
  EXPECT_EQ(results[2], results[0]);
  EXPECT_EQ(results[5], results[0]);
  EXPECT_EQ(results[4], results[1]);
  // And every position matches an independent evaluator exactly.
  const HaplotypeEvaluator reference(synthetic_.dataset);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(results[i], reference.fitness(batch[i])) << "task " << i;
  }
}

TEST_F(EvaluationServiceTest, RepeatBatchIsAnsweredFromTheCache) {
  const std::vector<Candidate> batch = {{0, 1}, {2, 3}, {4, 5, 6}};
  const auto first = service_.evaluate(batch);
  const auto before = service_.stats();
  EXPECT_EQ(before.dispatched, 3u);

  const auto second = service_.evaluate(batch);
  EXPECT_EQ(second, first);
  const auto& after = service_.stats();
  EXPECT_EQ(after.batches, 2u);
  EXPECT_EQ(after.cache_hits, before.cache_hits + 3u);
  EXPECT_EQ(after.dispatched, before.dispatched);  // nothing re-dispatched
  EXPECT_EQ(evaluator_.evaluation_count(), 3u);    // pipeline ran 3x total
}

TEST_F(EvaluationServiceTest, MixedBatchSplitsHitsDuplicatesAndMisses) {
  service_.evaluate(std::vector<Candidate>{{0, 1}, {2, 3}});
  // {0,1} is a cross-generation cache hit, {7,8} appears twice (one
  // dispatch + one duplicate), {4,5} is a fresh miss.
  const std::vector<Candidate> batch = {{0, 1}, {7, 8}, {4, 5}, {7, 8}};
  const auto results = service_.evaluate(batch);
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_EQ(results[1], results[3]);

  const auto& stats = service_.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.candidates, 6u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.dispatched, 4u);  // {0,1}, {2,3}, then {7,8}, {4,5}
  EXPECT_EQ(evaluator_.evaluation_count(), 4u);
}

TEST_F(EvaluationServiceTest, EmptyBatchIsANoOp) {
  const auto results = service_.evaluate(std::vector<Candidate>{});
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(service_.stats().batches, 1u);
  EXPECT_EQ(service_.stats().candidates, 0u);
  EXPECT_EQ(evaluator_.evaluation_count(), 0u);
}

TEST_F(EvaluationServiceTest, AccountingHoldsAcrossBackends) {
  // The probe-once / compute-once contract is backend-independent:
  // each distinct candidate costs exactly one pipeline run no matter
  // which backend executes it.
  const std::vector<Candidate> batch = {
      {0, 1}, {2, 3}, {0, 1}, {4, 5, 6}, {2, 3}, {7, 9}, {0, 1}};
  const auto serial = service_.evaluate(batch);

  const auto pooled_synthetic = ldga::testing::small_synthetic(12, 2, 4242);
  HaplotypeEvaluator pooled_evaluator(pooled_synthetic.dataset);
  BackendOptions options;
  options.workers = 3;
  EvaluationService pooled(pooled_evaluator,
                           make_thread_pool_backend(pooled_evaluator, options));
  const auto threaded = pooled.evaluate(batch);

  EXPECT_EQ(threaded, serial);
  EXPECT_EQ(pooled_evaluator.evaluation_count(), 4u);
  EXPECT_EQ(evaluator_.evaluation_count(), 4u);
  EXPECT_EQ(pooled.stats().dispatched, service_.stats().dispatched);
}

TEST_F(EvaluationServiceTest, BatchedDispatchIsBitIdenticalAcrossBackends) {
  // Mixed sizes with duplicates: the service dedups and dispatches the
  // misses to the backend, whose workers run fitness_and_cache per
  // candidate (batched CLUMP replicates with the vector kernels on,
  // per-replicate scalar CLUMP with them off). Dispatch is a
  // scheduling decision, never arithmetic: every backend must
  // reproduce, bit for bit, a batch of one on a fresh evaluator per
  // candidate — including when a FaultInjector forces the retry ladder
  // through first-attempt failures.
  const std::vector<Candidate> batch = {
      {0, 1}, {4, 5, 6}, {2, 3},    {0, 1},    {1, 2, 3, 4}, {9, 10},
      {7, 8}, {2, 3},    {5, 7, 9}, {0, 2, 4}, {3, 11},      {1, 6, 8, 11}};

  using Factory = std::shared_ptr<EvaluationBackend> (*)(
      const HaplotypeEvaluator&, BackendOptions);
  struct BackendCase {
    const char* label;
    Factory make;
  };
  const BackendCase cases[] = {{"serial", &make_serial_backend},
                               {"thread_pool", &make_thread_pool_backend},
                               {"farm", &make_farm_backend}};
  for (const bool simd : {true, false}) {
    EvaluatorConfig config;
    config.simd_kernels = simd;
    std::vector<double> expected;
    for (const auto& snps : batch) {
      const HaplotypeEvaluator fresh(synthetic_.dataset, config);
      expected.push_back(fresh.fitness(snps));
    }
    for (const auto& test_case : cases) {
      for (const bool faulted : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << test_case.label << (faulted ? " faulted" : "")
                     << (simd ? " simd" : " scalar"));
        HaplotypeEvaluator evaluator(synthetic_.dataset, config);
        BackendOptions options;
        options.workers = 3;
        if (faulted) {
          parallel::FaultInjector::Config fault_config;
          fault_config.throw_on_tasks = {0, 2, 4};
          options.fault_injector =
              std::make_shared<parallel::FaultInjector>(fault_config);
          options.farm_policy.max_task_retries = 2;
        }
        EvaluationService service(evaluator,
                                  test_case.make(evaluator, options));
        const auto results = service.evaluate(batch);
        ASSERT_EQ(results.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          EXPECT_EQ(results[i], expected[i]) << "task " << i;
        }
        if (faulted) {
          EXPECT_EQ(options.fault_injector->injected_throws(), 3u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ldga::stats
