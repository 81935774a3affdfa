// EvaluationStream: the asynchronous islands' evaluation front door.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "parallel/fault_injection.hpp"
#include "parallel/work_queue.hpp"
#include "stats/evaluation_service.hpp"
#include "stats/evaluator.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace ldga::stats {
namespace {

using genomics::SnpIndex;

const genomics::Dataset& shared_dataset() {
  static const auto synthetic = ldga::testing::small_synthetic(12, 2, 321);
  return synthetic.dataset;
}

/// Drains `queue` until `expected` results arrived (or a generous
/// deadline passes, so a broken stream fails the test instead of
/// hanging it).
std::vector<StreamResult> drain(EvaluationStream& stream, std::uint32_t queue,
                                std::size_t expected) {
  std::vector<StreamResult> results;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (results.size() < expected &&
         std::chrono::steady_clock::now() < deadline) {
    auto batch = stream.wait(queue, std::chrono::milliseconds(50));
    results.insert(results.end(), batch.begin(), batch.end());
  }
  return results;
}

TEST(EvaluationStreamConfigValidation, CatchesBadSettings) {
  EvaluationStreamConfig config;
  config.lanes = 0;
  EXPECT_THROW(config.validate(), ConfigError);
  config = {};
  config.max_coalesce = 0;
  EXPECT_THROW(config.validate(), ConfigError);
  config = {};
  EXPECT_NO_THROW(config.validate());
}

TEST(EvaluationStream, DeliversEverySubmissionToItsOwnQueue) {
  const HaplotypeEvaluator evaluator(shared_dataset());
  EvaluationStreamConfig config;
  config.lanes = 2;
  config.max_coalesce = 4;
  EvaluationStream stream(evaluator, 3, config);

  // Round-robin 36 pair candidates over the three queues; tickets are
  // globally unique so cross-queue misdelivery is detectable.
  std::map<std::uint64_t, Candidate> sent;
  std::uint64_t ticket = 0;
  std::vector<std::uint64_t> per_queue(3, 0);
  for (SnpIndex a = 0; a < 9; ++a) {
    for (SnpIndex b = a + 1; b < a + 5 && b < 12; ++b) {
      const std::uint32_t queue = static_cast<std::uint32_t>(ticket % 3);
      const Candidate candidate{a, b};
      ASSERT_TRUE(stream.submit(queue, ticket, candidate));
      sent.emplace(ticket, candidate);
      ++per_queue[queue];
      ++ticket;
    }
  }

  std::uint64_t delivered = 0;
  for (std::uint32_t queue = 0; queue < 3; ++queue) {
    const auto results = drain(stream, queue, per_queue[queue]);
    ASSERT_EQ(results.size(), per_queue[queue]) << "queue " << queue;
    for (const auto& result : results) {
      // Ticket belongs to this queue (tickets were dealt round-robin).
      EXPECT_EQ(result.ticket % 3, queue);
      EXPECT_FALSE(result.failed);
      // The stream's fitness is the evaluator's (pure function of the
      // candidate, whatever lane and batch computed it).
      const auto it = sent.find(result.ticket);
      ASSERT_NE(it, sent.end());
      EXPECT_DOUBLE_EQ(result.fitness,
                       evaluator.evaluate_full(it->second).fitness);
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, ticket);
  EXPECT_EQ(stream.in_flight(), 0u);

  stream.close();
  const auto stats = stream.stats();
  EXPECT_EQ(stats.submitted, ticket);
  EXPECT_EQ(stats.completed, ticket);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.dispatch_rounds, 0u);
}

TEST(EvaluationStream, DuplicateSubmissionsAgreeAndDedup) {
  const HaplotypeEvaluator evaluator(shared_dataset());
  EvaluationStreamConfig config;
  config.lanes = 2;
  EvaluationStream stream(evaluator, 2, config);

  // The same candidate submitted many times across both queues: every
  // copy gets a result, all results agree, and the service computes the
  // pipeline far fewer times than it delivers (cache + in-flight
  // merges + in-batch duplicates).
  const Candidate candidate{3, 7};
  const std::size_t copies = 16;
  for (std::uint64_t i = 0; i < copies; ++i) {
    ASSERT_TRUE(stream.submit(static_cast<std::uint32_t>(i % 2), i,
                              candidate));
  }
  const auto q0 = drain(stream, 0, copies / 2);
  const auto q1 = drain(stream, 1, copies / 2);
  ASSERT_EQ(q0.size() + q1.size(), copies);
  const double expected = evaluator.evaluate_full(candidate).fitness;
  for (const auto& result : q0) EXPECT_DOUBLE_EQ(result.fitness, expected);
  for (const auto& result : q1) EXPECT_DOUBLE_EQ(result.fitness, expected);

  stream.close();
  const auto stats = stream.stats();
  EXPECT_EQ(stats.completed, copies);
  EXPECT_LT(stats.service.dispatched, copies);
}

TEST(EvaluationStream, CloseRejectsNewWorkAndUnblocksWaiters) {
  const HaplotypeEvaluator evaluator(shared_dataset());
  EvaluationStream stream(evaluator, 1, {});
  ASSERT_TRUE(stream.submit(0, 1, Candidate{0, 1}));
  stream.close();
  stream.close();  // idempotent

  EXPECT_FALSE(stream.submit(0, 2, Candidate{2, 3}));
  // Whatever close() drained is still deliverable; afterwards waits
  // return empty immediately instead of blocking out the timeout.
  (void)stream.poll(0);
  const auto t0 = std::chrono::steady_clock::now();
  const auto late = stream.wait(0, std::chrono::milliseconds(500));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(late.empty());
  EXPECT_LT(waited, std::chrono::milliseconds(400));
}

TEST(EvaluationStream, CloseDeliversEveryAcceptedSubmission) {
  const HaplotypeEvaluator evaluator(shared_dataset());
  EvaluationStreamConfig config;
  config.lanes = 2;
  EvaluationStream stream(evaluator, 2, config);

  // Four distinct candidates, each submitted twice to the same queue:
  // a repeat either latches onto its twin's in-flight computation or
  // hits the cache, depending on lane timing.
  std::map<std::uint64_t, Candidate> sent;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const Candidate candidate{static_cast<SnpIndex>(i % 4),
                              static_cast<SnpIndex>(i % 4 + 5)};
    ASSERT_TRUE(
        stream.submit(static_cast<std::uint32_t>(i % 2), i, candidate));
    sent.emplace(i, candidate);
  }
  // close() returns only after every accepted submission is delivered —
  // the guarantee IslandEngine::run relies on to integrate the results
  // that raced its shutdown — so one poll per queue sees them all.
  stream.close();
  std::vector<StreamResult> results = stream.poll(0);
  const std::vector<StreamResult> second = stream.poll(1);
  results.insert(results.end(), second.begin(), second.end());
  ASSERT_EQ(results.size(), 8u);
  for (const auto& result : results) {
    EXPECT_FALSE(result.failed);
    EXPECT_DOUBLE_EQ(result.fitness,
                     evaluator.evaluate_full(sent.at(result.ticket)).fitness);
    sent.erase(result.ticket);
  }
  EXPECT_TRUE(sent.empty());  // every ticket exactly once
  EXPECT_EQ(stream.in_flight(), 0u);
  const auto stats = stream.stats();
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.service.candidates, stats.completed - stats.inflight_merges);
}

TEST(EvaluationStream, StatsReadWhileClosingSeesNoPartialServiceTotals) {
  const HaplotypeEvaluator evaluator(shared_dataset());
  EvaluationStreamConfig config;
  config.lanes = 3;
  EvaluationStream stream(evaluator, 1, config);
  for (SnpIndex a = 0; a < 11; ++a) {
    ASSERT_TRUE(
        stream.submit(0, a, Candidate{a, static_cast<SnpIndex>(a + 1)}));
  }
  // close() sums the lanes' service totals after joining them; a reader
  // racing it must see none or all of them (and no data race under
  // TSan).
  std::atomic<bool> done{false};
  std::uint64_t partial_reads = 0;
  std::thread reader([&] {
    while (!done.load()) {
      const std::uint64_t seen = stream.stats().service.candidates;
      if (seen != 0 && seen != 11) ++partial_reads;
    }
  });
  stream.close();
  done.store(true);
  reader.join();
  EXPECT_EQ(partial_reads, 0u);
  EXPECT_EQ(stream.stats().service.candidates, 11u);
}

TEST(EvaluationStream, RetryLadderExhaustionDeliversFailedResults) {
  const HaplotypeEvaluator evaluator(shared_dataset());
  parallel::FaultInjector::Config faults;
  faults.seed = 3;
  faults.throw_probability = 1.0;  // every attempt throws
  EvaluationStreamConfig config;
  config.lanes = 2;
  config.max_task_retries = 1;
  config.fault_injector = std::make_shared<parallel::FaultInjector>(faults);
  EvaluationStream stream(evaluator, 1, config);

  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(stream.submit(0, i, Candidate{static_cast<SnpIndex>(i),
                                              static_cast<SnpIndex>(i + 1)}));
  }
  const auto results = drain(stream, 0, 6);
  ASSERT_EQ(results.size(), 6u);
  for (const auto& result : results) {
    EXPECT_TRUE(result.failed);
    EXPECT_EQ(result.fitness, evaluator.config().penalty_fitness);
  }
  stream.close();
  const auto stats = stream.stats();
  EXPECT_EQ(stats.failed, 6u);
  // Each failed submission is counted once by the lane services, and
  // the time its retry ladder took is still charged to them.
  EXPECT_EQ(stats.service.candidates, stats.completed - stats.inflight_merges);
  EXPECT_EQ(stats.service.dispatched, 6u);
  EXPECT_GT(stats.service.batch_seconds, 0.0);
}

TEST(EvaluationStream, ScheduledFaultsFireOncePerEvaluationAtAnyLaneCount) {
  // Faults are keyed by the claiming submission's (queue, ticket), so
  // throw_on_tasks = {0} fails the first attempt of each queue's ticket
  // 0 and nothing else, however many lanes share the work.
  constexpr std::uint32_t kQueues = 3;
  constexpr std::uint64_t kTickets = 6;
  for (const std::uint32_t lanes : {1u, 2u, 4u}) {
    const HaplotypeEvaluator evaluator(shared_dataset());
    parallel::FaultInjector::Config faults;
    faults.throw_on_tasks = {0};
    EvaluationStreamConfig config;
    config.lanes = lanes;
    config.max_task_retries = 1;
    config.fault_injector = std::make_shared<parallel::FaultInjector>(faults);
    EvaluationStream stream(evaluator, kQueues, config);

    // Distinct pairs throughout, so every submission is computed.
    std::map<std::pair<std::uint32_t, std::uint64_t>, Candidate> sent;
    SnpIndex a = 0;
    SnpIndex b = 1;
    for (std::uint32_t queue = 0; queue < kQueues; ++queue) {
      for (std::uint64_t ticket = 0; ticket < kTickets; ++ticket) {
        const Candidate candidate{a, b};
        ASSERT_TRUE(stream.submit(queue, ticket, candidate));
        sent.emplace(std::pair{queue, ticket}, candidate);
        if (++b == 12) b = ++a + 1;
      }
    }
    for (std::uint32_t queue = 0; queue < kQueues; ++queue) {
      const auto results = drain(stream, queue, kTickets);
      ASSERT_EQ(results.size(), kTickets) << lanes << " lanes";
      for (const auto& result : results) {
        EXPECT_FALSE(result.failed) << lanes << " lanes";
        EXPECT_EQ(result.fitness,
                  evaluator.evaluate_full(sent.at({queue, result.ticket}))
                      .fitness);
      }
    }
    stream.close();
    EXPECT_EQ(config.fault_injector->injected_throws(), kQueues)
        << lanes << " lanes";
    EXPECT_EQ(stream.stats().service.dispatched, kQueues * kTickets);
  }
}

TEST(EvaluationStream, StragglersDelayButNeverCorrupt) {
  const HaplotypeEvaluator evaluator(shared_dataset());
  EvaluationStreamConfig config;
  config.lanes = 3;
  config.max_coalesce = 2;
  config.fault_injector = std::make_shared<parallel::FaultInjector>(
      parallel::FaultInjector::straggler_preset(
          7, 0.5, std::chrono::milliseconds(1)));
  EvaluationStream stream(evaluator, 1, config);

  std::map<std::uint64_t, Candidate> sent;
  std::uint64_t ticket = 0;
  for (SnpIndex a = 0; a < 8; ++a) {
    for (SnpIndex b = a + 1; b < a + 4 && b < 12; ++b) {
      const Candidate candidate{a, b};
      ASSERT_TRUE(stream.submit(0, ticket, candidate));
      sent.emplace(ticket, candidate);
      ++ticket;
    }
  }
  const auto results = drain(stream, 0, sent.size());
  ASSERT_EQ(results.size(), sent.size());
  for (const auto& result : results) {
    EXPECT_FALSE(result.failed);
    EXPECT_DOUBLE_EQ(result.fitness,
                     evaluator.evaluate_full(sent.at(result.ticket)).fitness);
  }
  EXPECT_GT(config.fault_injector->injected_stragglers(), 0u);
  EXPECT_GT(config.fault_injector->injected_straggler_time().count(), 0);
}

TEST(CoalescingQueue, GroupedClaimGathersTheAnchorsKeyAcrossTheQueue) {
  parallel::CoalescingQueue<int> queue;
  for (const int v : {2, 3, 2, 4, 2, 3, 2}) ASSERT_TRUE(queue.push(v));

  // The oldest item anchors the claim; matching keys are gathered from
  // anywhere in the queue, capped at the batch size.
  const auto same = [](int v) { return v; };
  EXPECT_EQ(queue.pop_batch_grouped(3, same), (std::vector<int>{2, 2, 2}));
  // Skipped items kept their relative order: {3, 4, 3, 2} remains.
  EXPECT_EQ(queue.pop_batch_grouped(8, same), (std::vector<int>{3, 3}));
  EXPECT_EQ(queue.pop_batch_grouped(8, same), (std::vector<int>{4}));
  EXPECT_EQ(queue.pop_batch_grouped(8, same), (std::vector<int>{2}));
}

}  // namespace
}  // namespace ldga::stats
