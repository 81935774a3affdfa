#include "parallel/master_slave.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "parallel/fault_injection.hpp"

namespace ldga::parallel {
namespace {

TEST(MasterSlaveFarm, ComputesResultsInTaskOrder) {
  MasterSlaveFarm<double, double> farm(3, [](const double& x) {
    return x * x;
  });
  const std::vector<double> tasks{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto results = farm.run(tasks);
  ASSERT_EQ(results.size(), 5u);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i], tasks[i] * tasks[i]);
  }
}

TEST(MasterSlaveFarm, VectorPayloads) {
  MasterSlaveFarm<std::vector<std::uint32_t>, double> farm(
      2, [](const std::vector<std::uint32_t>& v) {
        double sum = 0.0;
        for (const auto x : v) sum += x;
        return sum;
      });
  const std::vector<std::vector<std::uint32_t>> tasks{
      {1, 2, 3}, {}, {10}, {4, 4}};
  const auto results = farm.run(tasks);
  EXPECT_DOUBLE_EQ(results[0], 6.0);
  EXPECT_DOUBLE_EQ(results[1], 0.0);
  EXPECT_DOUBLE_EQ(results[2], 10.0);
  EXPECT_DOUBLE_EQ(results[3], 8.0);
}

TEST(MasterSlaveFarm, EmptyBatch) {
  MasterSlaveFarm<double, double> farm(2, [](const double& x) { return x; });
  EXPECT_TRUE(farm.run(std::vector<double>{}).empty());
  EXPECT_EQ(farm.stats().phases, 1u);
}

TEST(MasterSlaveFarm, FewerTasksThanSlaves) {
  MasterSlaveFarm<double, double> farm(8, [](const double& x) {
    return -x;
  });
  const std::vector<double> tasks{1.0, 2.0};
  const auto results = farm.run(tasks);
  EXPECT_DOUBLE_EQ(results[0], -1.0);
  EXPECT_DOUBLE_EQ(results[1], -2.0);
}

TEST(MasterSlaveFarm, MultiplePhasesReuseSlaves) {
  std::atomic<int> calls{0};
  MasterSlaveFarm<double, double> farm(2, [&calls](const double& x) {
    ++calls;
    return x + 1.0;
  });
  for (int phase = 0; phase < 5; ++phase) {
    const std::vector<double> tasks{0.0, 1.0, 2.0};
    const auto results = farm.run(tasks);
    EXPECT_DOUBLE_EQ(results[2], 3.0);
  }
  EXPECT_EQ(calls.load(), 15);
  EXPECT_EQ(farm.stats().phases, 5u);
}

TEST(MasterSlaveFarm, StatsAccountForEveryTask) {
  MasterSlaveFarm<double, double> farm(4, [](const double& x) { return x; });
  std::vector<double> tasks(100);
  std::iota(tasks.begin(), tasks.end(), 0.0);
  farm.run(tasks);
  const auto& stats = farm.stats();
  const std::uint64_t total = std::accumulate(
      stats.per_slave_tasks.begin(), stats.per_slave_tasks.end(),
      std::uint64_t{0});
  EXPECT_EQ(total, 100u);
}

TEST(MasterSlaveFarm, LoadIsSharedUnderSlowTasks) {
  // With a deliberately uneven workload, dynamic scheduling should give
  // every slave at least one task.
  MasterSlaveFarm<double, double> farm(4, [](const double& x) {
    if (x < 2.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
    return x;
  });
  std::vector<double> tasks(40);
  std::iota(tasks.begin(), tasks.end(), 0.0);
  farm.run(tasks);
  for (const auto n : farm.stats().per_slave_tasks) {
    EXPECT_GE(n, 1u);
  }
}

TEST(MasterSlaveFarm, WorkerExceptionSurfacesAsParallelError) {
  MasterSlaveFarm<double, double> farm(2, [](const double& x) {
    if (x == 3.0) throw std::runtime_error("bad input 3");
    return x;
  });
  const std::vector<double> tasks{1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(farm.run(tasks), ParallelError);
}

TEST(MasterSlaveFarm, SurvivesAFailedPhase) {
  // After a phase aborts on a worker error, the next phase must not be
  // corrupted by stale replies from the aborted one.
  MasterSlaveFarm<double, double> farm(3, [](const double& x) {
    if (x < 0.0) throw std::runtime_error("negative");
    return x * 10.0;
  });
  EXPECT_THROW(farm.run(std::vector<double>{1.0, -1.0, 2.0, 3.0, 4.0}),
               ParallelError);
  const std::vector<double> good{5.0, 6.0, 7.0};
  const auto results = farm.run(good);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_DOUBLE_EQ(results[0], 50.0);
  EXPECT_DOUBLE_EQ(results[1], 60.0);
  EXPECT_DOUBLE_EQ(results[2], 70.0);
}

class FarmSlaveCount : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FarmSlaveCount, ResultsIndependentOfSlaveCount) {
  // The GA relies on this: identical results for any worker count.
  MasterSlaveFarm<std::vector<std::uint32_t>, double> farm(
      GetParam(), [](const std::vector<std::uint32_t>& v) {
        double product = 1.0;
        for (const auto x : v) product *= (x + 0.5);
        return product;
      });
  std::vector<std::vector<std::uint32_t>> tasks;
  for (std::uint32_t i = 0; i < 30; ++i) {
    tasks.push_back({i, i + 1, (i * 7) % 13});
  }
  const auto results = farm.run(tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    double expected = 1.0;
    for (const auto x : tasks[i]) expected *= (x + 0.5);
    EXPECT_DOUBLE_EQ(results[i], expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FarmSlaveCount,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

// ---- fault tolerance (FarmPolicy + FaultInjector) --------------------

TEST(FaultInjector, DecisionsAreDeterministicAcrossInstances) {
  FaultInjector::Config config;
  config.seed = 42;
  config.throw_probability = 0.3;
  config.stale_probability = 0.2;
  config.delay_probability = 0.1;
  FaultInjector a(config);
  FaultInjector b(config);
  for (std::uint64_t phase = 1; phase <= 3; ++phase) {
    for (std::uint64_t index = 0; index < 25; ++index) {
      // Two decides per coordinate: the second sees attempt 1, and both
      // injectors must agree on every attempt.
      EXPECT_EQ(a.decide(phase, index).kind, b.decide(phase, index).kind);
      EXPECT_EQ(a.decide(phase, index).kind, b.decide(phase, index).kind);
    }
  }
}

TEST(FaultInjector, ScheduledFaultsHitFirstAttemptOnly) {
  FaultInjector::Config config;
  config.throw_on_tasks = {4};
  FaultInjector injector(config);
  EXPECT_EQ(injector.decide(1, 4).kind, FaultDecision::Kind::kThrow);
  // The retry (attempt 1) of the same coordinates must recover.
  EXPECT_EQ(injector.decide(1, 4).kind, FaultDecision::Kind::kNone);
  EXPECT_EQ(injector.decide(1, 5).kind, FaultDecision::Kind::kNone);
  EXPECT_EQ(injector.injected_throws(), 1u);
}

TEST(FaultInjector, RejectsBadConfig) {
  FaultInjector::Config config;
  config.throw_probability = 1.5;
  EXPECT_THROW(FaultInjector{config}, ConfigError);
}

TEST(FarmFaultTolerance, RetryOnAnotherSlaveRecoversScheduledFaults) {
  FaultInjector::Config config;
  config.throw_on_tasks = {0, 3};
  auto injector = std::make_shared<FaultInjector>(config);
  MasterSlaveFarm<double, double> farm(
      3, [](const double& x) { return x * 2.0; }, FarmPolicy{}, injector);
  const std::vector<double> tasks{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto results = farm.run(tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i], tasks[i] * 2.0);
  }
  EXPECT_EQ(farm.stats().failures, 2u);
  EXPECT_EQ(farm.stats().retries, 2u);
  EXPECT_EQ(injector->injected_throws(), 2u);
}

TEST(FarmFaultTolerance, ExhaustedRetriesCarryTaskIndexAndHistory) {
  MasterSlaveFarm<double, double> farm(
      2, [](const double&) -> double {
        throw std::runtime_error("always broken");
      });
  try {
    farm.run(std::vector<double>{7.0});
    FAIL() << "expected FarmPhaseError";
  } catch (const FarmPhaseError& error) {
    ASSERT_TRUE(error.task_index().has_value());
    EXPECT_EQ(*error.task_index(), 0u);
    // First attempt + default max_task_retries (2) reassignments.
    EXPECT_EQ(error.attempts().size(), 3u);
    for (const auto& attempt : error.attempts()) {
      EXPECT_NE(attempt.message.find("always broken"), std::string::npos);
    }
    const std::string what = error.what();
    EXPECT_NE(what.find("task 0"), std::string::npos);
    EXPECT_NE(what.find("always broken"), std::string::npos);
  }
}

TEST(FarmFaultTolerance, FewerTasksThanSlavesUnderFaults) {
  FaultInjector::Config config;
  config.throw_on_tasks = {1};
  auto injector = std::make_shared<FaultInjector>(config);
  MasterSlaveFarm<double, double> farm(
      8, [](const double& x) { return -x; }, FarmPolicy{}, injector);
  const auto results = farm.run(std::vector<double>{1.0, 2.0});
  EXPECT_DOUBLE_EQ(results[0], -1.0);
  EXPECT_DOUBLE_EQ(results[1], -2.0);
  EXPECT_EQ(farm.stats().retries, 1u);
}

TEST(FarmFaultTolerance, EmptyBatchAfterFailedPhase) {
  FarmPolicy fail_fast;
  fail_fast.max_task_retries = 0;
  MasterSlaveFarm<double, double> farm(
      2,
      [](const double& x) {
        if (x < 0.0) throw std::runtime_error("negative");
        return x * 10.0;
      },
      fail_fast);
  EXPECT_THROW(farm.run(std::vector<double>{1.0, -1.0}), FarmPhaseError);
  // An empty phase right after the abort must not touch the (possibly
  // still queued) replies of the failed one...
  EXPECT_TRUE(farm.run(std::vector<double>{}).empty());
  // ...and a real phase discards them by phase stamp.
  const auto results = farm.run(std::vector<double>{2.0, 3.0});
  EXPECT_DOUBLE_EQ(results[0], 20.0);
  EXPECT_DOUBLE_EQ(results[1], 30.0);
}

TEST(FarmFaultTolerance, StaleRepliesAreCountedAndDiscarded) {
  FaultInjector::Config config;
  config.stale_on_tasks = {0, 2};
  auto injector = std::make_shared<FaultInjector>(config);
  MasterSlaveFarm<double, double> farm(
      2, [](const double& x) { return x + 1.0; }, FarmPolicy{}, injector);
  const std::vector<double> tasks{1.0, 2.0, 3.0, 4.0};
  const auto results = farm.run(tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i], tasks[i] + 1.0);
  }
  EXPECT_EQ(injector->injected_stales(), 2u);
  EXPECT_EQ(farm.stats().stale_discarded, 2u);
  EXPECT_EQ(farm.stats().failures, 0u);
}

TEST(FarmFaultTolerance, QuarantineThenRespawnRecovers) {
  // Both slaves fail their very first call; with quarantine_after = 1
  // each is taken out and replaced, and the replacements finish the
  // phase.
  std::atomic<int> remaining_failures{2};
  FarmPolicy policy;
  policy.max_task_retries = 10;
  policy.quarantine_after = 1;
  policy.respawn_quarantined = true;
  MasterSlaveFarm<double, double> farm(
      2,
      [&remaining_failures](const double& x) {
        if (remaining_failures.fetch_sub(1) > 0) {
          throw std::runtime_error("flaky start");
        }
        return x + 0.5;
      },
      policy);
  const std::vector<double> tasks{1.0, 2.0, 3.0, 4.0};
  const auto results = farm.run(tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i], tasks[i] + 0.5);
  }
  EXPECT_EQ(farm.stats().quarantines, 2u);
  EXPECT_EQ(farm.stats().respawns, 2u);
  EXPECT_EQ(farm.healthy_slave_count(), 2u);
  // A later phase runs on the respawned slaves.
  EXPECT_DOUBLE_EQ(farm.run(std::vector<double>{9.0})[0], 9.5);
  // The quarantined slaves exited on their closed inboxes; none was
  // reported lost.
  EXPECT_EQ(farm.stats().worker_losses, 0u);
}

TEST(FarmFaultTolerance, QuarantineWithoutRespawnDegrades) {
  std::atomic<int> remaining_failures{1};
  FarmPolicy policy;
  policy.max_task_retries = 5;
  policy.quarantine_after = 1;
  policy.respawn_quarantined = false;
  MasterSlaveFarm<double, double> farm(
      3,
      [&remaining_failures](const double& x) {
        if (remaining_failures.fetch_sub(1) > 0) {
          throw std::runtime_error("one bad call");
        }
        return x;
      },
      policy);
  std::vector<double> tasks(9);
  std::iota(tasks.begin(), tasks.end(), 0.0);
  const auto results = farm.run(tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i], tasks[i]);
  }
  EXPECT_EQ(farm.stats().quarantines, 1u);
  EXPECT_EQ(farm.stats().respawns, 0u);
  EXPECT_EQ(farm.healthy_slave_count(), 2u);
}

TEST(FarmFaultTolerance, AllSlavesQuarantinedFailsThePhase) {
  FarmPolicy policy;
  policy.max_task_retries = 50;  // retries never exhaust first
  policy.quarantine_after = 1;
  policy.respawn_quarantined = false;
  MasterSlaveFarm<double, double> farm(
      2, [](const double&) -> double { throw std::runtime_error("dead"); },
      policy);
  EXPECT_THROW(farm.run(std::vector<double>{1.0, 2.0}), FarmPhaseError);
  EXPECT_EQ(farm.healthy_slave_count(), 0u);
  // With nobody left, later phases fail immediately.
  EXPECT_THROW(farm.run(std::vector<double>{3.0}), FarmPhaseError);
}

TEST(FarmFaultTolerance, PhaseDeadlineAborts) {
  FarmPolicy policy;
  policy.phase_deadline = std::chrono::milliseconds(30);
  MasterSlaveFarm<double, double> farm(
      2,
      [](const double& x) {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        return x;
      },
      policy);
  try {
    farm.run(std::vector<double>{1.0, 2.0});
    FAIL() << "expected FarmPhaseError";
  } catch (const FarmPhaseError& error) {
    EXPECT_NE(std::string(error.what()).find("deadline"),
              std::string::npos);
    EXPECT_FALSE(error.task_index().has_value());
  }
}

TEST(FarmFaultTolerance, GenerousDeadlineDoesNotInterfere) {
  FarmPolicy policy;
  policy.phase_deadline = std::chrono::seconds(30);
  MasterSlaveFarm<double, double> farm(
      2, [](const double& x) { return x * x; }, policy);
  const auto results = farm.run(std::vector<double>{3.0, 4.0});
  EXPECT_DOUBLE_EQ(results[0], 9.0);
  EXPECT_DOUBLE_EQ(results[1], 16.0);
}

// ---- slave faults (worker loss, dropped replies, degradation) -------

TEST(FarmFaultTolerance, KilledWorkerIsRespawnedAndThePhaseCompletes) {
  FaultInjector::Config faults;
  faults.kill_on_tasks = {1};
  auto injector = std::make_shared<FaultInjector>(faults);
  FarmPolicy policy;
  policy.max_task_retries = 5;
  policy.respawn_backoff = std::chrono::milliseconds(1);
  MasterSlaveFarm<double, double> farm(
      2, [](const double& x) { return x + 3.0; }, policy, injector);
  const std::vector<double> tasks{1.0, 2.0, 3.0, 4.0};
  const auto results = farm.run(tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i], tasks[i] + 3.0);
  }
  EXPECT_EQ(injector->injected_kills(), 1u);
  EXPECT_EQ(farm.stats().worker_losses, 1u);
  EXPECT_GE(farm.stats().respawns, 1u);
  EXPECT_EQ(farm.healthy_slave_count(), 2u);
  // The respawned worker serves later phases normally.
  EXPECT_DOUBLE_EQ(farm.run(std::vector<double>{10.0})[0], 13.0);
}

TEST(FarmFaultTolerance, ErrorReplyFromAnAbortedPhaseIsStale) {
  // Phase 1 hits its deadline while task 2 is still computing; that
  // task then throws, and its error reply arrives during phase 2, while
  // the same slave holds a phase-2 task. The reply names phase 1, so it
  // is discarded like any stale reply instead of failing the phase-2
  // task it was never about (no retries are allowed, so a misplaced
  // charge would abort phase 2).
  FarmPolicy policy;
  policy.max_task_retries = 0;
  policy.phase_deadline = std::chrono::milliseconds(80);
  MasterSlaveFarm<double, double> farm(
      2,
      [](const double& x) {
        if (x == 2.0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          throw std::runtime_error("task 2 failed after its sleep");
        }
        return x * 10.0;
      },
      policy);
  EXPECT_THROW(farm.run(std::vector<double>{0.0, 1.0, 2.0}), FarmPhaseError);
  // Each slave takes one phase-2 task, and the sleeping slave's answer
  // queues behind its error reply, so phase 2 cannot end before reading
  // it.
  const auto results = farm.run(std::vector<double>{3.0, 4.0});
  EXPECT_DOUBLE_EQ(results[0], 30.0);
  EXPECT_DOUBLE_EQ(results[1], 40.0);
  EXPECT_EQ(farm.stats().failures, 0u);
  EXPECT_EQ(farm.stats().stale_discarded, 1u);
}

TEST(FarmFaultTolerance, WorkerBodyEscapeIsDeclaredLost) {
  // A worker that throws something other than a std::exception cannot
  // be answered with an error reply: its slave dies, is declared lost,
  // its task is requeued and its rank respawned, and the phase
  // completes.
  std::atomic<bool> escaped{false};
  FarmPolicy policy;
  policy.respawn_backoff = std::chrono::milliseconds(1);
  MasterSlaveFarm<double, double> farm(
      2,
      [&escaped](const double& x) {
        if (x == 2.0 && !escaped.exchange(true)) throw 42;
        return x + 1.0;
      },
      policy);
  const std::vector<double> tasks{1.0, 2.0, 3.0, 4.0};
  const auto results = farm.run(tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i], tasks[i] + 1.0);
  }
  EXPECT_EQ(farm.stats().worker_losses, 1u);
  EXPECT_EQ(farm.stats().failures, 1u);
  EXPECT_EQ(farm.stats().retries, 1u);
  EXPECT_EQ(farm.stats().respawns, 1u);
  EXPECT_EQ(farm.healthy_slave_count(), 2u);

  // With no retries the loss fails the phase, and the attempt history
  // says why.
  FarmPolicy strict;
  strict.max_task_retries = 0;
  MasterSlaveFarm<double, double> doomed(
      1, [](const double&) -> double { throw 42; }, strict);
  try {
    doomed.run(std::vector<double>{1.0});
    FAIL() << "expected FarmPhaseError";
  } catch (const FarmPhaseError& error) {
    ASSERT_EQ(error.attempts().size(), 1u);
    EXPECT_NE(error.attempts()[0].message.find("worker lost"),
              std::string::npos)
        << error.attempts()[0].message;
    EXPECT_NE(error.attempts()[0].message.find("non-exception"),
              std::string::npos)
        << error.attempts()[0].message;
  }
}

TEST(FarmFaultTolerance, LateReplyFromARetiredSlaveIsStale) {
  // The first attempt at the task 1.0 outlives its deadline (200 ms):
  // its slave is retired and the task requeued on the other slave. The
  // retired slave's answer still arrives inside the phase (at 280 ms),
  // before the requeued attempt's (at about 360 ms). It carries the
  // retired incarnation, so it is discarded as stale and the phase
  // waits for the live slave's answer.
  std::atomic<int> calls_on_one{0};
  FarmPolicy policy;
  policy.task_deadline = std::chrono::milliseconds(200);
  policy.respawn_backoff = std::chrono::milliseconds(1);
  MasterSlaveFarm<double, double> farm(
      2,
      [&calls_on_one](const double& x) {
        if (x == 1.0) {
          const bool first = calls_on_one.fetch_add(1) == 0;
          std::this_thread::sleep_for(
              std::chrono::milliseconds(first ? 280 : 160));
        }
        return x * 4.0;
      },
      policy);
  const auto results = farm.run(std::vector<double>{1.0, 2.0});
  EXPECT_DOUBLE_EQ(results[0], 4.0);
  EXPECT_DOUBLE_EQ(results[1], 8.0);
  EXPECT_EQ(calls_on_one.load(), 2);
  EXPECT_EQ(farm.stats().worker_losses, 1u);
  EXPECT_EQ(farm.stats().stale_discarded, 1u);
  // Each live slave completed one task; the retired one none.
  std::uint64_t completed = 0;
  for (const auto n : farm.stats().per_slave_tasks) completed += n;
  EXPECT_EQ(completed, 2u);
}

TEST(FarmFaultTolerance, DestructionJoinsASlaveLostByDeadline) {
  // The first attempt at the task 1.0 hangs past its deadline: the
  // farm declares that slave lost and finishes the phase elsewhere. The farm
  // is then destroyed while the lost slave is still computing, and its
  // destructor must wait for that thread and join it cleanly.
  std::atomic<int> calls_on_one{0};
  std::atomic<bool> hung_task_finished{false};
  {
    FarmPolicy policy;
    policy.task_deadline = std::chrono::milliseconds(30);
    policy.respawn_backoff = std::chrono::milliseconds(1);
    MasterSlaveFarm<double, double> farm(
        2,
        [&](const double& x) {
          if (x == 1.0 && calls_on_one.fetch_add(1) == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(400));
            hung_task_finished = true;
          }
          return x * 3.0;
        },
        policy);
    const auto results = farm.run(std::vector<double>{1.0, 2.0});
    EXPECT_DOUBLE_EQ(results[0], 3.0);
    EXPECT_DOUBLE_EQ(results[1], 6.0);
    EXPECT_EQ(farm.stats().worker_losses, 1u);
    EXPECT_FALSE(hung_task_finished.load());
  }
  EXPECT_TRUE(hung_task_finished.load());
}

TEST(FarmFaultTolerance, DroppedReplyRecoversViaTaskDeadline) {
  // Without a deadline a dropped reply would hang the phase forever;
  // with one, the silent worker is declared lost and the task requeued.
  FaultInjector::Config faults;
  faults.drop_on_tasks = {0};
  auto injector = std::make_shared<FaultInjector>(faults);
  FarmPolicy policy;
  policy.task_deadline = std::chrono::milliseconds(100);
  policy.respawn_backoff = std::chrono::milliseconds(1);
  MasterSlaveFarm<double, double> farm(
      2, [](const double& x) { return x / 2.0; }, policy, injector);
  const std::vector<double> tasks{2.0, 4.0, 6.0};
  const auto results = farm.run(tasks);
  EXPECT_DOUBLE_EQ(results[0], 1.0);
  EXPECT_DOUBLE_EQ(results[1], 2.0);
  EXPECT_DOUBLE_EQ(results[2], 3.0);
  EXPECT_EQ(injector->injected_drops(), 1u);
  EXPECT_EQ(farm.stats().worker_losses, 1u);
}

TEST(FarmFaultTolerance, DegradesToTheMasterWhenEveryWorkerIsGone) {
  // Both workers are killed on their first task and the policy forbids
  // respawning; the master must finish the phase itself, serially.
  FaultInjector::Config faults;
  faults.kill_on_tasks = {0, 1};
  auto injector = std::make_shared<FaultInjector>(faults);
  FarmPolicy policy;
  policy.max_task_retries = 5;
  policy.quarantine_after = 1;
  policy.respawn_quarantined = false;
  policy.degrade_to_master = true;
  MasterSlaveFarm<double, double> farm(
      2, [](const double& x) { return x * x; }, policy, injector);
  const std::vector<double> tasks{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto results = farm.run(tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i], tasks[i] * tasks[i]);
  }
  EXPECT_EQ(farm.stats().worker_losses, 2u);
  EXPECT_EQ(farm.healthy_slave_count(), 0u);
  EXPECT_EQ(farm.stats().master_degraded_tasks, 5u);
  // Fully degraded, the farm keeps serving phases on the master.
  const auto more = farm.run(std::vector<double>{6.0});
  EXPECT_DOUBLE_EQ(more[0], 36.0);
  EXPECT_EQ(farm.stats().master_degraded_tasks, 6u);
}

TEST(FarmFaultTolerance, NoDegradationMeansWorkerWipeoutFailsThePhase) {
  FaultInjector::Config faults;
  faults.kill_on_tasks = {0, 1};
  auto injector = std::make_shared<FaultInjector>(faults);
  FarmPolicy policy;
  policy.max_task_retries = 5;
  policy.quarantine_after = 1;
  policy.respawn_quarantined = false;
  policy.degrade_to_master = false;
  MasterSlaveFarm<double, double> farm(
      2, [](const double& x) { return x; }, policy, injector);
  try {
    farm.run(std::vector<double>{1.0, 2.0, 3.0});
    FAIL() << "expected FarmPhaseError";
  } catch (const FarmPhaseError& error) {
    EXPECT_NE(std::string(error.what()).find("no healthy slaves"),
              std::string::npos);
  }
}

TEST(FarmFaultTolerance, ProbabilisticFaultsStillCompletePhases) {
  // A noisy farm (deterministic 20% injected failure rate) must finish
  // every phase with correct results as long as retries are allowed.
  FaultInjector::Config config;
  config.seed = 2004;
  config.throw_probability = 0.2;
  auto injector = std::make_shared<FaultInjector>(config);
  FarmPolicy policy;
  policy.max_task_retries = 8;
  MasterSlaveFarm<double, double> farm(
      3, [](const double& x) { return x - 1.0; }, policy, injector);
  for (int phase = 0; phase < 5; ++phase) {
    std::vector<double> tasks(20);
    std::iota(tasks.begin(), tasks.end(), static_cast<double>(phase));
    const auto results = farm.run(tasks);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_DOUBLE_EQ(results[i], tasks[i] - 1.0);
    }
  }
  EXPECT_GT(injector->injected_throws(), 0u);
  EXPECT_EQ(farm.stats().retries, farm.stats().failures);
  EXPECT_GE(farm.stats().retries, injector->injected_throws());
}

}  // namespace
}  // namespace ldga::parallel
