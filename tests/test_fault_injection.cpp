// FaultInjector: deterministic schedules, with a focus on the
// heavy-tailed straggler preset the barrier-vs-async comparison runs
// under (bench_parallel_speedup and the chaos CI leg).
#include "parallel/fault_injection.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace ldga::parallel {
namespace {

using Kind = FaultDecision::Kind;

TEST(StragglerPreset, ShapesTheComparisonConfig) {
  const auto config = FaultInjector::straggler_preset(
      42, 0.25, std::chrono::milliseconds(4));
  EXPECT_EQ(config.seed, 42u);
  EXPECT_DOUBLE_EQ(config.straggler_probability, 0.25);
  EXPECT_EQ(config.straggler_scale.count(), 4);
  EXPECT_DOUBLE_EQ(config.straggler_shape, 1.1);
  EXPECT_EQ(config.straggler_cap, config.straggler_scale * 50);
  // No other fault class rides along: the preset measures stragglers
  // and nothing else.
  EXPECT_DOUBLE_EQ(config.throw_probability, 0.0);
  EXPECT_DOUBLE_EQ(config.delay_probability, 0.0);
  EXPECT_DOUBLE_EQ(config.stale_probability, 0.0);
}

TEST(StragglerPreset, ValidationRejectsBadSettings) {
  FaultInjector::Config config;
  config.straggler_probability = 1.5;
  EXPECT_THROW(config.validate(), ConfigError);

  config = {};
  config.straggler_probability = 0.5;
  config.straggler_shape = 0.0;
  EXPECT_THROW(config.validate(), ConfigError);

  config = {};
  config.straggler_probability = 0.5;
  config.straggler_scale = std::chrono::milliseconds(10);
  config.straggler_cap = std::chrono::milliseconds(5);  // cap < scale
  EXPECT_THROW(config.validate(), ConfigError);

  EXPECT_NO_THROW(FaultInjector::straggler_preset(
      1, 0.1, std::chrono::milliseconds(2)));
}

TEST(StragglerSchedule, IsDeterministicAcrossInjectors) {
  // The whole point of injected stragglers: the same (seed, phase,
  // index, attempt) coordinates draw the same delay, so two runs (or
  // two backends) measure the same delay population.
  const auto config = FaultInjector::straggler_preset(
      7, 0.3, std::chrono::milliseconds(2));
  FaultInjector a(config), b(config);
  for (std::uint64_t phase = 0; phase < 3; ++phase) {
    for (std::uint64_t index = 0; index < 200; ++index) {
      const FaultDecision da = a.decide(phase, index);
      const FaultDecision db = b.decide(phase, index);
      EXPECT_EQ(da.kind, db.kind) << phase << "/" << index;
      EXPECT_EQ(da.delay, db.delay) << phase << "/" << index;
    }
  }
  EXPECT_EQ(a.injected_stragglers(), b.injected_stragglers());
  EXPECT_EQ(a.injected_straggler_time(), b.injected_straggler_time());
}

TEST(StragglerSchedule, DrawsAreParetoScaledAndCapped) {
  const auto scale = std::chrono::milliseconds(2);
  FaultInjector injector(FaultInjector::straggler_preset(123, 0.3, scale));
  std::uint64_t stragglers = 0;
  std::uint64_t total_ms = 0;
  const std::uint64_t draws = 2000;
  for (std::uint64_t index = 0; index < draws; ++index) {
    const FaultDecision decision = injector.decide(0, index);
    if (decision.kind == Kind::kNone) continue;
    ASSERT_EQ(decision.kind, Kind::kDelay);
    // Pareto factor u^(-1/shape) >= 1, so every draw is at least the
    // scale and never beyond the cap.
    EXPECT_GE(decision.delay, scale);
    EXPECT_LE(decision.delay, scale * 50);
    ++stragglers;
    total_ms += static_cast<std::uint64_t>(decision.delay.count());
  }
  // The hit rate tracks the configured probability...
  EXPECT_NEAR(static_cast<double>(stragglers) / draws, 0.3, 0.05);
  // ...and the counters account every injected sleep exactly.
  EXPECT_EQ(injector.injected_stragglers(), stragglers);
  EXPECT_EQ(injector.injected_delays(), stragglers);
  EXPECT_EQ(injector.injected_straggler_time().count(),
            static_cast<std::int64_t>(total_ms));
  // Heavy tail: the mean draw clearly exceeds the scale (shape 1.1
  // puts substantial mass far beyond it).
  EXPECT_GT(static_cast<double>(total_ms) / static_cast<double>(stragglers),
            static_cast<double>(scale.count()));
}

TEST(StragglerSchedule, DiffersAcrossSeeds) {
  FaultInjector a(FaultInjector::straggler_preset(
      1, 0.3, std::chrono::milliseconds(2)));
  FaultInjector b(FaultInjector::straggler_preset(
      2, 0.3, std::chrono::milliseconds(2)));
  bool any_difference = false;
  for (std::uint64_t index = 0; index < 200 && !any_difference; ++index) {
    const FaultDecision da = a.decide(0, index);
    const FaultDecision db = b.decide(0, index);
    any_difference = da.kind != db.kind || da.delay != db.delay;
  }
  EXPECT_TRUE(any_difference);
}

TEST(StragglerSchedule, WrappedWorkersSleepThroughTheSchedule) {
  // decide() then apply_before_work() before the work is the in-process
  // path (stats::RetryLadder). A straggler only sleeps, so the worker's
  // results are untouched.
  FaultInjector injector(FaultInjector::straggler_preset(
      9, 0.5, std::chrono::milliseconds(1)));
  const auto worker = [&injector](std::uint64_t task) {
    FaultInjector::apply_before_work(injector.decide(1, task));
    return task * 2;
  };
  for (std::uint64_t task = 0; task < 50; ++task) {
    EXPECT_EQ(worker(task), task * 2);
  }
  EXPECT_GT(injector.injected_stragglers(), 0u);
  EXPECT_GT(injector.injected_straggler_time().count(), 0);
}

}  // namespace
}  // namespace ldga::parallel
