#include "ga/telemetry_writer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "test_support.hpp"

namespace ldga::ga {
namespace {

GenerationInfo sample_info(std::uint32_t generation) {
  GenerationInfo info;
  info.generation = generation;
  info.best_by_size = {1.5, 2.5};
  info.rates.mutation = {0.5, 0.2, 0.2};
  info.rates.crossover = {0.6, 0.3};
  info.evaluations = 100 * generation;
  info.immigrants_triggered = generation % 2 == 0;
  info.cache_hits = 10 * generation;
  info.cache_misses = generation;
  info.cache_evictions = 0;
  info.stage_timings.pattern_build_seconds = 0.125;
  info.stage_timings.em_seconds = 0.25;
  info.stage_timings.clump_seconds = 0.5;
  info.gen_cache_hits = 9;
  info.gen_cache_misses = 3;
  info.mc_replicates_run = 100 * generation;
  info.mc_replicates_saved = 50 * generation;
  return info;
}

TEST(TelemetryWriter, HeaderMatchesShape) {
  std::ostringstream out;
  TelemetryCsvWriter writer(out);
  writer.record(sample_info(1));
  const std::string text = out.str();
  EXPECT_NE(text.find("generation,best_size_0,best_size_1,"
                      "mutation_rate_0,mutation_rate_1,mutation_rate_2,"
                      "crossover_rate_0,crossover_rate_1,"
                      "evaluations,immigrants,"
                      "cache_hits,cache_misses,cache_evictions,"
                      "pattern_build_seconds,em_seconds,clump_seconds,"
                      "cache_hit_ratio,mc_replicates_run,"
                      "mc_replicates_saved\n"),
            std::string::npos);
}

TEST(TelemetryWriter, OneRowPerRecord) {
  std::ostringstream out;
  TelemetryCsvWriter writer(out);
  for (std::uint32_t g = 1; g <= 5; ++g) writer.record(sample_info(g));
  EXPECT_EQ(writer.rows_written(), 5u);
  // header + 5 rows
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
}

TEST(TelemetryWriter, RowValuesRoundTrip) {
  std::ostringstream out;
  TelemetryCsvWriter writer(out);
  writer.record(sample_info(3));
  const std::string text = out.str();
  EXPECT_NE(
      text.find("3,1.5,2.5,0.5,0.2,0.2,0.6,0.3,300,0,30,3,0,0.125,0.25,0.5,"
                "0.75,300,150\n"),
      std::string::npos);
  writer.record(sample_info(4));
  EXPECT_NE(out.str().find(
                "4,1.5,2.5,0.5,0.2,0.2,0.6,0.3,400,1,40,4,0,0.125,0.25,0.5,"
                "0.75,400,200\n"),
            std::string::npos);
}

TEST(TelemetryWriter, ZeroTrafficRatiosAreZeroNotNan) {
  // A generation with no cache or Monte-Carlo traffic (all gen_*
  // counters zero) must report a 0 ratio, never NaN from a 0/0
  // division.
  auto info = sample_info(2);
  info.gen_cache_hits = 0;
  info.gen_cache_misses = 0;
  info.mc_replicates_run = 0;
  info.mc_replicates_saved = 0;
  std::ostringstream out;
  TelemetryCsvWriter writer(out);
  writer.record(info);
  EXPECT_NE(out.str().find("0.125,0.25,0.5,0,0,0\n"),
            std::string::npos);
  EXPECT_EQ(out.str().find("nan"), std::string::npos);
}

TEST(TelemetryWriter, IntegratesWithEngine) {
  const auto synthetic = ldga::testing::small_synthetic(10, 2, 31337);
  const stats::HaplotypeEvaluator evaluator(synthetic.dataset);
  GaConfig config;
  config.min_size = 2;
  config.max_size = 3;
  config.population_size = 16;
  config.min_subpopulation = 6;
  config.crossovers_per_generation = 3;
  config.mutations_per_generation = 6;
  config.stagnation_generations = 8;
  config.max_generations = 20;
  config.seed = 2;
  GaEngine engine(evaluator, config);
  std::ostringstream out;
  TelemetryCsvWriter writer(out);
  engine.set_generation_callback(writer.callback());
  const GaResult result = engine.run();
  EXPECT_EQ(writer.rows_written(), result.generations);
}

IslandEvent sample_event(IslandEvent::Kind kind) {
  IslandEvent event;
  event.kind = kind;
  event.island = 1;
  event.haplotype_size = 3;
  event.step = 42;
  event.wall_seconds = 0.5;
  event.best_fitness = 2.5;
  event.worst_fitness = 0.25;
  event.in_flight = 4;
  event.rate_version = 7;
  event.evaluations = 120;
  return event;
}

TEST(IslandEventWriter, HeaderAndRowsRoundTrip) {
  std::ostringstream out;
  IslandEventCsvWriter writer(out);
  writer.record(sample_event(IslandEvent::Kind::kImprovement));
  writer.record(sample_event(IslandEvent::Kind::kMigrationOut));
  EXPECT_EQ(writer.rows_written(), 2u);

  const std::string text = out.str();
  EXPECT_NE(text.find("wall_seconds,event,island,haplotype_size,step,"
                      "best_fitness,worst_fitness,in_flight,rate_version,"
                      "evaluations"),
            std::string::npos);
  EXPECT_NE(text.find("0.5,improvement,1,3,42,2.5,0.25,4,7,120"),
            std::string::npos);
  EXPECT_NE(text.find("0.5,migration_out,1,3,42,2.5,0.25,4,7,120"),
            std::string::npos);
  // header + 2 rows
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(IslandEventWriter, EveryKindHasAStableName) {
  using Kind = IslandEvent::Kind;
  for (const Kind kind :
       {Kind::kInitialized, Kind::kImprovement, Kind::kMigrationOut,
        Kind::kMigrationIn, Kind::kImmigrants, Kind::kCheckpoint}) {
    EXPECT_STRNE(to_string(kind), "unknown");
  }
  std::ostringstream out;
  IslandEventCsvWriter writer(out);
  writer.record(sample_event(Kind::kCheckpoint));
  EXPECT_NE(out.str().find(",checkpoint,"), std::string::npos);
}

}  // namespace
}  // namespace ldga::ga
