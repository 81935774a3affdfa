#include "ga/window_scan.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "genomics/dataset.hpp"
#include "genomics/genotype_store.hpp"
#include "genomics/packed_genotype.hpp"
#include "genomics/packed_store.hpp"
#include "stats/evaluator.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace ldga::ga {
namespace {

using genomics::PackedGenotypeMatrix;
using genomics::SnpIndex;

TEST(PlanWindows, PanelSmallerThanWindowYieldsOneCoveringWindow) {
  const std::vector<WindowSpec> windows = plan_windows(3, 8, 4);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].begin, 0u);
  EXPECT_EQ(windows[0].count, 3u);
}

TEST(PlanWindows, OverlappingTilingCoversPanelWithPartialTail) {
  const std::vector<WindowSpec> windows = plan_windows(23, 10, 5);
  ASSERT_EQ(windows.size(), 4u);
  const std::vector<std::uint32_t> begins{0, 5, 10, 15};
  const std::vector<std::uint32_t> counts{10, 10, 10, 8};
  for (std::size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(windows[w].begin, begins[w]);
    EXPECT_EQ(windows[w].count, counts[w]);
  }
  // Overlap invariant: each window starts before its predecessor ends
  // (overlap = window - stride >= 0, here 5).
  for (std::size_t w = 1; w < windows.size(); ++w) {
    EXPECT_LT(windows[w].begin,
              windows[w - 1].begin + windows[w - 1].count);
  }
  // The last (partial) window ends exactly at the panel edge.
  EXPECT_EQ(windows.back().begin + windows.back().count, 23u);
}

TEST(PlanWindows, ExactMultipleEndsFlushWithNoEmptyTail) {
  const std::vector<WindowSpec> windows = plan_windows(20, 10, 10);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].begin, 0u);
  EXPECT_EQ(windows[1].begin, 10u);
  EXPECT_EQ(windows[1].count, 10u);
}

TEST(PlanWindows, RejectsDegenerateShapes) {
  EXPECT_THROW(plan_windows(0, 4, 2), ConfigError);   // empty panel
  EXPECT_THROW(plan_windows(10, 1, 1), ConfigError);  // window < 2
  EXPECT_THROW(plan_windows(10, 4, 0), ConfigError);  // zero stride
  EXPECT_THROW(plan_windows(10, 4, 5), ConfigError);  // stride > window
}

/// test_engine.cpp's fast settings: small enough to run in milliseconds,
/// big enough to exercise every operator.
GaConfig fast_ga(std::uint64_t seed) {
  GaConfig config;
  config.min_size = 2;
  config.max_size = 4;
  config.population_size = 30;
  config.min_subpopulation = 5;
  config.crossovers_per_generation = 6;
  config.mutations_per_generation = 10;
  config.stagnation_generations = 15;
  config.max_generations = 40;
  config.seed = seed;
  return config;
}

TEST(WindowScan, WindowSliceFitnessIsBitIdenticalToFullMatrix) {
  const genomics::Dataset dataset =
      ldga::testing::small_synthetic(20, 2, 5).dataset;
  const PackedGenotypeMatrix store(dataset.genotypes());

  const genomics::Dataset window = genomics::materialize_window(
      store, dataset.panel(), dataset.statuses(), 6, 8);
  ASSERT_EQ(window.snp_count(), 8u);
  EXPECT_EQ(window.panel().name(0), dataset.panel().name(6));

  const stats::EvaluatorConfig config;
  const stats::HaplotypeEvaluator full(dataset, config);
  const stats::HaplotypeEvaluator sliced(window, config);

  const std::vector<std::vector<SnpIndex>> global_candidates{
      {6, 9}, {7, 10, 12}, {6, 11, 12, 13}, {8, 13}};
  for (const auto& global : global_candidates) {
    std::vector<SnpIndex> local(global.size());
    std::transform(global.begin(), global.end(), local.begin(),
                   [](SnpIndex s) { return s - 6; });
    const auto a = full.evaluate_full(global);
    const auto b = sliced.evaluate_full(local);
    // Bit-identical, not merely close: the slice re-packs the same
    // plane bits, so every pipeline stage sees identical inputs.
    EXPECT_EQ(a.fitness, b.fitness);
    EXPECT_EQ(a.t1.statistic, b.t1.statistic);
    EXPECT_EQ(a.lrt, b.lrt);
  }
}

struct ScanFixture {
  genomics::Dataset dataset;
  PackedGenotypeMatrix store;
  std::vector<WindowSpec> windows;
  WindowScanConfig config;

  explicit ScanFixture(std::uint64_t seed = 42)
      : dataset(ldga::testing::small_synthetic(18, 2, 1234).dataset),
        store(dataset.genotypes()),
        windows(plan_windows(18, 8, 5)) {
    config.ga = fast_ga(seed);
    config.migrate_elites = 2;
  }

  WindowScanResult run() const {
    return run_window_scan(store, dataset.panel(), dataset.statuses(),
                           windows, config);
  }
};

TEST(WindowScan, ScansEveryWindowAndReportsGlobalChampion) {
  const ScanFixture fixture;
  const WindowScanResult result = fixture.run();
  ASSERT_EQ(result.windows.size(), fixture.windows.size());

  std::uint64_t evaluations = 0;
  double best = 0.0;
  for (std::size_t w = 0; w < result.windows.size(); ++w) {
    const WindowResult& window = result.windows[w];
    EXPECT_EQ(window.window.begin, fixture.windows[w].begin);
    evaluations += window.evaluations;
    EXPECT_GT(window.generations, 0u);

    // Reported SNPs are global indices confined to the window.
    ASSERT_FALSE(window.best_snps.empty());
    EXPECT_GE(window.best_snps.size(), fixture.config.ga.min_size);
    EXPECT_LE(window.best_snps.size(), fixture.config.ga.max_size);
    for (const SnpIndex s : window.best_snps) {
      EXPECT_GE(s, window.window.begin);
      EXPECT_LT(s, window.window.begin + window.window.count);
    }
    best = std::max(best, window.best_fitness);
    EXPECT_LE(window.migrants_in, fixture.config.migrate_elites);
  }
  EXPECT_EQ(result.windows.front().migrants_in, 0u);  // no predecessor
  EXPECT_EQ(result.evaluations, evaluations);
  EXPECT_EQ(result.best_fitness, best);
  EXPECT_FALSE(result.best_snps.empty());
}

TEST(WindowScan, ScanIsDeterministicForAFixedSeed) {
  const ScanFixture fixture;
  const WindowScanResult first = fixture.run();
  const WindowScanResult second = fixture.run();
  EXPECT_EQ(first.best_fitness, second.best_fitness);
  EXPECT_EQ(first.best_snps, second.best_snps);
  EXPECT_EQ(first.evaluations, second.evaluations);
  for (std::size_t w = 0; w < first.windows.size(); ++w) {
    EXPECT_EQ(first.windows[w].best_fitness, second.windows[w].best_fitness);
    EXPECT_EQ(first.windows[w].best_snps, second.windows[w].best_snps);
  }
}

TEST(WindowScan, DifferentSeedsDecorrelateWindows) {
  const ScanFixture a(42);
  const ScanFixture b(43);
  const WindowScanResult ra = a.run();
  const WindowScanResult rb = b.run();
  // Different scan seeds must at least change the work performed (the
  // search paths diverge even if both find the planted signal).
  EXPECT_TRUE(ra.evaluations != rb.evaluations ||
              ra.best_snps != rb.best_snps ||
              ra.best_fitness != rb.best_fitness);
}

TEST(WindowScan, MmapStoreScanMatchesInMemoryScanExactly) {
  const ScanFixture fixture;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ldga_scan_" + std::to_string(::getpid()) + ".pgs"))
          .string();
  genomics::write_packed_store(path, fixture.dataset);

  const WindowScanResult memory = fixture.run();
  {
    const genomics::PackedGenotypeStore mapped =
        genomics::PackedGenotypeStore::open(path);
    const WindowScanResult disk =
        run_window_scan(mapped, mapped.panel(), mapped.statuses(),
                        fixture.windows, fixture.config);
    EXPECT_EQ(disk.best_fitness, memory.best_fitness);
    EXPECT_EQ(disk.best_snps, memory.best_snps);
    EXPECT_EQ(disk.evaluations, memory.evaluations);
  }
  std::remove(path.c_str());
}

TEST(WindowScan, ConfigRejectsDegenerateConcurrency) {
  WindowScanConfig config;
  config.ga = fast_ga(1);
  config.concurrent_windows = 0;
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(WindowScan, SequentialScanUnchangedBySharedEvalPool) {
  // eval_workers only changes which backend scores a generation, and
  // backends are result-invariant by contract — the sequential
  // reference must stay bit-exact with the pool hoisted in.
  const ScanFixture serial;
  ScanFixture pooled;
  pooled.config.eval_workers = 3;
  const WindowScanResult a = serial.run();
  const WindowScanResult b = pooled.run();
  EXPECT_EQ(a.best_fitness, b.best_fitness);
  EXPECT_EQ(a.best_snps, b.best_snps);
  EXPECT_EQ(a.evaluations, b.evaluations);
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    EXPECT_EQ(a.windows[w].best_snps, b.windows[w].best_snps);
    EXPECT_EQ(a.windows[w].migrants_in, b.windows[w].migrants_in);
  }
}

TEST(WindowScan, SequentialTelemetryRecordsScanOrderAndDonor) {
  const ScanFixture fixture;
  const WindowScanResult result = fixture.run();
  for (std::size_t w = 0; w < result.windows.size(); ++w) {
    EXPECT_EQ(result.windows[w].completion_rank, w);
    if (result.windows[w].migrants_in > 0) {
      // The reference donates strictly from the previous window.
      ASSERT_EQ(result.windows[w].donor_windows.size(), 1u);
      EXPECT_EQ(result.windows[w].donor_windows[0], w - 1);
    } else {
      EXPECT_TRUE(result.windows[w].donor_windows.empty());
    }
  }
}

/// Disjoint windows have no donors at any concurrency, so every
/// window's GA is a pure function of the scan seed — concurrency cannot
/// move a bit, which pins concurrent scans to the deterministic
/// configuration.
std::vector<WindowSpec> disjoint_windows() { return {{0, 6}, {6, 6}, {12, 6}}; }

TEST(WindowScan, PipelinedScanMatchesSequentialOnDisjointWindows) {
  const ScanFixture fixture;
  const std::vector<WindowSpec> windows = disjoint_windows();
  WindowScanConfig reference = fixture.config;
  const WindowScanResult sequential =
      run_window_scan(fixture.store, fixture.dataset.panel(),
                      fixture.dataset.statuses(), windows, reference);

  for (const std::uint32_t concurrency : {2u, 4u}) {
    WindowScanConfig pipelined = fixture.config;
    pipelined.concurrent_windows = concurrency;
    const WindowScanResult result =
        run_window_scan(fixture.store, fixture.dataset.panel(),
                        fixture.dataset.statuses(), windows, pipelined);
    ASSERT_EQ(result.windows.size(), sequential.windows.size());
    EXPECT_EQ(result.best_fitness, sequential.best_fitness);
    EXPECT_EQ(result.best_snps, sequential.best_snps);
    EXPECT_EQ(result.evaluations, sequential.evaluations);
    for (std::size_t w = 0; w < result.windows.size(); ++w) {
      EXPECT_EQ(result.windows[w].best_snps, sequential.windows[w].best_snps);
      EXPECT_EQ(result.windows[w].best_fitness,
                sequential.windows[w].best_fitness);
      EXPECT_EQ(result.windows[w].evaluations,
                sequential.windows[w].evaluations);
      EXPECT_EQ(result.windows[w].migrants_in, 0u);
    }
  }
}

/// Every donor of every window must be an overlapping window that
/// finished before it.
void expect_donors_overlap_and_finished_first(const WindowScanResult& result) {
  for (const WindowResult& window : result.windows) {
    for (const std::uint32_t donor : window.donor_windows) {
      ASSERT_LT(donor, result.windows.size());
      const WindowResult& source = result.windows[donor];
      EXPECT_LT(source.completion_rank, window.completion_rank);
      EXPECT_LT(source.window.begin,
                window.window.begin + window.window.count);
      EXPECT_LT(window.window.begin,
                source.window.begin + source.window.count);
    }
  }
}

TEST(WindowScan, PipelinedScanTracksOverlapDependencies) {
  const ScanFixture fixture;
  for (const std::uint32_t concurrency : {1u, 2u}) {
    WindowScanConfig config = fixture.config;
    config.concurrent_windows = concurrency;
    const WindowScanResult result =
        run_window_scan(fixture.store, fixture.dataset.panel(),
                        fixture.dataset.statuses(), fixture.windows, config);
    ASSERT_EQ(result.windows.size(), fixture.windows.size());

    // Completion ranks are a permutation of the scan positions — the
    // identity when one window is in flight at a time.
    std::vector<bool> seen(result.windows.size(), false);
    for (std::size_t w = 0; w < result.windows.size(); ++w) {
      const WindowResult& window = result.windows[w];
      ASSERT_LT(window.completion_rank, result.windows.size());
      EXPECT_FALSE(seen[window.completion_rank]);
      seen[window.completion_rank] = true;
      if (concurrency == 1) {
        EXPECT_EQ(window.completion_rank, w);
      }

      EXPECT_LE(window.migrants_in, config.migrate_elites);
      ASSERT_FALSE(window.best_snps.empty());
      for (const SnpIndex s : window.best_snps) {
        EXPECT_GE(s, window.window.begin);
        EXPECT_LT(s, window.window.begin + window.window.count);
      }
    }
    expect_donors_overlap_and_finished_first(result);
    EXPECT_GT(result.evaluations, 0u);
    EXPECT_FALSE(result.best_snps.empty());
  }
}

TEST(WindowScan, TightStrideDrawsDonorsFromEveryOverlappingEarlierWindow) {
  // Stride 2 < window 8 / 2: each window overlaps up to three windows
  // before it, and with one window in flight all of them have finished
  // when it starts. The scan stays deterministic.
  ScanFixture fixture;
  fixture.windows = plan_windows(18, 8, 2);
  fixture.config.migrate_elites = 3;
  const WindowScanResult first = fixture.run();
  const WindowScanResult second = fixture.run();
  ASSERT_EQ(first.windows.size(), fixture.windows.size());
  ASSERT_EQ(second.windows.size(), first.windows.size());
  EXPECT_EQ(first.best_fitness, second.best_fitness);
  EXPECT_EQ(first.best_snps, second.best_snps);
  EXPECT_EQ(first.evaluations, second.evaluations);
  bool several_donors = false;
  for (std::size_t w = 0; w < first.windows.size(); ++w) {
    EXPECT_EQ(first.windows[w].best_fitness, second.windows[w].best_fitness);
    EXPECT_EQ(first.windows[w].best_snps, second.windows[w].best_snps);
    EXPECT_EQ(first.windows[w].evaluations, second.windows[w].evaluations);
    EXPECT_EQ(first.windows[w].donor_windows,
              second.windows[w].donor_windows);
    EXPECT_EQ(first.windows[w].completion_rank, w);
    several_donors =
        several_donors || first.windows[w].donor_windows.size() > 1;
  }
  expect_donors_overlap_and_finished_first(first);
  // This seed's scan has a window fed by two earlier windows, which a
  // previous-window-only rule could not produce.
  EXPECT_TRUE(several_donors);
}

TEST(WindowScan, MigrationOffStillScans) {
  ScanFixture fixture;
  fixture.config.migrate_elites = 0;
  const WindowScanResult result = fixture.run();
  for (const WindowResult& window : result.windows) {
    EXPECT_EQ(window.migrants_in, 0u);
  }
  EXPECT_FALSE(result.best_snps.empty());
}

}  // namespace
}  // namespace ldga::ga
