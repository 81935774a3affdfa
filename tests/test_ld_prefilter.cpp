#include "analysis/ld_prefilter.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ga/window_scan.hpp"
#include "genomics/genotype_matrix.hpp"
#include "genomics/ld.hpp"
#include "genomics/packed_genotype.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace ldga::analysis {
namespace {

using genomics::Genotype;
using genomics::PackedGenotypeMatrix;
using genomics::PairLd;

/// Builds a packed store from dosage columns (0/1/2; 3 = missing).
PackedGenotypeMatrix store_from_columns(
    const std::vector<std::vector<int>>& columns) {
  const auto individuals = static_cast<std::uint32_t>(columns.front().size());
  const auto snps = static_cast<std::uint32_t>(columns.size());
  genomics::GenotypeMatrix matrix(individuals, snps);
  for (std::uint32_t s = 0; s < snps; ++s) {
    for (std::uint32_t i = 0; i < individuals; ++i) {
      matrix.set(i, s, static_cast<Genotype>(columns[s][i]));
    }
  }
  return PackedGenotypeMatrix(matrix);
}

// A balanced polymorphic column: four of each dosage.
const std::vector<int> kColA{0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 1, 2};
// Its dosage complement (perfect negative correlation).
const std::vector<int> kColFlip{2, 2, 2, 1, 1, 1, 0, 0, 0, 2, 1, 0};
// Monomorphic in dosage (every individual heterozygous).
const std::vector<int> kColMono{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
// Uncorrelated-ish shuffle of kColA.
const std::vector<int> kColShuffled{1, 2, 0, 2, 0, 1, 1, 0, 2, 2, 1, 0};

TEST(LdPrefilter, PerfectlyCorrelatedPairScoresFullLd) {
  const PackedGenotypeMatrix store = store_from_columns({kColA, kColA});
  const PairLd ld = composite_pair_ld(store, 0, 1);
  EXPECT_NEAR(ld.r2, 1.0, 1e-12);
  EXPECT_NEAR(ld.d_prime, 1.0, 1e-12);
  // cov = var = 2/3 for the balanced column, so D = cov/2 = 1/3.
  EXPECT_NEAR(ld.d, 1.0 / 3.0, 1e-12);
}

TEST(LdPrefilter, AnticorrelatedPairScoresFullLdWithNegativeD) {
  const PackedGenotypeMatrix store = store_from_columns({kColA, kColFlip});
  const PairLd ld = composite_pair_ld(store, 0, 1);
  EXPECT_NEAR(ld.r2, 1.0, 1e-12);
  EXPECT_NEAR(ld.d_prime, 1.0, 1e-12);
  EXPECT_LT(ld.d, 0.0);
}

TEST(LdPrefilter, MonomorphicLocusScoresZero) {
  const PackedGenotypeMatrix store = store_from_columns({kColA, kColMono});
  const PairLd ld = composite_pair_ld(store, 0, 1);
  EXPECT_EQ(ld.r2, 0.0);
  EXPECT_EQ(ld.d_prime, 0.0);
  EXPECT_EQ(ld.d, 0.0);
}

TEST(LdPrefilter, MissingGenotypesAreExcludedPairwise) {
  // Column B with the first three individuals untyped: the pair must be
  // scored over the remaining nine only.
  std::vector<int> with_missing = kColShuffled;
  with_missing[0] = with_missing[1] = with_missing[2] = 3;
  const PackedGenotypeMatrix store =
      store_from_columns({kColA, with_missing});

  const std::vector<int> a_reduced(kColA.begin() + 3, kColA.end());
  const std::vector<int> b_reduced(kColShuffled.begin() + 3,
                                   kColShuffled.end());
  const PackedGenotypeMatrix reduced =
      store_from_columns({a_reduced, b_reduced});

  const PairLd full = composite_pair_ld(store, 0, 1);
  const PairLd sub = composite_pair_ld(reduced, 0, 1);
  EXPECT_DOUBLE_EQ(full.r2, sub.r2);
  EXPECT_DOUBLE_EQ(full.d, sub.d);
  EXPECT_DOUBLE_EQ(full.d_prime, sub.d_prime);
}

TEST(LdPrefilter, FewerThanTwoJointlyTypedScoresZero) {
  // Complementary missingness: no individual is typed at both loci.
  std::vector<int> first_half = kColA;
  std::vector<int> second_half = kColA;
  for (std::size_t i = 0; i < kColA.size(); ++i) {
    if (i < 6) first_half[i] = 3;
    if (i >= 6) second_half[i] = 3;
  }
  const PackedGenotypeMatrix store =
      store_from_columns({first_half, second_half});
  const PairLd ld = composite_pair_ld(store, 0, 1);
  EXPECT_EQ(ld.r2, 0.0);
  EXPECT_EQ(ld.d, 0.0);
}

TEST(LdPrefilter, WindowSummaryCountsPairsAndStrongPairs) {
  const PackedGenotypeMatrix store =
      store_from_columns({kColA, kColA, kColMono});
  const std::vector<ga::WindowSpec> windows{{0, 3}};
  const std::vector<WindowScore> scores = score_windows(store, windows);
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_EQ(scores[0].pairs, 3u);           // (0,1) (0,2) (1,2)
  EXPECT_EQ(scores[0].strong_pairs, 1u);    // only the (0,1) r² = 1 pair
  EXPECT_NEAR(scores[0].max_r2, 1.0, 1e-12);
  EXPECT_NEAR(scores[0].mean_r2, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(scores[0].score, scores[0].mean_r2);
}

TEST(LdPrefilter, TileSizeDoesNotChangeScores) {
  const genomics::Dataset dataset =
      ldga::testing::small_synthetic(30, 2, 7).dataset;
  const PackedGenotypeMatrix store(dataset.genotypes());
  const std::vector<ga::WindowSpec> windows = ga::plan_windows(30, 12, 6);

  LdPrefilterConfig tiny;
  tiny.tile_snps = 1;
  LdPrefilterConfig odd;
  odd.tile_snps = 5;
  const auto reference = score_windows(store, windows);  // tile 256
  const auto tiled_1 = score_windows(store, windows, tiny);
  const auto tiled_5 = score_windows(store, windows, odd);

  ASSERT_EQ(reference.size(), windows.size());
  for (std::size_t w = 0; w < reference.size(); ++w) {
    for (const auto* other : {&tiled_1[w], &tiled_5[w]}) {
      EXPECT_EQ(other->pairs, reference[w].pairs);
      EXPECT_EQ(other->strong_pairs, reference[w].strong_pairs);
      EXPECT_DOUBLE_EQ(other->max_r2, reference[w].max_r2);
      // The tile order changes the summation order, so means agree to
      // rounding, not bit-for-bit.
      EXPECT_NEAR(other->mean_r2, reference[w].mean_r2, 1e-12);
      EXPECT_NEAR(other->mean_abs_d_prime, reference[w].mean_abs_d_prime,
                  1e-12);
    }
  }
}

TEST(LdPrefilter, ThreadCountDoesNotChangeScores) {
  // Unlike tile size (which reorders the pair sums), the worker count
  // must not move a single bit: windows are the unit of parallel work,
  // and one worker sweeps a window's tiles in fixed order. Shapes: a
  // few tiles per window; 64-SNP windows at stride 48 with the default
  // tile, one tile each, both with more windows than the pool has
  // chunks and with fewer (2 windows against 7 workers).
  struct Shape {
    std::uint32_t snps, window, stride, tile;
  };
  for (const Shape shape : {Shape{30, 12, 6, 5}, Shape{304, 64, 48, 256},
                            Shape{112, 64, 48, 256}}) {
    const genomics::Dataset dataset =
        ldga::testing::small_synthetic(shape.snps, 2, 7).dataset;
    const PackedGenotypeMatrix store(dataset.genotypes());
    const std::vector<ga::WindowSpec> windows =
        ga::plan_windows(shape.snps, shape.window, shape.stride);

    LdPrefilterConfig serial;
    serial.tile_snps = shape.tile;
    const auto reference = score_windows(store, windows, serial);
    for (const std::uint32_t workers : {2u, 3u, 7u}) {
      LdPrefilterConfig parallel = serial;
      parallel.workers = workers;
      const auto scored = score_windows(store, windows, parallel);
      ASSERT_EQ(scored.size(), reference.size());
      for (std::size_t w = 0; w < reference.size(); ++w) {
        EXPECT_GT(reference[w].pairs, 0u);
        EXPECT_EQ(scored[w].window.begin, reference[w].window.begin);
        EXPECT_EQ(scored[w].pairs, reference[w].pairs);
        EXPECT_EQ(scored[w].strong_pairs, reference[w].strong_pairs);
        EXPECT_EQ(scored[w].max_r2, reference[w].max_r2);
        EXPECT_EQ(scored[w].mean_r2, reference[w].mean_r2);
        EXPECT_EQ(scored[w].mean_abs_d_prime,
                  reference[w].mean_abs_d_prime);
        EXPECT_EQ(scored[w].score, reference[w].score);
      }
    }
  }
}

TEST(LdPrefilter, RanksLdBlockAboveNoiseWindow) {
  // Window [0, 4): four copies of one column — a perfect LD block.
  // Window [4, 8): shuffles with little mutual correlation.
  const PackedGenotypeMatrix store = store_from_columns(
      {kColA, kColA, kColA, kColA,
       kColShuffled,
       {2, 0, 1, 0, 2, 1, 0, 1, 2, 0, 2, 1},
       {0, 1, 2, 2, 1, 0, 2, 0, 1, 1, 0, 2},
       {1, 0, 2, 1, 2, 0, 0, 2, 1, 2, 1, 0}});
  const std::vector<ga::WindowSpec> windows{{0, 4}, {4, 4}};
  const std::vector<WindowScore> scores = score_windows(store, windows);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_GT(scores[0].score, scores[1].score);
  EXPECT_NEAR(scores[0].mean_r2, 1.0, 1e-12);

  const std::vector<ga::WindowSpec> kept = top_windows(scores, 1);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].begin, 0u);
  EXPECT_EQ(kept[0].count, 4u);
}

TEST(LdPrefilter, TopWindowsResortGenomicallyAndBreakTiesEarly) {
  std::vector<WindowScore> scores(3);
  scores[0].window = {0, 10};
  scores[0].score = 0.1;
  scores[1].window = {10, 10};
  scores[1].score = 0.9;
  scores[2].window = {20, 10};
  scores[2].score = 0.1;  // ties with window 0 — earlier begin wins

  const auto kept = top_windows(scores, 2);
  ASSERT_EQ(kept.size(), 2u);
  // Highest (begin 10) plus the tie-winner (begin 0), genomic order.
  EXPECT_EQ(kept[0].begin, 0u);
  EXPECT_EQ(kept[1].begin, 10u);

  const auto all = top_windows(scores, 99);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].begin, 0u);
  EXPECT_EQ(all[2].begin, 20u);
}

TEST(LdPrefilter, ConfigRejectsBadKnobs) {
  LdPrefilterConfig zero_tile;
  zero_tile.tile_snps = 0;
  EXPECT_THROW(zero_tile.validate(), ConfigError);

  LdPrefilterConfig bad_threshold;
  bad_threshold.strong_r2 = 1.5;
  EXPECT_THROW(bad_threshold.validate(), ConfigError);
}

}  // namespace
}  // namespace ldga::analysis
