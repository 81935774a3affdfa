#include "analysis/ld_prefilter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ga/window_scan.hpp"
#include "genomics/genotype_matrix.hpp"
#include "genomics/ld.hpp"
#include "genomics/packed_genotype.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

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

/// Test-only oracle for the prefilter's documented statistic: composite
/// LD of one pair, looping over individuals and skipping anyone missing
/// at either locus, with n, Σg, Σg² and Σg_a·g_b kept as integers and
/// reduced by the same formula (Pearson r² of the dosages, D = cov/2,
/// Lewontin's D′ from the dosage allele frequencies).
PairLd oracle_pair_ld(const genomics::GenotypeMatrix& matrix,
                      genomics::SnpIndex a, genomics::SnpIndex b) {
  std::uint64_t n = 0, s_a = 0, sq_a = 0, s_b = 0, sq_b = 0, s_ab = 0;
  for (std::uint32_t i = 0; i < matrix.individual_count(); ++i) {
    const Genotype ga = matrix.at(i, a);
    const Genotype gb = matrix.at(i, b);
    if (ga == Genotype::Missing || gb == Genotype::Missing) continue;
    const auto x = static_cast<std::uint64_t>(ga);
    const auto y = static_cast<std::uint64_t>(gb);
    ++n;
    s_a += x;
    sq_a += x * x;
    s_b += y;
    sq_b += y * y;
    s_ab += x * y;
  }
  PairLd ld;
  const auto dn = static_cast<double>(n);
  if (dn < 2.0) return ld;
  const double mean_a = static_cast<double>(s_a) / dn;
  const double mean_b = static_cast<double>(s_b) / dn;
  const double var_a = static_cast<double>(sq_a) / dn - mean_a * mean_a;
  const double var_b = static_cast<double>(sq_b) / dn - mean_b * mean_b;
  if (var_a <= 0.0 || var_b <= 0.0) return ld;
  const double cov = static_cast<double>(s_ab) / dn - mean_a * mean_b;
  ld.r2 = std::min((cov * cov) / (var_a * var_b), 1.0);
  ld.d = cov / 2.0;
  const double p_a = static_cast<double>(s_a) / (2.0 * dn);
  const double p_b = static_cast<double>(s_b) / (2.0 * dn);
  const double d_max =
      ld.d >= 0.0 ? std::min(p_a * (1.0 - p_b), p_b * (1.0 - p_a))
                  : std::min(p_a * p_b, (1.0 - p_a) * (1.0 - p_b));
  ld.d_prime = d_max > 0.0 ? std::min(std::abs(ld.d) / d_max, 1.0) : 0.0;
  return ld;
}

/// A panel with LD (each locus copies its left neighbour with
/// probability 0.7), three monomorphic loci (all HomOne, all Het, all
/// HomTwo before masking) and each cell missing with `missing_rate`.
genomics::GenotypeMatrix oracle_panel(std::uint32_t individuals,
                                      std::uint32_t snps,
                                      double missing_rate,
                                      std::uint64_t seed) {
  Rng rng(seed);
  genomics::GenotypeMatrix matrix(individuals, snps);
  std::vector<Genotype> column(individuals);
  for (std::uint32_t s = 0; s < snps; ++s) {
    for (std::uint32_t i = 0; i < individuals; ++i) {
      if (s == 5) {
        column[i] = Genotype::HomOne;
      } else if (s == 11) {
        column[i] = Genotype::Het;
      } else if (s == 17) {
        column[i] = Genotype::HomTwo;
      } else if (s == 0 || rng.uniform() >= 0.7) {
        column[i] = static_cast<Genotype>(rng.below(3));
      }
    }
    for (std::uint32_t i = 0; i < individuals; ++i) {
      matrix.set(i, s,
                 rng.uniform() < missing_rate ? Genotype::Missing : column[i]);
    }
  }
  return matrix;
}

void expect_same_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

TEST(LdPrefilter, MatchesPerIndividualOracleAtEverySimdLevel) {
  constexpr std::uint32_t kSnps = 24;
  const std::vector<ga::WindowSpec> windows = ga::plan_windows(kSnps, 10, 4);
  const LdPrefilterConfig config;
  for (const util::SimdLevel level : util::simd_available_levels()) {
    util::simd_force_level(level);
    for (const std::uint32_t individuals : {3u, 63u, 64u, 65u, 300u}) {
      for (const double missing_rate : {0.0, 0.02, 0.3, 0.9}) {
        const std::uint64_t seed =
            individuals * 1000 + static_cast<std::uint64_t>(missing_rate * 100);
        const genomics::GenotypeMatrix matrix =
            oracle_panel(individuals, kSnps, missing_rate, seed);
        const PackedGenotypeMatrix store(matrix);
        const std::string panel =
            std::string(util::simd_level_name(level)) + " N=" +
            std::to_string(individuals) +
            " missing=" + std::to_string(missing_rate);

        for (genomics::SnpIndex a = 0; a < kSnps; ++a) {
          for (genomics::SnpIndex b = a + 1; b < kSnps; ++b) {
            const PairLd got = composite_pair_ld(store, a, b);
            const PairLd want = oracle_pair_ld(matrix, a, b);
            const std::string pair = panel + " pair (" + std::to_string(a) +
                                     "," + std::to_string(b) + ")";
            expect_same_bits(got.r2, want.r2, pair + " r2");
            expect_same_bits(got.d, want.d, pair + " d");
            expect_same_bits(got.d_prime, want.d_prime, pair + " d'");
          }
        }

        const std::vector<WindowScore> scores =
            score_windows(store, windows, config);
        ASSERT_EQ(scores.size(), windows.size());
        for (std::size_t w = 0; w < windows.size(); ++w) {
          std::uint64_t pairs = 0, strong = 0;
          double sum_r2 = 0.0, sum_dprime = 0.0, max_r2 = 0.0;
          const genomics::SnpIndex end = windows[w].begin + windows[w].count;
          for (genomics::SnpIndex a = windows[w].begin; a < end; ++a) {
            for (genomics::SnpIndex b = a + 1; b < end; ++b) {
              const PairLd ld = oracle_pair_ld(matrix, a, b);
              ++pairs;
              sum_r2 += ld.r2;
              sum_dprime += ld.d_prime;
              max_r2 = std::max(max_r2, ld.r2);
              if (ld.r2 >= config.strong_r2) ++strong;
            }
          }
          const std::string window =
              panel + " window " + std::to_string(windows[w].begin);
          EXPECT_EQ(scores[w].pairs, pairs) << window;
          EXPECT_EQ(scores[w].strong_pairs, strong) << window;
          expect_same_bits(scores[w].max_r2, max_r2, window + " max_r2");
          expect_same_bits(scores[w].mean_r2,
                           sum_r2 / static_cast<double>(pairs),
                           window + " mean_r2");
          expect_same_bits(scores[w].mean_abs_d_prime,
                           sum_dprime / static_cast<double>(pairs),
                           window + " mean_abs_d_prime");
        }
      }
    }
  }
  util::simd_force_level(std::nullopt);
}

TEST(LdPrefilter, ThreadCountDoesNotChangeScores) {
  // The worker count must not move a single bit: windows are the unit
  // of parallel work, and one thread sweeps a window's pairs in fixed
  // order. Shapes: short overlapping windows; the benchmark's 64-SNP
  // windows at stride 48, both with more windows than threads and with
  // fewer (2 windows against 7 workers).
  struct Shape {
    std::uint32_t snps, window, stride;
  };
  for (const Shape shape : {Shape{30, 12, 6}, Shape{304, 64, 48},
                            Shape{112, 64, 48}}) {
    const genomics::Dataset dataset =
        ldga::testing::small_synthetic(shape.snps, 2, 7).dataset;
    const PackedGenotypeMatrix store(dataset.genotypes());
    const std::vector<ga::WindowSpec> windows =
        ga::plan_windows(shape.snps, shape.window, shape.stride);

    const LdPrefilterConfig serial;
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
  LdPrefilterConfig bad_threshold;
  bad_threshold.strong_r2 = 1.5;
  EXPECT_THROW(bad_threshold.validate(), ConfigError);
}

}  // namespace
}  // namespace ldga::analysis
