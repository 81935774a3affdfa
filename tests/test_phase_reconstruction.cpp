#include "stats/phase_reconstruction.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "support/reference_em.hpp"
#include "test_support.hpp"

namespace ldga::stats {
namespace {

using genomics::Genotype;
using genomics::GenotypeMatrix;
using genomics::SnpIndex;

GenotypeMatrix matrix_from_rows(
    const std::vector<std::vector<Genotype>>& rows) {
  GenotypeMatrix matrix(static_cast<std::uint32_t>(rows.size()),
                        static_cast<std::uint32_t>(rows[0].size()));
  for (std::uint32_t i = 0; i < rows.size(); ++i) {
    for (SnpIndex s = 0; s < rows[i].size(); ++s) {
      matrix.set(i, s, rows[i][s]);
    }
  }
  return matrix;
}

TEST(PhaseReconstruction, HomozygotesAreUnambiguous) {
  const auto matrix = matrix_from_rows({
      {Genotype::HomTwo, Genotype::HomOne},
  });
  const std::vector<std::uint32_t> ids{0};
  const std::vector<double> uniform(4, 0.25);
  const auto phased = reconstruct_phases(
      matrix, std::vector<SnpIndex>{0, 1}, ids, uniform);
  ASSERT_EQ(phased.size(), 1u);
  EXPECT_EQ(phased[0].first, 0b01u);   // allele 2 at locus 0 only
  EXPECT_EQ(phased[0].second, 0b01u);
  EXPECT_FALSE(phased[0].ambiguous);
  EXPECT_DOUBLE_EQ(phased[0].posterior, 1.0);
}

TEST(PhaseReconstruction, DoubleHetFollowsFrequencies) {
  const auto matrix = matrix_from_rows({
      {Genotype::Het, Genotype::Het},
  });
  const std::vector<std::uint32_t> ids{0};
  // Cis haplotypes (00 and 11) dominate: resolution must be cis.
  const std::vector<double> cis_heavy{0.45, 0.05, 0.05, 0.45};
  const auto phased = reconstruct_phases(
      matrix, std::vector<SnpIndex>{0, 1}, ids, cis_heavy);
  ASSERT_EQ(phased.size(), 1u);
  EXPECT_TRUE(phased[0].ambiguous);
  const bool is_cis =
      (phased[0].first == 0b00u && phased[0].second == 0b11u) ||
      (phased[0].first == 0b11u && phased[0].second == 0b00u);
  EXPECT_TRUE(is_cis);
  // Posterior of cis = 2*0.45*0.45 / (2*0.45*0.45 + 2*0.05*0.05).
  EXPECT_NEAR(phased[0].posterior, 0.405 / (0.405 + 0.005), 1e-9);
}

TEST(PhaseReconstruction, TransHeavyFrequenciesFlipTheCall) {
  const auto matrix = matrix_from_rows({
      {Genotype::Het, Genotype::Het},
  });
  const std::vector<std::uint32_t> ids{0};
  const std::vector<double> trans_heavy{0.05, 0.45, 0.45, 0.05};
  const auto phased = reconstruct_phases(
      matrix, std::vector<SnpIndex>{0, 1}, ids, trans_heavy);
  const bool is_trans =
      (phased[0].first == 0b01u && phased[0].second == 0b10u) ||
      (phased[0].first == 0b10u && phased[0].second == 0b01u);
  EXPECT_TRUE(is_trans);
}

TEST(PhaseReconstruction, MissingLocusImputedToLikeliest) {
  const auto matrix = matrix_from_rows({
      {Genotype::HomTwo, Genotype::Missing},
  });
  const std::vector<std::uint32_t> ids{0};
  // Haplotype 11 (alleles 2,2) overwhelmingly likely.
  const std::vector<double> freqs{0.05, 0.05, 0.05, 0.85};
  const auto phased = reconstruct_phases(
      matrix, std::vector<SnpIndex>{0, 1}, ids, freqs);
  EXPECT_EQ(phased[0].first, 0b11u);
  EXPECT_EQ(phased[0].second, 0b11u);
  EXPECT_TRUE(phased[0].ambiguous);
}

TEST(PhaseReconstruction, ZeroFrequencyModelFallsBackUniform) {
  const auto matrix = matrix_from_rows({
      {Genotype::Het},
  });
  const std::vector<std::uint32_t> ids{0};
  const std::vector<double> zero{0.0, 0.0};
  const auto phased =
      reconstruct_phases(matrix, std::vector<SnpIndex>{0}, ids, zero);
  EXPECT_GT(phased[0].posterior, 0.0);
}

TEST(PhaseReconstruction, IntegratesWithEmOutput) {
  // Reconstruct everyone's phase under the EM-estimated model; the
  // best-guess posteriors must be valid probabilities and carried
  // counts must total 2n.
  const auto synthetic = ldga::testing::small_synthetic(8, 2, 909);
  const auto& matrix = synthetic.dataset.genotypes();
  std::vector<std::uint32_t> ids(matrix.individual_count());
  std::iota(ids.begin(), ids.end(), 0);
  const std::vector<SnpIndex> snps{1, 3, 6};
  const auto table = reference::build_pattern_table(matrix, snps, ids);
  const auto em = reference::estimate_haplotype_frequencies(table);
  const auto phased =
      reconstruct_phases(matrix, snps, ids, em.frequencies);
  ASSERT_EQ(phased.size(), ids.size());
  std::uint32_t carried_total = 0;
  for (HaplotypeCode h = 0; h < 8; ++h) {
    carried_total += count_carried(phased, h);
  }
  EXPECT_EQ(carried_total, 2 * ids.size());
  for (const auto& p : phased) {
    EXPECT_GT(p.posterior, 0.0);
    EXPECT_LE(p.posterior, 1.0 + 1e-12);
  }
}

}  // namespace
}  // namespace ldga::stats
