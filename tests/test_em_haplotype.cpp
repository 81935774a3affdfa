#include "stats/em_haplotype.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "genomics/genotype_matrix.hpp"
#include "support/reference_em.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

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

std::vector<std::uint32_t> all_individuals(const GenotypeMatrix& matrix) {
  std::vector<std::uint32_t> ids(matrix.individual_count());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

TEST(GenotypePatterns, GroupsIdenticalGenotypes) {
  const auto matrix = matrix_from_rows({
      {Genotype::HomOne, Genotype::Het},
      {Genotype::HomOne, Genotype::Het},
      {Genotype::HomTwo, Genotype::HomOne},
  });
  const auto ids = all_individuals(matrix);
  const auto table = reference::build_pattern_table(
      matrix, std::vector<SnpIndex>{0, 1}, ids);
  EXPECT_EQ(table.locus_count(), 2u);
  EXPECT_DOUBLE_EQ(table.total_individuals(), 3.0);
  ASSERT_EQ(table.patterns().size(), 2u);
  // Sorted by (hom_two_mask, het_mask): (0, 2) then (1, 0).
  EXPECT_EQ(table.patterns()[0].hom_two_mask, 0u);
  EXPECT_EQ(table.patterns()[0].het_mask, 2u);
  EXPECT_DOUBLE_EQ(table.patterns()[0].count, 2.0);
  EXPECT_EQ(table.patterns()[1].hom_two_mask, 1u);
  EXPECT_DOUBLE_EQ(table.patterns()[1].count, 1.0);
}

TEST(GenotypePatterns, ExcludesMissing) {
  const auto matrix = matrix_from_rows({
      {Genotype::HomOne, Genotype::Missing},
      {Genotype::HomOne, Genotype::HomOne},
  });
  const auto ids = all_individuals(matrix);
  const auto table = reference::build_pattern_table(
      matrix, std::vector<SnpIndex>{0, 1}, ids);
  EXPECT_DOUBLE_EQ(table.total_individuals(), 1.0);
  EXPECT_EQ(table.excluded_missing(), 1u);
}

TEST(GenotypePatterns, MergeAddsCounts) {
  const auto matrix = matrix_from_rows({
      {Genotype::Het},
      {Genotype::Het},
      {Genotype::HomOne},
  });
  const std::vector<std::uint32_t> first{0};
  const std::vector<std::uint32_t> rest{1, 2};
  const std::vector<SnpIndex> snps{0};
  const auto a = reference::build_pattern_table(matrix, snps, first);
  const auto b = reference::build_pattern_table(matrix, snps, rest);
  const auto merged = GenotypePatternTable::merge(a, b);
  EXPECT_DOUBLE_EQ(merged.total_individuals(), 3.0);
  ASSERT_EQ(merged.patterns().size(), 2u);
}

TEST(Em, SingleLocusMatchesAlleleCounting) {
  // 11, 12, 22 -> allele Two frequency (0+1+2)/6 = 0.5.
  const auto matrix = matrix_from_rows({
      {Genotype::HomOne},
      {Genotype::Het},
      {Genotype::HomTwo},
  });
  const auto table = reference::build_pattern_table(
      matrix, std::vector<SnpIndex>{0}, all_individuals(matrix));
  const auto result = reference::estimate_haplotype_frequencies(table);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.frequencies[0], 0.5, 1e-8);  // haplotype "1"
  EXPECT_NEAR(result.frequencies[1], 0.5, 1e-8);  // haplotype "2"
}

TEST(Em, UnambiguousTwoLocusMatchesDirectCounting) {
  // No double heterozygotes: haplotypes are directly countable.
  // Individuals: (11,22) => two copies of hap "12" (code 2: bit1 set);
  //              (22,11) => two copies of hap "21" (code 1: bit0 set).
  const auto matrix = matrix_from_rows({
      {Genotype::HomOne, Genotype::HomTwo},
      {Genotype::HomTwo, Genotype::HomOne},
      {Genotype::HomTwo, Genotype::HomOne},
  });
  const auto table = reference::build_pattern_table(
      matrix, std::vector<SnpIndex>{0, 1}, all_individuals(matrix));
  const auto result = reference::estimate_haplotype_frequencies(table);
  EXPECT_NEAR(result.frequencies[0b10], 2.0 / 6.0, 1e-8);
  EXPECT_NEAR(result.frequencies[0b01], 4.0 / 6.0, 1e-8);
  EXPECT_NEAR(result.frequencies[0b00], 0.0, 1e-8);
  EXPECT_NEAR(result.frequencies[0b11], 0.0, 1e-8);
}

TEST(Em, DoubleHeterozygoteResolvedTowardCommonHaplotypes) {
  // Many unambiguous 11/22 individuals (cis evidence) plus one double
  // het: EM should assign the double het mostly to the cis resolution.
  std::vector<std::vector<Genotype>> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({Genotype::HomOne, Genotype::HomOne});  // 2x hap 00
    rows.push_back({Genotype::HomTwo, Genotype::HomTwo});  // 2x hap 11
  }
  rows.push_back({Genotype::Het, Genotype::Het});
  const auto matrix = matrix_from_rows(rows);
  const auto table = reference::build_pattern_table(
      matrix, std::vector<SnpIndex>{0, 1}, all_individuals(matrix));
  const auto result = reference::estimate_haplotype_frequencies(table);
  // cis haplotypes (00 and 11) should absorb nearly all the mass.
  EXPECT_GT(result.frequencies[0b00] + result.frequencies[0b11], 0.97);
  EXPECT_LT(result.frequencies[0b01] + result.frequencies[0b10], 0.03);
}

TEST(Em, FrequenciesFormADistribution) {
  const auto synthetic = ldga::testing::small_synthetic(10, 2, 99);
  const auto& matrix = synthetic.dataset.genotypes();
  const auto ids = all_individuals(matrix);
  for (const std::vector<SnpIndex>& snps :
       {std::vector<SnpIndex>{0, 1}, std::vector<SnpIndex>{2, 5, 7},
        std::vector<SnpIndex>{1, 3, 6, 9}}) {
    const auto table = reference::build_pattern_table(matrix, snps, ids);
    const auto result = reference::estimate_haplotype_frequencies(table);
    double sum = 0.0;
    for (const double f : result.frequencies) {
      EXPECT_GE(f, -1e-12);
      sum += f;
    }
    EXPECT_NEAR(sum, 1.0, 1e-8);
    EXPECT_EQ(result.frequencies.size(), std::size_t{1} << snps.size());
  }
}

TEST(Em, LikelihoodNeverDecreasesFromStart) {
  const auto synthetic = ldga::testing::small_synthetic(10, 2, 55);
  const auto& matrix = synthetic.dataset.genotypes();
  const auto ids = all_individuals(matrix);
  const std::vector<SnpIndex> snps{0, 2, 4};
  const auto table = reference::build_pattern_table(matrix, snps, ids);

  // One-iteration run vs converged run: converged must be >= single.
  EmConfig one_step;
  one_step.max_iterations = 1;
  const auto early = reference::estimate_haplotype_frequencies(table, one_step);
  const auto full = reference::estimate_haplotype_frequencies(table);
  EXPECT_GE(full.log_likelihood, early.log_likelihood - 1e-9);
}

TEST(Em, EmptyPatternTableConverges) {
  const GenotypeMatrix matrix(0, 2);
  const std::vector<std::uint32_t> no_ids;
  const auto table = reference::build_pattern_table(
      matrix, std::vector<SnpIndex>{0, 1}, no_ids);
  const auto result = reference::estimate_haplotype_frequencies(table);
  EXPECT_TRUE(result.converged);
}

TEST(Em, ConfigValidation) {
  EmConfig config;
  config.tolerance = 0.0;
  EXPECT_THROW(config.validate(), ConfigError);
  config = {};
  config.max_iterations = 0;
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(Em, InvariantToIndividualOrder) {
  const auto synthetic = ldga::testing::small_synthetic(10, 2, 424);
  const auto& matrix = synthetic.dataset.genotypes();
  std::vector<std::uint32_t> forward = all_individuals(matrix);
  std::vector<std::uint32_t> reversed(forward.rbegin(), forward.rend());
  const std::vector<SnpIndex> snps{0, 3, 7};
  const auto a = reference::estimate_haplotype_frequencies(
      reference::build_pattern_table(matrix, snps, forward));
  const auto b = reference::estimate_haplotype_frequencies(
      reference::build_pattern_table(matrix, snps, reversed));
  for (std::size_t h = 0; h < a.frequencies.size(); ++h) {
    EXPECT_DOUBLE_EQ(a.frequencies[h], b.frequencies[h]);
  }
}

TEST(Em, MatchesGridSearchOnTwoLocusProblem) {
  // Brute-force the 2-locus likelihood over a frequency grid and check
  // EM's solution is at least as likely as every grid point.
  const auto matrix = matrix_from_rows({
      {Genotype::Het, Genotype::Het},
      {Genotype::HomOne, Genotype::Het},
      {Genotype::HomTwo, Genotype::HomTwo},
      {Genotype::Het, Genotype::HomOne},
      {Genotype::HomOne, Genotype::HomOne},
  });
  const auto table = reference::build_pattern_table(
      matrix, std::vector<SnpIndex>{0, 1}, all_individuals(matrix));
  const auto em = reference::estimate_haplotype_frequencies(table);

  double best_grid = -1e300;
  const int steps = 24;
  for (int i = 0; i <= steps; ++i) {
    for (int j = 0; i + j <= steps; ++j) {
      for (int k = 0; i + j + k <= steps; ++k) {
        const double p00 = static_cast<double>(i) / steps;
        const double p01 = static_cast<double>(j) / steps;
        const double p10 = static_cast<double>(k) / steps;
        const double p11 = 1.0 - p00 - p01 - p10;
        const std::vector<double> freqs{p00, p01, p10, p11};
        best_grid = std::max(best_grid,
                             reference::genotype_log_likelihood(table, freqs));
      }
    }
  }
  EXPECT_GE(em.log_likelihood, best_grid - 1e-6);
}

// --- missing-data marginalization ---------------------------------------

TEST(EmMissing, MarginalizeKeepsAllIndividuals) {
  const auto matrix = matrix_from_rows({
      {Genotype::HomOne, Genotype::Missing},
      {Genotype::HomOne, Genotype::HomOne},
  });
  const auto ids = all_individuals(matrix);
  const std::vector<SnpIndex> snps{0, 1};
  const auto complete = reference::build_pattern_table(
      matrix, snps, ids, MissingPolicy::CompleteCase);
  const auto marginal = reference::build_pattern_table(
      matrix, snps, ids, MissingPolicy::Marginalize);
  EXPECT_DOUBLE_EQ(complete.total_individuals(), 1.0);
  EXPECT_EQ(complete.excluded_missing(), 1u);
  EXPECT_DOUBLE_EQ(marginal.total_individuals(), 2.0);
  EXPECT_EQ(marginal.excluded_missing(), 0u);
  ASSERT_EQ(marginal.patterns().size(), 2u);
  EXPECT_EQ(marginal.patterns()[0].missing_mask, 0u);
  EXPECT_EQ(marginal.patterns()[1].missing_mask, 2u);
}

TEST(EmMissing, PoliciesAgreeWithoutMissingData) {
  const auto synthetic = ldga::testing::small_synthetic(8, 2, 5150);
  const auto& matrix = synthetic.dataset.genotypes();
  const auto ids = all_individuals(matrix);
  const std::vector<SnpIndex> snps{1, 4, 6};
  const auto a = reference::build_pattern_table(matrix, snps, ids,
                                             MissingPolicy::CompleteCase);
  const auto b = reference::build_pattern_table(matrix, snps, ids,
                                             MissingPolicy::Marginalize);
  const auto ra = reference::estimate_haplotype_frequencies(a);
  const auto rb = reference::estimate_haplotype_frequencies(b);
  for (std::size_t h = 0; h < ra.frequencies.size(); ++h) {
    EXPECT_DOUBLE_EQ(ra.frequencies[h], rb.frequencies[h]);
  }
}

TEST(EmMissing, MarginalizedFrequenciesSumToOne) {
  // Build data with forced missing cells.
  const auto matrix = matrix_from_rows({
      {Genotype::HomOne, Genotype::Het, Genotype::Missing},
      {Genotype::Missing, Genotype::HomTwo, Genotype::Het},
      {Genotype::Het, Genotype::Missing, Genotype::Missing},
      {Genotype::HomTwo, Genotype::HomOne, Genotype::HomOne},
      {Genotype::Het, Genotype::Het, Genotype::Het},
  });
  const auto ids = all_individuals(matrix);
  EmConfig config;
  config.missing = MissingPolicy::Marginalize;
  const auto table = reference::build_pattern_table(
      matrix, std::vector<SnpIndex>{0, 1, 2}, ids,
      MissingPolicy::Marginalize);
  const auto result = reference::estimate_haplotype_frequencies(table, config);
  double sum = 0.0;
  for (const double f : result.frequencies) {
    EXPECT_GE(f, -1e-12);
    sum += f;
  }
  EXPECT_NEAR(sum, 1.0, 1e-8);
}

TEST(EmMissing, MissingPullsTowardObservedConsensus) {
  // Overwhelming HomTwo evidence plus one fully missing individual: EM
  // should attribute the missing individual's chromosomes to the same
  // haplotype, converging on frequency ~1 for "2".
  std::vector<std::vector<Genotype>> rows(20, {Genotype::HomTwo});
  rows.push_back({Genotype::Missing});
  const auto matrix = matrix_from_rows(rows);
  const auto ids = all_individuals(matrix);
  const auto table = reference::build_pattern_table(
      matrix, std::vector<SnpIndex>{0}, ids, MissingPolicy::Marginalize);
  EmConfig config;
  config.missing = MissingPolicy::Marginalize;
  config.max_iterations = 2000;
  config.tolerance = 1e-12;
  const auto result = reference::estimate_haplotype_frequencies(table, config);
  EXPECT_GT(result.frequencies[1], 0.99);
}

TEST(EmMissing, LikelihoodComparableAcrossPolicies) {
  // On the same individuals, per-individual likelihood contributions
  // under marginalization cannot exceed 1; log-likelihood is finite.
  const auto matrix = matrix_from_rows({
      {Genotype::Het, Genotype::Missing},
      {Genotype::HomOne, Genotype::Het},
      {Genotype::HomTwo, Genotype::HomTwo},
  });
  const auto ids = all_individuals(matrix);
  const auto table = reference::build_pattern_table(
      matrix, std::vector<SnpIndex>{0, 1}, ids, MissingPolicy::Marginalize);
  EmConfig config;
  config.missing = MissingPolicy::Marginalize;
  const auto result = reference::estimate_haplotype_frequencies(table, config);
  EXPECT_LE(result.log_likelihood, 1e-9);
  EXPECT_TRUE(std::isfinite(result.log_likelihood));
}

TEST(FromPatterns, RejectsUnsortedPatterns) {
  std::vector<GenotypePattern> unsorted{{2, 0, 0, 3.0}, {1, 0, 0, 2.0}};
  EXPECT_DEATH((void)GenotypePatternTable::from_patterns(
                   2, 5.0, 0, std::move(unsorted)),
               "precondition");
}

TEST(HaplotypeLabel, RendersAlleleDigits) {
  EXPECT_EQ(haplotype_label(0b000, 3), "111");
  EXPECT_EQ(haplotype_label(0b101, 3), "212");
  EXPECT_EQ(haplotype_label(0b1, 1), "2");
}

}  // namespace
}  // namespace ldga::stats
