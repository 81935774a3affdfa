#include "genomics/packed_genotype.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "genomics/genotype_matrix.hpp"
#include "stats/eh_diall.hpp"
#include "stats/em_haplotype.hpp"
#include "support/reference_em.hpp"
#include "util/rng.hpp"

namespace ldga::genomics {
namespace {

// Random matrix with all four codes, Missing at ~15%. The byte-path
// reference everywhere below is a plain per-genotype loop over this
// matrix, so any divergence in the packed kernels shows up directly.
GenotypeMatrix random_matrix(std::uint32_t individuals, std::uint32_t snps,
                             std::uint64_t seed) {
  GenotypeMatrix matrix(individuals, snps);
  Rng rng(seed);
  for (std::uint32_t i = 0; i < individuals; ++i) {
    for (std::uint32_t s = 0; s < snps; ++s) {
      const std::uint64_t draw = rng() % 20;
      Genotype g = Genotype::Missing;
      if (draw < 6) g = Genotype::HomOne;
      else if (draw < 12) g = Genotype::Het;
      else if (draw < 17) g = Genotype::HomTwo;
      matrix.set(i, s, g);
    }
  }
  return matrix;
}

LocusCounts byte_counts(const GenotypeMatrix& matrix, SnpIndex snp,
                        std::span<const std::uint32_t> individuals) {
  LocusCounts counts;
  for (const auto individual : individuals) {
    switch (matrix.at(individual, snp)) {
      case Genotype::HomOne: ++counts.hom_one; break;
      case Genotype::Het: ++counts.het; break;
      case Genotype::HomTwo: ++counts.hom_two; break;
      case Genotype::Missing: ++counts.missing; break;
    }
  }
  return counts;
}

std::vector<std::uint32_t> all_individuals(std::uint32_t count) {
  std::vector<std::uint32_t> out(count);
  for (std::uint32_t i = 0; i < count; ++i) out[i] = i;
  return out;
}

TEST(PackedGenotype, RoundTripsEveryGenotype) {
  const auto matrix = random_matrix(130, 7, 42);
  const PackedGenotypeMatrix packed(matrix);
  ASSERT_EQ(packed.individual_count(), matrix.individual_count());
  ASSERT_EQ(packed.snp_count(), matrix.snp_count());
  for (std::uint32_t i = 0; i < matrix.individual_count(); ++i) {
    for (std::uint32_t s = 0; s < matrix.snp_count(); ++s) {
      EXPECT_EQ(packed.at(i, s), matrix.at(i, s)) << "i=" << i << " s=" << s;
    }
  }
}

TEST(PackedGenotype, SliceRoundTripsInSliceOrder) {
  const auto matrix = random_matrix(90, 5, 7);
  // Deliberately unordered and non-contiguous.
  const std::vector<std::uint32_t> subset = {88, 3, 41, 5, 5, 0, 64, 63};
  const PackedGenotypeMatrix packed(matrix, subset);
  ASSERT_EQ(packed.individual_count(), subset.size());
  for (std::uint32_t row = 0; row < subset.size(); ++row) {
    for (std::uint32_t s = 0; s < matrix.snp_count(); ++s) {
      EXPECT_EQ(packed.at(row, s), matrix.at(subset[row], s));
    }
  }
}

// Sizes straddling the 64-bit word boundary exercise the tail-word
// masking: a padding leak would surface as phantom hom_one counts
// (hom_one is the complement kernel: valid & ~lo & ~hi).
TEST(PackedGenotype, LocusCountsMatchByteScanAcrossWordBoundaries) {
  for (const std::uint32_t n : {1u, 63u, 64u, 65u, 127u, 128u, 130u}) {
    const auto matrix = random_matrix(n, 4, 1000 + n);
    const PackedGenotypeMatrix packed(matrix);
    const auto everyone = all_individuals(n);
    for (std::uint32_t s = 0; s < matrix.snp_count(); ++s) {
      const LocusCounts expected = byte_counts(matrix, s, everyone);
      const LocusCounts actual = packed.locus_counts(s);
      EXPECT_EQ(actual.hom_one, expected.hom_one) << "n=" << n << " s=" << s;
      EXPECT_EQ(actual.het, expected.het) << "n=" << n << " s=" << s;
      EXPECT_EQ(actual.hom_two, expected.hom_two) << "n=" << n << " s=" << s;
      EXPECT_EQ(actual.missing, expected.missing) << "n=" << n << " s=" << s;
      EXPECT_EQ(actual.typed() + actual.missing, n);
    }
  }
}

TEST(PackedGenotype, AllHomOneHasNoPaddingLeak) {
  // Every genotype is the all-zero code, so both planes are zero and
  // the count comes entirely from the valid mask — the case where an
  // unmasked tail word would overcount.
  for (const std::uint32_t n : {63u, 64u, 65u}) {
    GenotypeMatrix matrix(n, 2);
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t s = 0; s < 2; ++s) matrix.set(i, s, Genotype::HomOne);
    }
    const PackedGenotypeMatrix packed(matrix);
    const LocusCounts counts = packed.locus_counts(0);
    EXPECT_EQ(counts.hom_one, n);
    EXPECT_EQ(counts.het + counts.hom_two + counts.missing, 0u);
  }
}

TEST(PackedGenotype, PatternEnumerationMatchesByteScan) {
  const auto matrix = random_matrix(129, 8, 99);
  const std::vector<std::uint32_t> group = {0,  1,  5,  17, 33, 63, 64,
                                            65, 90, 99, 128, 2,  77};
  const PackedGenotypeMatrix packed(matrix, group);
  const std::vector<SnpIndex> snps = {6, 0, 3};

  // Reference tally: joint pattern -> carrier count, by byte loads.
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;
  std::map<Key, std::uint32_t> expected;
  for (const auto individual : group) {
    std::uint32_t hom_two = 0, het = 0, missing = 0;
    for (std::uint32_t j = 0; j < snps.size(); ++j) {
      switch (matrix.at(individual, snps[j])) {
        case Genotype::HomTwo: hom_two |= 1u << j; break;
        case Genotype::Het: het |= 1u << j; break;
        case Genotype::Missing: missing |= 1u << j; break;
        case Genotype::HomOne: break;
      }
    }
    ++expected[{hom_two, het, missing}];
  }

  std::map<Key, std::uint32_t> actual;
  std::uint32_t total = 0;
  packed.for_each_pattern(
      snps, [&](std::uint32_t hom_two, std::uint32_t het,
                std::uint32_t missing, std::uint32_t count) {
        EXPECT_GT(count, 0u);  // pruning must drop empty branches
        EXPECT_TRUE(actual.emplace(Key{hom_two, het, missing}, count).second)
            << "pattern visited twice";
        total += count;
      });
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(total, group.size());
}

TEST(PackedGenotype, PatternTableMatchesBytePathOnRandomDatasets) {
  Rng seeds(20040426);
  for (std::uint32_t trial = 0; trial < 12; ++trial) {
    const std::uint32_t individuals = 30 + trial * 11;  // crosses 64 twice
    const auto matrix = random_matrix(individuals, 10, seeds());
    std::vector<std::uint32_t> group;
    for (std::uint32_t i = 0; i < individuals; ++i) {
      if (seeds() % 3 != 0) group.push_back(i);
    }
    if (group.empty()) group.push_back(0);
    const PackedGenotypeMatrix slice(matrix, group);
    const std::vector<SnpIndex> snps = {
        static_cast<SnpIndex>(seeds() % 10),
        static_cast<SnpIndex>(seeds() % 10), 9, 1};
    std::vector<SnpIndex> distinct;
    for (const auto s : snps) {
      bool seen = false;
      for (const auto d : distinct) seen = seen || d == s;
      if (!seen) distinct.push_back(s);
    }

    for (const auto policy : {stats::MissingPolicy::CompleteCase,
                              stats::MissingPolicy::Marginalize}) {
      const auto byte_table = stats::reference::build_pattern_table(
          matrix, distinct, group, policy);
      const auto packed_table =
          stats::GenotypePatternTable::build_packed(slice, distinct, policy);
      EXPECT_EQ(packed_table.locus_count(), byte_table.locus_count());
      EXPECT_EQ(packed_table.total_individuals(),
                byte_table.total_individuals());
      EXPECT_EQ(packed_table.excluded_missing(),
                byte_table.excluded_missing());
      ASSERT_EQ(packed_table.patterns().size(), byte_table.patterns().size())
          << "trial " << trial;
      for (std::size_t p = 0; p < byte_table.patterns().size(); ++p) {
        const auto& expected = byte_table.patterns()[p];
        const auto& actual = packed_table.patterns()[p];
        EXPECT_EQ(actual.hom_two_mask, expected.hom_two_mask);
        EXPECT_EQ(actual.het_mask, expected.het_mask);
        EXPECT_EQ(actual.missing_mask, expected.missing_mask);
        EXPECT_EQ(actual.count, expected.count);  // exact: both are tallies
      }
    }
  }
}

void expect_bit_identical(const stats::EmResult& expected,
                          const stats::EmResult& actual) {
  EXPECT_EQ(actual.frequencies, expected.frequencies);
  EXPECT_EQ(actual.log_likelihood, expected.log_likelihood);
  EXPECT_EQ(actual.iterations, expected.iterations);
  EXPECT_EQ(actual.converged, expected.converged);
}

// End-to-end: production EH-DIALL (packed tables, compiled EM, scalar
// kernel) must leave every statistic bit-for-bit identical to the test
// oracle's byte-scan tables and dense visitor EM — under both missing-
// data policies, at every candidate size the GA uses, and for a
// candidate given out of ascending order.
TEST(PackedGenotype, EhDiallStatisticsAreBitForBitIdentical) {
  // ~15% Missing genotypes; every fifth individual has Unknown status.
  const auto matrix = random_matrix(90, 14, 2004);
  std::vector<Status> statuses(90);
  for (std::uint32_t i = 0; i < statuses.size(); ++i) {
    statuses[i] = i % 5 == 4   ? Status::Unknown
                  : i % 2 == 0 ? Status::Affected
                               : Status::Unaffected;
  }
  const Dataset dataset(SnpPanel::uniform(14), matrix, statuses);

  const std::array<std::vector<SnpIndex>, 7> candidates = {
      std::vector<SnpIndex>{3},
      std::vector<SnpIndex>{0, 1},
      std::vector<SnpIndex>{2, 5, 9},
      std::vector<SnpIndex>{1, 6, 7, 13},
      std::vector<SnpIndex>{3, 4, 8, 10, 12},
      std::vector<SnpIndex>{0, 2, 5, 7, 11, 13},
      std::vector<SnpIndex>{9, 2, 12, 5}};  // unsorted
  for (const auto policy : {stats::MissingPolicy::CompleteCase,
                            stats::MissingPolicy::Marginalize}) {
    stats::EmConfig config;
    config.missing = policy;
    const stats::EhDiall production(dataset, config);
    for (const auto& snps : candidates) {
      SCOPED_TRACE(::testing::Message()
                   << "policy " << static_cast<int>(policy) << ", "
                   << snps.size() << " loci, first " << snps.front());
      const auto expected = stats::reference::analyze(dataset, snps, config);
      const auto actual = production.analyze(snps);
      EXPECT_EQ(actual.locus_count, expected.locus_count);
      EXPECT_EQ(actual.affected_individuals, expected.affected_individuals);
      EXPECT_EQ(actual.unaffected_individuals,
                expected.unaffected_individuals);
      expect_bit_identical(expected.affected, actual.affected);
      expect_bit_identical(expected.unaffected, actual.unaffected);
      expect_bit_identical(expected.pooled.value(), actual.pooled.value());
      EXPECT_EQ(actual.lrt.value(), expected.lrt.value());
    }
  }
}

}  // namespace
}  // namespace ldga::genomics
