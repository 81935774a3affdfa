// Property suite for the compiled sparse EM kernel: the phase-program
// path must be bit-for-bit identical to the visitor-based reference EM
// (tests/support/reference_em.hpp) — frequencies, log-likelihood,
// iteration count and convergence flag — on every table shape the
// pipeline can produce.
#include "stats/em_kernel.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "genomics/genotype_matrix.hpp"
#include "stats/eh_diall.hpp"
#include "support/reference_em.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace ldga::stats {
namespace {

using genomics::Genotype;
using genomics::GenotypeMatrix;
using genomics::SnpIndex;

GenotypeMatrix random_matrix(std::uint32_t individuals, std::uint32_t snps,
                             double missing_prob, Rng& rng) {
  GenotypeMatrix matrix(individuals, snps);
  for (std::uint32_t i = 0; i < individuals; ++i) {
    for (SnpIndex s = 0; s < snps; ++s) {
      if (rng.uniform() < missing_prob) {
        matrix.set(i, s, Genotype::Missing);
        continue;
      }
      switch (rng.below(3)) {
        case 0:
          matrix.set(i, s, Genotype::HomOne);
          break;
        case 1:
          matrix.set(i, s, Genotype::Het);
          break;
        default:
          matrix.set(i, s, Genotype::HomTwo);
          break;
      }
    }
  }
  return matrix;
}

GenotypePatternTable table_of(const GenotypeMatrix& matrix,
                              MissingPolicy missing) {
  std::vector<std::uint32_t> ids(matrix.individual_count());
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<SnpIndex> snps(matrix.snp_count());
  std::iota(snps.begin(), snps.end(), 0);
  return reference::build_pattern_table(matrix, snps, ids, missing);
}

EmResult run_compiled(const GenotypePatternTable& table,
                      const EmConfig& config) {
  const EmProgram program = EmProgram::compile(table);
  EmKernelScratch scratch;
  return expand_em_result(program,
                          run_em_program(program, config, scratch));
}

void expect_bit_identical(const EmResult& reference,
                          const EmResult& compiled) {
  ASSERT_EQ(reference.frequencies.size(), compiled.frequencies.size());
  for (std::size_t h = 0; h < reference.frequencies.size(); ++h) {
    EXPECT_EQ(reference.frequencies[h], compiled.frequencies[h])
        << "haplotype " << h;
  }
  EXPECT_EQ(reference.log_likelihood, compiled.log_likelihood);
  EXPECT_EQ(reference.iterations, compiled.iterations);
  EXPECT_EQ(reference.converged, compiled.converged);
}

TEST(EmKernel, MatchesReferenceOnRandomTables) {
  for (const std::uint32_t k : {2u, 3u, 4u, 6u, 8u}) {
    for (const MissingPolicy missing :
         {MissingPolicy::CompleteCase, MissingPolicy::Marginalize}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed * 1000 + k);
        const auto matrix = random_matrix(40, k, 0.03, rng);
        const auto table = table_of(matrix, missing);
        EmConfig config;
        config.missing = missing;
        const auto expected =
            reference::estimate_haplotype_frequencies(table, config);
        const auto compiled = run_compiled(table, config);
        expect_bit_identical(expected, compiled);
      }
    }
  }
}

TEST(EmKernel, MatchesReferenceAtMaxLoci) {
  // 2^20 dense entries on the reference side; cap the iterations so the
  // dense M-step stays cheap. The point is shape coverage, not depth.
  Rng rng(77);
  const auto matrix = random_matrix(25, kMaxEmLoci, 0.02, rng);
  for (const MissingPolicy missing :
       {MissingPolicy::CompleteCase, MissingPolicy::Marginalize}) {
    const auto table = table_of(matrix, missing);
    EmConfig config;
    config.missing = missing;
    config.max_iterations = 3;
    const auto expected =
        reference::estimate_haplotype_frequencies(table, config);
    const auto compiled = run_compiled(table, config);
    expect_bit_identical(expected, compiled);
  }
}

TEST(EmKernel, MatchesReferenceOnSinglePattern) {
  // Every individual carries the same genotype — one pattern, and for
  // the all-het case the classic 2^(k-1) phase ambiguity.
  for (const Genotype g :
       {Genotype::HomOne, Genotype::Het, Genotype::HomTwo}) {
    GenotypeMatrix matrix(6, 3);
    for (std::uint32_t i = 0; i < 6; ++i) {
      for (SnpIndex s = 0; s < 3; ++s) matrix.set(i, s, g);
    }
    const auto table = table_of(matrix, MissingPolicy::CompleteCase);
    const auto expected =
        reference::estimate_haplotype_frequencies(table, {});
    const auto compiled = run_compiled(table, {});
    expect_bit_identical(expected, compiled);
  }
}

TEST(EmKernel, MatchesReferenceOnAllMissing) {
  GenotypeMatrix matrix(5, 2);
  for (std::uint32_t i = 0; i < 5; ++i) {
    for (SnpIndex s = 0; s < 2; ++s) matrix.set(i, s, Genotype::Missing);
  }
  // CompleteCase excludes everyone: the no-data degenerate path.
  {
    const auto table = table_of(matrix, MissingPolicy::CompleteCase);
    ASSERT_EQ(table.total_individuals(), 0.0);
    const auto expected =
        reference::estimate_haplotype_frequencies(table, {});
    const auto compiled = run_compiled(table, {});
    expect_bit_identical(expected, compiled);
  }
  // Marginalize keeps everyone with every locus free: the support is
  // the full 2^k set and every pair is compatible.
  {
    EmConfig config;
    config.missing = MissingPolicy::Marginalize;
    const auto table = table_of(matrix, MissingPolicy::Marginalize);
    const auto expected =
        reference::estimate_haplotype_frequencies(table, config);
    const auto compiled = run_compiled(table, config);
    expect_bit_identical(expected, compiled);
  }
}

TEST(EmKernel, SupportSetIsSparseOnStructuredData) {
  // Two homozygous genotype classes reach only two haplotypes — the
  // program must not carry the other 2^k − 2.
  GenotypeMatrix matrix(10, 4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    for (SnpIndex s = 0; s < 4; ++s) {
      matrix.set(i, s, i % 2 == 0 ? Genotype::HomOne : Genotype::HomTwo);
    }
  }
  const auto table = table_of(matrix, MissingPolicy::CompleteCase);
  const EmProgram program = EmProgram::compile(table);
  EXPECT_EQ(program.support_size(), 2u);
  EXPECT_EQ(program.haplotype_count(), 16u);
  const auto expected = reference::estimate_haplotype_frequencies(table, {});
  EmKernelScratch scratch;
  const auto compiled = expand_em_result(
      program, run_em_program(program, {}, scratch));
  expect_bit_identical(expected, compiled);
}

TEST(EmKernel, CompiledEhDiallMatchesReferencePath) {
  // Production EH-DIALL on the scalar kernel against the oracle's
  // byte-scan tables and dense visitor EM: all three groups of a full
  // analysis, and the two of a groups-only one (the T1–T4 fitness
  // path), which must leave the pooled run and the LRT unset.
  const auto synthetic = ldga::testing::small_synthetic(10, 2, 424242);
  const EhDiall compiled(synthetic.dataset);
  for (const std::vector<SnpIndex>& snps :
       {std::vector<SnpIndex>{0, 1}, {2, 5, 7}, {0, 3, 4, 8}}) {
    const auto ref = reference::analyze(synthetic.dataset, snps);
    const auto fast = compiled.analyze(snps);
    expect_bit_identical(ref.affected, fast.affected);
    expect_bit_identical(ref.unaffected, fast.unaffected);
    expect_bit_identical(ref.pooled.value(), fast.pooled.value());
    EXPECT_EQ(ref.lrt.value(), fast.lrt.value());

    EvalScratch scratch;
    const auto groups = compiled.analyze(snps, scratch, EhDiallScope::kGroups);
    expect_bit_identical(ref.affected, groups.affected);
    expect_bit_identical(ref.unaffected, groups.unaffected);
    EXPECT_EQ(groups.affected_individuals, ref.affected_individuals);
    EXPECT_EQ(groups.unaffected_individuals, ref.unaffected_individuals);
    EXPECT_FALSE(groups.pooled.has_value());
    EXPECT_FALSE(groups.lrt.has_value());
  }
}

}  // namespace
}  // namespace ldga::stats
