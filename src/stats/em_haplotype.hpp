// Maximum-likelihood haplotype frequency estimation from unphased
// genotypes — the computational core of the EH-DIALL procedure
// (Terwilliger & Ott 1994) that the paper uses as the first stage of
// its evaluation (Figure 3).
//
// A haplotype over k biallelic loci is encoded as a k-bit code: bit j
// set means Allele::Two at the j-th selected locus. An individual's
// unphased genotype constrains the ordered pair of haplotypes it
// carries; heterozygous loci are phase-ambiguous, so a genotype with h
// heterozygous loci is compatible with 2^(h-1) unordered haplotype
// pairs (1 when h = 0). The EM algorithm iterates: split each
// genotype's mass over its compatible pairs proportionally to current
// haplotype frequencies (E), then re-estimate frequencies from the
// expected haplotype counts (M).
//
// Cost grows exponentially with k — both the 2^k frequency vector and
// the per-genotype phase expansion — which is exactly the evaluation-
// time growth the paper reports in Figure 4 and the reason for its
// parallel implementation.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "genomics/genotype_matrix.hpp"
#include "genomics/packed_genotype.hpp"
#include "genomics/types.hpp"

namespace ldga::stats {

/// k-bit haplotype code (bit j = Allele::Two at selected locus j).
using HaplotypeCode = std::uint32_t;

/// Loci count above which the 2^k tables are refused (2^24 doubles is
/// already 128 MiB; the paper's haplotypes top out at 6-7 loci).
inline constexpr std::uint32_t kMaxEmLoci = 20;

/// How individuals with missing genotypes at selected loci are treated.
enum class MissingPolicy : std::uint8_t {
  /// Exclude the individual entirely (classic complete-case analysis).
  CompleteCase,
  /// Keep the individual; EM marginalizes over every allele assignment
  /// at the missing loci (cost 4^m extra phase resolutions for m
  /// missing loci — use with low missing rates).
  Marginalize,
};

/// One distinct multi-locus genotype and how many individuals carry it.
/// This grouping is the "Enumeration" box of the paper's Figure 3: EM
/// cost then scales with the number of distinct patterns, not people.
struct GenotypePattern {
  std::uint32_t hom_two_mask = 0;  ///< loci homozygous for Allele::Two
  std::uint32_t het_mask = 0;      ///< heterozygous loci
  std::uint32_t missing_mask = 0;  ///< untyped loci (Marginalize only)
  double count = 0.0;              ///< individuals with this pattern
};

class GenotypePatternTable {
 public:
  /// Groups a bit-packed column slice's genotypes (the slice *is* the
  /// individual group) at the selected loci with word-level popcounts.
  /// Under CompleteCase, individuals missing any selected locus are
  /// excluded and their number recorded; under Marginalize they are
  /// kept with the missing loci flagged. Patterns end sorted
  /// lexicographically by (hom_two, het, missing) mask — identical to
  /// the per-individual byte-scan reference builder in
  /// tests/support/reference_em.hpp.
  static GenotypePatternTable build_packed(
      const genomics::PackedGenotypeMatrix& group,
      std::span<const genomics::SnpIndex> snps,
      MissingPolicy missing = MissingPolicy::CompleteCase);

  /// build_packed with the DFS row block borrowed from an arena
  /// (stats::EvalScratch) instead of allocated per call; same table,
  /// bit for bit.
  static GenotypePatternTable build_packed(
      const genomics::PackedGenotypeMatrix& group,
      std::span<const genomics::SnpIndex> snps, MissingPolicy missing,
      std::vector<std::uint64_t>& dfs_scratch);

  /// Merges another table over the same loci (used for the pooled-group
  /// H0 estimate).
  static GenotypePatternTable merge(const GenotypePatternTable& a,
                                    const GenotypePatternTable& b);

  /// Assembles a table from already-grouped patterns (the reference
  /// byte-scan builder's constructor). `patterns` must be in the
  /// canonical sorted order build_packed() ends on (checked); `total`
  /// must equal the pattern count sum.
  static GenotypePatternTable from_patterns(
      std::uint32_t locus_count, double total, std::uint32_t excluded,
      std::vector<GenotypePattern> patterns);

  std::uint32_t locus_count() const { return locus_count_; }
  double total_individuals() const { return total_; }
  std::uint32_t excluded_missing() const { return excluded_; }
  const std::vector<GenotypePattern>& patterns() const { return patterns_; }

 private:
  std::uint32_t locus_count_ = 0;
  double total_ = 0.0;
  std::uint32_t excluded_ = 0;
  std::vector<GenotypePattern> patterns_;
};

struct EmConfig {
  double tolerance = 1e-8;          ///< max |Δfreq| convergence criterion
  std::uint32_t max_iterations = 500;
  MissingPolicy missing = MissingPolicy::CompleteCase;

  void validate() const;
};

struct EmResult {
  /// Estimated frequency of each of the 2^k haplotypes.
  std::vector<double> frequencies;
  double log_likelihood = 0.0;
  std::uint32_t iterations = 0;
  bool converged = false;

  /// Estimated haplotype count: frequency × 2 × individuals.
  double count(HaplotypeCode h, double individuals) const {
    return frequencies[h] * 2.0 * individuals;
  }
};

/// The per-locus Allele::Two frequencies behind EM's linkage-
/// equilibrium start (EH's choice, which makes the result
/// deterministic): allele counting over the observed (non-missing)
/// chromosomes, clamped to [1e-6, 1 − 1e-6] so no compatible pair
/// starts at zero. The start itself is the per-haplotype product of
/// these factors (EmProgram::equilibrium_value, em_kernel.hpp).
std::vector<double> equilibrium_allele_two_frequencies(
    const GenotypePatternTable& table);

/// Enumerates the haplotype pairs compatible with one genotype pattern:
/// calls visit(h1, h2, multiplicity) such that Σ mult · p(h1) · p(h2)
/// is the genotype probability. Without missing loci, unordered pairs
/// come with multiplicity 2 (two phase orientations) or 1 (the
/// homozygous resolution); with missing loci, ordered resolutions over
/// the free allele assignments come with multiplicity 1 (2^h · 4^m
/// resolutions). The compiled EM kernel (em_kernel.hpp) and phase
/// reconstruction both enumerate through this, in this order.
void for_each_compatible_pair(
    const GenotypePattern& pattern,
    const std::function<void(HaplotypeCode, HaplotypeCode, double)>& visit);

/// The (hom_two, het, missing) masks of one individual's genotype at
/// the selected loci (count = 1).
GenotypePattern pattern_of(const genomics::GenotypeMatrix& genotypes,
                           std::span<const genomics::SnpIndex> snps,
                           std::uint32_t individual);

/// Human-readable haplotype label, e.g. "122" for alleles One,Two,Two.
std::string haplotype_label(HaplotypeCode code, std::uint32_t loci);

}  // namespace ldga::stats
