// Compiled sparse EM kernel: the pattern table is compiled once into a
// flat *phase program* — CSR-style arrays of (h1, h2, multiplicity)
// triples whose haplotype operands are indices into a *support set* of
// only the haplotypes reachable from some observed pattern — so each EM
// iteration is a tight branch-free sweep over contiguous arrays with no
// lambda dispatch, no re-enumeration of the subset lattice, and an
// M-step/convergence check over support only.
//
// Why this is safe: a haplotype outside the support never appears in
// any compatible pair, so its expected count is exactly 0.0 in every
// E-step and its frequency is exactly 0.0 from iteration 1 onward in
// the dense reference (tests/support/reference_em.hpp). The only
// place off-support entries influence the reference is the iteration-1
// convergence delta (their equilibrium start values drop to zero); the
// kernel reproduces that term lazily (see run_em_program), keeping the
// compiled path bit-for-bit identical to the reference — frequencies,
// log-likelihood, iteration count and convergence flag.
//
// Excoffier & Slatkin's formulation (PAPERS.md) only ever touches
// haplotypes compatible with an observed genotype, which is exactly the
// structure the program encodes; the dense 2^k representation of the
// reference exists for exposition, not necessity.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/em_haplotype.hpp"

namespace ldga::stats {

/// A pattern table compiled for the EM sweep. Plain data: the arrays
/// are the interface (this is a kernel input, not an abstraction).
struct EmProgram {
  std::uint32_t locus_count = 0;
  double total_individuals = 0.0;

  /// Reachable haplotype codes, sorted ascending. All pair operands
  /// below are indices into this array.
  std::vector<HaplotypeCode> support;

  /// Phase pairs of every pattern, concatenated in pattern order and,
  /// within a pattern, in the exact enumeration order of
  /// for_each_compatible_pair (required for bit-exact accumulation).
  std::vector<std::uint32_t> pair_h1;  ///< support index of haplotype 1
  std::vector<std::uint32_t> pair_h2;  ///< support index of haplotype 2

  /// CSR row structure: pattern p owns pairs
  /// [pattern_first[p], pattern_first[p] + pattern_pairs[p]).
  std::vector<double> pattern_count;
  std::vector<std::uint32_t> pattern_first;
  std::vector<std::uint32_t> pattern_pairs;
  /// Phase multiplicity — constant across a pattern's pairs (2.0 for an
  /// unordered het resolution, 1.0 otherwise), so it lives per pattern,
  /// not per pair: one multiplier register instead of 8 bytes of
  /// E-step memory traffic per pair.
  std::vector<double> pattern_mult;

  /// Clamped per-locus Allele::Two frequencies of the equilibrium
  /// start (identical to the reference initializer's).
  std::vector<double> locus_freq_two;

  /// Compiles the table. Cost is one phase enumeration per pattern plus
  /// a sort of the support set — amortized over every EM iteration.
  static EmProgram compile(const GenotypePatternTable& table);

  std::size_t haplotype_count() const {
    return std::size_t{1} << locus_count;
  }
  std::size_t support_size() const { return support.size(); }
  std::size_t pair_count() const { return pair_h1.size(); }

  /// Equilibrium start value of one haplotype code: the product of
  /// per-locus factors in ascending locus order — the reference
  /// initializer's exact expression.
  double equilibrium_value(HaplotypeCode code) const;
};

/// EM solution over the support set only (dense expansion deferred).
struct EmSupportResult {
  /// Frequency of support[i] at result.frequencies[i]; every haplotype
  /// outside the support has frequency exactly 0.0.
  std::vector<double> frequencies;
  double log_likelihood = 0.0;
  std::uint32_t iterations = 0;
  bool converged = false;
};

/// Reusable buffers so the three per-candidate EM runs (affected,
/// unaffected, pooled) allocate at most once each.
struct EmKernelScratch {
  std::vector<double> expected;
  std::vector<double> products;
};

/// Runs EM over the compiled program from the equilibrium product —
/// bit-for-bit identical to the dense visitor-based reference EM
/// (tests/support/reference_em.hpp) on the same table. This scalar
/// sweep is the only E-step; docs/algorithms.md §10 gives the
/// measurements behind that.
EmSupportResult run_em_program(const EmProgram& program,
                               const EmConfig& config,
                               EmKernelScratch& scratch);

/// Expands a support solution to the dense 2^k EmResult the rest of
/// the pipeline consumes (off-support frequencies are exactly 0.0; the
/// no-data degenerate case reproduces the reference's dense
/// equilibrium start).
EmResult expand_em_result(const EmProgram& program,
                          const EmSupportResult& solution);

}  // namespace ldga::stats
