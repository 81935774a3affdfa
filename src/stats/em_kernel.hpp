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
#include <span>
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
/// (tests/support/reference_em.hpp) on the same table.
///
/// With `simd_kernels` the E-step's gather/multiply sweep runs through
/// the dispatched vector kernels (util/simd.hpp): deterministic
/// run-to-run and across worker counts for a fixed dispatch level, but
/// rounded differently from the scalar path in the last ulps — results
/// agree to ~1e-9. The parameter defaults to the scalar path, the
/// bit-exact reference; production evaluation follows
/// EvaluatorConfig::simd_kernels, which is on by default.
EmSupportResult run_em_program(const EmProgram& program,
                               const EmConfig& config,
                               EmKernelScratch& scratch,
                               bool simd_kernels = false);

/// Expands a support solution to the dense 2^k EmResult the rest of
/// the pipeline consumes (off-support frequencies are exactly 0.0; the
/// no-data degenerate case reproduces the reference's dense
/// equilibrium start).
EmResult expand_em_result(const EmProgram& program,
                          const EmSupportResult& solution);

/// True when two compiled programs have the same *shape* — identical
/// pair/pattern structure (pair_h1, pair_h2, pattern_pairs,
/// pattern_mult) and support size, with data in both — so their cold
/// EM runs can execute in SoA lockstep. Pattern counts, per-locus
/// frequencies and support contents may differ: the sweep only reads
/// those per lane. Realistic groups form when the same candidate's
/// case/control/pooled tables (or different candidates of one locus
/// count on a dense panel) observe the same pattern set.
bool em_programs_same_shape(const EmProgram& a, const EmProgram& b);

/// SoA slabs for a batched EM run: lane b's frequency/expected state
/// lives at offset b * support_size. Capacity-only, like EvalScratch.
struct EmBatchScratch {
  std::vector<double> freq;
  std::vector<double> expected;
  std::vector<double> products;  ///< t-major short-fan slab / long-fan lane
  std::vector<double> sums;      ///< per-lane E-step denominators
  std::vector<std::uint8_t> active;
};

/// Cold-start EM over B same-shape programs in lockstep, with the
/// short-fan E-step sweeps batched across lanes through
/// batch_weighted_pair_products (util/simd.hpp) and long fans on the
/// per-candidate kernel lane by lane. Always the simd path: every
/// lane's result is bit-identical to
/// run_em_program(program, config, scratch, /*simd_kernels=*/true)
/// at the same dispatch level — lanes converge and retire
/// independently, and no value ever crosses lanes. Requires
/// em_programs_same_shape for every pair (checked via cheap asserts)
/// and total_individuals > 0 in every program.
void run_em_program_batch(std::span<const EmProgram* const> programs,
                          const EmConfig& config, EmBatchScratch& scratch,
                          std::span<EmSupportResult> results);

}  // namespace ldga::stats
