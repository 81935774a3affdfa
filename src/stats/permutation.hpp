// Whole-pipeline permutation test for a candidate haplotype.
//
// The GA *selects* haplotypes by maximizing an association statistic,
// so the nominal chi-square p-value of the winner is optimistically
// biased. The standard remedy (and what CLUMP's Monte-Carlo mode
// approximates at the table level) is a label permutation test at the
// pipeline level: shuffle the affected/unaffected labels, rerun the
// complete EH-DIALL + CLUMP evaluation, and compare the observed
// statistic against the permutation distribution.
#pragma once

#include <cstdint>
#include <span>

#include "genomics/dataset.hpp"
#include "stats/evaluator.hpp"

namespace ldga::stats {

struct PermutationConfig {
  std::uint32_t permutations = 200;
  std::uint64_t seed = 1;
  /// Worker threads, the caller among them; 0 = hardware concurrency,
  /// 1 = serial on the caller.
  std::uint32_t workers = 1;

  void validate() const;
};

struct PermutationResult {
  double observed = 0.0;
  /// (1 + #{permuted >= observed}) / (1 + permutations).
  double p_value = 1.0;
  std::uint32_t ge_count = 0;
  double permutation_mean = 0.0;
  double permutation_max = 0.0;
};

/// Runs the permutation test for one SNP set, which must be sorted
/// ascending (as GA individuals and planted truths are). Only the labels
/// of status-known individuals are permuted (Unknown individuals never
/// enter the pipeline). Each cohort is scored by
/// HaplotypeEvaluator::fitness(): a run that succeeds scores
/// evaluate_full(snps).fitness bit for bit, and a failed one scores per
/// the evaluator's failure policy. Deterministic for a fixed seed and
/// worker count-independent.
PermutationResult permutation_test(const genomics::Dataset& dataset,
                                   std::span<const genomics::SnpIndex> snps,
                                   const EvaluatorConfig& evaluator_config,
                                   const PermutationConfig& config);

}  // namespace ldga::stats
