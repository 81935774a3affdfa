// The dedicated variation operators of §4.3.
//
// Mutations (three kinds, rates adapted at runtime):
//   - SNP mutation: replace one SNP by another; applied several times
//     "in parallel", keeping the best variant — a one-step local search.
//     Here the operator *produces* the trial variants; the engine
//     evaluates them all in the same parallel evaluation phase and keeps
//     the best, which is exactly how a master/slave farm realizes the
//     paper's "in parallel".
//   - Reduction: drop a random SNP — the individual migrates to the
//     next smaller subpopulation.
//   - Augmentation: add a random (feasible) SNP — migrates larger.
//
// Crossover (uniform, two kinds):
//   - intra-population: both parents from one size class; children keep
//     that size;
//   - inter-population: parents from different size classes; "one child
//     of each parent's size".
// Uniform mixing of two sorted SNP lists can produce repeats; children
// are re-canonicalized and topped back up to their target size with
// SNPs drawn first from the parents' union, then from the whole panel.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ga/constraints.hpp"
#include "ga/haplotype_individual.hpp"
#include "util/rng.hpp"

namespace ldga::ga {

/// Mutation operator indices within the adaptive controller.
struct MutationKind {
  static constexpr std::uint32_t kSnp = 0;
  static constexpr std::uint32_t kReduction = 1;
  static constexpr std::uint32_t kAugmentation = 2;
};

/// Crossover operator indices within the adaptive controller.
struct CrossoverKind {
  static constexpr std::uint32_t kIntra = 0;
  static constexpr std::uint32_t kInter = 1;
};

struct OperatorConfig {
  std::uint32_t snp_count = 0;     ///< panel size
  std::uint32_t min_size = 2;      ///< smallest haplotype size
  std::uint32_t max_size = 6;      ///< largest haplotype size
  std::uint32_t snp_mutation_trials = 4;

  void validate() const;
};

class VariationOperators {
 public:
  /// The filter must outlive the operators.
  VariationOperators(OperatorConfig config, const FeasibilityFilter& filter);

  /// SNP-mutation trial variants (size preserved). Each trial replaces
  /// one randomly chosen SNP with a random different SNP (feasible with
  /// the rest when the filter allows checking). Returns at least one
  /// variant; the engine keeps the best after evaluation.
  std::vector<HaplotypeIndividual> snp_mutation_trials(
      const HaplotypeIndividual& parent, Rng& rng) const;

  /// Reduction: one random SNP removed. Empty when the parent is
  /// already at min_size.
  std::optional<HaplotypeIndividual> reduction(
      const HaplotypeIndividual& parent, Rng& rng) const;

  /// Augmentation: one random feasible SNP added. Empty when at
  /// max_size or no addition is possible.
  std::optional<HaplotypeIndividual> augmentation(
      const HaplotypeIndividual& parent, Rng& rng) const;

  /// Uniform crossover; children target the parents' sizes
  /// (first child = size of `a`, second = size of `b`). Works for both
  /// intra- (equal sizes) and inter-population (different sizes) cases.
  std::pair<HaplotypeIndividual, HaplotypeIndividual> uniform_crossover(
      const HaplotypeIndividual& a, const HaplotypeIndividual& b,
      Rng& rng) const;

  const OperatorConfig& config() const { return config_; }

 private:
  /// Builds a child of exactly `target_size` from the mixed SNP set,
  /// topping up from `pool` (parents' union) and then the panel.
  HaplotypeIndividual finish_child(std::vector<SnpIndex> snps,
                                   std::uint32_t target_size,
                                   const std::vector<SnpIndex>& pool,
                                   Rng& rng) const;

  OperatorConfig config_;
  const FeasibilityFilter* filter_;
};

}  // namespace ldga::ga
