// Exhaustive enumeration of all size-k haplotypes — the paper's §3
// landscape-study instrument, and the source of the "best expected
// haplotype" that Table 2's deviation column compares the GA against.
// Only tractable for small (n, k); the caller is expected to check
// search_space_table first, and the entry point refuses plainly
// intractable requests.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ga/haplotype_individual.hpp"
#include "stats/evaluator.hpp"

namespace ldga::analysis {

struct ScoredHaplotype {
  std::vector<genomics::SnpIndex> snps;
  double fitness = 0.0;
};

struct EnumerationResult {
  std::uint32_t haplotype_size = 0;
  std::uint64_t evaluated = 0;
  /// The `top_n` best candidates, best first.
  std::vector<ScoredHaplotype> best;
};

struct EnumerationConfig {
  std::uint32_t top_n = 10;
  /// Refuse enumerations larger than this many candidates.
  std::uint64_t max_candidates = 50'000'000;
  /// Worker threads, the caller among them; 0 = hardware concurrency,
  /// 1 = serial on the caller.
  std::uint32_t workers = 0;
};

/// Scores every size-k SNP subset with the evaluator's full pipeline
/// and keeps the best `top_n`. Parallelized over candidate blocks.
/// Deterministic: results are merged in enumeration order.
EnumerationResult enumerate_all(const stats::HaplotypeEvaluator& evaluator,
                                std::uint32_t haplotype_size,
                                const EnumerationConfig& config = {});

/// All scores of an enumeration (for landscape histograms). Calls
/// `sink(snps, fitness)` for every candidate, in lexicographic order,
/// serially.
void enumerate_scores(
    const stats::HaplotypeEvaluator& evaluator, std::uint32_t haplotype_size,
    const std::function<void(const std::vector<genomics::SnpIndex>&, double)>&
        sink,
    std::uint64_t max_candidates = 50'000'000);

}  // namespace ldga::analysis
