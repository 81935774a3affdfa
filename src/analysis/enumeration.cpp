#include "analysis/enumeration.hpp"

#include <algorithm>
#include <string>

#include "parallel/thread_pool.hpp"
#include "util/combinatorics.hpp"
#include "util/error.hpp"

namespace ldga::analysis {

using genomics::SnpIndex;

namespace {

void check_tractable(std::uint32_t snp_count, std::uint32_t size,
                     std::uint64_t max_candidates) {
  if (choose_overflows(snp_count, size) ||
      choose(snp_count, size) > max_candidates) {
    throw ConfigError("enumeration: C(" + std::to_string(snp_count) + ", " +
                      std::to_string(size) +
                      ") exceeds the configured candidate budget");
  }
}

/// Keeps the best n candidates seen, worst-first heap style but with
/// simple sorted insertion (top_n is small).
class TopN {
 public:
  explicit TopN(std::uint32_t n) : n_(n) {}

  void offer(const std::vector<SnpIndex>& snps, double fitness) {
    if (entries_.size() == n_ && fitness <= entries_.back().fitness) return;
    ScoredHaplotype entry{snps, fitness};
    const auto position = std::upper_bound(
        entries_.begin(), entries_.end(), entry,
        [](const ScoredHaplotype& a, const ScoredHaplotype& b) {
          return a.fitness > b.fitness;
        });
    entries_.insert(position, std::move(entry));
    if (entries_.size() > n_) entries_.pop_back();
  }

  void merge(const TopN& other) {
    for (const auto& entry : other.entries_) offer(entry.snps, entry.fitness);
  }

  std::vector<ScoredHaplotype> take() && { return std::move(entries_); }

 private:
  std::uint32_t n_;
  std::vector<ScoredHaplotype> entries_;  // best first
};

}  // namespace

EnumerationResult enumerate_all(const stats::HaplotypeEvaluator& evaluator,
                                std::uint32_t haplotype_size,
                                const EnumerationConfig& config) {
  const std::uint32_t n = evaluator.dataset().snp_count();
  LDGA_EXPECTS(haplotype_size >= 1 && haplotype_size <= n);
  check_tractable(n, haplotype_size, config.max_candidates);

  EnumerationResult result;
  result.haplotype_size = haplotype_size;

  // Partition the lexicographic candidate stream by first SNP index:
  // block i holds the C(n − 1 − i, k − 1) subsets starting with SNP i —
  // independent, and cheap to enumerate with a SubsetEnumerator over the
  // remaining indices. Block cost falls steeply with i; the pool's
  // workers claim blocks one at a time, so the large early blocks
  // spread across them instead of landing on one.
  std::vector<TopN> block_best(n, TopN(config.top_n));
  std::vector<std::uint64_t> block_count(n, 0);

  auto process_block = [&](std::size_t first) {
    if (haplotype_size == 1) {
      const std::vector<SnpIndex> snps{static_cast<SnpIndex>(first)};
      block_best[first].offer(snps, evaluator.evaluate_full(snps).fitness);
      block_count[first] = 1;
      return;
    }
    const auto remaining = n - static_cast<std::uint32_t>(first) - 1;
    if (remaining < haplotype_size - 1) return;
    // Enumerate (k-1)-subsets of {first+1, ..., n-1}.
    SubsetEnumerator inner(remaining, haplotype_size - 1);
    std::vector<SnpIndex> snps(haplotype_size);
    snps[0] = static_cast<SnpIndex>(first);
    while (!inner.done()) {
      const auto& tail = inner.current();
      for (std::uint32_t j = 0; j < tail.size(); ++j) {
        snps[j + 1] = static_cast<SnpIndex>(first) + 1 + tail[j];
      }
      block_best[first].offer(snps, evaluator.evaluate_full(snps).fitness);
      ++block_count[first];
      inner.next();
    }
  };

  const auto pool = parallel::make_worker_pool(config.workers);
  parallel::parallel_for(pool.get(), 0, n, process_block);

  TopN merged(config.top_n);
  for (std::uint32_t first = 0; first < n; ++first) {
    merged.merge(block_best[first]);
    result.evaluated += block_count[first];
  }
  result.best = std::move(merged).take();
  return result;
}

void enumerate_scores(
    const stats::HaplotypeEvaluator& evaluator, std::uint32_t haplotype_size,
    const std::function<void(const std::vector<SnpIndex>&, double)>& sink,
    std::uint64_t max_candidates) {
  const std::uint32_t n = evaluator.dataset().snp_count();
  LDGA_EXPECTS(haplotype_size >= 1 && haplotype_size <= n);
  check_tractable(n, haplotype_size, max_candidates);

  SubsetEnumerator enumerator(n, haplotype_size);
  std::vector<SnpIndex> snps(haplotype_size);
  while (!enumerator.done()) {
    const auto& subset = enumerator.current();
    std::copy(subset.begin(), subset.end(), snps.begin());
    sink(snps, evaluator.evaluate_full(snps).fitness);
    enumerator.next();
  }
}

}  // namespace ldga::analysis
