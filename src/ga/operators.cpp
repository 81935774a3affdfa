#include "ga/operators.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ldga::ga {

void OperatorConfig::validate() const {
  if (snp_count < 2) {
    throw ConfigError("OperatorConfig: need at least 2 SNPs");
  }
  if (min_size < 1 || min_size > max_size) {
    throw ConfigError("OperatorConfig: need 1 <= min_size <= max_size");
  }
  if (max_size > snp_count) {
    throw ConfigError("OperatorConfig: max_size exceeds panel size");
  }
  if (snp_mutation_trials < 1) {
    throw ConfigError("OperatorConfig: snp_mutation_trials must be >= 1");
  }
}

VariationOperators::VariationOperators(OperatorConfig config,
                                       const FeasibilityFilter& filter)
    : config_(config), filter_(&filter) {
  config_.validate();
}

std::vector<HaplotypeIndividual> VariationOperators::snp_mutation_trials(
    const HaplotypeIndividual& parent, Rng& rng) const {
  LDGA_EXPECTS(parent.size() >= 1);
  LDGA_EXPECTS(parent.size() < config_.snp_count);  // need a spare SNP

  std::vector<HaplotypeIndividual> trials;
  trials.reserve(config_.snp_mutation_trials);
  for (std::uint32_t t = 0; t < config_.snp_mutation_trials; ++t) {
    std::vector<SnpIndex> snps = parent.snps();
    const std::size_t position = rng.below(snps.size());
    // Draw a replacement not already in the set; feasibility is
    // best-effort (a handful of retries, then accept).
    for (std::uint32_t attempt = 0; attempt < 20; ++attempt) {
      const auto replacement =
          static_cast<SnpIndex>(rng.below(config_.snp_count));
      if (std::find(snps.begin(), snps.end(), replacement) != snps.end()) {
        continue;
      }
      std::vector<SnpIndex> rest;
      rest.reserve(snps.size() - 1);
      for (std::size_t i = 0; i < snps.size(); ++i) {
        if (i != position) rest.push_back(snps[i]);
      }
      if (!filter_->addition_feasible(rest, replacement) && attempt < 19) {
        continue;
      }
      snps[position] = replacement;
      break;
    }
    trials.emplace_back(std::move(snps));
  }
  return trials;
}

std::optional<HaplotypeIndividual> VariationOperators::reduction(
    const HaplotypeIndividual& parent, Rng& rng) const {
  if (parent.size() <= config_.min_size) return std::nullopt;
  std::vector<SnpIndex> snps = parent.snps();
  snps.erase(snps.begin() +
             static_cast<std::ptrdiff_t>(rng.below(snps.size())));
  return HaplotypeIndividual(std::move(snps));
}

std::optional<HaplotypeIndividual> VariationOperators::augmentation(
    const HaplotypeIndividual& parent, Rng& rng) const {
  if (parent.size() >= config_.max_size) return std::nullopt;
  if (parent.size() >= config_.snp_count) return std::nullopt;
  std::vector<SnpIndex> snps = parent.snps();
  for (std::uint32_t attempt = 0; attempt < 50; ++attempt) {
    const auto addition = static_cast<SnpIndex>(rng.below(config_.snp_count));
    if (parent.contains(addition)) continue;
    if (!filter_->addition_feasible(snps, addition) && attempt < 49) {
      continue;
    }
    snps.push_back(addition);
    return HaplotypeIndividual(std::move(snps));
  }
  return std::nullopt;
}

HaplotypeIndividual VariationOperators::finish_child(
    std::vector<SnpIndex> snps, std::uint32_t target_size,
    const std::vector<SnpIndex>& pool, Rng& rng) const {
  HaplotypeIndividual child(std::move(snps));  // canonicalizes

  // Top up from the parents' pool first (preserves inherited material),
  // then from the panel at large.
  if (child.size() < target_size) {
    std::vector<SnpIndex> shuffled_pool = pool;
    rng.shuffle(std::span<SnpIndex>(shuffled_pool));
    std::vector<SnpIndex> grown = child.snps();
    for (const SnpIndex candidate : shuffled_pool) {
      if (grown.size() >= target_size) break;
      if (std::find(grown.begin(), grown.end(), candidate) != grown.end()) {
        continue;
      }
      grown.push_back(candidate);
    }
    for (std::uint32_t attempt = 0;
         grown.size() < target_size && attempt < 200; ++attempt) {
      const auto candidate =
          static_cast<SnpIndex>(rng.below(config_.snp_count));
      if (std::find(grown.begin(), grown.end(), candidate) == grown.end()) {
        grown.push_back(candidate);
      }
    }
    child = HaplotypeIndividual(std::move(grown));
  }
  // Trim if mixing overshot (cannot happen with the construction below,
  // but keeps the invariant locally obvious).
  while (child.size() > target_size) {
    std::vector<SnpIndex> shrunk = child.snps();
    shrunk.erase(shrunk.begin() +
                 static_cast<std::ptrdiff_t>(rng.below(shrunk.size())));
    child = HaplotypeIndividual(std::move(shrunk));
  }
  return child;
}

std::pair<HaplotypeIndividual, HaplotypeIndividual>
VariationOperators::uniform_crossover(const HaplotypeIndividual& a,
                                      const HaplotypeIndividual& b,
                                      Rng& rng) const {
  LDGA_EXPECTS(a.size() >= 1 && b.size() >= 1);
  const HaplotypeIndividual& small = a.size() <= b.size() ? a : b;
  const HaplotypeIndividual& large = a.size() <= b.size() ? b : a;

  // Uniform mixing over aligned positions of the sorted SNP tables; the
  // large parent's overhang positions stay with the large child.
  std::vector<SnpIndex> child_small, child_large;
  child_small.reserve(small.size());
  child_large.reserve(large.size());
  for (std::uint32_t i = 0; i < small.size(); ++i) {
    if (rng.bernoulli(0.5)) {
      child_small.push_back(small.snps()[i]);
      child_large.push_back(large.snps()[i]);
    } else {
      child_small.push_back(large.snps()[i]);
      child_large.push_back(small.snps()[i]);
    }
  }
  for (std::uint32_t i = small.size(); i < large.size(); ++i) {
    child_large.push_back(large.snps()[i]);
  }

  // Parents' union: preferred material for repairing dedupe shrink.
  std::vector<SnpIndex> pool = small.snps();
  pool.insert(pool.end(), large.snps().begin(), large.snps().end());
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  HaplotypeIndividual first =
      finish_child(std::move(child_small), small.size(), pool, rng);
  HaplotypeIndividual second =
      finish_child(std::move(child_large), large.size(), pool, rng);

  // Return children in (size of a, size of b) order.
  if (a.size() <= b.size()) {
    return {std::move(first), std::move(second)};
  }
  return {std::move(second), std::move(first)};
}

}  // namespace ldga::ga
