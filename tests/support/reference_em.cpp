#include "support/reference_em.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <vector>

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace ldga::stats::reference {

using genomics::Genotype;
using genomics::SnpIndex;

GenotypePatternTable build_pattern_table(
    const genomics::GenotypeMatrix& genotypes, std::span<const SnpIndex> snps,
    std::span<const std::uint32_t> individuals, MissingPolicy missing) {
  LDGA_EXPECTS(!snps.empty());
  LDGA_EXPECTS(snps.size() <= kMaxEmLoci);

  // Ordered by (hom_two, het, missing) — the canonical pattern order.
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, double>
      grouped;
  double total = 0.0;
  std::uint32_t excluded = 0;
  for (const std::uint32_t individual : individuals) {
    std::uint32_t hom_two = 0, het = 0, missing_mask = 0;
    for (std::uint32_t j = 0; j < snps.size(); ++j) {
      switch (genotypes.at(individual, snps[j])) {
        case Genotype::HomOne:
          break;
        case Genotype::Het:
          het |= 1u << j;
          break;
        case Genotype::HomTwo:
          hom_two |= 1u << j;
          break;
        case Genotype::Missing:
          missing_mask |= 1u << j;
          break;
      }
    }
    if (missing_mask != 0 && missing == MissingPolicy::CompleteCase) {
      ++excluded;
      continue;
    }
    grouped[{hom_two, het, missing_mask}] += 1.0;
    total += 1.0;
  }

  std::vector<GenotypePattern> patterns;
  patterns.reserve(grouped.size());
  for (const auto& [masks, count] : grouped) {
    GenotypePattern p;
    std::tie(p.hom_two_mask, p.het_mask, p.missing_mask) = masks;
    p.count = count;
    patterns.push_back(p);
  }
  return GenotypePatternTable::from_patterns(
      static_cast<std::uint32_t>(snps.size()), total, excluded,
      std::move(patterns));
}

namespace {

/// Dense linkage-equilibrium start over all 2^k haplotypes.
std::vector<double> equilibrium_start(const GenotypePatternTable& table) {
  const std::uint32_t k = table.locus_count();
  const std::vector<double> freq_two =
      equilibrium_allele_two_frequencies(table);
  const std::size_t n_haplotypes = std::size_t{1} << k;
  std::vector<double> p(n_haplotypes, 0.0);
  for (std::size_t h = 0; h < n_haplotypes; ++h) {
    double prob = 1.0;
    for (std::uint32_t j = 0; j < k; ++j) {
      prob *= (h >> j) & 1u ? freq_two[j] : 1.0 - freq_two[j];
    }
    p[h] = prob;
  }
  return p;
}

}  // namespace

double genotype_log_likelihood(const GenotypePatternTable& table,
                               std::span<const double> frequencies) {
  KahanSum ll;
  for (const auto& p : table.patterns()) {
    KahanSum prob;
    for_each_compatible_pair(
        p, [&](HaplotypeCode h1, HaplotypeCode h2, double mult) {
          prob.add(mult * frequencies[h1] * frequencies[h2]);
        });
    ll.add(p.count * std::log(std::max(prob.value(), 1e-300)));
  }
  return ll.value();
}

EmResult estimate_haplotype_frequencies(const GenotypePatternTable& table,
                                        const EmConfig& config) {
  config.validate();
  const std::uint32_t k = table.locus_count();
  LDGA_EXPECTS(k >= 1 && k <= kMaxEmLoci);
  const std::size_t n_haplotypes = std::size_t{1} << k;

  EmResult result;
  result.frequencies = equilibrium_start(table);
  if (table.total_individuals() <= 0.0) {
    // No data: return the start, converged trivially.
    result.converged = true;
    result.log_likelihood = 0.0;
    return result;
  }

  std::vector<double> expected(n_haplotypes, 0.0);
  const double chromosomes = 2.0 * table.total_individuals();
  std::vector<double>& freq = result.frequencies;

  for (std::uint32_t iter = 1; iter <= config.max_iterations; ++iter) {
    std::fill(expected.begin(), expected.end(), 0.0);

    // E-step: distribute each pattern's mass over compatible pairs.
    for (const auto& pattern : table.patterns()) {
      double denom = 0.0;
      for_each_compatible_pair(
          pattern, [&](HaplotypeCode h1, HaplotypeCode h2, double mult) {
            denom += mult * freq[h1] * freq[h2];
          });
      if (denom <= 0.0) {
        // Every compatible pair has zero probability: uniform posterior
        // over the compatible pairs.
        double n_pairs = 0.0;
        for_each_compatible_pair(
            pattern,
            [&](HaplotypeCode, HaplotypeCode, double) { n_pairs += 1.0; });
        const double w = pattern.count / n_pairs;
        for_each_compatible_pair(
            pattern, [&](HaplotypeCode h1, HaplotypeCode h2, double) {
              expected[h1] += w;
              expected[h2] += w;
            });
        continue;
      }
      for_each_compatible_pair(
          pattern, [&](HaplotypeCode h1, HaplotypeCode h2, double mult) {
            const double posterior = mult * freq[h1] * freq[h2] / denom;
            const double w = pattern.count * posterior;
            expected[h1] += w;
            expected[h2] += w;
          });
    }

    // M-step + convergence check over every haplotype.
    double delta = 0.0;
    for (std::size_t h = 0; h < n_haplotypes; ++h) {
      const double updated = expected[h] / chromosomes;
      delta = std::max(delta, std::abs(updated - freq[h]));
      freq[h] = updated;
    }
    result.iterations = iter;
    if (delta < config.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.log_likelihood = genotype_log_likelihood(table, freq);
  return result;
}

EhDiallResult analyze(const genomics::Dataset& dataset,
                      std::span<const SnpIndex> snps,
                      const EmConfig& config) {
  const std::vector<std::uint32_t> affected =
      dataset.individuals_with(genomics::Status::Affected);
  const std::vector<std::uint32_t> unaffected =
      dataset.individuals_with(genomics::Status::Unaffected);
  std::vector<std::uint32_t> pooled = affected;
  pooled.insert(pooled.end(), unaffected.begin(), unaffected.end());

  const auto& genotypes = dataset.genotypes();
  const GenotypePatternTable table_a =
      build_pattern_table(genotypes, snps, affected, config.missing);
  const GenotypePatternTable table_u =
      build_pattern_table(genotypes, snps, unaffected, config.missing);
  const GenotypePatternTable table_p =
      build_pattern_table(genotypes, snps, pooled, config.missing);

  EhDiallResult result;
  result.locus_count = static_cast<std::uint32_t>(snps.size());
  result.affected_individuals = table_a.total_individuals();
  result.unaffected_individuals = table_u.total_individuals();
  result.affected = estimate_haplotype_frequencies(table_a, config);
  result.unaffected = estimate_haplotype_frequencies(table_u, config);
  result.pooled = estimate_haplotype_frequencies(table_p, config);
  const double lrt = 2.0 * (result.affected.log_likelihood +
                            result.unaffected.log_likelihood -
                            result.pooled->log_likelihood);
  result.lrt = std::max(lrt, 0.0);
  return result;
}

}  // namespace ldga::stats::reference
