#include "stats/em_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace ldga::stats {

EmProgram EmProgram::compile(const GenotypePatternTable& table) {
  const std::uint32_t k = table.locus_count();
  LDGA_EXPECTS(k >= 1 && k <= kMaxEmLoci);

  EmProgram program;
  program.locus_count = k;
  program.total_individuals = table.total_individuals();
  program.locus_freq_two = equilibrium_allele_two_frequencies(table);

  const auto& patterns = table.patterns();
  program.pattern_count.reserve(patterns.size());
  program.pattern_first.reserve(patterns.size());
  program.pattern_pairs.reserve(patterns.size());
  program.pattern_mult.reserve(patterns.size());

  // The enumeration size of a pattern is a closed form of its masks
  // (2^(het-1) unordered het resolutions, times 4^missing ordered
  // fills), so every flat array can be sized exactly up front.
  std::uint64_t total_pairs = 0;
  for (const auto& p : patterns) {
    const auto het = static_cast<std::uint32_t>(std::popcount(p.het_mask));
    const auto miss =
        static_cast<std::uint32_t>(std::popcount(p.missing_mask));
    total_pairs += miss > 0 ? std::uint64_t{1} << (het + 2 * miss)
                   : het > 0 ? std::uint64_t{1} << (het - 1)
                             : std::uint64_t{1};
  }
  LDGA_EXPECTS(total_pairs <= std::numeric_limits<std::uint32_t>::max());

  // Pass 1: flatten every pattern's phase enumeration, keeping raw
  // haplotype codes; the support set is everything that appears.
  std::vector<HaplotypeCode> codes1;
  std::vector<HaplotypeCode> codes2;
  codes1.reserve(total_pairs);
  codes2.reserve(total_pairs);
  for (const auto& p : patterns) {
    const std::size_t before = codes1.size();
    program.pattern_count.push_back(p.count);
    program.pattern_first.push_back(static_cast<std::uint32_t>(before));
    program.pattern_mult.push_back(
        p.missing_mask == 0 && p.het_mask != 0 ? 2.0 : 1.0);
    for_each_compatible_pair(
        p, [&](HaplotypeCode h1, HaplotypeCode h2, double) {
          codes1.push_back(h1);
          codes2.push_back(h2);
        });
    program.pattern_pairs.push_back(
        static_cast<std::uint32_t>(codes1.size() - before));
  }

  // The support is the set of codes reachable from any pattern. A
  // presence bitmap over the 2^k code space plus a per-word popcount
  // rank gives the sorted support and O(1) code→index mapping in
  // O(pairs + 2^k/64) — cheaper than sorting the 2·pairs code list,
  // and 2^k/64 is at most 16K words at kMaxEmLoci.
  const std::size_t words = (program.haplotype_count() + 63) / 64;
  std::vector<std::uint64_t> present(words, 0);
  for (const HaplotypeCode code : codes1) {
    present[code >> 6] |= std::uint64_t{1} << (code & 63u);
  }
  for (const HaplotypeCode code : codes2) {
    present[code >> 6] |= std::uint64_t{1} << (code & 63u);
  }
  std::vector<std::uint32_t> rank(words);
  std::uint32_t support_size = 0;
  for (std::size_t w = 0; w < words; ++w) {
    rank[w] = support_size;
    support_size += static_cast<std::uint32_t>(std::popcount(present[w]));
  }
  program.support.reserve(support_size);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = present[w];
    while (bits != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(bits));
      program.support.push_back(
          static_cast<HaplotypeCode>(w * 64 + bit));
      bits &= bits - 1;
    }
  }

  // Pass 2: rewrite codes as support indices.
  const auto index_of = [&](HaplotypeCode code) {
    const std::uint64_t below = (std::uint64_t{1} << (code & 63u)) - 1;
    return rank[code >> 6] + static_cast<std::uint32_t>(std::popcount(
                                 present[code >> 6] & below));
  };
  program.pair_h1.resize(codes1.size());
  program.pair_h2.resize(codes2.size());
  for (std::size_t t = 0; t < codes1.size(); ++t) {
    program.pair_h1[t] = index_of(codes1[t]);
    program.pair_h2[t] = index_of(codes2[t]);
  }
  return program;
}

double EmProgram::equilibrium_value(HaplotypeCode code) const {
  // Factor order must match the reference initializer exactly
  // (ascending locus), so the products round identically.
  double prob = 1.0;
  for (std::uint32_t j = 0; j < locus_count; ++j) {
    prob *= (code >> j) & 1u ? locus_freq_two[j] : 1.0 - locus_freq_two[j];
  }
  return prob;
}

namespace {

/// Largest equilibrium start value over haplotypes OUTSIDE the support
/// — the only off-support term the dense reference folds into its
/// iteration-1 convergence delta. The global maximizer is the code
/// taking the larger factor at every locus; when it happens to lie in
/// the support, fall back to scanning the complement (rare: only
/// reached when EM would converge on its very first iteration).
double max_off_support_start(const EmProgram& program) {
  HaplotypeCode best_code = 0;
  for (std::uint32_t j = 0; j < program.locus_count; ++j) {
    if (program.locus_freq_two[j] > 1.0 - program.locus_freq_two[j]) {
      best_code |= 1u << j;
    }
  }
  if (!std::binary_search(program.support.begin(), program.support.end(),
                          best_code)) {
    return program.equilibrium_value(best_code);
  }
  double best = 0.0;
  std::size_t next = 0;  // walk pointer into the sorted support
  const std::size_t n = program.haplotype_count();
  for (std::size_t h = 0; h < n; ++h) {
    if (next < program.support.size() && program.support[next] == h) {
      ++next;
      continue;
    }
    best = std::max(
        best, program.equilibrium_value(static_cast<HaplotypeCode>(h)));
  }
  return best;
}

}  // namespace

EmSupportResult run_em_program(const EmProgram& program,
                               const EmConfig& config,
                               EmKernelScratch& scratch) {
  config.validate();
  const std::size_t support_size = program.support.size();

  EmSupportResult result;
  result.frequencies.resize(support_size);
  for (std::size_t i = 0; i < support_size; ++i) {
    result.frequencies[i] = program.equilibrium_value(program.support[i]);
  }
  if (program.total_individuals <= 0.0) {
    // No data: trivially converged at the start (reference behaviour).
    result.converged = true;
    result.log_likelihood = 0.0;
    return result;
  }

  std::size_t max_pairs = 0;
  for (const std::uint32_t n : program.pattern_pairs) {
    max_pairs = std::max<std::size_t>(max_pairs, n);
  }
  scratch.expected.assign(support_size, 0.0);
  if (scratch.products.size() < max_pairs) {
    scratch.products.resize(max_pairs);
  }

  const double chromosomes = 2.0 * program.total_individuals;
  const std::uint32_t* idx1 = program.pair_h1.data();
  const std::uint32_t* idx2 = program.pair_h2.data();
  double* expected = scratch.expected.data();
  double* products = scratch.products.data();
  double* freq = result.frequencies.data();
  const std::size_t n_patterns = program.pattern_count.size();

  for (std::uint32_t iter = 1; iter <= config.max_iterations; ++iter) {
    std::fill_n(expected, support_size, 0.0);

    // E-step: one contiguous sweep; the pass-1 products are cached so
    // pass 2 only divides (identical rounding to recomputation).
    for (std::size_t p = 0; p < n_patterns; ++p) {
      const std::uint32_t first = program.pattern_first[p];
      const std::uint32_t n = program.pattern_pairs[p];
      const double count = program.pattern_count[p];
      const double mult = program.pattern_mult[p];
      double denom = 0.0;
      for (std::uint32_t t = 0; t < n; ++t) {
        const double prod =
            mult * freq[idx1[first + t]] * freq[idx2[first + t]];
        products[t] = prod;
        denom += prod;
      }
      if (denom <= 0.0) {
        // Uniform posterior over the compatible pairs (reference's
        // zero-probability fallback).
        const double w = count / static_cast<double>(n);
        for (std::uint32_t t = 0; t < n; ++t) {
          expected[idx1[first + t]] += w;
          expected[idx2[first + t]] += w;
        }
        continue;
      }
      for (std::uint32_t t = 0; t < n; ++t) {
        const double posterior = products[t] / denom;
        const double w = count * posterior;
        expected[idx1[first + t]] += w;
        expected[idx2[first + t]] += w;
      }
    }

    // M-step + convergence over support only.
    double delta = 0.0;
    for (std::size_t i = 0; i < support_size; ++i) {
      const double updated = expected[i] / chromosomes;
      delta = std::max(delta, std::abs(updated - freq[i]));
      freq[i] = updated;
    }
    // Off-support frequencies drop from their equilibrium start to an
    // exact 0.0 on iteration 1; the dense reference sees that in its
    // delta, so fold it in — but only when it could matter.
    if (iter == 1 && delta < config.tolerance &&
        support_size < program.haplotype_count()) {
      delta = std::max(delta, max_off_support_start(program));
    }
    result.iterations = iter;
    if (delta < config.tolerance) {
      result.converged = true;
      break;
    }
  }

  // Log-likelihood of the final frequencies, in the reference's exact
  // summation order (Kahan within a pattern, Kahan across patterns).
  KahanSum ll;
  for (std::size_t p = 0; p < n_patterns; ++p) {
    const std::uint32_t first = program.pattern_first[p];
    const std::uint32_t n = program.pattern_pairs[p];
    const double mult = program.pattern_mult[p];
    KahanSum prob;
    for (std::uint32_t t = 0; t < n; ++t) {
      prob.add(mult * freq[idx1[first + t]] * freq[idx2[first + t]]);
    }
    ll.add(program.pattern_count[p] *
           std::log(std::max(prob.value(), 1e-300)));
  }
  result.log_likelihood = ll.value();
  return result;
}

EmResult expand_em_result(const EmProgram& program,
                          const EmSupportResult& solution) {
  EmResult result;
  result.log_likelihood = solution.log_likelihood;
  result.iterations = solution.iterations;
  result.converged = solution.converged;

  const std::size_t n_haplotypes = program.haplotype_count();
  if (program.total_individuals <= 0.0) {
    // Reference returns the dense equilibrium start untouched.
    result.frequencies.resize(n_haplotypes);
    for (std::size_t h = 0; h < n_haplotypes; ++h) {
      result.frequencies[h] =
          program.equilibrium_value(static_cast<HaplotypeCode>(h));
    }
    return result;
  }
  result.frequencies.assign(n_haplotypes, 0.0);
  for (std::size_t i = 0; i < program.support.size(); ++i) {
    result.frequencies[program.support[i]] = solution.frequencies[i];
  }
  return result;
}

}  // namespace ldga::stats
