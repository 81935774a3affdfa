#include "analysis/ld_prefilter.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace ldga::analysis {

using genomics::PairLd;
using genomics::SnpIndex;

void LdPrefilterConfig::validate() const {
  if (!(strong_r2 >= 0.0 && strong_r2 <= 1.0)) {
    throw ConfigError("LdPrefilterConfig: strong_r2 must be in [0, 1]");
  }
}

namespace {

/// One locus inside CleanPlanes.
struct CleanLocus {
  const std::uint64_t* planes;  ///< het | hom-two | missing, words each
  std::uint64_t het;            ///< popcounts of the three planes
  std::uint64_t two;
  std::uint64_t missing;
};

/// Loci [first, first + count) as clean planes: per locus the het,
/// hom-two and missing words back to back — the layout dosage_pair
/// reads — with the padding cleared, and each plane's popcount.
struct CleanPlanes {
  std::size_t words;
  std::vector<std::uint64_t> bits;    ///< count × 3 × words
  std::vector<std::uint64_t> counts;  ///< count × 3

  CleanPlanes(const genomics::GenotypeStore& store, SnpIndex first,
              std::uint32_t count)
      : words(store.words_per_snp()),
        bits(static_cast<std::size_t>(count) * 3 * words),
        counts(static_cast<std::size_t>(count) * 3) {
    const std::uint32_t tail_bits = store.individual_count() % 64;
    const std::uint64_t tail = tail_bits == 0
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << tail_bits) - 1;
    for (std::uint32_t s = 0; s < count; ++s) {
      const auto lo = store.low_plane(first + s);
      const auto hi = store.high_plane(first + s);
      const std::size_t c = static_cast<std::size_t>(s) * 3;
      std::uint64_t* het = bits.data() + c * words;
      std::uint64_t* two = het + words;
      std::uint64_t* missing = two + words;
      std::uint64_t* tally = counts.data() + c;
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t keep = w + 1 == words ? tail : ~std::uint64_t{0};
        het[w] = lo[w] & ~hi[w] & keep;
        two[w] = hi[w] & ~lo[w] & keep;
        missing[w] = lo[w] & hi[w] & keep;
        tally[0] += static_cast<std::uint64_t>(std::popcount(het[w]));
        tally[1] += static_cast<std::uint64_t>(std::popcount(two[w]));
        tally[2] += static_cast<std::uint64_t>(std::popcount(missing[w]));
      }
    }
  }

  CleanLocus locus(std::uint32_t s) const {
    const std::size_t c = static_cast<std::size_t>(s) * 3;
    return {bits.data() + c * words, counts[c], counts[c + 1], counts[c + 2]};
  }
};

/// One dosage_pair call, reduced to composite LD over the individuals
/// typed at both loci.
PairLd pair_ld(const util::SimdKernels& kernels, const CleanLocus& a,
               const CleanLocus& b, std::size_t words,
               std::uint64_t individuals) {
  std::uint64_t k[6];
  kernels.dosage_pair(a.planes, b.planes, words, k);
  // Everyone outside the union of the two missing sets.
  const double n =
      static_cast<double>(individuals + k[5] - a.missing - b.missing);
  PairLd ld;
  if (n < 2.0) return ld;

  // Each locus' het and hom-two counts among the jointly typed.
  const double het_a = static_cast<double>(a.het - k[1]);
  const double two_a = static_cast<double>(a.two - k[2]);
  const double het_b = static_cast<double>(b.het - k[3]);
  const double two_b = static_cast<double>(b.two - k[4]);
  const double s_ab = static_cast<double>(k[0]);

  const double s_a = het_a + 2.0 * two_a;   // Σ g_a  (g = het + 2·two)
  const double sq_a = het_a + 4.0 * two_a;  // Σ g_a²
  const double s_b = het_b + 2.0 * two_b;
  const double sq_b = het_b + 4.0 * two_b;

  const double mean_a = s_a / n;
  const double mean_b = s_b / n;
  const double var_a = sq_a / n - mean_a * mean_a;
  const double var_b = sq_b / n - mean_b * mean_b;
  if (var_a <= 0.0 || var_b <= 0.0) return ld;  // monomorphic when joint

  const double cov = s_ab / n - mean_a * mean_b;
  ld.r2 = std::min((cov * cov) / (var_a * var_b), 1.0);
  // Composite D: dosage covariance halves into a per-chromosome
  // disequilibrium; Lewontin's bound from the dosage allele
  // frequencies.
  ld.d = cov / 2.0;
  const double p_a = s_a / (2.0 * n);
  const double p_b = s_b / (2.0 * n);
  // Both bounds are computed before one is picked: the sign of D is a
  // coin flip in null LD blocks, so a branch on it mispredicts.
  const double d_max_positive =
      std::min(p_a * (1.0 - p_b), p_b * (1.0 - p_a));
  const double d_max_negative =
      std::min(p_a * p_b, (1.0 - p_a) * (1.0 - p_b));
  const double d_max = ld.d >= 0.0 ? d_max_positive : d_max_negative;
  ld.d_prime = d_max > 0.0 ? std::min(std::abs(ld.d) / d_max, 1.0) : 0.0;
  return ld;
}

/// One window's LD summary: every pair, a-major with b ascending.
WindowScore score_window(const util::SimdKernels& kernels,
                         const genomics::GenotypeStore& store,
                         const ga::WindowSpec& window, double strong_r2) {
  LDGA_EXPECTS(window.begin < store.snp_count() &&
               window.count <= store.snp_count() - window.begin);
  const CleanPlanes planes(store, window.begin, window.count);
  WindowScore score;
  score.window = window;
  double sum_r2 = 0.0;
  double sum_dprime = 0.0;
  for (std::uint32_t a = 0; a < window.count; ++a) {
    const CleanLocus locus_a = planes.locus(a);
    for (std::uint32_t b = a + 1; b < window.count; ++b) {
      const PairLd ld = pair_ld(kernels, locus_a, planes.locus(b),
                                planes.words, store.individual_count());
      ++score.pairs;
      sum_r2 += ld.r2;
      sum_dprime += ld.d_prime;
      score.max_r2 = std::max(score.max_r2, ld.r2);
      if (ld.r2 >= strong_r2) ++score.strong_pairs;
    }
  }
  if (score.pairs > 0) {
    score.mean_r2 = sum_r2 / static_cast<double>(score.pairs);
    score.mean_abs_d_prime = sum_dprime / static_cast<double>(score.pairs);
  }
  score.score = score.mean_r2;
  return score;
}

}  // namespace

PairLd composite_pair_ld(const genomics::GenotypeStore& store, SnpIndex a,
                         SnpIndex b) {
  LDGA_EXPECTS(a < store.snp_count() && b < store.snp_count() && a != b);
  const CleanPlanes planes_a(store, a, 1);
  const CleanPlanes planes_b(store, b, 1);
  return pair_ld(util::simd(), planes_a.locus(0), planes_b.locus(0),
                 planes_a.words, store.individual_count());
}

std::vector<WindowScore> score_windows(const genomics::GenotypeStore& store,
                                       std::span<const ga::WindowSpec> windows,
                                       const LdPrefilterConfig& config) {
  config.validate();
  const util::SimdKernels& kernels = util::simd();
  std::vector<WindowScore> scores(windows.size());
  const auto run_window = [&](std::size_t w) {
    scores[w] = score_window(kernels, store, windows[w], config.strong_r2);
  };
  const auto pool = windows.size() > 1
                        ? parallel::make_worker_pool(config.workers)
                        : nullptr;
  parallel::parallel_for(pool.get(), 0, windows.size(), run_window);
  return scores;
}

std::vector<ga::WindowSpec> top_windows(std::span<const WindowScore> scores,
                                        std::uint32_t keep) {
  std::vector<std::uint32_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     if (scores[x].score != scores[y].score) {
                       return scores[x].score > scores[y].score;
                     }
                     return scores[x].window.begin < scores[y].window.begin;
                   });
  order.resize(std::min<std::size_t>(order.size(), keep));
  std::sort(order.begin(), order.end());  // back to genomic order
  std::vector<ga::WindowSpec> kept;
  kept.reserve(order.size());
  for (const std::uint32_t i : order) kept.push_back(scores[i].window);
  return kept;
}

}  // namespace ldga::analysis
