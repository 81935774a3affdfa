#include "analysis/ld_prefilter.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace ldga::analysis {

using genomics::PairLd;
using genomics::SnpIndex;

void LdPrefilterConfig::validate() const {
  if (tile_snps == 0) {
    throw ConfigError("LdPrefilterConfig: tile_snps must be >= 1");
  }
  if (!(strong_r2 >= 0.0 && strong_r2 <= 1.0)) {
    throw ConfigError("LdPrefilterConfig: strong_r2 must be in [0, 1]");
  }
}

namespace {

/// All-ones cohort mask with the padding tail cleared.
std::vector<std::uint64_t> everyone_mask(std::uint32_t individuals,
                                         std::uint32_t words) {
  std::vector<std::uint64_t> mask(words, ~std::uint64_t{0});
  if (const std::uint32_t tail = individuals % 64; tail != 0 && words > 0) {
    mask[words - 1] = (std::uint64_t{1} << tail) - 1;
  }
  return mask;
}

/// valid = everyone & ~(lo & hi): the typed individuals of one locus.
void valid_mask(std::span<const std::uint64_t> lo,
                std::span<const std::uint64_t> hi,
                std::span<const std::uint64_t> everyone,
                std::uint64_t* out) {
  for (std::size_t w = 0; w < lo.size(); ++w) {
    out[w] = everyone[w] & ~(lo[w] & hi[w]);
  }
}

/// The nine popcounts of one pair, reduced to composite LD. `joint`
/// and `tmp` are word scratch (words each).
PairLd pair_ld_from_planes(const util::SimdKernels& kernels,
                           const std::uint64_t* lo_a,
                           const std::uint64_t* hi_a,
                           const std::uint64_t* valid_a,
                           const std::uint64_t* lo_b,
                           const std::uint64_t* hi_b,
                           const std::uint64_t* valid_b, std::size_t words,
                           std::uint64_t* joint, std::uint64_t* tmp) {
  // Passing one vector as both planes makes combine_planes_count a
  // plain fused AND-popcount: parent & x & x = parent & x.
  const double n = static_cast<double>(kernels.combine_planes_count(
      valid_a, valid_b, valid_b, 0, 0, words, joint));
  PairLd ld;
  if (n < 2.0) return ld;

  const auto count = [&](const std::uint64_t* x, const std::uint64_t* y) {
    return static_cast<double>(
        kernels.combine_planes_count(joint, x, y, 0, 0, words, tmp));
  };
  const double c_lo_a = count(lo_a, lo_a);
  const double c_hi_a = count(hi_a, hi_a);
  const double c_lo_b = count(lo_b, lo_b);
  const double c_hi_b = count(hi_b, hi_b);
  const double s_ab = count(lo_a, lo_b) + 2.0 * count(lo_a, hi_b) +
                      2.0 * count(hi_a, lo_b) + 4.0 * count(hi_a, hi_b);

  const double s_a = c_lo_a + 2.0 * c_hi_a;   // Σ g_a  (g = lo + 2·hi)
  const double sq_a = c_lo_a + 4.0 * c_hi_a;  // Σ g_a²
  const double s_b = c_lo_b + 2.0 * c_hi_b;
  const double sq_b = c_lo_b + 4.0 * c_hi_b;

  const double mean_a = s_a / n;
  const double mean_b = s_b / n;
  const double var_a = sq_a / n - mean_a * mean_a;
  const double var_b = sq_b / n - mean_b * mean_b;
  if (var_a <= 0.0 || var_b <= 0.0) return ld;  // monomorphic in V

  const double cov = s_ab / n - mean_a * mean_b;
  ld.r2 = std::min((cov * cov) / (var_a * var_b), 1.0);
  // Composite D: dosage covariance halves into a per-chromosome
  // disequilibrium; Lewontin's bound from the dosage allele
  // frequencies.
  ld.d = cov / 2.0;
  const double p_a = s_a / (2.0 * n);
  const double p_b = s_b / (2.0 * n);
  const double d_max =
      ld.d >= 0.0
          ? std::min(p_a * (1.0 - p_b), p_b * (1.0 - p_a))
          : std::min(p_a * p_b, (1.0 - p_a) * (1.0 - p_b));
  ld.d_prime = d_max > 0.0 ? std::min(std::abs(ld.d) / d_max, 1.0) : 0.0;
  return ld;
}

/// One window's plane pointers and valid masks, gathered once so the
/// pair loops make no virtual calls.
struct WindowPlanes {
  std::vector<const std::uint64_t*> lo;
  std::vector<const std::uint64_t*> hi;
  std::vector<std::uint64_t> valid;  ///< count × words

  WindowPlanes(const genomics::GenotypeStore& store,
               const ga::WindowSpec& window,
               std::span<const std::uint64_t> everyone) {
    const std::size_t words = everyone.size();
    lo.reserve(window.count);
    hi.reserve(window.count);
    valid.resize(static_cast<std::size_t>(window.count) * words);
    for (std::uint32_t s = 0; s < window.count; ++s) {
      const auto lo_span = store.low_plane(window.begin + s);
      const auto hi_span = store.high_plane(window.begin + s);
      lo.push_back(lo_span.data());
      hi.push_back(hi_span.data());
      valid_mask(lo_span, hi_span, everyone,
                 valid.data() + static_cast<std::size_t>(s) * words);
    }
  }

  const std::uint64_t* valid_of(std::uint32_t s, std::size_t words) const {
    return valid.data() + static_cast<std::size_t>(s) * words;
  }
};

}  // namespace

PairLd composite_pair_ld(const genomics::GenotypeStore& store, SnpIndex a,
                         SnpIndex b) {
  LDGA_EXPECTS(a < store.snp_count() && b < store.snp_count() && a != b);
  const std::uint32_t words = store.words_per_snp();
  const std::vector<std::uint64_t> everyone =
      everyone_mask(store.individual_count(), words);
  std::vector<std::uint64_t> valid_a(words);
  std::vector<std::uint64_t> valid_b(words);
  valid_mask(store.low_plane(a), store.high_plane(a), everyone,
             valid_a.data());
  valid_mask(store.low_plane(b), store.high_plane(b), everyone,
             valid_b.data());
  std::vector<std::uint64_t> joint(words);
  std::vector<std::uint64_t> tmp(words);
  return pair_ld_from_planes(util::simd(), store.low_plane(a).data(),
                             store.high_plane(a).data(), valid_a.data(),
                             store.low_plane(b).data(),
                             store.high_plane(b).data(), valid_b.data(),
                             words, joint.data(), tmp.data());
}

namespace {

/// One tile's accumulators. A window folds its tiles' partials in fixed
/// tile order, so tile size reorders the pair sums but nothing else
/// does.
struct TilePartial {
  double sum_r2 = 0.0;
  double sum_dprime = 0.0;
  double max_r2 = 0.0;
  std::uint64_t pairs = 0;
  std::uint64_t strong = 0;
};

/// The tile of the upper-triangle (a, b) index square of one window
/// whose corner is (ta, tb).
TilePartial sweep_tile(const util::SimdKernels& kernels,
                       const WindowPlanes& planes, std::uint32_t count,
                       std::uint32_t tile, std::uint32_t ta,
                       std::uint32_t tb, std::size_t words, double strong_r2,
                       std::uint64_t* joint, std::uint64_t* tmp) {
  TilePartial partial;
  const std::uint32_t a_end = std::min(ta + tile, count);
  const std::uint32_t b_end = std::min(tb + tile, count);
  for (std::uint32_t a = ta; a < a_end; ++a) {
    const std::uint32_t b_first = std::max(a + 1, tb);
    for (std::uint32_t b = b_first; b < b_end; ++b) {
      const PairLd ld = pair_ld_from_planes(
          kernels, planes.lo[a], planes.hi[a], planes.valid_of(a, words),
          planes.lo[b], planes.hi[b], planes.valid_of(b, words), words, joint,
          tmp);
      ++partial.pairs;
      partial.sum_r2 += ld.r2;
      partial.sum_dprime += ld.d_prime;
      partial.max_r2 = std::max(partial.max_r2, ld.r2);
      if (ld.r2 >= strong_r2) ++partial.strong;
    }
  }
  return partial;
}

/// One window's LD summary; `joint` and `tmp` are the calling worker's
/// word buffers.
WindowScore score_window(const util::SimdKernels& kernels,
                         const genomics::GenotypeStore& store,
                         const ga::WindowSpec& window,
                         std::span<const std::uint64_t> everyone,
                         const LdPrefilterConfig& config,
                         std::uint64_t* joint, std::uint64_t* tmp) {
  LDGA_EXPECTS(window.begin < store.snp_count() &&
               window.count <= store.snp_count() - window.begin);
  const WindowPlanes planes(store, window, everyone);
  const std::size_t words = everyone.size();
  WindowScore score;
  score.window = window;
  double sum_r2 = 0.0;
  double sum_dprime = 0.0;
  // Blocked pair sweep: tiles of the (a, b) index square, upper
  // triangle only, so both tiles' plane words stay cache-hot across
  // the inner loops.
  const std::uint32_t tile = config.tile_snps;
  for (std::uint32_t ta = 0; ta < window.count; ta += tile) {
    for (std::uint32_t tb = ta; tb < window.count; tb += tile) {
      const TilePartial partial =
          sweep_tile(kernels, planes, window.count, tile, ta, tb, words,
                     config.strong_r2, joint, tmp);
      score.pairs += partial.pairs;
      score.strong_pairs += partial.strong;
      sum_r2 += partial.sum_r2;
      sum_dprime += partial.sum_dprime;
      score.max_r2 = std::max(score.max_r2, partial.max_r2);
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

std::vector<WindowScore> score_windows(const genomics::GenotypeStore& store,
                                       std::span<const ga::WindowSpec> windows,
                                       const LdPrefilterConfig& config) {
  config.validate();
  const std::uint32_t words = store.words_per_snp();
  const std::vector<std::uint64_t> everyone =
      everyone_mask(store.individual_count(), words);
  const util::SimdKernels& kernels = util::simd();

  const std::uint32_t n_workers =
      config.workers > 0 ? config.workers : parallel::default_thread_count();
  std::optional<parallel::ThreadPool> pool;
  if (n_workers > 1 && windows.size() > 1) pool.emplace(n_workers);
  /// One {joint, tmp} scratch pair per parallel_for chunk (threads +
  /// the calling thread); index 0 doubles as the serial scratch.
  std::vector<std::vector<std::uint64_t>> joints(
      pool ? pool->thread_count() + 1 : 1,
      std::vector<std::uint64_t>(words));
  std::vector<std::vector<std::uint64_t>> tmps(joints.size(),
                                               std::vector<std::uint64_t>(words));

  std::vector<WindowScore> scores(windows.size());
  const auto run_window = [&](std::size_t chunk, std::size_t w) {
    scores[w] = score_window(kernels, store, windows[w], everyone, config,
                             joints[chunk].data(), tmps[chunk].data());
  };
  if (pool) {
    pool->parallel_for_chunked(0, windows.size(), run_window);
  } else {
    for (std::size_t w = 0; w < windows.size(); ++w) run_window(0, w);
  }
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
