// AVX-512 kernel variants (foundation + BW + VL + VPOPCNTDQ). This
// translation unit carries its own ISA flags (src/util/CMakeLists.txt)
// and is only entered through the dispatch table after the runtime
// CPUID check in simd.cpp verifies every required feature bit.
//
// vpopcntq counts all eight 64-bit lanes in one instruction, so the
// bitplane kernels are pure load/logic/popcount/add chains. The
// floating-point kernels use eight fixed accumulator lanes with a
// fixed-order final reduction and masked loads are avoided on tails
// (scalar tail loops instead) to keep the operation order obvious.
#include "util/simd_internal.hpp"

#if defined(LDGA_SIMD_AVX512)

#include <immintrin.h>

#include <bit>

namespace ldga::util::detail {

namespace {

inline __m512i loadu512(const std::uint64_t* p) {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}

/// Fixed-order reduction of an 8-lane double accumulator:
/// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
inline double horizontal_sum_pd(__m512d v) {
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, v);
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

std::uint64_t popcount_words_avx512(const std::uint64_t* words,
                                    std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(loadu512(words + i)));
  }
  std::uint64_t total = static_cast<std::uint64_t>(
      _mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(words[i]));
  }
  return total;
}

std::uint64_t combine_planes_avx512(const std::uint64_t* parent,
                                    const std::uint64_t* lo,
                                    const std::uint64_t* hi,
                                    std::uint64_t flip_lo,
                                    std::uint64_t flip_hi, std::size_t n,
                                    std::uint64_t* out) {
  const __m512i vfl = _mm512_set1_epi64(static_cast<long long>(flip_lo));
  const __m512i vfh = _mm512_set1_epi64(static_cast<long long>(flip_hi));
  __m512i any = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i word = _mm512_and_si512(
        loadu512(parent + i),
        _mm512_and_si512(_mm512_xor_si512(loadu512(lo + i), vfl),
                         _mm512_xor_si512(loadu512(hi + i), vfh)));
    _mm512_storeu_si512(reinterpret_cast<void*>(out + i), word);
    any = _mm512_or_si512(any, word);
  }
  std::uint64_t any_bits =
      static_cast<std::uint64_t>(_mm512_reduce_or_epi64(any));
  for (; i < n; ++i) {
    const std::uint64_t word =
        parent[i] & (lo[i] ^ flip_lo) & (hi[i] ^ flip_hi);
    out[i] = word;
    any_bits |= word;
  }
  return any_bits;
}

std::uint64_t combine_planes_count_avx512(const std::uint64_t* parent,
                                          const std::uint64_t* lo,
                                          const std::uint64_t* hi,
                                          std::uint64_t flip_lo,
                                          std::uint64_t flip_hi,
                                          std::size_t n, std::uint64_t* out) {
  const __m512i vfl = _mm512_set1_epi64(static_cast<long long>(flip_lo));
  const __m512i vfh = _mm512_set1_epi64(static_cast<long long>(flip_hi));
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i word = _mm512_and_si512(
        loadu512(parent + i),
        _mm512_and_si512(_mm512_xor_si512(loadu512(lo + i), vfl),
                         _mm512_xor_si512(loadu512(hi + i), vfh)));
    _mm512_storeu_si512(reinterpret_cast<void*>(out + i), word);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(word));
  }
  std::uint64_t count =
      static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) {
    const std::uint64_t word =
        parent[i] & (lo[i] ^ flip_lo) & (hi[i] ^ flip_hi);
    out[i] = word;
    count += static_cast<std::uint64_t>(std::popcount(word));
  }
  return count;
}

void plane_counts_avx512(const std::uint64_t* lo, const std::uint64_t* hi,
                         std::size_t n, std::uint64_t counts[3]) {
  __m512i het_acc = _mm512_setzero_si512();
  __m512i hom_acc = _mm512_setzero_si512();
  __m512i mis_acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i vlo = loadu512(lo + i);
    const __m512i vhi = loadu512(hi + i);
    het_acc = _mm512_add_epi64(
        het_acc, _mm512_popcnt_epi64(_mm512_andnot_si512(vhi, vlo)));
    hom_acc = _mm512_add_epi64(
        hom_acc, _mm512_popcnt_epi64(_mm512_andnot_si512(vlo, vhi)));
    mis_acc = _mm512_add_epi64(
        mis_acc, _mm512_popcnt_epi64(_mm512_and_si512(vlo, vhi)));
  }
  std::uint64_t het =
      static_cast<std::uint64_t>(_mm512_reduce_add_epi64(het_acc));
  std::uint64_t hom_two =
      static_cast<std::uint64_t>(_mm512_reduce_add_epi64(hom_acc));
  std::uint64_t missing =
      static_cast<std::uint64_t>(_mm512_reduce_add_epi64(mis_acc));
  for (; i < n; ++i) {
    het += static_cast<std::uint64_t>(std::popcount(lo[i] & ~hi[i]));
    hom_two += static_cast<std::uint64_t>(std::popcount(hi[i] & ~lo[i]));
    missing += static_cast<std::uint64_t>(std::popcount(lo[i] & hi[i]));
  }
  counts[0] = het;
  counts[1] = hom_two;
  counts[2] = missing;
}

void chi_columns_avx512(const double* top, const double* bottom,
                        std::size_t n, double add_top, double add_bottom,
                        double row0, double row1, double* out) {
  const double grand = row0 + row1;
  if (row0 <= 0.0 || row1 <= 0.0) {
    for (std::size_t c = 0; c < n; ++c) out[c] = 0.0;
    return;
  }
  const __m512d vat = _mm512_set1_pd(add_top);
  const __m512d vab = _mm512_set1_pd(add_bottom);
  const __m512d vrow0 = _mm512_set1_pd(row0);
  const __m512d vrow1 = _mm512_set1_pd(row1);
  const __m512d vgrand = _mm512_set1_pd(grand);
  const __m512d vzero = _mm512_setzero_pd();
  const __m512d vrr = _mm512_mul_pd(vrow0, vrow1);
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m512d a = _mm512_add_pd(_mm512_loadu_pd(top + c), vat);
    const __m512d b = _mm512_add_pd(_mm512_loadu_pd(bottom + c), vab);
    const __m512d col0 = _mm512_add_pd(a, b);
    const __m512d col1 = _mm512_sub_pd(vgrand, col0);
    const __m512d cross =
        _mm512_sub_pd(_mm512_mul_pd(a, _mm512_sub_pd(vrow1, b)),
                      _mm512_mul_pd(b, _mm512_sub_pd(vrow0, a)));
    const __m512d numer =
        _mm512_mul_pd(vgrand, _mm512_mul_pd(cross, cross));
    const __m512d denom = _mm512_mul_pd(vrr, _mm512_mul_pd(col0, col1));
    const __mmask8 live =
        _mm512_cmp_pd_mask(col0, vzero, _CMP_GT_OQ) &
        _mm512_cmp_pd_mask(col1, vzero, _CMP_GT_OQ);
    const __m512d chi =
        _mm512_maskz_div_pd(live, numer, denom);
    _mm512_storeu_pd(out + c, chi);
  }
  for (; c < n; ++c) {
    const double a = top[c] + add_top;
    const double b = bottom[c] + add_bottom;
    const double col0 = a + b;
    const double col1 = grand - col0;
    if (col0 <= 0.0 || col1 <= 0.0) {
      out[c] = 0.0;
      continue;
    }
    const double cross = a * (row1 - b) - b * (row0 - a);
    out[c] = grand * cross * cross / (row0 * row1 * col0 * col1);
  }
}

double pearson_row_terms_avx512(const double* cells, const double* col_sums,
                                std::size_t n, double row_sum,
                                double total) {
  const __m512d vrow = _mm512_set1_pd(row_sum);
  const __m512d vtotal = _mm512_set1_pd(total);
  const __m512d vzero = _mm512_setzero_pd();
  __m512d acc = _mm512_setzero_pd();
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m512d col = _mm512_loadu_pd(col_sums + c);
    const __m512d expected =
        _mm512_div_pd(_mm512_mul_pd(vrow, col), vtotal);
    const __m512d diff =
        _mm512_sub_pd(_mm512_loadu_pd(cells + c), expected);
    const __mmask8 live = _mm512_cmp_pd_mask(col, vzero, _CMP_GT_OQ);
    const __m512d term =
        _mm512_maskz_div_pd(live, _mm512_mul_pd(diff, diff), expected);
    acc = _mm512_add_pd(acc, term);
  }
  double sum = horizontal_sum_pd(acc);
  for (; c < n; ++c) {
    if (col_sums[c] <= 0.0) continue;
    const double expected = row_sum * col_sums[c] / total;
    const double diff = cells[c] - expected;
    sum += diff * diff / expected;
  }
  return sum;
}

void batch_chi_columns_avx512(const double* top, const double* bottom,
                              std::size_t cols, std::size_t reps,
                              const double* add_top, const double* add_bottom,
                              double row0, double row1, double* out) {
  for (std::size_t r = 0; r < reps; ++r) {
    chi_columns_avx512(top + r * cols, bottom + r * cols, cols,
                       add_top != nullptr ? add_top[r] : 0.0,
                       add_bottom != nullptr ? add_bottom[r] : 0.0, row0,
                       row1, out + r * cols);
  }
}

void batch_pearson_2xn_avx512(const double* top, const double* bottom,
                              const double* col_sums, std::size_t cols,
                              std::size_t reps, double row0_sum,
                              double row1_sum, double total, double* out) {
  for (std::size_t r = 0; r < reps; ++r) {
    double statistic = 0.0;
    if (row0_sum > 0.0) {
      statistic += pearson_row_terms_avx512(top + r * cols, col_sums, cols,
                                            row0_sum, total);
    }
    if (row1_sum > 0.0) {
      statistic += pearson_row_terms_avx512(bottom + r * cols, col_sums,
                                            cols, row1_sum, total);
    }
    out[r] = statistic;
  }
}

}  // namespace

const SimdKernels& avx512_kernels() {
  static constexpr SimdKernels kTable{
      &popcount_words_avx512,       &combine_planes_avx512,
      &combine_planes_count_avx512, &plane_counts_avx512,
      &chi_columns_avx512,          &pearson_row_terms_avx512,
      &batch_chi_columns_avx512,    &batch_pearson_2xn_avx512,
  };
  return kTable;
}

}  // namespace ldga::util::detail

#endif  // LDGA_SIMD_AVX512
