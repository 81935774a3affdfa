// AVX2 kernel variants. This translation unit is compiled with -mavx2
// (see src/util/CMakeLists.txt) and must only be entered through the
// dispatch table after the runtime CPUID check in simd.cpp.
//
// Popcount uses the in-register nibble lookup (Muła's algorithm):
// pshufb splits each byte into two 4-bit table lookups and psadbw
// folds the byte counts into four 64-bit partial sums — no scalar
// popcnt round trips. Floating-point kernels accumulate vertically
// into fixed vector lanes and reduce in a fixed order at the end, so
// results are deterministic for a given input length (see the
// determinism contract in simd.hpp).
#include "util/simd_internal.hpp"

#if defined(LDGA_SIMD_AVX2)

#include <immintrin.h>

#include <bit>
#include <cstring>

namespace ldga::util::detail {

namespace {

inline __m256i popcount_bytes(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// Four 64-bit lane sums of popcount over the vector's bytes.
inline __m256i popcount_lanes(__m256i v) {
  return _mm256_sad_epu8(popcount_bytes(v), _mm256_setzero_si256());
}

inline std::uint64_t horizontal_sum_u64(__m256i v) {
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

/// Fixed-order reduction of a 4-lane double accumulator:
/// (lane0 + lane1) + (lane2 + lane3).
inline double horizontal_sum_pd(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

inline __m256i loadu(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

std::uint64_t combine_planes_count_avx2(const std::uint64_t* parent,
                                        const std::uint64_t* lo,
                                        const std::uint64_t* hi,
                                        std::uint64_t flip_lo,
                                        std::uint64_t flip_hi, std::size_t n,
                                        std::uint64_t* out) {
  const __m256i vfl = _mm256_set1_epi64x(static_cast<long long>(flip_lo));
  const __m256i vfh = _mm256_set1_epi64x(static_cast<long long>(flip_hi));
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i word = _mm256_and_si256(
        loadu(parent + i),
        _mm256_and_si256(_mm256_xor_si256(loadu(lo + i), vfl),
                         _mm256_xor_si256(loadu(hi + i), vfh)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), word);
    acc = _mm256_add_epi64(acc, popcount_lanes(word));
  }
  std::uint64_t count = horizontal_sum_u64(acc);
  for (; i < n; ++i) {
    const std::uint64_t word =
        parent[i] & (lo[i] ^ flip_lo) & (hi[i] ^ flip_hi);
    out[i] = word;
    count += static_cast<std::uint64_t>(std::popcount(word));
  }
  return count;
}

void plane_counts_avx2(const std::uint64_t* lo, const std::uint64_t* hi,
                       std::size_t n, std::uint64_t counts[3]) {
  __m256i het_acc = _mm256_setzero_si256();
  __m256i hom_acc = _mm256_setzero_si256();
  __m256i mis_acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vlo = loadu(lo + i);
    const __m256i vhi = loadu(hi + i);
    het_acc = _mm256_add_epi64(het_acc,
                               popcount_lanes(_mm256_andnot_si256(vhi, vlo)));
    hom_acc = _mm256_add_epi64(hom_acc,
                               popcount_lanes(_mm256_andnot_si256(vlo, vhi)));
    mis_acc = _mm256_add_epi64(mis_acc,
                               popcount_lanes(_mm256_and_si256(vlo, vhi)));
  }
  std::uint64_t het = horizontal_sum_u64(het_acc);
  std::uint64_t hom_two = horizontal_sum_u64(hom_acc);
  std::uint64_t missing = horizontal_sum_u64(mis_acc);
  for (; i < n; ++i) {
    het += static_cast<std::uint64_t>(std::popcount(lo[i] & ~hi[i]));
    hom_two += static_cast<std::uint64_t>(std::popcount(hi[i] & ~lo[i]));
    missing += static_cast<std::uint64_t>(std::popcount(lo[i] & hi[i]));
  }
  counts[0] = het;
  counts[1] = hom_two;
  counts[2] = missing;
}

void dosage_pair_avx2(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t n, std::uint64_t counts[6]) {
  const std::uint64_t* het_a = a;
  const std::uint64_t* two_a = a + n;
  const std::uint64_t* mis_a = a + 2 * n;
  const std::uint64_t* het_b = b;
  const std::uint64_t* two_b = b + n;
  const std::uint64_t* mis_b = b + 2 * n;
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc[6] = {zero, zero, zero, zero, zero, zero};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i ha = loadu(het_a + i);
    const __m256i ta = loadu(two_a + i);
    const __m256i ma = loadu(mis_a + i);
    const __m256i hb = loadu(het_b + i);
    const __m256i tb = loadu(two_b + i);
    const __m256i mb = loadu(mis_b + i);
    // The weighted byte count ones + 2·twos + 4·fours is at most 56,
    // so the three dosage products share one psadbw.
    const __m256i ones = popcount_bytes(_mm256_and_si256(ha, hb));
    const __m256i twos = popcount_bytes(_mm256_or_si256(
        _mm256_and_si256(ha, tb), _mm256_and_si256(ta, hb)));
    const __m256i fours = popcount_bytes(_mm256_and_si256(ta, tb));
    __m256i weighted = _mm256_add_epi8(twos, _mm256_add_epi8(fours, fours));
    weighted = _mm256_add_epi8(ones, _mm256_add_epi8(weighted, weighted));
    acc[0] = _mm256_add_epi64(acc[0], _mm256_sad_epu8(weighted, zero));
    acc[1] = _mm256_add_epi64(acc[1], popcount_lanes(_mm256_and_si256(ha, mb)));
    acc[2] = _mm256_add_epi64(acc[2], popcount_lanes(_mm256_and_si256(ta, mb)));
    acc[3] = _mm256_add_epi64(acc[3], popcount_lanes(_mm256_and_si256(hb, ma)));
    acc[4] = _mm256_add_epi64(acc[4], popcount_lanes(_mm256_and_si256(tb, ma)));
    acc[5] = _mm256_add_epi64(acc[5], popcount_lanes(_mm256_and_si256(ma, mb)));
  }
  for (int k = 0; k < 6; ++k) counts[k] = horizontal_sum_u64(acc[k]);
  for (; i < n; ++i) {
    counts[0] +=
        static_cast<std::uint64_t>(std::popcount(het_a[i] & het_b[i])) +
        2 * static_cast<std::uint64_t>(std::popcount(
                (het_a[i] & two_b[i]) | (two_a[i] & het_b[i]))) +
        4 * static_cast<std::uint64_t>(std::popcount(two_a[i] & two_b[i]));
    counts[1] += static_cast<std::uint64_t>(std::popcount(het_a[i] & mis_b[i]));
    counts[2] += static_cast<std::uint64_t>(std::popcount(two_a[i] & mis_b[i]));
    counts[3] += static_cast<std::uint64_t>(std::popcount(het_b[i] & mis_a[i]));
    counts[4] += static_cast<std::uint64_t>(std::popcount(two_b[i] & mis_a[i]));
    counts[5] += static_cast<std::uint64_t>(std::popcount(mis_a[i] & mis_b[i]));
  }
}

void chi_columns_avx2(const double* top, const double* bottom, std::size_t n,
                      double add_top, double add_bottom, double row0,
                      double row1, double* out) {
  const double grand = row0 + row1;
  if (row0 <= 0.0 || row1 <= 0.0) {
    for (std::size_t c = 0; c < n; ++c) out[c] = 0.0;
    return;
  }
  const __m256d vat = _mm256_set1_pd(add_top);
  const __m256d vab = _mm256_set1_pd(add_bottom);
  const __m256d vrow0 = _mm256_set1_pd(row0);
  const __m256d vrow1 = _mm256_set1_pd(row1);
  const __m256d vgrand = _mm256_set1_pd(grand);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vrr = _mm256_mul_pd(vrow0, vrow1);
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256d a = _mm256_add_pd(_mm256_loadu_pd(top + c), vat);
    const __m256d b = _mm256_add_pd(_mm256_loadu_pd(bottom + c), vab);
    const __m256d col0 = _mm256_add_pd(a, b);
    const __m256d col1 = _mm256_sub_pd(vgrand, col0);
    const __m256d cross =
        _mm256_sub_pd(_mm256_mul_pd(a, _mm256_sub_pd(vrow1, b)),
                      _mm256_mul_pd(b, _mm256_sub_pd(vrow0, a)));
    const __m256d numer =
        _mm256_mul_pd(vgrand, _mm256_mul_pd(cross, cross));
    const __m256d denom =
        _mm256_mul_pd(vrr, _mm256_mul_pd(col0, col1));
    const __m256d chi = _mm256_div_pd(numer, denom);
    const __m256d live =
        _mm256_and_pd(_mm256_cmp_pd(col0, vzero, _CMP_GT_OQ),
                      _mm256_cmp_pd(col1, vzero, _CMP_GT_OQ));
    _mm256_storeu_pd(out + c, _mm256_and_pd(chi, live));
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

double pearson_row_terms_avx2(const double* cells, const double* col_sums,
                              std::size_t n, double row_sum, double total) {
  const __m256d vrow = _mm256_set1_pd(row_sum);
  const __m256d vtotal = _mm256_set1_pd(total);
  const __m256d vzero = _mm256_setzero_pd();
  __m256d acc = _mm256_setzero_pd();
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256d col = _mm256_loadu_pd(col_sums + c);
    const __m256d expected =
        _mm256_div_pd(_mm256_mul_pd(vrow, col), vtotal);
    const __m256d diff =
        _mm256_sub_pd(_mm256_loadu_pd(cells + c), expected);
    const __m256d term =
        _mm256_div_pd(_mm256_mul_pd(diff, diff), expected);
    const __m256d live = _mm256_cmp_pd(col, vzero, _CMP_GT_OQ);
    acc = _mm256_add_pd(acc, _mm256_and_pd(term, live));
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

void batch_chi_columns_avx2(const double* top, const double* bottom,
                            std::size_t cols, std::size_t reps,
                            const double* add_top, const double* add_bottom,
                            double row0, double row1, double* out) {
  for (std::size_t r = 0; r < reps; ++r) {
    chi_columns_avx2(top + r * cols, bottom + r * cols, cols,
                     add_top != nullptr ? add_top[r] : 0.0,
                     add_bottom != nullptr ? add_bottom[r] : 0.0, row0, row1,
                     out + r * cols);
  }
}

void batch_pearson_2xn_avx2(const double* top, const double* bottom,
                            const double* col_sums, std::size_t cols,
                            std::size_t reps, double row0_sum,
                            double row1_sum, double total, double* out) {
  for (std::size_t r = 0; r < reps; ++r) {
    double statistic = 0.0;
    if (row0_sum > 0.0) {
      statistic += pearson_row_terms_avx2(top + r * cols, col_sums, cols,
                                          row0_sum, total);
    }
    if (row1_sum > 0.0) {
      statistic += pearson_row_terms_avx2(bottom + r * cols, col_sums, cols,
                                          row1_sum, total);
    }
    out[r] = statistic;
  }
}

}  // namespace

const SimdKernels& avx2_kernels() {
  static constexpr SimdKernels kTable{
      &combine_planes_count_avx2, &plane_counts_avx2,
      &dosage_pair_avx2,          &chi_columns_avx2,
      &pearson_row_terms_avx2,    &batch_chi_columns_avx2,
      &batch_pearson_2xn_avx2,
  };
  return kTable;
}

}  // namespace ldga::util::detail

#endif  // LDGA_SIMD_AVX2
