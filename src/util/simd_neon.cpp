// NEON kernel variants for aarch64, where Advanced SIMD is baseline —
// no runtime feature check needed, only the architecture gate in
// src/util/CMakeLists.txt. The shapes mirror the AVX2 variants at
// 128-bit width: vcnt counts bytes, vpaddlq ladders the byte counts up
// to 64-bit lanes, and the floating-point kernels keep two fixed
// accumulator lanes with a fixed-order final reduction.
#include "util/simd_internal.hpp"

#if defined(LDGA_SIMD_NEON)

#include <arm_neon.h>

#include <bit>

namespace ldga::util::detail {

namespace {

inline uint64x2_t popcount_lanes(uint64x2_t v) {
  const uint8x16_t bytes = vcntq_u8(vreinterpretq_u8_u64(v));
  return vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(bytes)));
}

std::uint64_t popcount_words_neon(const std::uint64_t* words,
                                  std::size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vaddq_u64(acc, popcount_lanes(vld1q_u64(words + i)));
  }
  std::uint64_t total = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(words[i]));
  }
  return total;
}

std::uint64_t combine_planes_neon(const std::uint64_t* parent,
                                  const std::uint64_t* lo,
                                  const std::uint64_t* hi,
                                  std::uint64_t flip_lo,
                                  std::uint64_t flip_hi, std::size_t n,
                                  std::uint64_t* out) {
  const uint64x2_t vfl = vdupq_n_u64(flip_lo);
  const uint64x2_t vfh = vdupq_n_u64(flip_hi);
  uint64x2_t any = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t word = vandq_u64(
        vld1q_u64(parent + i),
        vandq_u64(veorq_u64(vld1q_u64(lo + i), vfl),
                  veorq_u64(vld1q_u64(hi + i), vfh)));
    vst1q_u64(out + i, word);
    any = vorrq_u64(any, word);
  }
  std::uint64_t any_bits = vgetq_lane_u64(any, 0) | vgetq_lane_u64(any, 1);
  for (; i < n; ++i) {
    const std::uint64_t word =
        parent[i] & (lo[i] ^ flip_lo) & (hi[i] ^ flip_hi);
    out[i] = word;
    any_bits |= word;
  }
  return any_bits;
}

std::uint64_t combine_planes_count_neon(const std::uint64_t* parent,
                                        const std::uint64_t* lo,
                                        const std::uint64_t* hi,
                                        std::uint64_t flip_lo,
                                        std::uint64_t flip_hi, std::size_t n,
                                        std::uint64_t* out) {
  const uint64x2_t vfl = vdupq_n_u64(flip_lo);
  const uint64x2_t vfh = vdupq_n_u64(flip_hi);
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t word = vandq_u64(
        vld1q_u64(parent + i),
        vandq_u64(veorq_u64(vld1q_u64(lo + i), vfl),
                  veorq_u64(vld1q_u64(hi + i), vfh)));
    vst1q_u64(out + i, word);
    acc = vaddq_u64(acc, popcount_lanes(word));
  }
  std::uint64_t count = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
  for (; i < n; ++i) {
    const std::uint64_t word =
        parent[i] & (lo[i] ^ flip_lo) & (hi[i] ^ flip_hi);
    out[i] = word;
    count += static_cast<std::uint64_t>(std::popcount(word));
  }
  return count;
}

void plane_counts_neon(const std::uint64_t* lo, const std::uint64_t* hi,
                       std::size_t n, std::uint64_t counts[3]) {
  uint64x2_t het_acc = vdupq_n_u64(0);
  uint64x2_t hom_acc = vdupq_n_u64(0);
  uint64x2_t mis_acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t vlo = vld1q_u64(lo + i);
    const uint64x2_t vhi = vld1q_u64(hi + i);
    het_acc = vaddq_u64(het_acc, popcount_lanes(vbicq_u64(vlo, vhi)));
    hom_acc = vaddq_u64(hom_acc, popcount_lanes(vbicq_u64(vhi, vlo)));
    mis_acc = vaddq_u64(mis_acc, popcount_lanes(vandq_u64(vlo, vhi)));
  }
  std::uint64_t het =
      vgetq_lane_u64(het_acc, 0) + vgetq_lane_u64(het_acc, 1);
  std::uint64_t hom_two =
      vgetq_lane_u64(hom_acc, 0) + vgetq_lane_u64(hom_acc, 1);
  std::uint64_t missing =
      vgetq_lane_u64(mis_acc, 0) + vgetq_lane_u64(mis_acc, 1);
  for (; i < n; ++i) {
    het += static_cast<std::uint64_t>(std::popcount(lo[i] & ~hi[i]));
    hom_two += static_cast<std::uint64_t>(std::popcount(hi[i] & ~lo[i]));
    missing += static_cast<std::uint64_t>(std::popcount(lo[i] & hi[i]));
  }
  counts[0] = het;
  counts[1] = hom_two;
  counts[2] = missing;
}

void chi_columns_neon(const double* top, const double* bottom, std::size_t n,
                      double add_top, double add_bottom, double row0,
                      double row1, double* out) {
  const double grand = row0 + row1;
  if (row0 <= 0.0 || row1 <= 0.0) {
    for (std::size_t c = 0; c < n; ++c) out[c] = 0.0;
    return;
  }
  const float64x2_t vat = vdupq_n_f64(add_top);
  const float64x2_t vab = vdupq_n_f64(add_bottom);
  const float64x2_t vrow0 = vdupq_n_f64(row0);
  const float64x2_t vrow1 = vdupq_n_f64(row1);
  const float64x2_t vgrand = vdupq_n_f64(grand);
  const float64x2_t vzero = vdupq_n_f64(0.0);
  const float64x2_t vrr = vmulq_f64(vrow0, vrow1);
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2) {
    const float64x2_t a = vaddq_f64(vld1q_f64(top + c), vat);
    const float64x2_t b = vaddq_f64(vld1q_f64(bottom + c), vab);
    const float64x2_t col0 = vaddq_f64(a, b);
    const float64x2_t col1 = vsubq_f64(vgrand, col0);
    const float64x2_t cross =
        vsubq_f64(vmulq_f64(a, vsubq_f64(vrow1, b)),
                  vmulq_f64(b, vsubq_f64(vrow0, a)));
    const float64x2_t numer = vmulq_f64(vgrand, vmulq_f64(cross, cross));
    const float64x2_t denom = vmulq_f64(vrr, vmulq_f64(col0, col1));
    const float64x2_t chi = vdivq_f64(numer, denom);
    const uint64x2_t live =
        vandq_u64(vcgtq_f64(col0, vzero), vcgtq_f64(col1, vzero));
    vst1q_f64(out + c,
              vreinterpretq_f64_u64(vandq_u64(
                  vreinterpretq_u64_f64(chi), live)));
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

double pearson_row_terms_neon(const double* cells, const double* col_sums,
                              std::size_t n, double row_sum, double total) {
  const float64x2_t vrow = vdupq_n_f64(row_sum);
  const float64x2_t vtotal = vdupq_n_f64(total);
  const float64x2_t vzero = vdupq_n_f64(0.0);
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2) {
    const float64x2_t col = vld1q_f64(col_sums + c);
    const float64x2_t expected =
        vdivq_f64(vmulq_f64(vrow, col), vtotal);
    const float64x2_t diff = vsubq_f64(vld1q_f64(cells + c), expected);
    const float64x2_t term =
        vdivq_f64(vmulq_f64(diff, diff), expected);
    const uint64x2_t live = vcgtq_f64(col, vzero);
    acc = vaddq_f64(acc, vreinterpretq_f64_u64(vandq_u64(
                             vreinterpretq_u64_f64(term), live)));
  }
  double sum = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; c < n; ++c) {
    if (col_sums[c] <= 0.0) continue;
    const double expected = row_sum * col_sums[c] / total;
    const double diff = cells[c] - expected;
    sum += diff * diff / expected;
  }
  return sum;
}

void batch_chi_columns_neon(const double* top, const double* bottom,
                            std::size_t cols, std::size_t reps,
                            const double* add_top, const double* add_bottom,
                            double row0, double row1, double* out) {
  for (std::size_t r = 0; r < reps; ++r) {
    chi_columns_neon(top + r * cols, bottom + r * cols, cols,
                     add_top != nullptr ? add_top[r] : 0.0,
                     add_bottom != nullptr ? add_bottom[r] : 0.0, row0, row1,
                     out + r * cols);
  }
}

void batch_pearson_2xn_neon(const double* top, const double* bottom,
                            const double* col_sums, std::size_t cols,
                            std::size_t reps, double row0_sum,
                            double row1_sum, double total, double* out) {
  for (std::size_t r = 0; r < reps; ++r) {
    double statistic = 0.0;
    if (row0_sum > 0.0) {
      statistic += pearson_row_terms_neon(top + r * cols, col_sums, cols,
                                          row0_sum, total);
    }
    if (row1_sum > 0.0) {
      statistic += pearson_row_terms_neon(bottom + r * cols, col_sums, cols,
                                          row1_sum, total);
    }
    out[r] = statistic;
  }
}

}  // namespace

const SimdKernels& neon_kernels() {
  static constexpr SimdKernels kTable{
      &popcount_words_neon,       &combine_planes_neon,
      &combine_planes_count_neon, &plane_counts_neon,
      &chi_columns_neon,          &pearson_row_terms_neon,
      &batch_chi_columns_neon,    &batch_pearson_2xn_neon,
  };
  return kTable;
}

}  // namespace ldga::util::detail

#endif  // LDGA_SIMD_NEON
