// AVX-512 kernel variants (foundation + BW + VL + VPOPCNTDQ). This
// translation unit carries its own ISA flags (src/util/CMakeLists.txt)
// and is only entered through the dispatch table after the runtime
// CPUID check in simd.cpp verifies every required feature bit.
//
// vpopcntq counts all eight 64-bit lanes in one instruction, so the
// bitplane kernels are pure load/logic/popcount/add chains. Only the
// integer kernels have 512-bit bodies: the kAvx512 dispatch table in
// simd.cpp takes its floating-point entries from the AVX2 table.
#include "util/simd_internal.hpp"

#if defined(LDGA_SIMD_AVX512)

#include <immintrin.h>

#include <bit>

namespace ldga::util::detail {

namespace {

inline __m512i loadu512(const std::uint64_t* p) {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
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

void dosage_pair_avx512(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n, std::uint64_t counts[6]) {
  const std::uint64_t* het_a = a;
  const std::uint64_t* two_a = a + n;
  const std::uint64_t* mis_a = a + 2 * n;
  const std::uint64_t* het_b = b;
  const std::uint64_t* two_b = b + n;
  const std::uint64_t* mis_b = b + 2 * n;
  const __m512i zero = _mm512_setzero_si512();
  __m512i acc[6] = {zero, zero, zero, zero, zero, zero};
  // The tail is a masked load, not a scalar loop: a prefilter locus is
  // often shorter than one vector (300 individuals are 5 words), and
  // masked-off lanes load as zero without touching memory.
  for (std::size_t i = 0; i < n; i += 8) {
    const auto live = static_cast<__mmask8>(
        n - i >= 8 ? 0xFF : (1u << (n - i)) - 1);
    const __m512i ha = _mm512_maskz_loadu_epi64(live, het_a + i);
    const __m512i ta = _mm512_maskz_loadu_epi64(live, two_a + i);
    const __m512i ma = _mm512_maskz_loadu_epi64(live, mis_a + i);
    const __m512i hb = _mm512_maskz_loadu_epi64(live, het_b + i);
    const __m512i tb = _mm512_maskz_loadu_epi64(live, two_b + i);
    const __m512i mb = _mm512_maskz_loadu_epi64(live, mis_b + i);
    const __m512i ones = _mm512_popcnt_epi64(_mm512_and_si512(ha, hb));
    const __m512i twos = _mm512_popcnt_epi64(_mm512_or_si512(
        _mm512_and_si512(ha, tb), _mm512_and_si512(ta, hb)));
    const __m512i fours = _mm512_popcnt_epi64(_mm512_and_si512(ta, tb));
    acc[0] = _mm512_add_epi64(
        acc[0], _mm512_add_epi64(
                    ones, _mm512_add_epi64(_mm512_slli_epi64(twos, 1),
                                           _mm512_slli_epi64(fours, 2))));
    acc[1] = _mm512_add_epi64(acc[1],
                              _mm512_popcnt_epi64(_mm512_and_si512(ha, mb)));
    acc[2] = _mm512_add_epi64(acc[2],
                              _mm512_popcnt_epi64(_mm512_and_si512(ta, mb)));
    acc[3] = _mm512_add_epi64(acc[3],
                              _mm512_popcnt_epi64(_mm512_and_si512(hb, ma)));
    acc[4] = _mm512_add_epi64(acc[4],
                              _mm512_popcnt_epi64(_mm512_and_si512(tb, ma)));
    acc[5] = _mm512_add_epi64(acc[5],
                              _mm512_popcnt_epi64(_mm512_and_si512(ma, mb)));
  }
  for (int k = 0; k < 6; ++k) {
    counts[k] = static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc[k]));
  }
}

}  // namespace

const SimdKernels& avx512_kernels() {
  // The floating-point entries stay null here; simd.cpp fills them.
  static constexpr SimdKernels kTable{
      &combine_planes_count_avx512, &plane_counts_avx512,
      &dosage_pair_avx512,          nullptr,
      nullptr,                      nullptr,
      nullptr,
  };
  return kTable;
}

}  // namespace ldga::util::detail

#endif  // LDGA_SIMD_AVX512
