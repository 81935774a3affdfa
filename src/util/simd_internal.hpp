// Internal linkage between the dispatch table (simd.cpp) and the
// per-ISA kernel translation units. Each variant TU is compiled with
// its own ISA flags (src/util/CMakeLists.txt) and only entered after
// the matching CPUID check, so no vector instruction can leak into a
// path executed on a host without it.
#pragma once

#include "util/simd.hpp"

namespace ldga::util::detail {

const SimdKernels& scalar_kernels();

#if defined(LDGA_SIMD_AVX2)
const SimdKernels& avx2_kernels();
#endif

#if defined(LDGA_SIMD_AVX512)
/// Integer entries only; the floating-point ones are null.
const SimdKernels& avx512_kernels();
#endif

#if defined(LDGA_SIMD_NEON)
const SimdKernels& neon_kernels();
#endif

}  // namespace ldga::util::detail
