#include "util/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/error.hpp"
#include "util/simd_internal.hpp"

namespace ldga::util {

namespace detail {

namespace {

// -------------------------------------------------------------------
// Scalar reference kernels. These are the semantics every vector
// variant must reproduce: bit-for-bit for the integer kernels, and to
// the documented operation order (left-to-right accumulation) for the
// floating-point ones.
// -------------------------------------------------------------------

std::uint64_t combine_planes_count_scalar(const std::uint64_t* parent,
                                          const std::uint64_t* lo,
                                          const std::uint64_t* hi,
                                          std::uint64_t flip_lo,
                                          std::uint64_t flip_hi,
                                          std::size_t n, std::uint64_t* out) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t word = parent[i] & (lo[i] ^ flip_lo) &
                               (hi[i] ^ flip_hi);
    out[i] = word;
    count += static_cast<std::uint64_t>(std::popcount(word));
  }
  return count;
}

void plane_counts_scalar(const std::uint64_t* lo, const std::uint64_t* hi,
                         std::size_t n, std::uint64_t counts[3]) {
  std::uint64_t het = 0;
  std::uint64_t hom_two = 0;
  std::uint64_t missing = 0;
  for (std::size_t i = 0; i < n; ++i) {
    het += static_cast<std::uint64_t>(std::popcount(lo[i] & ~hi[i]));
    hom_two += static_cast<std::uint64_t>(std::popcount(hi[i] & ~lo[i]));
    missing += static_cast<std::uint64_t>(std::popcount(lo[i] & hi[i]));
  }
  counts[0] = het;
  counts[1] = hom_two;
  counts[2] = missing;
}

void dosage_pair_scalar(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n, std::uint64_t counts[6]) {
  const std::uint64_t* het_a = a;
  const std::uint64_t* two_a = a + n;
  const std::uint64_t* mis_a = a + 2 * n;
  const std::uint64_t* het_b = b;
  const std::uint64_t* two_b = b + n;
  const std::uint64_t* mis_b = b + 2 * n;
  std::uint64_t sum[6] = {0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    sum[0] +=
        static_cast<std::uint64_t>(std::popcount(het_a[i] & het_b[i])) +
        2 * static_cast<std::uint64_t>(std::popcount(
                (het_a[i] & two_b[i]) | (two_a[i] & het_b[i]))) +
        4 * static_cast<std::uint64_t>(std::popcount(two_a[i] & two_b[i]));
    sum[1] += static_cast<std::uint64_t>(std::popcount(het_a[i] & mis_b[i]));
    sum[2] += static_cast<std::uint64_t>(std::popcount(two_a[i] & mis_b[i]));
    sum[3] += static_cast<std::uint64_t>(std::popcount(het_b[i] & mis_a[i]));
    sum[4] += static_cast<std::uint64_t>(std::popcount(two_b[i] & mis_a[i]));
    sum[5] += static_cast<std::uint64_t>(std::popcount(mis_a[i] & mis_b[i]));
  }
  for (int k = 0; k < 6; ++k) counts[k] = sum[k];
}

void chi_columns_scalar(const double* top, const double* bottom,
                        std::size_t n, double add_top, double add_bottom,
                        double row0, double row1, double* out) {
  const double grand = row0 + row1;
  for (std::size_t c = 0; c < n; ++c) {
    const double a = top[c] + add_top;
    const double b = bottom[c] + add_bottom;
    const double col0 = a + b;
    const double col1 = grand - col0;
    if (row0 <= 0.0 || row1 <= 0.0 || col0 <= 0.0 || col1 <= 0.0) {
      out[c] = 0.0;
      continue;
    }
    const double cross = a * (row1 - b) - b * (row0 - a);
    out[c] = grand * cross * cross / (row0 * row1 * col0 * col1);
  }
}

double pearson_row_terms_scalar(const double* cells, const double* col_sums,
                                std::size_t n, double row_sum,
                                double total) {
  double sum = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    if (col_sums[c] <= 0.0) continue;
    const double expected = row_sum * col_sums[c] / total;
    const double diff = cells[c] - expected;
    sum += diff * diff / expected;
  }
  return sum;
}

void batch_chi_columns_scalar(const double* top, const double* bottom,
                              std::size_t cols, std::size_t reps,
                              const double* add_top, const double* add_bottom,
                              double row0, double row1, double* out) {
  if (add_top == nullptr && add_bottom == nullptr) {
    // Zero shifts make every column independent of its replicate, so
    // the whole slab is one flat column sweep.
    chi_columns_scalar(top, bottom, cols * reps, 0.0, 0.0, row0, row1, out);
    return;
  }
  for (std::size_t r = 0; r < reps; ++r) {
    chi_columns_scalar(top + r * cols, bottom + r * cols, cols,
                       add_top != nullptr ? add_top[r] : 0.0,
                       add_bottom != nullptr ? add_bottom[r] : 0.0, row0,
                       row1, out + r * cols);
  }
}

void batch_pearson_2xn_scalar(const double* top, const double* bottom,
                              const double* col_sums, std::size_t cols,
                              std::size_t reps, double row0_sum,
                              double row1_sum, double total, double* out) {
  for (std::size_t r = 0; r < reps; ++r) {
    double statistic = 0.0;
    if (row0_sum > 0.0) {
      statistic += pearson_row_terms_scalar(top + r * cols, col_sums, cols,
                                            row0_sum, total);
    }
    if (row1_sum > 0.0) {
      statistic += pearson_row_terms_scalar(bottom + r * cols, col_sums,
                                            cols, row1_sum, total);
    }
    out[r] = statistic;
  }
}

}  // namespace

const SimdKernels& scalar_kernels() {
  static constexpr SimdKernels kTable{
      &combine_planes_count_scalar, &plane_counts_scalar,
      &dosage_pair_scalar,          &chi_columns_scalar,
      &pearson_row_terms_scalar,    &batch_chi_columns_scalar,
      &batch_pearson_2xn_scalar,
  };
  return kTable;
}

}  // namespace detail

namespace {

bool cpu_has(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if defined(LDGA_SIMD_AVX2)
      return __builtin_cpu_supports("avx2") > 0;
#else
      return false;
#endif
    case SimdLevel::kAvx512:
#if defined(LDGA_SIMD_AVX512)
      // The AVX-512 kernels use foundation + byte/word + vector-length
      // + vpopcntdq instructions; require the full set.
      return __builtin_cpu_supports("avx512f") > 0 &&
             __builtin_cpu_supports("avx512bw") > 0 &&
             __builtin_cpu_supports("avx512vl") > 0 &&
             __builtin_cpu_supports("avx512vpopcntdq") > 0;
#else
      return false;
#endif
    case SimdLevel::kNeon:
#if defined(LDGA_SIMD_NEON)
      return true;  // baseline on aarch64
#else
      return false;
#endif
  }
  return false;
}

#if defined(LDGA_SIMD_AVX512)
/// The table dispatched at the kAvx512 level. Integer kernels use the
/// full 512-bit variants — their sweeps are long and the vpopcntq win
/// (>20x) dwarfs any license cost. The floating-point kernels (CLUMP's
/// column scans and Pearson sums, per table and replicate-batched) have
/// no 512-bit bodies and take the AVX2 table's: the evaluator calls
/// them in short bursts between scalar code, and heavy 512-bit FP
/// instructions move Skylake-class cores into a lower frequency license
/// that slows all the surrounding scalar work — measured as a net e2e
/// regression, while the 256-bit path is a net win. Taking the
/// per-table and batch entries from one table is also what keeps
/// batch_pearson_2xn's per-replicate delegation bit-identical to the
/// dispatched pearson_row_terms at this level. A build without AVX2
/// falls back to the scalar FP entries, so no entry is ever null.
const SimdKernels& avx512_dispatch_kernels() {
  static const SimdKernels table = [] {
    SimdKernels merged = detail::avx512_kernels();
#if defined(LDGA_SIMD_AVX2)
    const SimdKernels& fp = detail::avx2_kernels();
#else
    const SimdKernels& fp = detail::scalar_kernels();
#endif
    merged.chi_columns = fp.chi_columns;
    merged.pearson_row_terms = fp.pearson_row_terms;
    merged.batch_chi_columns = fp.batch_chi_columns;
    merged.batch_pearson_2xn = fp.batch_pearson_2xn;
    return merged;
  }();
  return table;
}
#endif

const SimdKernels* table_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return &detail::scalar_kernels();
    case SimdLevel::kAvx2:
#if defined(LDGA_SIMD_AVX2)
      return &detail::avx2_kernels();
#else
      return nullptr;
#endif
    case SimdLevel::kAvx512:
#if defined(LDGA_SIMD_AVX512)
      return &avx512_dispatch_kernels();
#else
      return nullptr;
#endif
    case SimdLevel::kNeon:
#if defined(LDGA_SIMD_NEON)
      return &detail::neon_kernels();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

SimdLevel detect_level() {
#if defined(LDGA_SIMD_NEON)
  return cpu_has(SimdLevel::kNeon) ? SimdLevel::kNeon : SimdLevel::kScalar;
#else
  if (cpu_has(SimdLevel::kAvx512)) return SimdLevel::kAvx512;
  if (cpu_has(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
  return SimdLevel::kScalar;
#endif
}

/// The LDGA_SIMD override, resolved against the detected level exactly
/// once (first use). Unknown names are ignored and overrides above the
/// detected level clamp down, each with a one-time stderr note so a
/// typo in a CI matrix leg is visible instead of silently running the
/// default level.
SimdLevel env_level() {
  static const SimdLevel resolved = [] {
    const SimdLevel detected = detect_level();
    const char* env = std::getenv("LDGA_SIMD");
    if (env == nullptr || *env == '\0') return detected;
    const auto requested = simd_level_from_name(env);
    if (!requested.has_value()) {
      std::fprintf(stderr,
                   "ldga: ignoring unknown LDGA_SIMD=\"%s\" (expected "
                   "scalar|avx2|avx512|neon); using %s\n",
                   env, simd_level_name(detected));
      return detected;
    }
    if (!cpu_has(*requested) || table_for(*requested) == nullptr) {
      std::fprintf(stderr,
                   "ldga: LDGA_SIMD=%s not available on this host; "
                   "clamping to %s\n",
                   simd_level_name(*requested), simd_level_name(detected));
      return detected;
    }
    return *requested;
  }();
  return resolved;
}

/// Test-only override slot. Atomic so a forced level published before
/// worker threads start is read race-free by them.
std::atomic<const SimdKernels*>& forced_table() {
  static std::atomic<const SimdKernels*> slot{nullptr};
  return slot;
}

std::atomic<SimdLevel>& forced_level() {
  static std::atomic<SimdLevel> slot{SimdLevel::kScalar};
  return slot;
}

}  // namespace

SimdLevel simd_detected_level() {
  static const SimdLevel level = detect_level();
  return level;
}

SimdLevel simd_level() {
  if (forced_table().load(std::memory_order_acquire) != nullptr) {
    return forced_level().load(std::memory_order_acquire);
  }
  return env_level();
}

const SimdKernels& simd() {
  const SimdKernels* forced = forced_table().load(std::memory_order_acquire);
  if (forced != nullptr) return *forced;
  static const SimdKernels* const table = table_for(env_level());
  return *table;
}

std::vector<SimdLevel> simd_available_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  for (const SimdLevel level :
       {SimdLevel::kAvx2, SimdLevel::kAvx512, SimdLevel::kNeon}) {
    if (cpu_has(level) && table_for(level) != nullptr) {
      levels.push_back(level);
    }
  }
  return levels;
}

void simd_force_level(std::optional<SimdLevel> level) {
  if (!level.has_value()) {
    forced_table().store(nullptr, std::memory_order_release);
    return;
  }
  const SimdKernels* table =
      cpu_has(*level) ? table_for(*level) : nullptr;
  if (table == nullptr) {
    throw ConfigError(std::string("simd_force_level: level ") +
                      simd_level_name(*level) +
                      " is not available on this host");
  }
  forced_level().store(*level, std::memory_order_release);
  forced_table().store(table, std::memory_order_release);
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "unknown";
}

std::optional<SimdLevel> simd_level_from_name(std::string_view name) {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "avx2") return SimdLevel::kAvx2;
  if (name == "avx512") return SimdLevel::kAvx512;
  if (name == "neon") return SimdLevel::kNeon;
  return std::nullopt;
}

const SimdKernels& simd_kernels_for(SimdLevel level) {
  const SimdKernels* table = cpu_has(level) ? table_for(level) : nullptr;
  if (table == nullptr) {
    throw ConfigError(std::string("simd_kernels_for: level ") +
                      simd_level_name(level) +
                      " is not available on this host");
  }
  return *table;
}

}  // namespace ldga::util
