// Runtime-dispatched SIMD kernels for the evaluation hot path.
//
// One function-pointer table (SimdKernels) per instruction-set level,
// resolved once at startup from CPUID (and the LDGA_SIMD environment
// override) so every call site stays a plain indirect call — no ifdef
// forests at the call sites, no illegal-instruction risk on older
// hosts. The variants are compiled as separate translation units with
// per-file ISA flags (see src/util/CMakeLists.txt), so the rest of the
// codebase keeps the portable baseline flags.
//
// Determinism contract (docs/algorithms.md §12):
//   * Integer kernels (popcount_words, combine_planes, plane_counts)
//     are bit-exact by construction at every level; they are always on.
//   * Floating-point kernels (chi_columns, pearson_row_terms) are
//     CLUMP's: they use a fixed lane order, so for a fixed dispatch
//     level the result is deterministic run-to-run and across worker
//     counts — but the last-ulp rounding differs from the scalar
//     reference. Callers gate them behind EvaluatorConfig::simd_kernels
//     and keep the scalar path as the bit-exact reference (pin
//     LDGA_SIMD=scalar to reproduce it). EM has no vector kernel: its
//     compiled scalar loop is the only E-step.
//   * Batch kernels (batch_chi_columns, batch_pearson_2xn) vectorize
//     across independent Monte-Carlo replicates instead of along one
//     short row; each replicate is bit-identical to the per-table
//     kernel path at the same level, so batching is purely a
//     throughput decision.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace ldga::util {

/// Instruction-set levels in strictly increasing capability order per
/// architecture. kNeon is the aarch64 baseline; the x86 levels never
/// coexist with it in one binary.
enum class SimdLevel : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
  kNeon = 3,
};

/// The kernel table. Each entry is total (handles n == 0 and arbitrary
/// tails); pointers are never null once a table is published.
struct SimdKernels {
  /// Σ popcount(words[0..n)).
  std::uint64_t (*popcount_words)(const std::uint64_t* words, std::size_t n);

  /// out[i] = parent[i] & (lo[i] ^ flip_lo) & (hi[i] ^ flip_hi) for
  /// i in [0, n); returns the OR of all out words (the DFS pruning
  /// signal). flip_lo / flip_hi must be 0 or ~0: the four combinations
  /// select the four genotype classes of the 2-bit plane encoding
  /// (HomOne ~lo&~hi, Het lo&~hi, HomTwo ~lo&hi, Missing lo&hi).
  std::uint64_t (*combine_planes)(const std::uint64_t* parent,
                                  const std::uint64_t* lo,
                                  const std::uint64_t* hi,
                                  std::uint64_t flip_lo,
                                  std::uint64_t flip_hi, std::size_t n,
                                  std::uint64_t* out);

  /// combine_planes fused with the popcount of the result: writes the
  /// same out words and returns Σ popcount(out) instead of the OR. The
  /// DFS runs on this one — the count doubles as the pruning signal
  /// (count != 0 ⟺ non-empty) and, on the last level, as the leaf's
  /// pattern count, replacing the separate popcount_words sweep.
  std::uint64_t (*combine_planes_count)(const std::uint64_t* parent,
                                        const std::uint64_t* lo,
                                        const std::uint64_t* hi,
                                        std::uint64_t flip_lo,
                                        std::uint64_t flip_hi, std::size_t n,
                                        std::uint64_t* out);

  /// One fused pass over both planes: counts[0] += het (lo & ~hi),
  /// counts[1] += hom_two (hi & ~lo), counts[2] += missing (lo & hi).
  /// Counts are written, not accumulated.
  void (*plane_counts)(const std::uint64_t* lo, const std::uint64_t* hi,
                       std::size_t n, std::uint64_t counts[3]);

  /// CLUMP 2×2 column scan: for each column c, the chi-square of the
  /// split whose first column has cells (top[c] + add_top,
  /// bottom[c] + add_bottom) against the rest of a table with row
  /// totals (row0, row1). Zero when any marginal of the split is
  /// non-positive. Writes out[c]; per-column values are independent.
  void (*chi_columns)(const double* top, const double* bottom, std::size_t n,
                      double add_top, double add_bottom, double row0,
                      double row1, double* out);

  /// One row's Pearson terms: Σ over c with col_sums[c] > 0 of
  /// (cells[c] − e)² / e where e = row_sum * col_sums[c] / total,
  /// in fixed lane order. Caller guarantees row_sum > 0 and total > 0.
  double (*pearson_row_terms)(const double* cells, const double* col_sums,
                              std::size_t n, double row_sum, double total);

  // -----------------------------------------------------------------
  // Replicate-batched kernels. The per-table FP kernels above
  // vectorize along a row that is often shorter than a few vector
  // registers; these variants sweep a whole slab of independent
  // Monte-Carlo replicates per call instead. Contract: every replicate
  // r is bit-identical to what the per-table code path produces for r
  // alone at the same dispatch level, so batching is a pure scheduling
  // decision — it never changes a statistic.
  // -----------------------------------------------------------------

  /// chi_columns over a replicate-major slab of `reps` Monte-Carlo
  /// tables: replicate r reads top/bottom [r*cols, (r+1)*cols) and
  /// writes out over the same range. add_top / add_bottom give one
  /// shift pair per replicate; nullptr means all-zero shifts, which
  /// the scalar variant exploits by fusing the slab into one flat
  /// reps*cols sweep (uniform per-column math, so fusing is exact).
  /// Vector variants keep per-replicate sweeps: a column must land in
  /// the same vector-body or scalar-tail position as in a standalone
  /// chi_columns call for the replicate to stay bit-identical to the
  /// per-candidate scan.
  void (*batch_chi_columns)(const double* top, const double* bottom,
                            std::size_t cols, std::size_t reps,
                            const double* add_top, const double* add_bottom,
                            double row0, double row1, double* out);

  /// Pearson statistic of every replicate of a 2×cols slab pair with
  /// shared (hoisted) marginals: out[r] = the top replicate's row terms
  /// (skipped when row0_sum <= 0) plus the bottom replicate's (skipped
  /// when row1_sum <= 0), each accumulated by this level's
  /// pearson_row_terms — bit-identical per replicate to
  /// ContingencyTable::pearson_chi_square's kernel loop.
  void (*batch_pearson_2xn)(const double* top, const double* bottom,
                            const double* col_sums, std::size_t cols,
                            std::size_t reps, double row0_sum,
                            double row1_sum, double total, double* out);
};

/// Best level this binary supports on this CPU (build-time variant
/// availability AND runtime CPUID). Ignores LDGA_SIMD.
SimdLevel simd_detected_level();

/// The active dispatch level: the detected level, lowered by the
/// LDGA_SIMD environment variable (scalar|avx2|avx512|neon) if set.
/// An override above the detected level is clamped down (with a
/// one-time stderr note), so LDGA_SIMD=avx512 on an AVX2-only host
/// runs AVX2, and unknown values are ignored.
SimdLevel simd_level();

/// The kernel table for the active level. The pointer target is stable
/// between calls unless simd_force_level intervenes; hot loops may
/// hoist `const auto& k = simd();`.
const SimdKernels& simd();

/// Every level runnable on this host, ascending (always starts with
/// kScalar). Tests iterate this to cover each dispatch variant.
std::vector<SimdLevel> simd_available_levels();

/// Test-only: pin the active level (must be detected-or-lower, else
/// throws ConfigError). Not synchronized with concurrent kernel use —
/// force before spawning workers. Pass std::nullopt to restore the
/// environment-derived default.
void simd_force_level(std::optional<SimdLevel> level);

const char* simd_level_name(SimdLevel level);
std::optional<SimdLevel> simd_level_from_name(std::string_view name);

/// Per-level tables, for equivalence tests and microbenchmarks that
/// compare variants side by side. Throws ConfigError if the level is
/// not available on this host.
const SimdKernels& simd_kernels_for(SimdLevel level);

}  // namespace ldga::util
