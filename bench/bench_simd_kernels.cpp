// Runtime-dispatched SIMD kernels, measured level by level.
//
// For every dispatch level available on this host (always at least
// scalar) the kernel families are timed on evaluation-shaped inputs,
// and the vector levels are compared against the scalar reference in
// the same binary:
//   1. dosage_pair     — the LD prefilter's fused pair kernel over two
//      loci's clean het / hom-two / missing planes (one call per SNP
//      pair of every window);
//   2. combine_planes_count — the fused DFS plane intersection +
//      popcount (the kernel every pattern-table build runs per node);
//   3. CLUMP           — chi_columns 2×2 scan + pearson_row_terms;
//   4. batched CLUMP   — batch_chi_columns + batch_pearson_2xn on one
//      replicate sub-batch: the shape the batched Monte-Carlo engine
//      dispatches, and the measurement the AVX-512 FP routing decision
//      (avx512 FP → avx2 bodies) was re-checked against.
// EM has no vector kernel (its scalar compiled loop is the only
// E-step), so there is no EM leg.
// Equivalence is asserted inline (integer kernels bit-exact, FP within
// 1e-9) — a fast wrong kernel aborts the bench.
//
// Results land in BENCH_simd_kernels.json with the machine context.
// Acceptance: dosage_pair and plane speedups >= 4x vs scalar on AVX2-or-
// better hosts. CI only checks the floor when the stored machine
// context matches the runner's (bench_context.hpp).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_context.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace ldga;

// Cohort-scale shapes: 600 individuals ≈ 10 words per plane is the
// repo's default workload, but kernel-dominated timing needs longer
// sweeps, so the word benches run on a 4096-word block (≈ 256k
// individuals) and the CLUMP bench on a wide table.
constexpr std::size_t kWords = 4096;
constexpr std::size_t kColumns = 512;
// Batched shape: one 64-replicate sub-batch of a 32-column table is
// what the batched CLUMP Monte-Carlo engine feeds the replicate
// kernels.
constexpr std::size_t kBatchCols = 32;
constexpr std::size_t kBatchReps = 64;

struct Inputs {
  std::vector<std::uint64_t> parent, lo, hi, out;
  /// Two loci's clean planes, het | hom_two | missing, kWords each.
  std::vector<std::uint64_t> locus_a, locus_b;
  std::vector<double> top, bottom, chi, cells, col_sums;
  std::vector<double> rep_top, rep_bottom, rep_out, rep_col_sums, rep_pearson;
};

Inputs make_inputs() {
  Rng rng(2004);
  Inputs in;
  in.parent.resize(kWords);
  in.lo.resize(kWords);
  in.hi.resize(kWords);
  in.out.resize(kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    in.parent[i] = rng();
    in.lo[i] = rng();
    in.hi[i] = rng();
  }
  // Clean planes from random 2-bit codes: het lo&~hi, hom_two ~lo&hi,
  // missing lo&hi — disjoint by construction.
  for (auto* locus : {&in.locus_a, &in.locus_b}) {
    locus->resize(3 * kWords);
    for (std::size_t i = 0; i < kWords; ++i) {
      const std::uint64_t lo = rng();
      const std::uint64_t hi = rng();
      (*locus)[i] = lo & ~hi;
      (*locus)[kWords + i] = hi & ~lo;
      (*locus)[2 * kWords + i] = lo & hi;
    }
  }
  in.top.resize(kColumns);
  in.bottom.resize(kColumns);
  in.chi.resize(kColumns);
  in.cells.resize(kColumns);
  in.col_sums.resize(kColumns);
  for (std::size_t c = 0; c < kColumns; ++c) {
    in.top[c] = 50.0 * rng.uniform();
    in.bottom[c] = 50.0 * rng.uniform();
    in.cells[c] = 40.0 * rng.uniform();
    in.col_sums[c] = in.cells[c] + 40.0 * rng.uniform();
  }
  in.rep_top.resize(kBatchReps * kBatchCols);
  in.rep_bottom.resize(kBatchReps * kBatchCols);
  in.rep_out.resize(kBatchReps * kBatchCols);
  in.rep_pearson.resize(kBatchReps);
  in.rep_col_sums.resize(kBatchCols);
  for (double& v : in.rep_top) v = 30.0 * rng.uniform();
  for (double& v : in.rep_bottom) v = 30.0 * rng.uniform();
  for (double& v : in.rep_col_sums) v = 10.0 + 20.0 * rng.uniform();
  return in;
}

double row_total(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum;
}

/// Median-of-5 wall time of `reps` kernel sweeps, in nanoseconds per
/// sweep. The accumulator keeps the calls observable.
template <typename Fn>
double time_ns(std::size_t reps, Fn&& fn) {
  std::vector<double> samples;
  for (int s = 0; s < 5; ++s) {
    Stopwatch watch;
    for (std::size_t r = 0; r < reps; ++r) fn();
    samples.push_back(watch.elapsed_seconds() * 1e9 /
                      static_cast<double>(reps));
  }
  std::sort(samples.begin(), samples.end());
  return samples[2];
}

volatile double g_sink = 0.0;

struct LevelTimes {
  double dosage_pair_ns = 0.0;
  double planes_ns = 0.0;
  double clump_ns = 0.0;
  double batch_clump_ns = 0.0;
};

LevelTimes run_level(const util::SimdKernels& kernels, const Inputs& in,
                     Inputs& mut) {
  LevelTimes t;
  t.dosage_pair_ns = time_ns(400, [&] {
    std::uint64_t counts[6];
    kernels.dosage_pair(in.locus_a.data(), in.locus_b.data(), kWords, counts);
    g_sink = g_sink + static_cast<double>(counts[0] + counts[5]);
  });
  t.planes_ns = time_ns(400, [&] {
    g_sink = g_sink + static_cast<double>(kernels.combine_planes_count(
        in.parent.data(), in.lo.data(), in.hi.data(), 0,
        ~std::uint64_t{0}, kWords, mut.out.data()));
  });
  const double row0 = row_total(in.top);
  const double row1 = row_total(in.bottom);
  const double total = row_total(in.cells) + row_total(in.col_sums);
  t.clump_ns = time_ns(400, [&] {
    kernels.chi_columns(in.top.data(), in.bottom.data(), kColumns, 0.0, 0.0,
                        row0, row1, mut.chi.data());
    g_sink = g_sink + kernels.pearson_row_terms(in.cells.data(), in.col_sums.data(),
                                        kColumns, row0, total);
  });
  const double brow0 = 40.0 * static_cast<double>(kBatchCols);
  const double brow1 = 37.5 * static_cast<double>(kBatchCols);
  const double btotal = row_total(in.rep_col_sums);
  t.batch_clump_ns = time_ns(400, [&] {
    kernels.batch_chi_columns(in.rep_top.data(), in.rep_bottom.data(),
                              kBatchCols, kBatchReps, nullptr, nullptr, brow0,
                              brow1, mut.rep_out.data());
    kernels.batch_pearson_2xn(in.rep_top.data(), in.rep_bottom.data(),
                              in.rep_col_sums.data(), kBatchCols, kBatchReps,
                              brow0, brow1, btotal, mut.rep_pearson.data());
    g_sink = g_sink + mut.rep_pearson[0];
  });
  return t;
}

void check_equivalence(const util::SimdKernels& scalar,
                       const util::SimdKernels& vec, const char* name,
                       const Inputs& in, Inputs& mut) {
  // Integer kernels: bit-exact.
  std::uint64_t pair_ref[6], pair_vec[6];
  scalar.dosage_pair(in.locus_a.data(), in.locus_b.data(), kWords, pair_ref);
  vec.dosage_pair(in.locus_a.data(), in.locus_b.data(), kWords, pair_vec);
  if (!std::equal(pair_ref, pair_ref + 6, pair_vec)) {
    std::fprintf(stderr, "FATAL: %s dosage_pair mismatch\n", name);
    std::exit(1);
  }
  std::vector<std::uint64_t> ref(kWords);
  const std::uint64_t count_ref = scalar.combine_planes_count(
      in.parent.data(), in.lo.data(), in.hi.data(), ~std::uint64_t{0}, 0,
      kWords, ref.data());
  const std::uint64_t count_vec = vec.combine_planes_count(
      in.parent.data(), in.lo.data(), in.hi.data(), ~std::uint64_t{0}, 0,
      kWords, mut.out.data());
  if (count_ref != count_vec || ref != mut.out) {
    std::fprintf(stderr, "FATAL: %s combine_planes_count mismatch\n", name);
    std::exit(1);
  }
  // FP kernels: 1e-9 relative.
  const double row0 = row_total(in.top);
  const double row1 = row_total(in.bottom);
  const double total = row_total(in.cells) + row_total(in.col_sums);
  std::vector<double> chi_ref(kColumns);
  scalar.chi_columns(in.top.data(), in.bottom.data(), kColumns, 0.0, 0.0,
                     row0, row1, chi_ref.data());
  vec.chi_columns(in.top.data(), in.bottom.data(), kColumns, 0.0, 0.0, row0,
                  row1, mut.chi.data());
  for (std::size_t c = 0; c < kColumns; ++c) {
    if (std::abs(chi_ref[c] - mut.chi[c]) >
        1e-9 * std::abs(chi_ref[c]) + 1e-300) {
      std::fprintf(stderr, "FATAL: %s chi_columns[%zu] drift\n", name, c);
      std::exit(1);
    }
  }
  const double pearson_ref = scalar.pearson_row_terms(
      in.cells.data(), in.col_sums.data(), kColumns, row0, total);
  const double pearson_vec = vec.pearson_row_terms(
      in.cells.data(), in.col_sums.data(), kColumns, row0, total);
  if (std::abs(pearson_ref - pearson_vec) > 1e-9 * std::abs(pearson_ref)) {
    std::fprintf(stderr, "FATAL: %s pearson_row_terms drift\n", name);
    std::exit(1);
  }
}

}  // namespace

int main() {
  std::printf("=== Runtime-dispatched SIMD kernels ===\n\n");
  const Inputs in = make_inputs();
  Inputs mut = in;

  const std::vector<util::SimdLevel> levels = util::simd_available_levels();
  const util::SimdKernels& scalar =
      util::simd_kernels_for(util::SimdLevel::kScalar);

  std::FILE* json = std::fopen("BENCH_simd_kernels.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_simd_kernels.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  ldga::bench::write_machine_context(json);
  std::fprintf(json,
               "  \"workload\": \"%zu-word planes (dosage_pair: two loci of "
               "3 clean planes each), %zu-column CLUMP scan; batched: %zu "
               "reps x %zu-column CLUMP\",\n",
               kWords, kColumns, kBatchReps, kBatchCols);

  LevelTimes scalar_times;
  double best_dosage_pair_speedup = 1.0;
  double best_planes_speedup = 1.0;
  double best_batch_clump_speedup = 1.0;
  std::string best_level = "scalar";
  for (const util::SimdLevel level : levels) {
    const util::SimdKernels& kernels = util::simd_kernels_for(level);
    const char* name = util::simd_level_name(level);
    if (level != util::SimdLevel::kScalar) {
      check_equivalence(scalar, kernels, name, in, mut);
    }
    const LevelTimes t = run_level(kernels, in, mut);
    if (level == util::SimdLevel::kScalar) scalar_times = t;
    const double dosage_pair_speedup =
        scalar_times.dosage_pair_ns / t.dosage_pair_ns;
    const double planes_speedup = scalar_times.planes_ns / t.planes_ns;
    if (level != util::SimdLevel::kScalar &&
        dosage_pair_speedup > best_dosage_pair_speedup) {
      best_dosage_pair_speedup = dosage_pair_speedup;
      best_planes_speedup = planes_speedup;
      best_batch_clump_speedup = scalar_times.batch_clump_ns / t.batch_clump_ns;
      best_level = name;
    }
    std::printf(
        "%-7s dosage_pair %7.0f ns (%5.2fx)  planes %7.0f ns (%5.2fx)  "
        "clump %7.0f ns (%5.2fx)  batch-clump %7.0f ns (%5.2fx)\n",
        name, t.dosage_pair_ns, dosage_pair_speedup, t.planes_ns,
        planes_speedup, t.clump_ns, scalar_times.clump_ns / t.clump_ns,
        t.batch_clump_ns, scalar_times.batch_clump_ns / t.batch_clump_ns);
    std::fprintf(json,
                 "  \"%s_dosage_pair_ns\": %.1f,\n"
                 "  \"%s_planes_ns\": %.1f,\n"
                 "  \"%s_clump_ns\": %.1f,\n"
                 "  \"%s_batch_clump_ns\": %.1f,\n",
                 name, t.dosage_pair_ns, name, t.planes_ns, name, t.clump_ns,
                 name, t.batch_clump_ns);
  }

  std::fprintf(json,
               "  \"best_vector_level\": \"%s\",\n"
               "  \"dosage_pair_speedup\": %.3f,\n"
               "  \"planes_speedup\": %.3f,\n"
               "  \"batch_clump_speedup\": %.3f\n"
               "}\n",
               best_level.c_str(), best_dosage_pair_speedup,
               best_planes_speedup, best_batch_clump_speedup);
  std::fclose(json);
  std::printf("\nwrote BENCH_simd_kernels.json (best vector level: %s)\n",
              best_level.c_str());
  if (levels.size() > 1 &&
      (best_dosage_pair_speedup < 4.0 || best_planes_speedup < 4.0)) {
    std::fprintf(stderr,
                 "WARNING: integer-kernel speedup below the 4x acceptance "
                 "floor\n");
  }
  return 0;
}
