// Production EH-DIALL and CLUMP Monte-Carlo timings.
//
// The compiled EM kernel is the only EM in the library; the dense
// visitor-based reference it is held to bit for bit lives in
// tests/support and is pinned by the EmKernel and PackedGenotype tests,
// so nothing here compares against it. Sections, each echoed to stdout
// and recorded in BENCH_em_kernel.json:
//   1. EH-DIALL — three EM runs per candidate for 20 random 6- and
//      10-locus candidates, analyzed as one batch (the evaluator's
//      dispatch shape) on the scalar kernel and on the vector kernels
//      with same-shape lockstep batching (EvaluatorConfig::simd_kernels
//      off / on);
//   2. Monte Carlo — CLUMP replicate wall time by worker count, with
//      the worker-invariance of the p-values asserted.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_context.hpp"
#include "genomics/synthetic.hpp"
#include "stats/clump.hpp"
#include "stats/eh_diall.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace ldga;

// EM-dominated workload: a mid-size cohort where 6-locus candidates
// produce rich pattern tables (many het loci => wide phase fans).
const genomics::SyntheticDataset& cohort() {
  static const auto synthetic = [] {
    genomics::SyntheticConfig config;
    config.snp_count = 60;
    config.affected_count = 300;
    config.unaffected_count = 300;
    config.unknown_count = 0;
    config.active_snp_count = 4;
    Rng rng(2004);
    return genomics::generate_synthetic(config, rng);
  }();
  return synthetic;
}

std::vector<std::vector<genomics::SnpIndex>> candidates(std::uint32_t count,
                                                        std::uint32_t size,
                                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<genomics::SnpIndex>> result;
  result.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    result.push_back(rng.sample_without_replacement(
        cohort().dataset.genotypes().snp_count(), size));
  }
  return result;
}

/// Best-of-5 wall time of one analyze_batch over `sets` (this box may
/// be a single shared core).
double batch_ms(const stats::EhDiall& eh,
                const std::vector<std::vector<genomics::SnpIndex>>& sets) {
  stats::EvalScratch scratch;
  std::vector<stats::EhDiallResult> results(sets.size());
  std::vector<std::string> errors(sets.size());
  double best = 1e300;
  for (std::uint32_t rep = 0; rep < 5; ++rep) {
    Stopwatch watch;
    eh.analyze_batch(sets, scratch, results, errors);
    best = std::min(best, watch.elapsed_ms());
    benchmark::DoNotOptimize(results.front().lrt);
  }
  return best;
}

void report_eh_diall(std::FILE* json) {
  const stats::EhDiall scalar(cohort().dataset, {}, /*simd_kernels=*/false);
  const stats::EhDiall vector(cohort().dataset, {}, /*simd_kernels=*/true);
  for (const std::uint32_t size : {6u, 10u}) {
    const auto sets = candidates(20, size, 42);
    const double scalar_ms = batch_ms(scalar, sets);
    const double simd_ms = batch_ms(vector, sets);
    std::printf("EH-DIALL (3 EM runs), %zu %u-locus candidates: scalar "
                "%.1f ms, simd batched %.1f ms (level %s) — %.2fx\n",
                sets.size(), size, scalar_ms, simd_ms,
                util::simd_level_name(util::simd_level()),
                scalar_ms / simd_ms);
    std::fprintf(json,
                 "  \"em_scalar_ms_k%u\": %.3f,\n"
                 "  \"em_simd_ms_k%u\": %.3f,\n"
                 "  \"em_simd_speedup_k%u\": %.3f,\n",
                 size, scalar_ms, size, simd_ms, size, scalar_ms / simd_ms);
  }
}

void report_monte_carlo(std::FILE* json) {
  const stats::EhDiall eh(cohort().dataset);
  const auto snps = candidates(1, 6, 44).front();
  const auto table = eh.analyze(snps).to_contingency_table();

  std::fprintf(json, "  \"monte_carlo_ms_by_workers\": {");
  double p1 = -1.0;
  bool first = true;
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    stats::ClumpConfig config;
    config.monte_carlo_trials = 400;
    config.monte_carlo_workers = workers;
    const stats::Clump clump(config);
    Rng rng(2026);
    Stopwatch watch;
    const auto result = clump.analyze(table, rng);
    const double ms = watch.elapsed_ms();
    const double p = *result.t4.p_monte_carlo;
    if (p1 < 0.0) {
      p1 = p;
    } else if (p != p1) {
      std::fprintf(stderr,
                   "FATAL: Monte-Carlo p-value depends on worker count\n");
      std::exit(1);
    }
    std::printf("CLUMP Monte Carlo, 400 trials, %u worker(s): %.1f ms "
                "(T4 p = %.4f)\n",
                workers, ms, p);
    std::fprintf(json, "%s\"%u\": %.3f", first ? "" : ", ", workers, ms);
    first = false;
  }
  std::fprintf(json, "}\n");
}

}  // namespace

int main() {
  std::printf("=== EH-DIALL and CLUMP Monte Carlo ===\n\n");
  std::FILE* json = std::fopen("BENCH_em_kernel.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_em_kernel.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  ldga::bench::write_machine_context(json);
  std::fprintf(
      json,
      "  \"workload\": \"60 SNPs, 300+300 individuals, 20 random 6- and "
      "10-locus candidates\",\n");
  report_eh_diall(json);
  report_monte_carlo(json);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_em_kernel.json\n");
  return 0;
}
