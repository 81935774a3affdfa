// End-to-end GA wall time of the evaluation pipeline.
//
// A seed-pinned full GA run on an EM-dominated Monte-Carlo workload
// (60 SNPs, 300+300 individuals, up to 6-locus candidates, T3 fitness
// with CLUMP Monte-Carlo p-values), three ways:
//   1. baseline — fixed-replicate Monte Carlo with the SIMD dispatch
//      pinned to the scalar kernels;
//   2. no-simd  — early-stopping Monte Carlo at the scalar level;
//   3. simd     — the default configuration: early-stopping Monte
//      Carlo at the host's native dispatch level (CLUMP's vector
//      kernels; EM is the scalar compiled kernel at every level).
// ga_speedup = 1 / 3 is the headline against the default configuration
// (acceptance 2x, CI floor 1.5x); ga_simd_speedup = 2 / 3 is what the
// vector CLUMP kernels buy end to end (CI floor 1.0x). Statistics of
// the legs agree to ~1e-9.
//
// Gate: every reported best individual of every leg is re-scored, at
// that leg's dispatch level, on a fresh evaluator of the same
// configuration and must reproduce its fitness bit for bit, whatever
// batch and worker it was scored in during the run. The bench exits
// nonzero on a mismatch.
//
// Results land in BENCH_ga_e2e.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_context.hpp"
#include "ga/engine.hpp"
#include "genomics/synthetic.hpp"
#include "stats/evaluator.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace ldga;

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

/// The Monte-Carlo budget is large enough that the Hoeffding stopper
/// has real room (decisions at 64/128/... replicates), and the early
/// stop threshold sits where most candidates — strongly significant
/// ones near p ~ 0 and null ones with p spread over (0,1) — decide
/// within the first batches.
stats::EvaluatorConfig evaluator_config(bool early_stop) {
  stats::EvaluatorConfig config;
  config.fitness_statistic = stats::FitnessStatistic::T3;
  config.clump.monte_carlo_trials = 1200;
  config.clump.monte_carlo_workers = 1;
  if (early_stop) {
    config.clump.mc_early_stop = true;
    config.clump.mc_min_batch = 64;
    config.clump.mc_significance = 0.3;
  }
  return config;
}

ga::GaConfig ga_config() {
  ga::GaConfig config;
  config.min_size = 2;
  config.max_size = 6;
  config.population_size = 36;
  config.min_subpopulation = 6;
  config.crossovers_per_generation = 8;
  config.mutations_per_generation = 12;
  config.stagnation_generations = 100;  // run the full generation budget
  config.random_immigrant_stagnation = 5;
  config.max_generations = 10;
  config.seed = 77;
  return config;
}

/// One leg: an evaluator configuration run at one dispatch level.
struct Leg {
  const char* name;
  stats::EvaluatorConfig config;
  util::SimdLevel level;
};

struct TimedRun {
  ga::GaResult result;
  double ms = 0.0;
};

TimedRun run_ga(const Leg& leg) {
  util::simd_force_level(leg.level);
  const stats::HaplotypeEvaluator evaluator(cohort().dataset, leg.config);
  ga::GaEngine engine(evaluator, ga_config());
  Stopwatch watch;
  TimedRun timed;
  timed.result = engine.run();
  timed.ms = watch.elapsed_ms();
  util::simd_force_level(std::nullopt);
  return timed;
}

/// Re-scores every reported best on a fresh evaluator at the leg's
/// level; returns how many were checked. A fitness that depends on its
/// batch is a bug.
std::size_t gate_rescore(const Leg& leg, const ga::GaResult& result) {
  util::simd_force_level(leg.level);
  for (const auto& best : result.best_by_size) {
    const stats::HaplotypeEvaluator fresh(cohort().dataset, leg.config);
    const double rescored = fresh.fitness(best.snps());
    if (rescored != best.fitness()) {
      std::fprintf(stderr,
                   "FATAL: %s leg best %s re-scored to %.17g, reported "
                   "%.17g\n",
                   leg.name, best.to_string().c_str(), rescored,
                   best.fitness());
      std::exit(1);
    }
  }
  util::simd_force_level(std::nullopt);
  return result.best_by_size.size();
}

double median_ms(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double rate(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) /
                                static_cast<double>(whole);
}

}  // namespace

int main() {
  std::printf("=== End-to-end GA: evaluation pipeline ===\n\n");

  const util::SimdLevel native = util::simd_level();
  const Leg baseline_leg{"baseline", evaluator_config(false),
                         util::SimdLevel::kScalar};
  const Leg nosimd_leg{"no-simd", evaluator_config(true),
                       util::SimdLevel::kScalar};
  const Leg simd_leg{"simd", evaluator_config(true), native};

  const TimedRun baseline = run_ga(baseline_leg);
  std::printf("baseline (scalar, fixed MC): %.1f ms, %llu evaluations\n",
              baseline.ms,
              static_cast<unsigned long long>(baseline.result.evaluations));

  // The simd comparison is the finest-grained one here, so a single
  // run each would be dominated by host jitter: interleave three runs
  // per leg and keep each leg's median, which cancels slow drift.
  std::vector<double> nosimd_samples, simd_samples;
  TimedRun nosimd, simd;
  for (int rep = 0; rep < 3; ++rep) {
    nosimd = run_ga(nosimd_leg);
    nosimd_samples.push_back(nosimd.ms);
    simd = run_ga(simd_leg);
    simd_samples.push_back(simd.ms);
  }
  nosimd.ms = median_ms(nosimd_samples);
  simd.ms = median_ms(simd_samples);

  const std::size_t rescored = gate_rescore(baseline_leg, baseline.result) +
                               gate_rescore(nosimd_leg, nosimd.result) +
                               gate_rescore(simd_leg, simd.result);
  std::printf("gate: %zu reported bests re-scored bit-for-bit on fresh "
              "evaluators\n",
              rescored);

  const double speedup = baseline.ms / simd.ms;
  const double simd_speedup = nosimd.ms / simd.ms;
  const auto& cache = simd.result.cache_stats;
  const std::uint64_t mc_total =
      simd.result.mc_replicates_run + simd.result.mc_replicates_saved;
  std::printf(
      "no-simd (scalar, early-stop MC): %.1f ms (median of 3)\n"
      "simd    (default, level %s):   %.1f ms — %.2fx vs baseline "
      "(acceptance 2x, floor 1.5x), %.2fx vs no-simd (floor 1x)\n"
      "  fitness cache: %.0f%% hit rate; Monte Carlo: %llu of %llu "
      "replicates run (%.0f%% saved)\n",
      nosimd.ms, util::simd_level_name(native), simd.ms, speedup,
      simd_speedup, 100.0 * rate(cache.hits, cache.hits + cache.misses),
      static_cast<unsigned long long>(simd.result.mc_replicates_run),
      static_cast<unsigned long long>(mc_total),
      100.0 * rate(simd.result.mc_replicates_saved, mc_total));

  std::FILE* json = std::fopen("BENCH_ga_e2e.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_ga_e2e.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  ldga::bench::write_machine_context(json);
  std::fprintf(
      json,
      "  \"workload\": \"60 SNPs, 300+300 individuals, 10-generation GA, "
      "T3 fitness, 1200 MC trials\",\n"
      "  \"ga_generations\": %u,\n"
      "  \"ga_evaluations\": %llu,\n"
      "  \"ga_baseline_ms\": %.3f,\n"
      "  \"ga_nosimd_ms\": %.3f,\n"
      "  \"ga_simd_ms\": %.3f,\n"
      "  \"ga_speedup\": %.3f,\n"
      "  \"ga_simd_speedup\": %.3f,\n"
      "  \"rescored_bests\": %zu,\n"
      "  \"fitness_cache_hit_rate\": %.4f,\n"
      "  \"mc_replicates_run\": %llu,\n"
      "  \"mc_replicates_saved\": %llu,\n"
      "  \"mc_saved_fraction\": %.4f\n"
      "}\n",
      baseline.result.generations,
      static_cast<unsigned long long>(baseline.result.evaluations),
      baseline.ms, nosimd.ms, simd.ms, speedup, simd_speedup, rescored,
      rate(cache.hits, cache.hits + cache.misses),
      static_cast<unsigned long long>(simd.result.mc_replicates_run),
      static_cast<unsigned long long>(simd.result.mc_replicates_saved),
      rate(simd.result.mc_replicates_saved, mc_total));
  std::fclose(json);
  std::printf("\nwrote BENCH_ga_e2e.json\n");
  if (speedup < 1.5) {
    std::fprintf(stderr, "WARNING: end-to-end speedup below the 1.5x floor\n");
  }
  if (simd_speedup < 1.0) {
    std::fprintf(stderr, "WARNING: simd e2e leg below the 1x floor\n");
  }
  return 0;
}
