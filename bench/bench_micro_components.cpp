// Micro-benchmarks of the pipeline's moving parts (the DESIGN.md
// design-choice ablation): packed genotype-pattern enumeration and
// compiled EM haplotype estimation by size, CLUMP statistics, two-locus
// LD, the thread pool's balance on a Figure-4-skewed batch, the GA's
// variation operators, and the CRC-32 that verifies every store and
// checkpoint read back from disk. These identify where the Figure-4
// exponential cost actually lives.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ga/operators.hpp"
#include "genomics/ld.hpp"
#include "genomics/packed_genotype.hpp"
#include "genomics/synthetic.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/clump.hpp"
#include "stats/eh_diall.hpp"
#include "stats/em_haplotype.hpp"
#include "stats/em_kernel.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace {

using namespace ldga;

const genomics::SyntheticDataset& cohort() {
  static const auto synthetic = [] {
    genomics::SyntheticConfig config;
    config.snp_count = 51;
    config.affected_count = 53;
    config.unaffected_count = 53;
    config.unknown_count = 0;
    Rng rng(99);
    return genomics::generate_synthetic(config, rng);
  }();
  return synthetic;
}

const genomics::PackedGenotypeMatrix& packed() {
  static const genomics::PackedGenotypeMatrix matrix(
      cohort().dataset.genotypes());
  return matrix;
}

void BM_GenotypePatternBuild(benchmark::State& state) {
  const auto size = static_cast<std::uint32_t>(state.range(0));
  Rng rng(size);
  const auto snps = rng.sample_without_replacement(51, size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::GenotypePatternTable::build_packed(packed(), snps));
  }
}
BENCHMARK(BM_GenotypePatternBuild)->DenseRange(2, 7, 1);

void BM_EmEstimation(benchmark::State& state) {
  const auto size = static_cast<std::uint32_t>(state.range(0));
  Rng rng(size * 3);
  const auto snps = rng.sample_without_replacement(51, size);
  const auto program = stats::EmProgram::compile(
      stats::GenotypePatternTable::build_packed(packed(), snps));
  stats::EmKernelScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::run_em_program(program, {}, scratch));
  }
}
BENCHMARK(BM_EmEstimation)->DenseRange(2, 7, 1)->Unit(benchmark::kMicrosecond);

void BM_ClumpT1(benchmark::State& state) {
  const auto size = static_cast<std::uint32_t>(state.range(0));
  Rng rng(size * 7);
  const auto snps = rng.sample_without_replacement(51, size);
  const stats::EhDiall eh(cohort().dataset);
  const auto table = eh.analyze(snps).to_contingency_table();
  const stats::Clump clump;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clump.t1(table));
  }
}
BENCHMARK(BM_ClumpT1)->DenseRange(2, 7, 1);

void BM_ClumpFullAnalysis(benchmark::State& state) {
  const auto size = static_cast<std::uint32_t>(state.range(0));
  Rng rng(size * 11);
  const auto snps = rng.sample_without_replacement(51, size);
  const stats::EhDiall eh(cohort().dataset);
  const auto table = eh.analyze(snps).to_contingency_table();
  const stats::Clump clump;
  for (auto _ : state) {
    Rng mc(1);
    benchmark::DoNotOptimize(clump.analyze(table, mc));
  }
}
BENCHMARK(BM_ClumpFullAnalysis)
    ->DenseRange(2, 6, 2)
    ->Unit(benchmark::kMicrosecond);

// The Monte-Carlo arm of the full analysis: 1,200 replicates inline on
// the calling thread, so the time is dealing and scoring the null
// tables. Each replicate draws the bottom row's positions only:
// `draws_per_rep` is the bottom row's rounded total, of `labels` = N
// rounded observations (a full shuffle would draw N − 1).
void BM_ClumpMonteCarlo(benchmark::State& state) {
  const auto size = static_cast<std::uint32_t>(state.range(0));
  Rng rng(size * 11);
  const auto snps = rng.sample_without_replacement(51, size);
  const stats::EhDiall eh(cohort().dataset);
  const auto table = eh.analyze(snps).to_contingency_table();
  stats::ClumpConfig config;
  config.monte_carlo_trials = 1200;
  config.monte_carlo_workers = 1;
  const stats::Clump clump(config);
  for (auto _ : state) {
    Rng mc(1);
    benchmark::DoNotOptimize(clump.analyze(table, mc));
  }
  const auto q0 = std::llround(table.row_total(0));
  const auto q1 = std::llround(table.row_total(1));
  state.counters["labels"] = static_cast<double>(q0 + q1);
  state.counters["draws_per_rep"] = static_cast<double>(q1);
  state.counters["time_per_rep"] = benchmark::Counter(
      1200.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ClumpMonteCarlo)
    ->DenseRange(2, 6, 1)
    ->Unit(benchmark::kMicrosecond);

// The thread pool's load balance on a generation-shaped batch: four
// workers (the caller among them) run 128 indices, each spinning for
// the Figure-4 evaluation time of a haplotype size drawn once, with a
// fixed seed, uniformly from the GA's sizes 2–6 (EXPERIMENTS.md: 7.5 µs
// at size 2 to 473 µs at size 6). `balance` is Σ per-index busy time /
// (4 × wall): 1 when no worker idles while another still has work.
// Read it on a host with at least four cores.
void BM_ParallelForSkewed(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  constexpr std::uint32_t kWorkers = 4;
  constexpr std::size_t kIndices = 128;
  constexpr double kFig4Us[] = {7.5, 21.0, 64.0, 182.0, 473.0};
  Rng rng(25);
  std::vector<Clock::duration> cost(kIndices);
  for (auto& c : cost) {
    c = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::micro>(kFig4Us[rng.below(5)]));
  }
  const auto pool = parallel::make_worker_pool(kWorkers);
  std::vector<Clock::duration> busy(kIndices);
  Clock::duration busy_total{0}, wall_total{0};
  for (auto _ : state) {
    const auto start = Clock::now();
    parallel::parallel_for(pool.get(), 0, kIndices, [&](std::size_t i) {
      const auto begin = Clock::now();
      auto now = begin;
      while (now - begin < cost[i]) now = Clock::now();
      busy[i] = now - begin;
    });
    wall_total += Clock::now() - start;
    for (const auto b : busy) busy_total += b;
    benchmark::DoNotOptimize(busy.data());
  }
  state.counters["balance"] =
      std::chrono::duration<double>(busy_total).count() /
      (kWorkers * std::chrono::duration<double>(wall_total).count());
}
BENCHMARK(BM_ParallelForSkewed)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_PairLd(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(genomics::estimate_pair_haplotypes(
        cohort().dataset.genotypes(), 3, 27));
  }
}
BENCHMARK(BM_PairLd);

void BM_SnpMutationTrials(benchmark::State& state) {
  const ga::FeasibilityFilter filter;
  ga::OperatorConfig config;
  config.snp_count = 51;
  const ga::VariationOperators ops(config, filter);
  Rng rng(1);
  const auto parent = ga::HaplotypeIndividual::random(51, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.snp_mutation_trials(parent, rng));
  }
}
BENCHMARK(BM_SnpMutationTrials);

void BM_UniformCrossover(benchmark::State& state) {
  const ga::FeasibilityFilter filter;
  ga::OperatorConfig config;
  config.snp_count = 51;
  const ga::VariationOperators ops(config, filter);
  Rng rng(2);
  const auto pa = ga::HaplotypeIndividual::random(51, 4, rng);
  const auto pb = ga::HaplotypeIndividual::random(51, 6, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.uniform_crossover(pa, pb, rng));
  }
}
BENCHMARK(BM_UniformCrossover);

// CRC-32 throughput over random bytes: 4 KiB is a checkpoint-sized
// buffer, 16 MiB a genome-scale store's payload (bytes_per_second is
// the GB/s a store open verifies at).
void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(state.range(0)));
  Rng rng(30);
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(16 << 20);

}  // namespace

BENCHMARK_MAIN();
