// Bit-packed genotype kernels, timed.
//
// The evaluation pipeline packs unconditionally (DESIGN.md
// §"packed_kernel retirement"). The byte-scan reference the packed
// walk is held to lives in tests/support; PackedGenotype tests pin the
// bit-for-bit equivalence of counts and pattern tables. This bench
// times the production kernels only:
//   - per-locus genotype counting over the packed planes;
//   - the joint-pattern walk (the EM E-step's input), which scales with
//     words x patterns instead of individuals x loci;
//   - one full fitness evaluation on top of them.
#include <benchmark/benchmark.h>

#include <vector>

#include "genomics/packed_genotype.hpp"
#include "genomics/synthetic.hpp"
#include "stats/em_haplotype.hpp"
#include "stats/evaluator.hpp"
#include "util/rng.hpp"

namespace {

using namespace ldga;

// A cohort large enough that the word-level kernels have full words to
// chew on: 2000 individuals x 64 SNPs (the paper's cohorts are smaller;
// per-word costs are what the kernel changes).
const genomics::SyntheticDataset& big_cohort() {
  static const auto synthetic = [] {
    genomics::SyntheticConfig config;
    config.snp_count = 64;
    config.affected_count = 1000;
    config.unaffected_count = 1000;
    config.unknown_count = 0;
    config.active_snp_count = 3;
    Rng rng(1915);
    return genomics::generate_synthetic(config, rng);
  }();
  return synthetic;
}

void BM_LocusCountsPacked(benchmark::State& state) {
  const genomics::PackedGenotypeMatrix packed(big_cohort().dataset.genotypes());
  for (auto _ : state) {
    for (std::uint32_t s = 0; s < packed.snp_count(); ++s) {
      benchmark::DoNotOptimize(packed.locus_counts(s).allele_two());
    }
  }
}
BENCHMARK(BM_LocusCountsPacked);

void BM_PatternTablePacked(benchmark::State& state) {
  const genomics::PackedGenotypeMatrix packed(big_cohort().dataset.genotypes());
  const auto size = static_cast<std::uint32_t>(state.range(0));
  Rng rng(size);
  const auto snps = rng.sample_without_replacement(packed.snp_count(), size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::GenotypePatternTable::build_packed(packed, snps)
            .total_individuals());
  }
}
BENCHMARK(BM_PatternTablePacked)->Arg(2)->Arg(4)->Arg(6);

void BM_FitnessPipeline(benchmark::State& state) {
  const stats::HaplotypeEvaluator evaluator(big_cohort().dataset);
  Rng rng(7);
  const auto snps = rng.sample_without_replacement(64, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate_full(snps).fitness);
  }
}
BENCHMARK(BM_FitnessPipeline);

}  // namespace

BENCHMARK_MAIN();
