// Runtime-dispatched SIMD kernels (util/simd.hpp): every vector level
// available on the host must reproduce the scalar reference — bit for
// bit for the integer kernels (which are always on) and to 1e-9 for
// the flag-gated floating-point kernels. Tail handling gets its own
// sweep: the cohort word counts the evaluator actually produces are
// rarely multiples of the vector width, and the per-word bit counts
// 0, 1, 63, 64 sit exactly on the carry edges of the nibble-LUT and
// vpopcnt paths.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "genomics/packed_genotype.hpp"
#include "genomics/synthetic.hpp"
#include "stats/em_kernel.hpp"
#include "stats/eval_scratch.hpp"
#include "stats/evaluator.hpp"
#include "support/reference_em.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ldga::util {
namespace {

/// Every level the host can run, always headed by scalar.
std::vector<SimdLevel> levels() { return simd_available_levels(); }

/// Word sizes straddling the 256- and 512-bit strides (4- and 8-word
/// blocks) plus the empty and single-word edges.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17, 31, 32, 33, 63, 64, 65, 67};

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) w = rng();
  return words;
}

/// Words whose popcounts sit on the edge cases 0, 1, 63, 64 — and a
/// 65-bit count split across two words.
std::vector<std::uint64_t> edge_words() {
  return {0,
          1,
          std::uint64_t{1} << 63,
          ~std::uint64_t{0},
          ~std::uint64_t{0} >> 1,
          ~(std::uint64_t{1} << 31),
          ~std::uint64_t{0},
          1};
}

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  const auto available = levels();
  ASSERT_FALSE(available.empty());
  EXPECT_EQ(available.front(), SimdLevel::kScalar);
  EXPECT_NE(simd().popcount_words, nullptr);
  EXPECT_NE(simd().combine_planes_count, nullptr);
}

TEST(SimdDispatch, ForceLevelRoundTrip) {
  for (const SimdLevel level : levels()) {
    simd_force_level(level);
    EXPECT_EQ(simd_level(), level);
    EXPECT_EQ(&simd(), &simd_kernels_for(level));
  }
  simd_force_level(std::nullopt);
  // Back on the environment-derived default (LDGA_SIMD may pin a level
  // below the detected one in the CI matrix), table and level agree.
  EXPECT_EQ(&simd(), &simd_kernels_for(simd_level()));
}

TEST(SimdDispatch, UnavailableLevelThrows) {
  const auto available = levels();
  for (const SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512,
                                SimdLevel::kNeon}) {
    bool have = false;
    for (const SimdLevel a : available) have = have || a == level;
    if (!have) {
      EXPECT_THROW(simd_force_level(level), ConfigError);
      EXPECT_THROW(simd_kernels_for(level), ConfigError);
    }
  }
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2,
                                SimdLevel::kAvx512, SimdLevel::kNeon}) {
    const auto parsed = simd_level_from_name(simd_level_name(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(simd_level_from_name("sse9").has_value());
}

TEST(SimdKernelsTest, PopcountTails) {
  const SimdKernels& scalar = simd_kernels_for(SimdLevel::kScalar);
  for (const SimdLevel level : levels()) {
    const SimdKernels& kernels = simd_kernels_for(level);
    for (const std::size_t n : kSizes) {
      const auto words = random_words(n, 11 + n);
      EXPECT_EQ(kernels.popcount_words(words.data(), n),
                scalar.popcount_words(words.data(), n))
          << simd_level_name(level) << " n=" << n;
    }
    const auto edges = edge_words();
    for (std::size_t n = 0; n <= edges.size(); ++n) {
      EXPECT_EQ(kernels.popcount_words(edges.data(), n),
                scalar.popcount_words(edges.data(), n))
          << simd_level_name(level) << " edge n=" << n;
    }
  }
}

TEST(SimdKernelsTest, CombinePlanesTails) {
  const SimdKernels& scalar = simd_kernels_for(SimdLevel::kScalar);
  constexpr std::uint64_t kKeep = 0;
  constexpr std::uint64_t kFlip = ~std::uint64_t{0};
  for (const SimdLevel level : levels()) {
    const SimdKernels& kernels = simd_kernels_for(level);
    for (const std::size_t n : kSizes) {
      const auto parent = random_words(n, 3 * n + 1);
      const auto lo = random_words(n, 3 * n + 2);
      const auto hi = random_words(n, 3 * n + 3);
      std::vector<std::uint64_t> out_ref(n), out_vec(n);
      for (const std::uint64_t fl : {kKeep, kFlip}) {
        for (const std::uint64_t fh : {kKeep, kFlip}) {
          const std::uint64_t any_ref = scalar.combine_planes(
              parent.data(), lo.data(), hi.data(), fl, fh, n,
              out_ref.data());
          const std::uint64_t any_vec = kernels.combine_planes(
              parent.data(), lo.data(), hi.data(), fl, fh, n,
              out_vec.data());
          EXPECT_EQ(any_vec, any_ref)
              << simd_level_name(level) << " n=" << n;
          EXPECT_EQ(out_vec, out_ref) << simd_level_name(level) << " n=" << n;

          const std::uint64_t count_ref = scalar.combine_planes_count(
              parent.data(), lo.data(), hi.data(), fl, fh, n,
              out_ref.data());
          const std::uint64_t count_vec = kernels.combine_planes_count(
              parent.data(), lo.data(), hi.data(), fl, fh, n,
              out_vec.data());
          EXPECT_EQ(count_vec, count_ref)
              << simd_level_name(level) << " n=" << n;
          EXPECT_EQ(count_ref,
                    scalar.popcount_words(out_ref.data(), n));
          EXPECT_EQ(out_vec, out_ref) << simd_level_name(level) << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, CombinePlanesCountPruningSignal) {
  // An all-zero intersection must return exactly 0 (the DFS prunes on
  // it); a single surviving bit in the tail word must return 1.
  for (const SimdLevel level : levels()) {
    const SimdKernels& kernels = simd_kernels_for(level);
    const std::size_t n = 13;
    std::vector<std::uint64_t> parent(n, 0), lo(n, ~std::uint64_t{0}),
        hi(n, ~std::uint64_t{0}), out(n, ~std::uint64_t{0});
    EXPECT_EQ(kernels.combine_planes_count(parent.data(), lo.data(),
                                           hi.data(), 0, 0, n, out.data()),
              0u)
        << simd_level_name(level);
    for (const std::uint64_t w : out) EXPECT_EQ(w, 0u);
    parent[n - 1] = std::uint64_t{1} << 63;
    EXPECT_EQ(kernels.combine_planes_count(parent.data(), lo.data(),
                                           hi.data(), 0, 0, n, out.data()),
              1u)
        << simd_level_name(level);
  }
}

TEST(SimdKernelsTest, PlaneCountsTails) {
  const SimdKernels& scalar = simd_kernels_for(SimdLevel::kScalar);
  for (const SimdLevel level : levels()) {
    const SimdKernels& kernels = simd_kernels_for(level);
    for (const std::size_t n : kSizes) {
      const auto lo = random_words(n, 5 * n + 1);
      const auto hi = random_words(n, 5 * n + 2);
      std::uint64_t ref[3], vec[3];
      scalar.plane_counts(lo.data(), hi.data(), n, ref);
      kernels.plane_counts(lo.data(), hi.data(), n, vec);
      EXPECT_EQ(vec[0], ref[0]) << simd_level_name(level) << " n=" << n;
      EXPECT_EQ(vec[1], ref[1]) << simd_level_name(level) << " n=" << n;
      EXPECT_EQ(vec[2], ref[2]) << simd_level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, FloatKernelsMatchScalarTo1e9) {
  const SimdKernels& scalar = simd_kernels_for(SimdLevel::kScalar);
  Rng rng(404);
  for (const SimdLevel level : levels()) {
    const SimdKernels& kernels = simd_kernels_for(level);
    for (const std::size_t n : kSizes) {
      std::vector<double> top(n), bottom(n), cells(n), cols(n);
      for (std::size_t c = 0; c < n; ++c) {
        top[c] = 30.0 * rng.uniform();
        bottom[c] = 30.0 * rng.uniform();
        cells[c] = 20.0 * rng.uniform();
        // Exercise the col_sums <= 0 skip lane on a tail-odd stride.
        cols[c] = (c % 5 == 3) ? 0.0 : cells[c] + 20.0 * rng.uniform();
      }
      double row0 = 0.0, row1 = 0.0, total = 0.0;
      for (std::size_t c = 0; c < n; ++c) {
        row0 += top[c];
        row1 += bottom[c];
        total += cells[c] + cols[c];
      }
      if (n == 0) { row0 = row1 = 1.0; }
      if (total <= 0.0) total = 1.0;
      std::vector<double> chi_ref(n), chi_vec(n);
      scalar.chi_columns(top.data(), bottom.data(), n, 0.5, 0.25, row0,
                         row1, chi_ref.data());
      kernels.chi_columns(top.data(), bottom.data(), n, 0.5, 0.25, row0,
                          row1, chi_vec.data());
      for (std::size_t c = 0; c < n; ++c) {
        EXPECT_NEAR(chi_vec[c], chi_ref[c],
                    1e-9 * std::abs(chi_ref[c]) + 1e-300)
            << simd_level_name(level) << " n=" << n << " c=" << c;
      }
      const double p_ref = scalar.pearson_row_terms(
          cells.data(), cols.data(), n, row0, total);
      const double p_vec = kernels.pearson_row_terms(
          cells.data(), cols.data(), n, row0, total);
      EXPECT_NEAR(p_vec, p_ref, 1e-9 * std::abs(p_ref) + 1e-300)
          << simd_level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, BatchKernelsMatchPerCandidatePathBitForBit) {
  // The batch kernels carry a stronger contract than the 1e-9 envelope
  // of the per-table FP kernels: every replicate must reproduce the
  // per-table code path bit for bit at the same dispatch level, so
  // batching replicates is a pure scheduling decision.
  // batch_chi_columns and batch_pearson_2xn replicates replay this
  // level's own chi_columns / pearson_row_terms. Sweep every replicate
  // count 1–33 against every column count 0–67: the cross covers empty
  // shapes, both vector widths' body/tail boundaries, and odd
  // remainders on both axes. Mismatches are counted with plain compares
  // and only reported through ADD_FAILURE, capped per level.
  for (const SimdLevel level : levels()) {
    const SimdKernels& kernels = simd_kernels_for(level);
    int failures = 0;
    const auto expect_bits = [&](double got, double want, const char* kernel,
                                 std::size_t batch, std::size_t n,
                                 std::size_t lane, std::size_t t) {
      if (got == want) return true;
      if (++failures <= 8) {
        ADD_FAILURE() << simd_level_name(level) << ' ' << kernel
                      << " batch=" << batch << " n=" << n << " lane=" << lane
                      << " t=" << t << ": got " << got << " want " << want;
      }
      return false;
    };
    for (std::size_t batch = 1; batch <= 33 && failures <= 8; ++batch) {
      for (std::size_t n = 0; n <= 67; ++n) {
        Rng rng(1000003 * batch + n);

        // batch_chi_columns: replicate-major slab, each replicate
        // bit-identical to a standalone chi_columns call at this level
        // — through both the nullptr (all-zero, scalar fuses the slab)
        // and the per-replicate shift paths.
        const std::size_t reps = batch;
        std::vector<double> top(reps * n), bottom(reps * n);
        for (auto& v : top) v = 30.0 * rng.uniform();
        for (auto& v : bottom) v = 30.0 * rng.uniform();
        const double row0 = 40.0 * static_cast<double>(n + 2);
        const double row1 = 37.5 * static_cast<double>(n + 2);
        std::vector<double> add_top(reps), add_bottom(reps);
        for (std::size_t r = 0; r < reps; ++r) {
          add_top[r] = rng.uniform();
          add_bottom[r] = rng.uniform();
        }
        std::vector<double> out(reps * n, -1.0), ref(n, -1.0);
        kernels.batch_chi_columns(top.data(), bottom.data(), n, reps, nullptr,
                                  nullptr, row0, row1, out.data());
        for (std::size_t r = 0; r < reps; ++r) {
          kernels.chi_columns(top.data() + r * n, bottom.data() + r * n, n,
                              0.0, 0.0, row0, row1, ref.data());
          for (std::size_t c = 0; c < n; ++c) {
            expect_bits(out[r * n + c], ref[c], "batch_chi zero-shift", batch,
                        n, r, c);
          }
        }
        kernels.batch_chi_columns(top.data(), bottom.data(), n, reps,
                                  add_top.data(), add_bottom.data(), row0,
                                  row1, out.data());
        for (std::size_t r = 0; r < reps; ++r) {
          kernels.chi_columns(top.data() + r * n, bottom.data() + r * n, n,
                              add_top[r], add_bottom[r], row0, row1,
                              ref.data());
          for (std::size_t c = 0; c < n; ++c) {
            expect_bits(out[r * n + c], ref[c], "batch_chi shifted", batch, n,
                        r, c);
          }
        }

        // batch_pearson_2xn: shared hoisted marginals (with zero-sum
        // skip columns), both rows' terms per replicate — and each
        // row's contribution dropped when its row sum is non-positive.
        std::vector<double> col_sums(n);
        double total = 0.0;
        for (std::size_t c = 0; c < n; ++c) {
          col_sums[c] = (c % 7 == 5) ? 0.0 : 10.0 + 10.0 * rng.uniform();
          total += col_sums[c];
        }
        if (total <= 0.0) total = 1.0;
        const double row0_sum = 12.5, row1_sum = 9.75;
        std::vector<double> pear(reps, -1.0);
        const auto row_terms = [&](const double* cells, double row_sum) {
          return row_sum > 0.0 ? kernels.pearson_row_terms(
                                     cells, col_sums.data(), n, row_sum, total)
                               : 0.0;
        };
        // Both rows live, then each row dead in turn.
        const double guards[3][2] = {
            {row0_sum, row1_sum}, {0.0, row1_sum}, {row0_sum, 0.0}};
        for (int guard = 0; guard < 3; ++guard) {
          const double r0 = guards[guard][0];
          const double r1 = guards[guard][1];
          kernels.batch_pearson_2xn(top.data(), bottom.data(),
                                    col_sums.data(), n, reps, r0, r1, total,
                                    pear.data());
          for (std::size_t r = 0; r < reps; ++r) {
            const double want = row_terms(top.data() + r * n, r0) +
                                row_terms(bottom.data() + r * n, r1);
            expect_bits(pear[r], want, "batch_pearson", batch, n, r,
                        static_cast<std::size_t>(guard));
          }
        }
      }
    }
    EXPECT_EQ(failures, 0) << simd_level_name(level);
  }
}

// ---------------------------------------------------------------------
// End-to-end dispatch equivalence on the evaluation pipeline itself.
// ---------------------------------------------------------------------

class SimdPipeline : public ::testing::Test {
 protected:
  void TearDown() override { simd_force_level(std::nullopt); }
};

TEST_F(SimdPipeline, PatternTablesBitExactAcrossLevels) {
  // The integer kernels are always on, so the packed DFS must produce
  // identical tables at every dispatch level — same patterns, same
  // counts, same order.
  const auto synthetic = ldga::testing::small_synthetic();
  const genomics::PackedGenotypeMatrix packed(synthetic.dataset.genotypes());
  const std::vector<genomics::SnpIndex> snps{0, 2, 5};

  struct Leaf {
    std::uint32_t hom_two, het, missing, count;
  };
  std::vector<std::vector<Leaf>> per_level;
  for (const SimdLevel level : levels()) {
    simd_force_level(level);
    std::vector<Leaf> leaves;
    packed.for_each_pattern(
        snps, [&](std::uint32_t hom_two, std::uint32_t het,
                  std::uint32_t missing, std::uint32_t count) {
          leaves.push_back({hom_two, het, missing, count});
        });
    per_level.push_back(std::move(leaves));
  }
  for (std::size_t i = 1; i < per_level.size(); ++i) {
    ASSERT_EQ(per_level[i].size(), per_level[0].size());
    for (std::size_t j = 0; j < per_level[0].size(); ++j) {
      EXPECT_EQ(per_level[i][j].hom_two, per_level[0][j].hom_two);
      EXPECT_EQ(per_level[i][j].het, per_level[0][j].het);
      EXPECT_EQ(per_level[i][j].missing, per_level[0][j].missing);
      EXPECT_EQ(per_level[i][j].count, per_level[0][j].count);
    }
  }
}

TEST_F(SimdPipeline, EvaluatorFlagOffIsBitExactAcrossLevels) {
  // With simd_kernels forced off (the scalar reference configuration —
  // the flag defaults on since the candidate-batched path landed),
  // every statistic must be bit-for-bit identical at every dispatch
  // level: only integer kernels differ. The flag covers both halves of
  // the pipeline, so the second configuration runs CLUMP's T3 fitness
  // with Monte-Carlo p-values (the per-trial scalar path).
  const auto synthetic = ldga::testing::small_synthetic();
  const std::vector<genomics::SnpIndex> snps{1, 3, 4};
  stats::EvaluatorConfig t1_config;
  t1_config.simd_kernels = false;
  stats::EvaluatorConfig mc_config = t1_config;
  mc_config.fitness_statistic = stats::FitnessStatistic::T3;
  mc_config.clump.monte_carlo_trials = 200;
  for (const stats::EvaluatorConfig& config : {t1_config, mc_config}) {
    std::vector<double> fitness;
    std::vector<stats::ClumpResult> clumps;
    for (const SimdLevel level : levels()) {
      simd_force_level(level);
      stats::HaplotypeEvaluator evaluator(synthetic.dataset, config);
      fitness.push_back(evaluator.fitness(snps));
      clumps.push_back(evaluator.clump_analysis(snps));
    }
    for (std::size_t i = 1; i < fitness.size(); ++i) {
      SCOPED_TRACE(simd_level_name(levels()[i]));
      EXPECT_EQ(fitness[i], fitness[0]);
      const stats::ClumpResult& got = clumps[i];
      const stats::ClumpResult& want = clumps[0];
      for (const auto member :
           {&stats::ClumpResult::t1, &stats::ClumpResult::t2,
            &stats::ClumpResult::t3, &stats::ClumpResult::t4}) {
        EXPECT_EQ((got.*member).statistic, (want.*member).statistic);
        EXPECT_EQ((got.*member).p_monte_carlo, (want.*member).p_monte_carlo);
      }
      EXPECT_EQ(got.mc_replicates_run, want.mc_replicates_run);
    }
  }
}

TEST_F(SimdPipeline, EhDiallFlagOnIsBitExactToReferenceAtEveryLevel) {
  // simd_kernels only switches CLUMP's kernels: EM always runs the
  // scalar compiled loop. So with the flag on and the LRT as fitness,
  // every EH-DIALL output must equal the dense test oracle bit for bit
  // at every dispatch level. Missing genotypes, marginalized, give
  // phase fans of 16+ pairs — long enough for any vector E-step.
  genomics::SyntheticConfig cohort;
  cohort.snp_count = 10;
  cohort.affected_count = 60;
  cohort.unaffected_count = 60;
  cohort.unknown_count = 0;
  cohort.active_snp_count = 2;
  cohort.missing_rate = 0.08;
  Rng rng(1);
  const auto synthetic = genomics::generate_synthetic(cohort, rng);
  const genomics::Dataset& dataset = synthetic.dataset;
  const std::vector<std::vector<genomics::SnpIndex>> candidates{
      {0, 3}, {1, 4, 7}, {0, 2, 5, 9}, {1, 3, 4, 6, 8}, {0, 2, 3, 5, 7, 9}};

  for (const stats::MissingPolicy policy :
       {stats::MissingPolicy::CompleteCase,
        stats::MissingPolicy::Marginalize}) {
    stats::EvaluatorConfig config;
    config.simd_kernels = true;
    config.fitness_statistic = stats::FitnessStatistic::Lrt;
    config.em.missing = policy;

    std::vector<stats::EhDiallResult> want;
    std::uint32_t longest_fan = 0;
    for (const auto& snps : candidates) {
      want.push_back(stats::reference::analyze(dataset, snps, config.em));
      const stats::EmProgram program =
          stats::EmProgram::compile(stats::reference::build_pattern_table(
              dataset.genotypes(), snps,
              dataset.individuals_with(genomics::Status::Affected), policy));
      for (const std::uint32_t pairs : program.pattern_pairs) {
        longest_fan = std::max(longest_fan, pairs);
      }
    }
    if (policy == stats::MissingPolicy::Marginalize) {
      ASSERT_GE(longest_fan, 16u);
    }

    for (const SimdLevel level : levels()) {
      simd_force_level(level);
      const stats::HaplotypeEvaluator evaluator(dataset, config);
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        SCOPED_TRACE(::testing::Message()
                     << simd_level_name(level) << " size "
                     << candidates[c].size() << " marginalize "
                     << (policy == stats::MissingPolicy::Marginalize));
        const stats::EvaluationResult got =
            evaluator.evaluate_full(candidates[c]);
        EXPECT_EQ(evaluator.fitness(candidates[c]), want[c].lrt);
        EXPECT_EQ(got.lrt, want[c].lrt);
        EXPECT_EQ(got.em_iterations_total, want[c].affected.iterations +
                                               want[c].unaffected.iterations +
                                               want[c].pooled.iterations);
      }
    }
  }
}

TEST_F(SimdPipeline, EvaluatorFlagOnMatchesScalarTo1e9) {
  const auto synthetic = ldga::testing::small_synthetic();
  const std::vector<genomics::SnpIndex> snps{0, 1, 4};
  stats::EvaluatorConfig reference_config;
  reference_config.simd_kernels = false;  // the scalar reference path
  stats::HaplotypeEvaluator reference(synthetic.dataset, reference_config);
  const double expected = reference.fitness(snps);

  stats::EvaluatorConfig config;
  config.simd_kernels = true;
  for (const SimdLevel level : levels()) {
    simd_force_level(level);
    stats::HaplotypeEvaluator evaluator(synthetic.dataset, config);
    const double got = evaluator.fitness(snps);
    EXPECT_NEAR(got, expected, 1e-9 * std::abs(expected) + 1e-12)
        << simd_level_name(level);
  }
}

TEST_F(SimdPipeline, ScratchReuseIsDeterministic) {
  // One arena reused across differently-sized candidates must yield
  // the same results as a fresh arena per candidate: the kernels treat
  // EvalScratch as capacity only.
  const auto synthetic = ldga::testing::small_synthetic();
  stats::HaplotypeEvaluator evaluator(synthetic.dataset);
  const std::vector<std::vector<genomics::SnpIndex>> candidates{
      {0, 1, 2, 3, 5}, {4}, {0, 5}, {1, 2, 6}, {4}};
  stats::EvalScratch reused;
  for (const auto& snps : candidates) {
    stats::EvalScratch fresh;
    const auto with_reused = evaluator.evaluate_full(snps, reused);
    const auto with_fresh = evaluator.evaluate_full(snps, fresh);
    EXPECT_EQ(with_reused.fitness, with_fresh.fitness);
    EXPECT_EQ(with_reused.lrt, with_fresh.lrt);
    EXPECT_EQ(with_reused.em_iterations_total, with_fresh.em_iterations_total);
  }
}

}  // namespace
}  // namespace ldga::util
