// Runtime-dispatched SIMD kernels (util/simd.hpp): every vector level
// available on the host must reproduce the scalar reference — bit for
// bit for the integer kernels and to 1e-9 for CLUMP's floating-point
// kernels. Tail handling gets its own sweep: the cohort word counts
// the evaluator actually produces are rarely multiples of the vector
// width, and the per-word bit counts 0, 1, 63, 64 sit exactly on the
// carry edges of the nibble-LUT and vpopcnt paths.
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
#include "support/reference_clump.hpp"
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

/// One locus' clean planes (het | hom_two | missing, n words each) of
/// random genotypes, each individual missing with `missing_rate`.
std::vector<std::uint64_t> random_clean_planes(std::size_t n,
                                               double missing_rate,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> planes(3 * n, 0);
  for (std::size_t bit = 0; bit < 64 * n; ++bit) {
    const std::uint64_t genotype =
        rng.uniform() < missing_rate ? 3 : rng.below(3);
    if (genotype == 0) continue;  // HomOne sets no plane
    planes[(genotype - 1) * n + bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
  return planes;
}

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  const auto available = levels();
  ASSERT_FALSE(available.empty());
  EXPECT_EQ(available.front(), SimdLevel::kScalar);
  for (const SimdLevel level : available) {
    SCOPED_TRACE(simd_level_name(level));
    const SimdKernels& kernels = simd_kernels_for(level);
    EXPECT_NE(kernels.combine_planes_count, nullptr);
    EXPECT_NE(kernels.plane_counts, nullptr);
    EXPECT_NE(kernels.dosage_pair, nullptr);
    EXPECT_NE(kernels.chi_columns, nullptr);
    EXPECT_NE(kernels.pearson_row_terms, nullptr);
    EXPECT_NE(kernels.batch_chi_columns, nullptr);
    EXPECT_NE(kernels.batch_pearson_2xn, nullptr);
  }
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

TEST(SimdDispatch, Avx512TakesTheAvx2FloatKernels) {
  // The kAvx512 table has no floating-point bodies of its own: CLUMP's
  // four kernels are the AVX2 table's, pointer for pointer.
  const auto available = levels();
  const auto has = [&](SimdLevel level) {
    return std::find(available.begin(), available.end(), level) !=
           available.end();
  };
  if (!has(SimdLevel::kAvx2) || !has(SimdLevel::kAvx512)) {
    GTEST_SKIP() << "needs both the avx2 and avx512 levels";
  }
  const SimdKernels& avx512 = simd_kernels_for(SimdLevel::kAvx512);
  const SimdKernels& avx2 = simd_kernels_for(SimdLevel::kAvx2);
  EXPECT_EQ(avx512.chi_columns, avx2.chi_columns);
  EXPECT_EQ(avx512.pearson_row_terms, avx2.pearson_row_terms);
  EXPECT_EQ(avx512.batch_chi_columns, avx2.batch_chi_columns);
  EXPECT_EQ(avx512.batch_pearson_2xn, avx2.batch_pearson_2xn);
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

TEST(SimdKernelsTest, CombinePlanesTails) {
  // Random planes at every tail size, plus parent words whose popcounts
  // sit on the carry edges (0, 1, 63, 64 bits). The count must equal
  // the popcount of the words written, and both must match scalar.
  const SimdKernels& scalar = simd_kernels_for(SimdLevel::kScalar);
  constexpr std::uint64_t kKeep = 0;
  constexpr std::uint64_t kFlip = ~std::uint64_t{0};
  struct Planes {
    std::vector<std::uint64_t> parent, lo, hi;
  };
  std::vector<Planes> inputs;
  for (const std::size_t n : kSizes) {
    inputs.push_back({random_words(n, 3 * n + 1), random_words(n, 3 * n + 2),
                      random_words(n, 3 * n + 3)});
  }
  const auto edges = edge_words();
  for (std::size_t n = 0; n <= edges.size(); ++n) {
    // All-zero lo/hi planes: flipping both keeps every parent bit.
    inputs.push_back({std::vector<std::uint64_t>(
                          edges.begin(),
                          edges.begin() + static_cast<std::ptrdiff_t>(n)),
                      std::vector<std::uint64_t>(n, 0),
                      std::vector<std::uint64_t>(n, 0)});
  }
  for (const SimdLevel level : levels()) {
    const SimdKernels& kernels = simd_kernels_for(level);
    for (const Planes& in : inputs) {
      const std::size_t n = in.parent.size();
      std::vector<std::uint64_t> out_ref(n), out_vec(n);
      for (const std::uint64_t fl : {kKeep, kFlip}) {
        for (const std::uint64_t fh : {kKeep, kFlip}) {
          const std::uint64_t count_ref = scalar.combine_planes_count(
              in.parent.data(), in.lo.data(), in.hi.data(), fl, fh, n,
              out_ref.data());
          const std::uint64_t count_vec = kernels.combine_planes_count(
              in.parent.data(), in.lo.data(), in.hi.data(), fl, fh, n,
              out_vec.data());
          std::uint64_t written = 0;
          for (const std::uint64_t word : out_vec) {
            written += static_cast<std::uint64_t>(std::popcount(word));
          }
          EXPECT_EQ(count_vec, count_ref)
              << simd_level_name(level) << " n=" << n;
          EXPECT_EQ(count_vec, written)
              << simd_level_name(level) << " n=" << n;
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

TEST(SimdKernelsTest, DosagePairTails) {
  const SimdKernels& scalar = simd_kernels_for(SimdLevel::kScalar);
  const double kMissingRates[] = {0.0, 0.3, 1.0};  // none, some, everyone
  for (const SimdLevel level : levels()) {
    const SimdKernels& kernels = simd_kernels_for(level);
    for (std::size_t n = 0; n <= 17; ++n) {
      for (const double rate_a : kMissingRates) {
        for (const double rate_b : kMissingRates) {
          const auto a = random_clean_planes(n, rate_a, 7 * n + 1);
          const auto b = random_clean_planes(n, rate_b, 7 * n + 2);
          std::uint64_t ref[6], vec[6];
          scalar.dosage_pair(a.data(), b.data(), n, ref);
          kernels.dosage_pair(a.data(), b.data(), n, vec);
          for (int k = 0; k < 6; ++k) {
            EXPECT_EQ(vec[k], ref[k])
                << simd_level_name(level) << " n=" << n << " k=" << k
                << " missing " << rate_a << "/" << rate_b;
          }
        }
      }
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

TEST_F(SimdPipeline, EhDiallFlagOnIsBitExactToReferenceAtEveryLevel) {
  // Only CLUMP runs floating-point vector kernels: EM always runs the
  // scalar compiled loop. So with the LRT as fitness, every EH-DIALL
  // output must equal the dense test oracle bit for bit at every
  // dispatch level. Missing genotypes, marginalized, give phase fans of
  // 16+ pairs — long enough for any vector E-step.
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
        EXPECT_EQ(evaluator.fitness(candidates[c]), want[c].lrt.value());
        EXPECT_EQ(got.lrt, want[c].lrt.value());
        EXPECT_EQ(got.em_iterations_total,
                  want[c].affected.iterations + want[c].unaffected.iterations +
                      want[c].pooled.value().iterations);
      }
    }
  }
}

TEST_F(SimdPipeline, EvaluatorMatchesReferenceTo1e9) {
  // T1 and T3 fitness at every dispatch level against the test oracles
  // end to end: the dense EH-DIALL table fed to the Kahan-summed
  // reference CLUMP.
  const auto synthetic = ldga::testing::small_synthetic();
  const std::vector<std::vector<genomics::SnpIndex>> candidates{
      {0, 1, 4}, {2, 3}, {1, 5, 6, 9}, {0, 2, 7, 8, 10}};
  for (const stats::FitnessStatistic statistic :
       {stats::FitnessStatistic::T1, stats::FitnessStatistic::T3}) {
    stats::EvaluatorConfig config;
    config.fitness_statistic = statistic;
    std::vector<double> expected;
    for (const auto& snps : candidates) {
      const stats::ContingencyTable table =
          stats::reference::analyze(synthetic.dataset, snps, config.em)
              .to_contingency_table();
      Rng rng(1);
      const stats::ClumpResult clump =
          stats::reference::clump_analyze(table, config.clump, rng);
      expected.push_back(statistic == stats::FitnessStatistic::T1
                             ? clump.t1.statistic
                             : clump.t3.statistic);
    }
    for (const SimdLevel level : levels()) {
      simd_force_level(level);
      const stats::HaplotypeEvaluator evaluator(synthetic.dataset, config);
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const double got = evaluator.fitness(candidates[c]);
        EXPECT_NEAR(got, expected[c], 1e-9 * std::abs(expected[c]) + 1e-12)
            << simd_level_name(level) << " candidate " << c
            << (statistic == stats::FitnessStatistic::T1 ? " T1" : " T3");
      }
    }
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
