#include "stats/eh_diall.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "util/error.hpp"

namespace ldga::stats {
namespace {

using genomics::SnpIndex;
using genomics::Status;

TEST(EhDiall, RequiresBothGroups) {
  genomics::GenotypeMatrix matrix(2, 2);
  matrix.set(0, 0, genomics::Genotype::HomOne);
  matrix.set(0, 1, genomics::Genotype::HomOne);
  matrix.set(1, 0, genomics::Genotype::HomOne);
  matrix.set(1, 1, genomics::Genotype::HomOne);
  const genomics::Dataset dataset(
      genomics::SnpPanel::uniform(2), std::move(matrix),
      {Status::Affected, Status::Affected});
  EXPECT_THROW(EhDiall{dataset}, DataError);
}

TEST(EhDiall, GroupSizesMatchDataset) {
  const auto dataset = ldga::testing::tiny_dataset();
  const EhDiall eh(dataset);
  EXPECT_EQ(eh.affected_count(), 4u);
  EXPECT_EQ(eh.unaffected_count(), 4u);
}

TEST(EhDiall, PerfectSeparatorYieldsLargeLrt) {
  // In tiny_dataset SNP 0 separates the groups perfectly, SNP 3 is
  // noise: the LRT of {0} must dwarf that of {3}.
  const auto dataset = ldga::testing::tiny_dataset();
  const EhDiall eh(dataset);
  const auto strong = eh.analyze(std::vector<SnpIndex>{0});
  const auto weak = eh.analyze(std::vector<SnpIndex>{3});
  EXPECT_GT(strong.lrt.value(), 5.0 * (weak.lrt.value() + 0.1));
}

TEST(EhDiall, LrtIsNonNegative) {
  const auto synthetic = ldga::testing::small_synthetic();
  const EhDiall eh(synthetic.dataset);
  for (SnpIndex a = 0; a + 1 < synthetic.dataset.snp_count(); a += 3) {
    const auto result = eh.analyze(std::vector<SnpIndex>{a, a + 1});
    EXPECT_GE(result.lrt.value(), 0.0);
  }
}

TEST(EhDiall, ContingencyTableHasEstimatedChromosomeCounts) {
  const auto dataset = ldga::testing::tiny_dataset();
  const EhDiall eh(dataset);
  const auto result = eh.analyze(std::vector<SnpIndex>{0, 1});
  const auto table = result.to_contingency_table();
  ASSERT_EQ(table.rows(), 2u);
  ASSERT_EQ(table.cols(), 4u);  // 2^2 haplotypes
  // Row totals = 2 * group size (chromosomes).
  EXPECT_NEAR(table.row_total(0), 2.0 * result.affected_individuals, 1e-6);
  EXPECT_NEAR(table.row_total(1), 2.0 * result.unaffected_individuals, 1e-6);
}

TEST(EhDiall, PooledLikelihoodIsAtMostGroupSum) {
  // ll_pooled <= ll_A + ll_U always (splitting can only fit better),
  // which is exactly why the LRT is non-negative.
  const auto synthetic = ldga::testing::small_synthetic(10, 2, 31);
  const EhDiall eh(synthetic.dataset);
  const auto result = eh.analyze(std::vector<SnpIndex>{1, 4, 7});
  EXPECT_LE(result.pooled.value().log_likelihood,
            result.affected.log_likelihood +
                result.unaffected.log_likelihood + 1e-6);
}

TEST(EhDiall, PlantedSignalHasHigherLrtThanNoise) {
  const auto synthetic = ldga::testing::small_synthetic(12, 2, 2024);
  const EhDiall eh(synthetic.dataset);
  const auto planted = eh.analyze(synthetic.truth.snps);
  // Compare against a handful of non-overlapping pairs.
  double max_noise = 0.0;
  for (SnpIndex a = 0; a + 1 < 12; ++a) {
    const std::vector<SnpIndex> pair{a, static_cast<SnpIndex>(a + 1)};
    if (pair == synthetic.truth.snps) continue;
    bool overlaps = false;
    for (const auto t : synthetic.truth.snps) {
      if (t == pair[0] || t == pair[1]) overlaps = true;
    }
    if (overlaps) continue;
    max_noise = std::max(max_noise, eh.analyze(pair).lrt.value());
  }
  EXPECT_GT(planted.lrt.value(), max_noise);
}

TEST(EhDiall, MarginalizePolicyUsesMissingIndividuals) {
  genomics::SyntheticConfig config;
  config.snp_count = 8;
  config.affected_count = 30;
  config.unaffected_count = 30;
  config.unknown_count = 0;
  config.active_snp_count = 2;
  config.missing_rate = 0.15;
  Rng rng(9090);
  const auto synthetic = genomics::generate_synthetic(config, rng);

  EmConfig complete_case;  // default policy
  EmConfig marginalize;
  marginalize.missing = MissingPolicy::Marginalize;
  const EhDiall eh_cc(synthetic.dataset, complete_case);
  const EhDiall eh_mg(synthetic.dataset, marginalize);

  const std::vector<SnpIndex> snps{1, 4, 6};
  const auto cc = eh_cc.analyze(snps);
  const auto mg = eh_mg.analyze(snps);
  // Marginalization keeps every individual; complete-case drops some
  // at a 15% per-cell missing rate.
  EXPECT_GT(mg.affected_individuals + mg.unaffected_individuals,
            cc.affected_individuals + cc.unaffected_individuals);
  EXPECT_DOUBLE_EQ(mg.affected_individuals + mg.unaffected_individuals,
                   60.0);
  EXPECT_GE(mg.lrt.value(), 0.0);
}

TEST(EhDiall, EmptySnpSetDies) {
  const auto dataset = ldga::testing::tiny_dataset();
  const EhDiall eh(dataset);
  EXPECT_DEATH(eh.analyze(std::vector<SnpIndex>{}), "precondition");
}

}  // namespace
}  // namespace ldga::stats
