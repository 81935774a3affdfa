// MigrationRouter: the island engine's migration channels, one inbox
// per island. Checked through the public send/drain/close surface only.
#include "ga/migration.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

namespace ldga::ga {
namespace {

HaplotypeIndividual evaluated(std::vector<genomics::SnpIndex> snps,
                              double fitness) {
  HaplotypeIndividual individual{std::move(snps)};
  individual.set_fitness(fitness);
  return individual;
}

TEST(MigrationRouter, EachIslandReceivesInSendOrder) {
  MigrationRouter router(3);
  EXPECT_EQ(router.island_count(), 3u);
  ASSERT_TRUE(router.send(0, 1, IslandTag::kElite, evaluated({1, 2}, 1.0)));
  ASSERT_TRUE(router.send(2, 1, IslandTag::kOffspring, evaluated({3, 4}, 2.0)));
  ASSERT_TRUE(router.send(0, 2, IslandTag::kElite, evaluated({5, 6}, 3.0)));
  ASSERT_TRUE(router.send(0, 1, IslandTag::kElite, evaluated({7, 8}, 4.0)));

  const auto first = router.drain(1);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].individual.fitness(), 1.0);
  EXPECT_EQ(first[1].individual.fitness(), 2.0);
  EXPECT_EQ(first[2].individual.fitness(), 4.0);
  // A drain empties the island's inbox and leaves the others alone.
  EXPECT_TRUE(router.drain(1).empty());
  EXPECT_TRUE(router.drain(0).empty());
  const auto third = router.drain(2);
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].individual.fitness(), 3.0);
}

TEST(MigrationRouter, MigrantArrivesBitForBit) {
  MigrationRouter router(4);
  // A fitness whose every mantissa bit matters.
  const double fitness = 0.1 + 0.2;
  const std::vector<genomics::SnpIndex> snps{4, 17, 199999};
  ASSERT_TRUE(
      router.send(3, 0, IslandTag::kOffspring, evaluated(snps, fitness)));

  const auto mail = router.drain(0);
  ASSERT_EQ(mail.size(), 1u);
  EXPECT_EQ(mail[0].from, 3u);
  EXPECT_EQ(mail[0].tag, IslandTag::kOffspring);
  EXPECT_EQ(mail[0].individual.snps(), snps);
  ASSERT_TRUE(mail[0].individual.evaluated());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(mail[0].individual.fitness()),
            std::bit_cast<std::uint64_t>(fitness));
}

TEST(MigrationRouter, SendAfterCloseIsRefused) {
  MigrationRouter router(2);
  router.close();
  EXPECT_FALSE(router.send(0, 1, IslandTag::kElite, evaluated({1, 2}, 1.0)));
  EXPECT_TRUE(router.drain(1).empty());
  EXPECT_EQ(router.sent(), 0u);
  EXPECT_EQ(router.received(), 0u);
}

TEST(MigrationRouter, CountsSentAndReceived) {
  MigrationRouter router(2);
  EXPECT_EQ(router.sent(), 0u);
  EXPECT_EQ(router.received(), 0u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(router.send(0, 1, IslandTag::kElite, evaluated({1, 2}, 1.0)));
  }
  ASSERT_TRUE(router.send(1, 0, IslandTag::kElite, evaluated({3, 4}, 1.0)));
  EXPECT_EQ(router.sent(), 6u);
  EXPECT_EQ(router.received(), 0u);
  EXPECT_EQ(router.drain(1).size(), 5u);
  EXPECT_EQ(router.received(), 5u);
  EXPECT_TRUE(router.drain(1).empty());
  EXPECT_EQ(router.received(), 5u);
  EXPECT_EQ(router.drain(0).size(), 1u);
  EXPECT_EQ(router.sent(), 6u);
  EXPECT_EQ(router.received(), 6u);
}

}  // namespace
}  // namespace ldga::ga
