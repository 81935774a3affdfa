#include "stats/fitness_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace ldga::stats {
namespace {

using genomics::SnpIndex;

std::vector<SnpIndex> key(std::initializer_list<SnpIndex> snps) {
  return snps;
}

TEST(FitnessCache, FindAfterInsertAndMissBefore) {
  FitnessCache cache(64, 4);
  EXPECT_FALSE(cache.find(key({1, 2, 3})).has_value());
  cache.insert(key({1, 2, 3}), 7.5);
  const auto hit = cache.find(key({1, 2, 3}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 7.5);
  // A different key with shared prefix stays distinct.
  EXPECT_FALSE(cache.find(key({1, 2})).has_value());
  EXPECT_FALSE(cache.find(key({1, 2, 4})).has_value());
}

TEST(FitnessCache, SnpSetHashValuesArePinned) {
  // Shard choice and FIFO eviction follow these values, and the
  // evaluation service and stream hash with them too.
  const SnpSetHash hash;
  EXPECT_EQ(hash(key({})), 0x0u);
  EXPECT_EQ(hash(key({0})), 0x14a1b637a382f340u);
  EXPECT_EQ(hash(key({1, 2, 3})), 0x0da2de6d36600f5bu);
  EXPECT_EQ(hash(key({7, 19, 20, 41, 50})), 0x47357537d716b63cu);
}

TEST(FitnessCache, InsertUpdatesInPlace) {
  FitnessCache cache(8, 1);
  cache.insert(key({5}), 1.0);
  cache.insert(key({5}), 2.0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(*cache.find(key({5})), 2.0);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(FitnessCache, CapacityBoundIsHonored) {
  const std::uint64_t capacity = 24;
  FitnessCache cache(capacity, 4);
  for (SnpIndex i = 0; i < 500; ++i) {
    cache.insert(key({i}), static_cast<double>(i));
    EXPECT_LE(cache.size(), capacity);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 500u);
  EXPECT_EQ(stats.evictions, 500u - stats.entries);
  EXPECT_LE(stats.entries, capacity);
  EXPECT_GT(stats.entries, 0u);
}

TEST(FitnessCache, EvictionIsFifoWithinShard) {
  // One shard makes the FIFO order directly observable.
  FitnessCache cache(3, 1);
  cache.insert(key({0}), 0.0);
  cache.insert(key({1}), 1.0);
  cache.insert(key({2}), 2.0);
  cache.insert(key({3}), 3.0);  // evicts {0}, the oldest
  EXPECT_FALSE(cache.find(key({0})).has_value());
  EXPECT_TRUE(cache.find(key({1})).has_value());
  EXPECT_TRUE(cache.find(key({2})).has_value());
  EXPECT_TRUE(cache.find(key({3})).has_value());
  cache.insert(key({4}), 4.0);  // evicts {1}
  EXPECT_FALSE(cache.find(key({1})).has_value());
  EXPECT_TRUE(cache.find(key({2})).has_value());
}

TEST(FitnessCache, UnboundedCacheNeverEvicts) {
  FitnessCache cache(0, 8);
  for (SnpIndex i = 0; i < 1000; ++i) {
    cache.insert(key({i, static_cast<SnpIndex>(i + 1)}),
                 static_cast<double>(i));
  }
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  for (SnpIndex i = 0; i < 1000; ++i) {
    EXPECT_TRUE(
        cache.find(key({i, static_cast<SnpIndex>(i + 1)})).has_value());
  }
}

TEST(FitnessCache, StatsCountHitsAndMisses) {
  FitnessCache cache(16, 2);
  cache.insert(key({1}), 1.0);
  (void)cache.find(key({1}));  // hit
  (void)cache.find(key({1}));  // hit
  (void)cache.find(key({2}));  // miss
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.capacity, 16u);
  EXPECT_EQ(stats.shards, 2u);
}

TEST(FitnessCache, ShardCountIsClampedToCapacity) {
  // Fewer entries than shards: shards are clamped so every shard can
  // hold at least one entry and the total never exceeds the bound.
  FitnessCache cache(3, 16);
  EXPECT_LE(cache.shard_count(), 3u);
  for (SnpIndex i = 0; i < 100; ++i) {
    cache.insert(key({i}), static_cast<double>(i));
    EXPECT_LE(cache.size(), 3u);
  }
}

TEST(FitnessCache, ClearEmptiesAllShards) {
  FitnessCache cache(0, 4);
  for (SnpIndex i = 0; i < 50; ++i) cache.insert(key({i}), 1.0);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.find(key({7})).has_value());
}

TEST(FitnessCache, ConcurrentInsertAndFindStayConsistent) {
  FitnessCache cache(256, 8);
  constexpr std::uint32_t kThreads = 8;
  constexpr SnpIndex kKeys = 64;
  // Every thread inserts the same key->value mapping while reading
  // randomly; any hit must return the one true value for its key.
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (std::uint32_t round = 0; round < 200; ++round) {
        const SnpIndex k =
            static_cast<SnpIndex>((t * 131 + round * 17) % kKeys);
        cache.insert(key({k, static_cast<SnpIndex>(k + 1)}),
                     static_cast<double>(k) * 0.5);
        const SnpIndex probe =
            static_cast<SnpIndex>((t + round * 31) % kKeys);
        const auto found =
            cache.find(key({probe, static_cast<SnpIndex>(probe + 1)}));
        if (found.has_value()) {
          EXPECT_DOUBLE_EQ(*found, static_cast<double>(probe) * 0.5);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * 200u);
  // Insertions count new entries only; every one of the kKeys distinct
  // keys lands exactly once, later writes update in place.
  EXPECT_EQ(stats.insertions, static_cast<std::uint64_t>(kKeys));
  EXPECT_LE(stats.entries, 256u);
}

TEST(FitnessCache, ConcurrentMixedTrafficWithEvictionStaysConsistent) {
  // Eviction stress: the key universe (512) is far larger than the
  // bound (48), so shards churn constantly while other threads read
  // and re-insert. Run under the TSan CI mode (scripts/check.sh
  // thread) this exercises the find/insert/evict lock paths together;
  // the invariants below must hold under any interleaving:
  //   - a hit always returns the one true value for its key,
  //   - the capacity bound is never exceeded,
  //   - the counters balance exactly (finds = hits + misses,
  //     entries = insertions - evictions).
  FitnessCache cache(48, 4);
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint32_t kOpsPerThread = 3999;  // divisible by 3
  constexpr SnpIndex kKeys = 512;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      // Deterministic per-thread mixed stream: 1/3 inserts (forcing
      // evictions), 2/3 lookups over a sliding window of hot keys.
      std::uint64_t state = 0x9e3779b97f4a7c15ULL * (t + 1);
      for (std::uint32_t op = 0; op < kOpsPerThread; ++op) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto k = static_cast<SnpIndex>((state >> 33) % kKeys);
        const std::vector<SnpIndex> key = {k, static_cast<SnpIndex>(k + 1)};
        if (op % 3 == 0) {
          cache.insert(key, static_cast<double>(k) * 0.25);
        } else {
          const auto found = cache.find(key);
          if (found.has_value()) {
            EXPECT_DOUBLE_EQ(*found, static_cast<double>(k) * 0.25);
          }
        }
        EXPECT_LE(cache.size(), 48u);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = cache.stats();
  const std::uint64_t finds =
      static_cast<std::uint64_t>(kThreads) * (kOpsPerThread - kOpsPerThread / 3);
  EXPECT_EQ(stats.hits + stats.misses, finds);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, stats.insertions - stats.evictions);
  EXPECT_LE(stats.entries, 48u);
  // The churn must not corrupt steady-state behaviour: a fresh
  // insert-then-find on a quiet cache still round-trips.
  cache.insert(std::vector<SnpIndex>{1000, 1001}, 7.5);
  const auto found = cache.find(std::vector<SnpIndex>{1000, 1001});
  ASSERT_TRUE(found.has_value());
  EXPECT_DOUBLE_EQ(*found, 7.5);
}

}  // namespace
}  // namespace ldga::stats
