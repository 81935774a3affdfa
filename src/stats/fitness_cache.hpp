// Sharded, capacity-bounded fitness cache shared across generations.
//
// The GA re-requests the same candidate haplotypes constantly — elites
// survive replacement, mutation trials revisit neighbours, immigrants
// rediscover old sets — and one statistical pipeline run costs orders
// of magnitude more than a lookup, so the cache is kept for the whole
// run (and across runs sharing an evaluator) instead of per generation.
// Sharding bounds lock contention when a thread-pool or farm backend
// inserts from many workers at once; the capacity bound keeps a long
// genome scan from growing without limit, with per-shard FIFO
// replacement (oldest insertion evicted first — cheap, deterministic,
// and close enough to LRU for a population that churns).
//
// Counters (hits/misses/insertions/evictions) are lock-free and feed
// GaResult and the telemetry writer.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "genomics/types.hpp"

namespace ldga::stats {

/// Hash of a SNP set (sorted locus indices), shared by the cache's maps
/// and shard choice, the evaluation service's in-batch dedup and the
/// stream's in-flight map. Transparent, with SnpSetEqual: a map keyed
/// by std::vector<SnpIndex> can be probed with a span, without a copy.
struct SnpSetHash {
  using is_transparent = void;
  std::size_t operator()(std::span<const genomics::SnpIndex> snps) const;
};

struct SnpSetEqual {
  using is_transparent = void;
  bool operator()(std::span<const genomics::SnpIndex> a,
                  std::span<const genomics::SnpIndex> b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

struct FitnessCacheStats {
  std::uint64_t hits = 0;        ///< find() calls answered
  std::uint64_t misses = 0;      ///< find() calls not answered
  std::uint64_t insertions = 0;  ///< new entries stored
  std::uint64_t evictions = 0;   ///< entries displaced by the bound
  std::uint64_t entries = 0;     ///< currently resident
  std::uint64_t capacity = 0;    ///< configured bound (0 = unbounded)
  std::uint32_t shards = 0;
};

class FitnessCache {
 public:
  /// `capacity` bounds the total entry count (0 = unbounded); `shards`
  /// must be >= 1 and is rounded down to the capacity when a bounded
  /// cache is smaller than its shard count.
  explicit FitnessCache(std::uint64_t capacity = 0, std::uint32_t shards = 16);

  FitnessCache(const FitnessCache&) = delete;
  FitnessCache& operator=(const FitnessCache&) = delete;

  /// Thread-safe lookup; counts a hit or miss.
  std::optional<double> find(std::span<const genomics::SnpIndex> key) const;

  /// Thread-safe store. Re-inserting an existing key updates it in
  /// place without consuming capacity. Evicts the shard's oldest entry
  /// when the shard is full.
  void insert(std::span<const genomics::SnpIndex> key, double value);

  FitnessCacheStats stats() const;
  std::uint64_t size() const;
  std::uint64_t capacity() const { return capacity_; }
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  void clear();

 private:
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::vector<genomics::SnpIndex>, double, SnpSetHash,
                       SnpSetEqual>
        map;
    /// FIFO of the map's own keys, oldest first. A rehash moves no
    /// element, so the pointers stay valid until their entry is erased.
    std::deque<const std::vector<genomics::SnpIndex>*> order;
  };

  Shard& shard_of(std::span<const genomics::SnpIndex> key) const;

  std::uint64_t capacity_ = 0;
  std::uint64_t shard_capacity_ = 0;  ///< 0 = unbounded
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace ldga::stats
