#include "stats/fitness_cache.hpp"

#include <algorithm>
#include <mutex>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ldga::stats {

using genomics::SnpIndex;

std::size_t SnpSetHash::operator()(std::span<const SnpIndex> snps) const {
  std::uint64_t state = 0x6c6467611d2004ULL ^ (snps.size() << 32);
  std::uint64_t h = 0;
  for (const SnpIndex s : snps) {
    state ^= s;
    h ^= splitmix64(state);
  }
  return static_cast<std::size_t>(h);
}

FitnessCache::FitnessCache(std::uint64_t capacity, std::uint32_t shards)
    : capacity_(capacity) {
  LDGA_EXPECTS(shards >= 1);
  std::uint64_t n = shards;
  if (capacity_ > 0) {
    // Never hand a shard zero capacity; fewer, larger shards instead.
    n = std::min<std::uint64_t>(n, capacity_);
    shard_capacity_ = capacity_ / n;
  }
  shards_.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

FitnessCache::Shard& FitnessCache::shard_of(
    std::span<const SnpIndex> key) const {
  // Remix the hash the maps use, so shard choice and in-map bucketing
  // stay decorrelated.
  std::uint64_t h = SnpSetHash{}(key);
  return *shards_[static_cast<std::size_t>(splitmix64(h) % shards_.size())];
}

std::optional<double> FitnessCache::find(
    std::span<const SnpIndex> key) const {
  const Shard& shard = shard_of(key);
  {
    std::shared_lock lock(shard.mutex);
    const auto found = shard.map.find(key);
    if (found != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return found->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void FitnessCache::insert(std::span<const SnpIndex> key, double value) {
  Shard& shard = shard_of(key);
  std::uint64_t evicted = 0;
  {
    std::unique_lock lock(shard.mutex);
    const auto found = shard.map.find(key);
    if (found != shard.map.end()) {
      found->second = value;  // refresh in place, no capacity consumed
      return;
    }
    while (shard_capacity_ > 0 && shard.map.size() >= shard_capacity_) {
      // Erase through an iterator: the oldest key is the entry's own.
      shard.map.erase(shard.map.find(*shard.order.front()));
      shard.order.pop_front();
      ++evicted;
    }
    const auto stored =
        shard.map.emplace(std::vector<SnpIndex>(key.begin(), key.end()), value)
            .first;
    shard.order.push_back(&stored->first);
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (evicted > 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
}

FitnessCacheStats FitnessCache::stats() const {
  FitnessCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.entries = size();
  out.capacity = capacity_;
  out.shards = shard_count();
  return out;
}

std::uint64_t FitnessCache::size() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    total += shard->map.size();
  }
  return total;
}

void FitnessCache::clear() {
  for (auto& shard : shards_) {
    std::unique_lock lock(shard->mutex);
    shard->map.clear();
    shard->order.clear();
  }
}

}  // namespace ldga::stats
