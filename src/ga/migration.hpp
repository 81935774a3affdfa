// Asynchronous migration channels between islands.
//
// Each island owns one inbox: a locked vector of Incoming values.
// Elites and cross-size offspring are copied into the receiving
// island's inbox, so a migrant keeps its SNPs and fitness bit for bit.
// Sends never block and receives are non-blocking drains — an island
// that has fallen behind simply finds more mail at its next loop top;
// no sender ever waits on a receiver, which is the property that keeps
// the engine barrier-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "ga/haplotype_individual.hpp"

namespace ldga::ga {

/// What a migrant is to its receiver.
struct IslandTag {
  /// An elite copy offered to a neighbor (migration proper). The
  /// receiver inserts it under the usual §4.6 replacement rule.
  static constexpr std::int32_t kElite = 1;
  /// An evaluated offspring whose size belongs to another island
  /// (reduction/augmentation and inter-population crossover cross size
  /// classes): the breeding island keeps the adaptive-rate credit, the
  /// owning island gets the individual.
  static constexpr std::int32_t kOffspring = 2;
};

class MigrationRouter {
 public:
  explicit MigrationRouter(std::uint32_t island_count);

  std::uint32_t island_count() const {
    return static_cast<std::uint32_t>(inboxes_.size());
  }

  /// Queues a copy of an evaluated individual in `to`'s inbox. Returns
  /// false when the router is closed (shutdown) — the migrant is
  /// dropped, which is always safe: migration is an optimization, not
  /// a correctness dependency.
  [[nodiscard]] bool send(std::uint32_t from, std::uint32_t to,
                          std::int32_t tag,
                          const HaplotypeIndividual& individual);

  struct Incoming {
    std::uint32_t from = 0;
    std::int32_t tag = 0;
    HaplotypeIndividual individual;
  };

  /// Everything queued for `island` right now (possibly none), oldest
  /// first.
  std::vector<Incoming> drain(std::uint32_t island);

  /// Refuses every later send; mail already queued stays drainable.
  void close();

  std::uint64_t sent() const {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  // Each island drains its own inbox every loop; a cache line apiece
  // keeps one island's lock traffic off its neighbors'.
  struct alignas(64) Inbox {
    std::mutex mutex;
    std::vector<Incoming> queue;
    bool closed = false;
  };

  std::vector<Inbox> inboxes_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> received_{0};
};

}  // namespace ldga::ga
