// Per-thread evaluation arena.
//
// One candidate evaluation allocates the same transient buffers every
// time: the EM expected/products vectors (em_kernel.hpp) and the
// packed DFS row block the pattern-table walk intersects plane words
// into (packed_genotype.hpp). An EvalScratch owns both so a batch of
// evaluations on one thread reuses the high-water-mark allocations
// instead of round-tripping the allocator per candidate.
//
// Scratch is *capacity only*: every kernel that borrows a buffer
// resizes/assigns it before reading, so results are bit-for-bit
// independent of what a previous candidate left behind. Arenas are not
// thread-safe — each backend worker owns its own (the serial backend
// keeps one, the thread-pool and farm backends one per worker).
#pragma once

#include <cstdint>
#include <vector>

#include "stats/em_kernel.hpp"

namespace ldga::stats {

struct EvalScratch {
  /// EM iteration buffers (expected counts, per-pattern products).
  EmKernelScratch em;
  /// DFS row block for the packed pattern enumeration:
  /// (loci + 1) * words_per_snp words at high-water mark.
  std::vector<std::uint64_t> dfs_rows;
};

}  // namespace ldga::stats
