// Tiled pairwise-LD prefilter over a GenotypeStore.
//
// Which windows of a genome-scale panel deserve a GA run? Regions of
// elevated pairwise disequilibrium — haplotype-block structure — are
// where multi-SNP association signals can live, so the prefilter sweeps
// every intra-window SNP pair, summarizes each window's LD, and ranks
// the windows. The GA driver (ga/window_scan.hpp) then spends its
// budget on the top of the ranking.
//
// The pair statistic is composite (genotype-dosage) LD, computed
// entirely from the 2-bit plane words with the fused popcount kernels
// of util/simd.hpp — no EM, no phase: over individuals typed at both
// loci, the dosage g = lo + 2·hi ∈ {0,1,2} gives
//
//   Σ g_a       =   cnt(V∧lo_a) + 2·cnt(V∧hi_a)
//   Σ g_a²      =   cnt(V∧lo_a) + 4·cnt(V∧hi_a)
//   Σ g_a·g_b   =   cnt(V∧lo_a∧lo_b) + 2·cnt(V∧lo_a∧hi_b)
//                 + 2·cnt(V∧hi_a∧lo_b) + 4·cnt(V∧hi_a∧hi_b)
//
// (V = jointly-valid mask), from which r² is the squared dosage
// correlation and D = cov/2 with Lewontin's normalization for D'.
// Composite r² equals the EM-based haplotypic r² under random mating
// and approximates it otherwise — exactly the right fidelity for a
// prefilter whose output is a ranking, not a statistic.
//
// Pairs are processed in tiles (tile × tile index blocks) so both
// columns' plane words stay cache-resident across the inner loop; on an
// mmap'd store a tile touches only its own pages, keeping the sweep's
// resident set at O(tile) regardless of panel size.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ga/window_scan.hpp"
#include "genomics/genotype_store.hpp"
#include "genomics/ld.hpp"
#include "genomics/types.hpp"

namespace ldga::analysis {

struct LdPrefilterConfig {
  /// Tile edge of the blocked pair sweep (cache locality knob; the
  /// result is independent of it).
  std::uint32_t tile_snps = 256;
  /// A pair with r² at or above this counts as a "strong" pair in
  /// WindowScore::strong_pairs (block-structure evidence).
  double strong_r2 = 0.2;
  /// Worker threads for the sweep: 1 runs inline on the caller, 0 means
  /// hardware concurrency. Windows are the unit of parallel work — one
  /// worker scores a whole window, its tiles in fixed order — so a
  /// window's score never depends on the worker count, bit for bit.
  std::uint32_t workers = 1;

  void validate() const;
};

/// One window's LD summary. `score` is what rankings sort by: the mean
/// pairwise r², i.e. LD mass normalized by window area so partial
/// windows compete fairly with full ones.
struct WindowScore {
  ga::WindowSpec window;
  double mean_r2 = 0.0;
  double max_r2 = 0.0;
  double mean_abs_d_prime = 0.0;
  std::uint64_t strong_pairs = 0;
  std::uint64_t pairs = 0;
  double score = 0.0;
};

/// Composite LD of one pair, straight from the store's plane words.
/// Degenerate pairs (a monomorphic locus, or < 2 jointly-typed
/// individuals) score zero. Exposed for tests and spot checks; the
/// sweep below uses the same arithmetic.
genomics::PairLd composite_pair_ld(const genomics::GenotypeStore& store,
                                   genomics::SnpIndex a,
                                   genomics::SnpIndex b);

/// Tiled sweep: every intra-window pair of every window, one
/// WindowScore per WindowSpec (same order). The windows are shared out
/// over `config.workers` threads.
std::vector<WindowScore> score_windows(const genomics::GenotypeStore& store,
                                       std::span<const ga::WindowSpec> windows,
                                       const LdPrefilterConfig& config = {});

/// The `keep` highest-scoring windows, re-sorted into genomic order so
/// the result feeds run_window_scan's overlap-based elite migration
/// directly. Ties break toward the earlier window (deterministic).
std::vector<ga::WindowSpec> top_windows(std::span<const WindowScore> scores,
                                        std::uint32_t keep);

}  // namespace ldga::analysis
