// Pairwise-LD prefilter over a GenotypeStore.
//
// Which windows of a genome-scale panel deserve a GA run? Regions of
// elevated pairwise disequilibrium — haplotype-block structure — are
// where multi-SNP association signals can live, so the prefilter sweeps
// every intra-window SNP pair, summarizes each window's LD, and ranks
// the windows. The GA driver (ga/window_scan.hpp) then spends its
// budget on the top of the ranking.
//
// The pair statistic is composite (genotype-dosage) LD, computed
// entirely from plane words with popcounts — no EM, no phase. A window
// first splits each locus' 2-bit planes into three disjoint *clean*
// planes, het H = lo∧¬hi, hom-two T = hi∧¬lo and missing M = lo∧hi,
// with the padding cleared, and keeps their popcounts. A cross term of
// H or T planes already leaves out anyone missing at either locus, so
// no joint mask is needed: over the n individuals typed at both loci,
// with dosage g ∈ {0,1,2} and N individuals in all,
//
//   n           =  N − |M_a| − |M_b| + |M_a∧M_b|
//   h_a, t_a    =  |H_a| − |H_a∧M_b|,  |T_a| − |T_a∧M_b|
//   Σ g_a       =  h_a + 2·t_a,        Σ g_a² = h_a + 4·t_a
//   Σ g_a·g_b   =  |H_a∧H_b| + 2·|H_a∧T_b| + 2·|T_a∧H_b| + 4·|T_a∧T_b|
//
// (b symmetrically). One dosage_pair call (util/simd.hpp) returns the
// cross sum and the five missing overlaps of a pair in a single pass.
// r² is the squared dosage correlation, and D = cov/2 with Lewontin's
// normalization for D'. Every count is an exact integer, so no result
// depends on the SIMD dispatch level. Composite r² equals the EM-based
// haplotypic r² under random mating and approximates it otherwise —
// exactly the right fidelity for a prefilter whose output is a ranking,
// not a statistic.
//
// A window is one pass over its pairs, a-major with b ascending, on its
// own clean-plane copy (3 × words per locus); on an mmap'd store a
// window touches only its own pages.
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
  /// A pair with r² at or above this counts as a "strong" pair in
  /// WindowScore::strong_pairs (block-structure evidence).
  double strong_r2 = 0.2;
  /// Threads sweeping the windows, the caller among them: 1 runs inline
  /// on the caller, 0 means hardware concurrency. Windows are the unit
  /// of parallel work — one thread scores a whole window — so a
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

/// Every intra-window pair of every window, one WindowScore per
/// WindowSpec (same order). The windows are shared out over
/// `config.workers` threads.
std::vector<WindowScore> score_windows(const genomics::GenotypeStore& store,
                                       std::span<const ga::WindowSpec> windows,
                                       const LdPrefilterConfig& config = {});

/// The `keep` highest-scoring windows, re-sorted into genomic order so
/// the result feeds run_window_scan's overlap-based elite migration
/// directly. Ties break toward the earlier window (deterministic).
std::vector<ga::WindowSpec> top_windows(std::span<const WindowScore> scores,
                                        std::uint32_t keep);

}  // namespace ldga::analysis
