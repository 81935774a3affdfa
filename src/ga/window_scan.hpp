// Windowed GA driver for genome-scale panels.
//
// The paper's GA searches a 51-SNP candidate region; a 10^5–10^6-SNP
// panel is far beyond what one haplotype search space can cover. The
// genome-scale driver shards the panel into overlapping SNP windows,
// runs the existing multipopulation engine inside each window against
// a column slice of a GenotypeStore (so an mmap'd store only pages in
// the loci under search), and migrates each window's elite haplotypes
// into the warm starts of overlapping neighbours — LD blocks that
// straddle a window boundary get a second chance in the neighbour that
// contains them whole, which is why overlap >= stride matters.
//
// One scheduler runs every scan. `concurrent_windows` workers (the
// caller is one of them) claim windows in list order and run each
// window's synchronous GaEngine, sharing one scan-wide evaluation
// thread pool when eval_workers asks for one. A window's donors are
// the elites of every overlapping window that had finished when it was
// claimed, in completion order; WindowResult::completion_rank and
// donor_windows record both, so the migration of any scan can be
// replayed after the fact.
//
// concurrent_windows = 1 is the deterministic configuration: windows
// finish in list order, so a window's donors are every overlapping
// earlier window, and a fixed config reproduces the same champions,
// fitness doubles and evaluation counts on every run (the evaluation
// backend never changes a GA trajectory, so eval_workers may still be
// > 1). While stride >= window / 2 (the 48-of-64 tiling of
// examples/genome_scan, say), a window overlaps only its neighbours, so
// its donor is the previous window alone; a tighter stride also draws
// on the windows before that one.
//
// Window *selection* (which windows deserve a GA at all) is not this
// layer's job: the LD prefilter in analysis/ld_prefilter.hpp
// scores windows, top_windows keeps the best, and callers pass the
// survivors here.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ga/engine.hpp"
#include "genomics/genotype_store.hpp"
#include "genomics/snp_panel.hpp"
#include "genomics/types.hpp"
#include "stats/evaluator.hpp"

namespace ldga::ga {

/// A contiguous locus range [begin, begin + count) of the panel.
struct WindowSpec {
  genomics::SnpIndex begin = 0;
  std::uint32_t count = 0;
};

/// Tiles [0, snp_count) into windows of `window_snps` every
/// `stride_snps` markers. stride <= window (no gaps); the last window
/// is clamped to end exactly at snp_count (it may be partial), and a
/// panel smaller than one window yields a single window covering it.
std::vector<WindowSpec> plan_windows(std::uint32_t snp_count,
                                     std::uint32_t window_snps,
                                     std::uint32_t stride_snps);

struct WindowScanConfig {
  /// Per-window engine template. `ga.seed` is the scan seed; each
  /// window runs with a seed mixed from it and the window's begin, so
  /// the scan is deterministic yet windows are decorrelated.
  GaConfig ga;
  stats::EvaluatorConfig evaluator;
  /// Best individuals carried from finished windows into the warm
  /// starts of an overlapping window (only those whose SNPs all fall
  /// inside the receiving window survive the move), taken best-first
  /// from every overlapping window finished when it was claimed. 0
  /// disables migration.
  std::uint32_t migrate_elites = 3;
  /// Window GAs in flight at once (scheduler workers, the calling
  /// thread included). 1 is the deterministic configuration.
  std::uint32_t concurrent_windows = 1;
  /// Threads that score a window's evaluation batch, the window's own
  /// thread among them (parallel::make_worker_pool): the scan spins up
  /// one pool of eval_workers − 1 threads and injects it into every
  /// window's backend, so windows stop paying pool setup each. 0 means
  /// hardware concurrency. A resolved count of 1 (1, or 0 on a one-core
  /// host) starts no pool and keeps the per-window serial backend, the
  /// cheapest when windows themselves run concurrently. Fitness results
  /// are backend-invariant either way.
  std::uint32_t eval_workers = 1;

  void validate() const;
};

/// One window's outcome. SNP indices are GLOBAL panel indices.
struct WindowResult {
  WindowSpec window;
  double best_fitness = 0.0;
  std::vector<genomics::SnpIndex> best_snps;
  std::uint32_t generations = 0;
  std::uint64_t evaluations = 0;
  /// Warm starts this window received from finished predecessors.
  std::uint32_t migrants_in = 0;
  /// 0-based position in the order windows *finished* — the record
  /// that makes a concurrent scan's migration deterministic after the
  /// fact (at concurrent_windows = 1 it equals the scan position).
  std::uint32_t completion_rank = 0;
  /// Scan positions of the overlapping windows that had finished when
  /// this one started and therefore donated elites to its warm starts.
  std::vector<std::uint32_t> donor_windows;
};

struct WindowScanResult {
  std::vector<WindowResult> windows;  ///< in scan (list) order
  /// Scan-wide champion (global indices; empty only if `windows` is).
  /// Chosen by walking windows in scan order, so the pick does not
  /// depend on completion order.
  std::vector<genomics::SnpIndex> best_snps;
  double best_fitness = 0.0;
  std::uint64_t evaluations = 0;
};

/// Runs the GA over each window. `panel` and `statuses` describe the
/// full store (a PackedGenotypeStore carries both; an in-memory matrix
/// takes them from its Dataset). Windows are claimed in list order, so
/// pass them in genomic order (as plan_windows and top_windows return
/// them) for elites to flow from each window into the next. Every
/// worker pages its claimed window and the next unclaimed one in
/// (GenotypeStore::prefetch_loci).
WindowScanResult run_window_scan(const genomics::GenotypeStore& store,
                                 const genomics::SnpPanel& panel,
                                 std::span<const genomics::Status> statuses,
                                 std::span<const WindowSpec> windows,
                                 const WindowScanConfig& config);

}  // namespace ldga::ga
