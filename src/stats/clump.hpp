// CLUMP (Sham & Curtis 1995): chi-square statistics for association
// between disease status and the columns of a 2 × M contingency table,
// designed for highly polymorphic loci where many columns are rare.
//
// The four published statistics:
//   T1 — Pearson chi-square on the raw table,
//   T2 — chi-square after clumping columns with small expected counts
//        into a single "rest" column,
//   T3 — the largest 2×2 chi-square obtained by testing each column
//        against all others combined,
//   T4 — the largest 2×2 chi-square over *groups* of columns, grown
//        greedily (the original program hill-climbs the partition).
// Each can be given an empirical Monte-Carlo p-value by resampling
// tables with the same marginals under the null.
//
// The paper's fitness is the raw statistic ("a good haplotype ... has a
// high value of T1").
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "stats/contingency.hpp"
#include "util/rng.hpp"

namespace ldga::stats {

struct ClumpConfig {
  /// Monte-Carlo replicates per statistic; 0 disables resampling and
  /// leaves only analytic p-values.
  std::uint32_t monte_carlo_trials = 0;
  /// Expected-count threshold below which T2 clumps a column.
  double rare_expected_threshold = 5.0;
  /// Threads for the Monte-Carlo replicates, the caller among them
  /// (Sham & Curtis's sampling is embarrassingly parallel): 1 runs
  /// inline on the caller, 0 means hardware concurrency. Every
  /// replicate draws from its own child stream seeded sequentially off
  /// the caller's RNG, so the p-values depend on seed and trial count
  /// only — never on the worker count.
  std::uint32_t monte_carlo_workers = 1;
  /// Sequential early stopping: run replicates in doubling batches and
  /// stop once every statistic's significance call at mc_significance
  /// is decided by a Hoeffding confidence bound (total wrong-call
  /// probability <= mc_error_rate per analysis, union-bounded over the
  /// four statistics and all interim looks). monte_carlo_trials stays
  /// the hard ceiling; the decided calls agree with the fixed-replicate
  /// run within the error rate, but the empirical p-values themselves
  /// are resolved only to batch precision. Off by default: the exact
  /// fixed-replicate path is the reference. Both modes pre-draw every
  /// trial seed, so a given (seed, trials) pair samples identical null
  /// tables whatever the mode or worker count.
  bool mc_early_stop = false;
  /// First batch size of the early-stopping schedule (doubles each
  /// look, capped at monte_carlo_trials).
  std::uint32_t mc_min_batch = 64;
  /// Significance threshold the early stopper decides against.
  double mc_significance = 0.05;
  /// Bound on the probability that any early-stopped significance call
  /// disagrees with the full fixed-replicate run.
  double mc_error_rate = 1e-3;
  void validate() const;
};

struct ClumpStatistic {
  double statistic = 0.0;
  std::uint32_t df = 0;
  /// Analytic chi-square p-value; for T3/T4 this is nominal (unadjusted
  /// for selection), which is why CLUMP pairs them with Monte Carlo.
  double p_analytic = 1.0;
  /// Empirical p-value (1 + #null reaching observed) / (1 + trials),
  /// counted by reaches_observed; empty when Monte Carlo was disabled.
  std::optional<double> p_monte_carlo;
};

struct ClumpResult {
  ClumpStatistic t1;
  ClumpStatistic t2;
  ClumpStatistic t3;
  ClumpStatistic t4;
  /// Column group selected by T4's greedy search (indices into the
  /// empty-column-pruned table).
  std::vector<std::uint32_t> t4_group;
  /// Monte-Carlo replicates actually executed (== monte_carlo_trials
  /// unless the early stopper fired; 0 when Monte Carlo is off).
  std::uint32_t mc_replicates_run = 0;
  /// True when the early stopper decided all four calls before the
  /// replicate ceiling.
  bool mc_early_stopped = false;
};

/// Whether a Monte-Carlo null statistic counts as reaching the observed
/// one: null >= observed · (1 − 64ε), the rule of R's chisq.test. On a
/// table of integer counts some null tables tie the observed statistic
/// exactly, and summing the same terms in another order can round such
/// a tie a few ulps to either side; the tolerance counts every tie.
inline bool reaches_observed(double null_statistic, double observed) {
  return null_statistic >=
         observed * (1.0 - 64.0 * std::numeric_limits<double>::epsilon());
}

class Clump {
 public:
  /// The 2×2 column scans (T3/T4) and Pearson accumulation run through
  /// the dispatched vector kernels (util/simd.hpp), and the Monte-Carlo
  /// replicates through the replicate-batched engine: the
  /// trial-invariant null structure (rounded marginals, label template,
  /// T2's clump set, zero-statistic flags) is hoisted out of the trial
  /// loop, replicates are dealt into replicate-major slabs in
  /// sub-batches, and the four statistics run through the batch kernels
  /// (batch_pearson_2xn, batch_chi_columns). Deterministic for a fixed
  /// dispatch level; statistics agree with the Kahan-summed per-trial
  /// test oracle (reference_clump) to ~1e-9.
  explicit Clump(ClumpConfig config = {});

  /// Analyzes a 2 × M table of (estimated) counts. Monte-Carlo draws, if
  /// enabled, consume the provided RNG; pass a deterministically seeded
  /// one for reproducible fitness values.
  ClumpResult analyze(const ContingencyTable& table, Rng& rng) const;

  /// T1 only — the paper's fitness path, cheaper than a full analysis.
  ChiSquare t1(const ContingencyTable& table) const;

 private:
  ClumpConfig config_;
  /// Absent unless Monte Carlo is enabled with more than one worker.
  /// Shared so Clump stays copyable (copies reuse the pool; analyze()
  /// may be called from several threads at once — the pool's queue is
  /// internally synchronized and each call drains only its own
  /// futures).
  std::shared_ptr<parallel::ThreadPool> pool_;
};

}  // namespace ldga::stats
