#include "stats/clump.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "stats/special.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace ldga::stats {

void ClumpConfig::validate() const {
  if (rare_expected_threshold < 0.0) {
    throw ConfigError("ClumpConfig: rare_expected_threshold must be >= 0");
  }
  if (mc_early_stop && monte_carlo_trials == 0) {
    throw ConfigError(
        "ClumpConfig: mc_early_stop needs Monte Carlo enabled — set "
        "monte_carlo_trials > 0 (the trial count is the replicate "
        "ceiling the stopper works under), or turn mc_early_stop off");
  }
  if (mc_early_stop && mc_min_batch == 0) {
    throw ConfigError(
        "ClumpConfig: mc_min_batch must be >= 1 (it is the first batch "
        "of the early-stopping schedule)");
  }
  if (!(mc_significance > 0.0 && mc_significance < 1.0)) {
    throw ConfigError(
        "ClumpConfig: mc_significance must be strictly inside (0, 1); "
        "got " +
        std::to_string(mc_significance));
  }
  if (!(mc_error_rate > 0.0 && mc_error_rate < 1.0)) {
    throw ConfigError(
        "ClumpConfig: mc_error_rate must be strictly inside (0, 1); "
        "got " +
        std::to_string(mc_error_rate));
  }
}

Clump::Clump(ClumpConfig config) : config_(config) {
  config_.validate();
  if (config_.monte_carlo_trials > 0) {
    pool_ = parallel::make_worker_pool(config_.monte_carlo_workers);
  }
}

namespace {

/// T2's table: columns whose expected count in either row falls below
/// the threshold are clumped into one "rest" column.
ContingencyTable clump_rare(const ContingencyTable& table, double threshold) {
  std::vector<std::uint32_t> kept;
  for (std::uint32_t c = 0; c < table.cols(); ++c) {
    bool common = true;
    for (std::uint32_t r = 0; r < table.rows(); ++r) {
      if (table.expected(r, c) < threshold) {
        common = false;
        break;
      }
    }
    if (common) kept.push_back(c);
  }
  return table.clump_columns(kept);
}

/// The observed table's two rows and row totals, the input of the
/// T3/T4 scans. A candidate column group's 2×2 split [a, R0−a; b, R1−b]
/// is determined by its two row sums (a, b) alone, so one chi_columns
/// sweep shifted by the group's running sums scores every one-column
/// extension — no per-candidate collapse_to_two table.
struct TwoRows {
  explicit TwoRows(const ContingencyTable& table)
      : row0(table.row_total(0)), row1(table.row_total(1)) {
    top.reserve(table.cols());
    bottom.reserve(table.cols());
    for (std::uint32_t c = 0; c < table.cols(); ++c) {
      top.push_back(table.at(0, c));
      bottom.push_back(table.at(1, c));
    }
  }

  std::uint32_t cols() const { return static_cast<std::uint32_t>(top.size()); }

  std::vector<double> top;
  std::vector<double> bottom;
  double row0 = 0.0;
  double row1 = 0.0;
};

/// Statistic value of the best single-column 2×2 split (T3), also
/// returning the winning column: one chi_columns sweep, then a scalar
/// argmax that keeps the first maximum.
std::pair<double, std::uint32_t> best_single_column(const TwoRows& rows) {
  std::vector<double> chi(rows.cols());
  util::simd().chi_columns(rows.top.data(), rows.bottom.data(), rows.cols(),
                           0.0, 0.0, rows.row0, rows.row1, chi.data());
  double best = 0.0;
  std::uint32_t best_col = 0;
  for (std::uint32_t c = 0; c < rows.cols(); ++c) {
    if (chi[c] > best) {
      best = chi[c];
      best_col = c;
    }
  }
  return {best, best_col};
}

/// T4: greedy growth of a column group maximizing the 2×2 chi-square,
/// seeded with T3's statistic and column. Every round's extension scan
/// is one chi_columns sweep shifted by the group's running row sums;
/// used columns are skipped in the scalar argmax, so the greedy
/// decisions keep their order.
std::pair<double, std::vector<std::uint32_t>> best_column_group(
    const TwoRows& rows, double best, std::uint32_t seed) {
  std::vector<std::uint32_t> group{seed};
  std::vector<bool> used(rows.cols(), false);
  used[seed] = true;
  double group_top = rows.top[seed];
  double group_bottom = rows.bottom[seed];
  std::vector<double> chi(rows.cols());

  bool improved = true;
  while (improved && group.size() + 1 < rows.cols()) {
    improved = false;
    double round_best = best;
    std::uint32_t round_col = 0;
    util::simd().chi_columns(rows.top.data(), rows.bottom.data(),
                             rows.cols(), group_top, group_bottom, rows.row0,
                             rows.row1, chi.data());
    for (std::uint32_t c = 0; c < rows.cols(); ++c) {
      if (used[c]) continue;
      if (chi[c] > round_best) {
        round_best = chi[c];
        round_col = c;
        improved = true;
      }
    }
    if (improved) {
      best = round_best;
      group.push_back(round_col);
      used[round_col] = true;
      group_top += rows.top[round_col];
      group_bottom += rows.bottom[round_col];
    }
  }
  std::sort(group.begin(), group.end());
  return {best, group};
}

/// Sub-batch width of the batched Monte-Carlo engine: enough replicates
/// per slab to amortize the scratch setup, small enough that the slabs
/// stay cache-resident and the thread pool has work items to balance.
constexpr std::uint32_t kRepBatch = 64;

/// Everything about a Monte-Carlo replicate that does NOT depend on the
/// trial's shuffle, hoisted out of the trial loop. A null table is the
/// observed marginals, rounded to integers, with the observations'
/// column labels shuffled and dealt to the rows by quota: shuffled
/// positions [0, cut) go to the top row and [cut, deal_end) to the
/// bottom row (the permutation null; reference_clump's sample_null is
/// the per-trial oracle). The rounding is the same every trial, so the
/// quotas, the column-label template, the deal's two boundaries (quotas
/// clamped by the label count when the rounding fix truncated a
/// column), the zero-statistic flags of the degenerate cases and T2's
/// clump set (expected counts under the null depend on marginals only)
/// are all pure functions of the observed table. The last two assume
/// every label is dealt; see undealt_labels.
struct NullReplicateInvariants {
  std::uint32_t cols = 0;
  /// One label per observation (its column), column-ascending: the
  /// template every trial shuffles.
  std::vector<std::uint32_t> labels;
  /// The top row's size and the bottom row's end. deal_end is the label
  /// count unless the rounding fix clamped a column, which leaves
  /// positions [deal_end, labels.size()) dealt to no row.
  std::size_t cut = 0;
  std::size_t deal_end = 0;
  /// deal_end < labels.size(): each replicate's column totals then fall
  /// short of the quotas by its own undealt labels, so T1 and T2, the
  /// statistics that read column totals, score each replicate as a
  /// table of its own, as the observed statistics are scored.
  bool undealt_labels = false;
  double rare_threshold = 0.0;  ///< T2's, for that per-table scoring
  /// The quotas, as doubles: every replicate's column totals unless
  /// undealt_labels.
  std::vector<double> col_sums;
  double row0 = 0.0;
  double row1 = 0.0;
  double total = 0.0;
  /// pearson_chi_square's degenerate-case early-outs, decided from the
  /// null marginals (identical for every replicate).
  bool t1_zero = true;
  bool t2_zero = true;
  /// clump_rare's kept set on a null replicate (column-ascending) and
  /// the clumped table's column totals (kept quotas + rest).
  std::vector<std::uint32_t> kept;
  std::vector<std::uint8_t> is_kept;
  std::vector<double> t2_col_sums;
};

NullReplicateInvariants build_null_invariants(const ContingencyTable& table,
                                              double rare_threshold) {
  NullReplicateInvariants inv;
  inv.cols = table.cols();

  // Marginal rounding: estimated counts are near-integers in total, so
  // the rounding error goes to the largest column.
  std::int64_t row_quota[2] = {0, 0};
  std::vector<std::int64_t> col_quota(inv.cols);
  std::int64_t row_sum_total = 0, col_sum_total = 0;
  for (std::uint32_t r = 0; r < 2; ++r) {
    row_quota[r] = std::llround(table.row_total(r));
    row_sum_total += row_quota[r];
  }
  for (std::uint32_t c = 0; c < inv.cols; ++c) {
    col_quota[c] = std::llround(table.col_total(c));
    col_sum_total += col_quota[c];
  }
  if (col_sum_total != row_sum_total && inv.cols > 0) {
    const auto biggest = static_cast<std::uint32_t>(
        std::max_element(col_quota.begin(), col_quota.end()) -
        col_quota.begin());
    col_quota[biggest] += row_sum_total - col_sum_total;
    if (col_quota[biggest] < 0) col_quota[biggest] = 0;
  }

  inv.labels.reserve(static_cast<std::size_t>(
      std::max<std::int64_t>(row_sum_total, 0)));
  inv.col_sums.resize(inv.cols);
  std::uint32_t live_cols = 0;
  for (std::uint32_t c = 0; c < inv.cols; ++c) {
    for (std::int64_t i = 0; i < col_quota[c]; ++i) inv.labels.push_back(c);
    inv.col_sums[c] = static_cast<double>(col_quota[c]);
    if (inv.col_sums[c] > 0.0) ++live_cols;
  }

  // Dealt row totals: the deal consumes quotas in row order but stops
  // at the label count (shorter when the rounding fix clamped a column
  // negative), so the Kahan row sums every replicate's
  // pearson_chi_square computes are these exact integers.
  const auto n_labels = static_cast<std::int64_t>(inv.labels.size());
  const std::int64_t row0 =
      std::clamp<std::int64_t>(row_quota[0], 0, n_labels);
  const std::int64_t row1 =
      std::clamp<std::int64_t>(row_quota[1], 0, n_labels - row0);
  inv.cut = static_cast<std::size_t>(row0);
  inv.deal_end = static_cast<std::size_t>(row0 + row1);
  inv.undealt_labels = inv.deal_end < inv.labels.size();
  inv.rare_threshold = rare_threshold;
  inv.row0 = static_cast<double>(row0);
  inv.row1 = static_cast<double>(row1);
  inv.total = inv.row0 + inv.row1;
  const std::uint32_t live_rows =
      (inv.row0 > 0.0 ? 1u : 0u) + (inv.row1 > 0.0 ? 1u : 0u);
  inv.t1_zero = inv.total <= 0.0 || live_rows < 2 || live_cols < 2;

  // T2's clump set on a null replicate: expected counts depend on the
  // (invariant) marginals only, via the exact expression
  // ContingencyTable::expected evaluates.
  inv.is_kept.assign(inv.cols, 0);
  for (std::uint32_t c = 0; c < inv.cols; ++c) {
    bool common = true;
    for (const double row : {inv.row0, inv.row1}) {
      const double e =
          inv.total <= 0.0 ? 0.0 : row * inv.col_sums[c] / inv.total;
      if (e < rare_threshold) {
        common = false;
        break;
      }
    }
    if (common) {
      inv.kept.push_back(c);
      inv.is_kept[c] = 1;
    }
  }
  inv.t2_col_sums.resize(inv.kept.size() + 1);
  std::int64_t rest = 0;
  std::uint32_t t2_live_cols = 0;
  for (std::uint32_t i = 0; i < inv.kept.size(); ++i) {
    inv.t2_col_sums[i] = inv.col_sums[inv.kept[i]];
    if (inv.t2_col_sums[i] > 0.0) ++t2_live_cols;
  }
  for (std::uint32_t c = 0; c < inv.cols; ++c) {
    if (inv.is_kept[c] == 0) rest += col_quota[c];
  }
  inv.t2_col_sums.back() = static_cast<double>(rest);
  if (inv.t2_col_sums.back() > 0.0) ++t2_live_cols;
  inv.t2_zero = inv.total <= 0.0 || live_rows < 2 || t2_live_cols < 2;
  return inv;
}

/// Slab buffers of one batched sub-batch; thread_local in the runner so
/// each pool worker reuses its high-water-mark allocations.
struct NullBatchScratch {
  std::vector<std::uint32_t> labels;
  /// One replicate's per-column label counts of positions
  /// [cut, deal_end) (the bottom row) and [deal_end, labels.size()).
  std::vector<std::uint32_t> dealt, spare;
  std::vector<double> top, bottom;        ///< reps × cols replicate slabs
  std::vector<double> t2_top, t2_bottom;  ///< reps × (kept + 1) clumped slabs
  std::vector<double> stat;               ///< per-replicate statistic
  std::vector<double> chi;                ///< reps × cols column scans
  std::vector<double> chi_round;          ///< one round of a T4 continuation
  std::vector<double> add_top, add_bottom;
  std::vector<double> t3_stat;
  std::vector<std::uint32_t> t3_col;
  std::vector<std::uint8_t> used;
};

/// Replicate r of the scratch slabs as a table.
ContingencyTable replicate_table(const NullBatchScratch& s, std::uint32_t r,
                                 std::uint32_t cols) {
  ContingencyTable table(2, cols);
  for (std::uint32_t c = 0; c < cols; ++c) {
    table.set(0, c, s.top[std::size_t{r} * cols + c]);
    table.set(1, c, s.bottom[std::size_t{r} * cols + c]);
  }
  return table;
}

/// Runs trials [begin, end) of the pre-drawn seed sequence: deals each
/// replicate's null table into the slabs from the shuffle's draws over
/// the bottom row's positions only, scores the four statistics through
/// the batch kernels (T1 and T2 per table when labels go undealt), and
/// sets outcome bit k when statistic k+1 of the null reaches the
/// observed one. Each replicate's statistics are bit-identical to the
/// per-table kernels on that replicate alone (the batch-kernel contract
/// in util/simd.hpp).
void run_trials_batched(const NullReplicateInvariants& inv,
                        const ClumpResult& observed,
                        std::span<const std::uint64_t> seeds,
                        std::uint32_t begin, std::uint32_t end,
                        std::uint8_t* outcomes) {
  thread_local NullBatchScratch s;
  const std::uint32_t reps = end - begin;
  const std::uint32_t cols = inv.cols;
  const auto t2_cols = static_cast<std::uint32_t>(inv.kept.size() + 1);
  const util::SimdKernels& kernels = util::simd();

  // Deal every replicate into the slabs. Rng::shuffle fixes positions
  // from the end: its step over position p draws j <= p, swaps p and j,
  // and no later step touches p again. So the steps over positions
  // N − 1 down to cut already leave [cut, N) as the full shuffle would
  // (at cut = 0 the step over position 0, which the shuffle skips, is
  // the identity). Per trial: one label-template copy, those N − cut
  // steps only (the trial stream's only consumption, against N − 1 for
  // a full shuffle), each drawn label counted rather than written back,
  // and the top row as the column totals minus the counted tail, exact
  // in doubles. The null table is the full shuffle-and-deal's, cell for
  // cell.
  s.top.resize(std::size_t{reps} * cols);
  s.bottom.resize(std::size_t{reps} * cols);
  for (std::uint32_t r = 0; r < reps; ++r) {
    s.labels = inv.labels;
    s.dealt.assign(cols, 0);
    s.spare.assign(cols, 0);
    Rng trial_rng(seeds[begin + r]);
    std::uint32_t* labels = s.labels.data();
    const auto draw = [&](std::size_t p) {
      const auto j = static_cast<std::size_t>(trial_rng.below(p + 1));
      const std::uint32_t label = labels[j];
      labels[j] = labels[p];
      return label;
    };
    std::size_t p = inv.labels.size();
    while (p > inv.deal_end) ++s.spare[draw(--p)];
    while (p > inv.cut) ++s.dealt[draw(--p)];
    double* top = s.top.data() + std::size_t{r} * cols;
    double* bottom = s.bottom.data() + std::size_t{r} * cols;
    for (std::uint32_t c = 0; c < cols; ++c) {
      bottom[c] = static_cast<double>(s.dealt[c]);
      top[c] = inv.col_sums[c] - static_cast<double>(s.dealt[c] + s.spare[c]);
    }
  }

  // T1: Pearson over every replicate with the hoisted marginals, or per
  // table when labels go undealt.
  s.stat.resize(reps);
  if (inv.undealt_labels) {
    for (std::uint32_t r = 0; r < reps; ++r) {
      s.stat[r] = replicate_table(s, r, cols).pearson_chi_square().statistic;
    }
  } else if (inv.t1_zero) {
    std::fill(s.stat.begin(), s.stat.end(), 0.0);
  } else {
    kernels.batch_pearson_2xn(s.top.data(), s.bottom.data(),
                              inv.col_sums.data(), cols, reps, inv.row0,
                              inv.row1, inv.total, s.stat.data());
  }
  for (std::uint32_t r = 0; r < reps; ++r) {
    if (reaches_observed(s.stat[r], observed.t1.statistic)) {
      outcomes[begin + r] |= 1u;
    }
  }

  // T2: clump with the invariant kept set, then Pearson on the clumped
  // slabs (per table when labels go undealt). Cells are integer-valued,
  // so the rest-column adds are exact in any order.
  if (inv.undealt_labels) {
    for (std::uint32_t r = 0; r < reps; ++r) {
      s.stat[r] = clump_rare(replicate_table(s, r, cols), inv.rare_threshold)
                      .pearson_chi_square()
                      .statistic;
    }
  } else if (inv.t2_zero) {
    std::fill(s.stat.begin(), s.stat.end(), 0.0);
  } else {
    s.t2_top.assign(std::size_t{reps} * t2_cols, 0.0);
    s.t2_bottom.assign(std::size_t{reps} * t2_cols, 0.0);
    for (std::uint32_t r = 0; r < reps; ++r) {
      const double* top = s.top.data() + std::size_t{r} * cols;
      const double* bottom = s.bottom.data() + std::size_t{r} * cols;
      double* t2_top = s.t2_top.data() + std::size_t{r} * t2_cols;
      double* t2_bottom = s.t2_bottom.data() + std::size_t{r} * t2_cols;
      for (std::uint32_t i = 0; i < inv.kept.size(); ++i) {
        t2_top[i] = top[inv.kept[i]];
        t2_bottom[i] = bottom[inv.kept[i]];
      }
      for (std::uint32_t c = 0; c < cols; ++c) {
        if (inv.is_kept[c] != 0) continue;
        t2_top[t2_cols - 1] += top[c];
        t2_bottom[t2_cols - 1] += bottom[c];
      }
    }
    kernels.batch_pearson_2xn(s.t2_top.data(), s.t2_bottom.data(),
                              inv.t2_col_sums.data(), t2_cols, reps,
                              inv.row0, inv.row1, inv.total, s.stat.data());
  }
  for (std::uint32_t r = 0; r < reps; ++r) {
    if (reaches_observed(s.stat[r], observed.t2.statistic)) {
      outcomes[begin + r] |= 2u;
    }
  }

  // T3: one column scan across the whole slab, scalar first-max argmax
  // per replicate (the tie-breaking best_single_column uses).
  s.chi.resize(std::size_t{reps} * cols);
  s.t3_stat.resize(reps);
  s.t3_col.resize(reps);
  kernels.batch_chi_columns(s.top.data(), s.bottom.data(), cols, reps,
                            nullptr, nullptr, inv.row0, inv.row1,
                            s.chi.data());
  for (std::uint32_t r = 0; r < reps; ++r) {
    const double* chi = s.chi.data() + std::size_t{r} * cols;
    double best = 0.0;
    std::uint32_t best_col = 0;
    for (std::uint32_t c = 0; c < cols; ++c) {
      if (chi[c] > best) {
        best = chi[c];
        best_col = c;
      }
    }
    s.t3_stat[r] = best;
    s.t3_col[r] = best_col;
    if (reaches_observed(best, observed.t3.statistic)) {
      outcomes[begin + r] |= 4u;
    }
  }

  // T4: the greedy growth seeds from T3's winner, as best_column_group
  // does. Round 1 is uniform across replicates — every group is one
  // seed column — so it runs lockstep through the per-replicate shift
  // pairs; later rounds diverge and continue per replicate on this
  // level's chi_columns.
  const bool t4_rounds = cols > 2;  // group.size() + 1 < cols at size 1
  if (t4_rounds) {
    s.add_top.resize(reps);
    s.add_bottom.resize(reps);
    for (std::uint32_t r = 0; r < reps; ++r) {
      s.add_top[r] = s.top[std::size_t{r} * cols + s.t3_col[r]];
      s.add_bottom[r] = s.bottom[std::size_t{r} * cols + s.t3_col[r]];
    }
    kernels.batch_chi_columns(s.top.data(), s.bottom.data(), cols, reps,
                              s.add_top.data(), s.add_bottom.data(),
                              inv.row0, inv.row1, s.chi.data());
  }
  for (std::uint32_t r = 0; r < reps; ++r) {
    double best = s.t3_stat[r];
    if (t4_rounds) {
      const double* top = s.top.data() + std::size_t{r} * cols;
      const double* bottom = s.bottom.data() + std::size_t{r} * cols;
      const double* chi = s.chi.data() + std::size_t{r} * cols;
      const std::uint32_t seed = s.t3_col[r];
      s.used.assign(cols, 0);
      s.used[seed] = 1;
      double group_top = top[seed];
      double group_bottom = bottom[seed];
      std::uint32_t group_size = 1;
      bool improved = false;
      double round_best = best;
      std::uint32_t round_col = 0;
      for (std::uint32_t c = 0; c < cols; ++c) {
        if (s.used[c] != 0) continue;
        if (chi[c] > round_best) {
          round_best = chi[c];
          round_col = c;
          improved = true;
        }
      }
      while (improved) {
        best = round_best;
        s.used[round_col] = 1;
        ++group_size;
        group_top += top[round_col];
        group_bottom += bottom[round_col];
        if (group_size + 1 >= cols) break;
        s.chi_round.resize(cols);
        kernels.chi_columns(top, bottom, cols, group_top, group_bottom,
                            inv.row0, inv.row1, s.chi_round.data());
        improved = false;
        round_best = best;
        for (std::uint32_t c = 0; c < cols; ++c) {
          if (s.used[c] != 0) continue;
          if (s.chi_round[c] > round_best) {
            round_best = s.chi_round[c];
            round_col = c;
            improved = true;
          }
        }
      }
    }
    if (reaches_observed(best, observed.t4.statistic)) {
      outcomes[begin + r] |= 8u;
    }
  }
}

}  // namespace

ChiSquare Clump::t1(const ContingencyTable& table) const {
  return table.drop_empty_columns().pearson_chi_square();
}

ClumpResult Clump::analyze(const ContingencyTable& raw, Rng& rng) const {
  LDGA_EXPECTS(raw.rows() == 2);
  const ContingencyTable table = raw.drop_empty_columns();

  ClumpResult result;

  // Observed statistics.
  {
    const auto chi = table.pearson_chi_square();
    result.t1 = {chi.statistic, chi.df, chi.p_value, std::nullopt};
  }
  {
    const auto chi = clump_rare(table, config_.rare_expected_threshold)
                         .pearson_chi_square();
    result.t2 = {chi.statistic, chi.df, chi.p_value, std::nullopt};
  }
  {
    const TwoRows rows(table);
    const auto [t3, t3_col] = best_single_column(rows);
    result.t3 = {t3, 1, chi_square_sf(t3, 1.0), std::nullopt};
    auto [t4, group] = best_column_group(rows, t3, t3_col);
    result.t4 = {t4, 1, chi_square_sf(t4, 1.0), std::nullopt};
    result.t4_group = std::move(group);
  }

  // Monte-Carlo resampling: each replicate recomputes all four
  // statistics on a null table with the observed marginals. The
  // caller's RNG is consumed only to seed one child stream per trial —
  // sequentially, before any replicate runs (and for *all* configured
  // trials even under early stopping, so both modes sample identical
  // null tables) — which makes the result a pure function of
  // (seed, trial count) whatever the worker count. The per-trial
  // outcome bytes (one "null reaches observed" bit per statistic) are
  // deliberately NOT a vector<bool>: distinct bytes keep parallel
  // writers off each other's memory.
  if (config_.monte_carlo_trials > 0) {
    const std::uint32_t trials = config_.monte_carlo_trials;
    std::vector<std::uint64_t> seeds(trials);
    for (auto& seed : seeds) seed = rng();
    std::vector<std::uint8_t> outcomes(trials, 0);

    // Hoist the trial-invariant null structure once, then deal and
    // score trials [begin, end) in kRepBatch sub-batches over the pool.
    const NullReplicateInvariants invariants =
        build_null_invariants(table, config_.rare_expected_threshold);
    const auto run_range = [&](std::uint32_t begin, std::uint32_t end) {
      const std::uint32_t n_chunks =
          (end - begin + kRepBatch - 1) / kRepBatch;
      parallel::parallel_for(pool_.get(), 0, n_chunks, [&](std::size_t chunk) {
        const auto chunk_begin = static_cast<std::uint32_t>(
            begin + chunk * std::uint64_t{kRepBatch});
        const std::uint32_t chunk_end =
            std::min(chunk_begin + kRepBatch, end);
        run_trials_batched(invariants, result, seeds, chunk_begin, chunk_end,
                           outcomes.data());
      });
    };

    std::uint32_t run = 0;
    if (!config_.mc_early_stop) {
      run_range(0, trials);
      run = trials;
    } else {
      // Sequential test with doubling batches. The Hoeffding bound
      // P(|q̂ − q| >= ε) <= 2 exp(−2nε²) gives, at confidence δ per
      // (statistic, look), the halfwidth ε = sqrt(ln(2/δ) / 2n).
      // Splitting mc_error_rate over the four statistics and every
      // interim look (δ = error / (4 L)) union-bounds the probability
      // that any decided call flips against the full run's exceedance
      // rate. A call is decided once α lies outside [q̂ − ε, q̂ + ε].
      std::uint32_t looks = 1;
      for (std::uint64_t n = std::min(config_.mc_min_batch, trials);
           n < trials; n *= 2) {
        ++looks;
      }
      const double delta = config_.mc_error_rate / (4.0 * looks);
      const double alpha = config_.mc_significance;
      std::uint32_t next = std::min(config_.mc_min_batch, trials);
      while (true) {
        run_range(run, next);
        run = next;
        std::uint32_t ge[4] = {0, 0, 0, 0};
        for (std::uint32_t t = 0; t < run; ++t) {
          const std::uint8_t hits = outcomes[t];
          ge[0] += hits & 1u;
          ge[1] += (hits >> 1) & 1u;
          ge[2] += (hits >> 2) & 1u;
          ge[3] += (hits >> 3) & 1u;
        }
        const double eps =
            std::sqrt(std::log(2.0 / delta) / (2.0 * static_cast<double>(run)));
        bool decided = true;
        for (const std::uint32_t g : ge) {
          const double q = static_cast<double>(g) / static_cast<double>(run);
          if (q + eps >= alpha && q - eps <= alpha) {
            decided = false;
            break;
          }
        }
        if (decided && run < trials) {
          result.mc_early_stopped = true;
          break;
        }
        if (run >= trials) break;
        next = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(std::uint64_t{run} * 2, trials));
      }
    }
    result.mc_replicates_run = run;

    std::uint32_t ge1 = 0, ge2 = 0, ge3 = 0, ge4 = 0;
    for (std::uint32_t t = 0; t < run; ++t) {
      const std::uint8_t hits = outcomes[t];
      ge1 += hits & 1u;
      ge2 += (hits >> 1) & 1u;
      ge3 += (hits >> 2) & 1u;
      ge4 += (hits >> 3) & 1u;
    }
    const auto empirical = [&](std::uint32_t ge) {
      return (1.0 + ge) / (1.0 + run);
    };
    result.t1.p_monte_carlo = empirical(ge1);
    result.t2.p_monte_carlo = empirical(ge2);
    result.t3.p_monte_carlo = empirical(ge3);
    result.t4.p_monte_carlo = empirical(ge4);
  }
  return result;
}

}  // namespace ldga::stats
