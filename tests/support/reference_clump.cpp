#include "support/reference_clump.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "stats/special.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"

namespace ldga::stats::reference {

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

/// Closed-form 2×2 chi-square N(ad − bc)² / (R0 R1 C0 C1) of the split
/// whose first column has cells (a, b), in a table with row totals
/// (row0, row1). A zero marginal leaves fewer than two live rows or
/// columns, which Pearson scores as 0.
double chi_2x2(double a, double b, double row0, double row1) {
  const double grand = row0 + row1;
  const double col0 = a + b;
  const double col1 = grand - col0;
  if (row0 <= 0.0 || row1 <= 0.0 || col0 <= 0.0 || col1 <= 0.0) return 0.0;
  const double cross = a * (row1 - b) - b * (row0 - a);
  return grand * cross * cross / (row0 * row1 * col0 * col1);
}

struct ColumnScans {
  double t3 = 0.0;
  double t4 = 0.0;
  std::vector<std::uint32_t> group;  ///< T4's columns, ascending
};

/// T3 and T4 of a 2-row table: the best single-column 2×2 split, then
/// the greedy growth of that column into a group while some unused
/// column's extension beats the group's chi-square (the first maximum
/// wins every round).
ColumnScans scan_columns(const ContingencyTable& table) {
  const double row0 = table.row_total(0);
  const double row1 = table.row_total(1);
  const std::uint32_t cols = table.cols();
  ColumnScans out;
  std::uint32_t seed = 0;
  for (std::uint32_t c = 0; c < cols; ++c) {
    const double chi = chi_2x2(table.at(0, c), table.at(1, c), row0, row1);
    if (chi > out.t3) {
      out.t3 = chi;
      seed = c;
    }
  }

  out.t4 = out.t3;
  out.group = {seed};
  std::vector<bool> used(cols, false);
  used[seed] = true;
  double group_top = table.at(0, seed);
  double group_bottom = table.at(1, seed);
  bool improved = true;
  while (improved && out.group.size() + 1 < cols) {
    improved = false;
    double round_best = out.t4;
    std::uint32_t round_col = 0;
    for (std::uint32_t c = 0; c < cols; ++c) {
      if (used[c]) continue;
      const double chi = chi_2x2(group_top + table.at(0, c),
                                 group_bottom + table.at(1, c), row0, row1);
      if (chi > round_best) {
        round_best = chi;
        round_col = c;
        improved = true;
      }
    }
    if (improved) {
      out.t4 = round_best;
      out.group.push_back(round_col);
      used[round_col] = true;
      group_top += table.at(0, round_col);
      group_bottom += table.at(1, round_col);
    }
  }
  std::sort(out.group.begin(), out.group.end());
  return out;
}

}  // namespace

ChiSquare pearson_chi_square(const ContingencyTable& table) {
  const double total = table.grand_total();
  ChiSquare result;
  if (total <= 0.0) return result;

  std::vector<double> row_sums(table.rows()), col_sums(table.cols());
  std::uint32_t live_rows = 0, live_cols = 0;
  for (std::uint32_t r = 0; r < table.rows(); ++r) {
    row_sums[r] = table.row_total(r);
    if (row_sums[r] > 0.0) ++live_rows;
  }
  for (std::uint32_t c = 0; c < table.cols(); ++c) {
    col_sums[c] = table.col_total(c);
    if (col_sums[c] > 0.0) ++live_cols;
  }
  if (live_rows < 2 || live_cols < 2) return result;

  KahanSum statistic;
  for (std::uint32_t r = 0; r < table.rows(); ++r) {
    if (row_sums[r] <= 0.0) continue;
    for (std::uint32_t c = 0; c < table.cols(); ++c) {
      if (col_sums[c] <= 0.0) continue;
      const double e = row_sums[r] * col_sums[c] / total;
      const double diff = table.at(r, c) - e;
      statistic.add(diff * diff / e);
    }
  }
  result.statistic = statistic.value();
  result.df = (live_rows - 1) * (live_cols - 1);
  result.p_value =
      chi_square_sf(result.statistic, static_cast<double>(result.df));
  return result;
}

ContingencyTable sample_null(const ContingencyTable& table, Rng& rng) {
  const std::uint32_t rows = table.rows();
  const std::uint32_t cols = table.cols();
  std::vector<std::int64_t> row_sums(rows), col_sums(cols);
  std::int64_t row_sum_total = 0, col_sum_total = 0;
  for (std::uint32_t r = 0; r < rows; ++r) {
    row_sums[r] = std::llround(table.row_total(r));
    row_sum_total += row_sums[r];
  }
  for (std::uint32_t c = 0; c < cols; ++c) {
    col_sums[c] = std::llround(table.col_total(c));
    col_sum_total += col_sums[c];
  }
  if (col_sum_total != row_sum_total) {
    const auto biggest = static_cast<std::uint32_t>(
        std::max_element(col_sums.begin(), col_sums.end()) -
        col_sums.begin());
    col_sums[biggest] += row_sum_total - col_sum_total;
    if (col_sums[biggest] < 0) col_sums[biggest] = 0;
  }

  std::vector<std::uint32_t> labels;
  for (std::uint32_t c = 0; c < cols; ++c) {
    for (std::int64_t i = 0; i < col_sums[c]; ++i) labels.push_back(c);
  }
  rng.shuffle(std::span<std::uint32_t>(labels));

  ContingencyTable out(rows, cols);
  std::size_t next = 0;
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::int64_t i = 0; i < row_sums[r] && next < labels.size(); ++i) {
      out.add(r, labels[next++], 1.0);
    }
  }
  return out;
}

ClumpResult clump_analyze(const ContingencyTable& raw,
                          const ClumpConfig& config, Rng& rng) {
  LDGA_EXPECTS(raw.rows() == 2);
  LDGA_EXPECTS(!config.mc_early_stop);
  const ContingencyTable table = raw.drop_empty_columns();
  const double threshold = config.rare_expected_threshold;

  ClumpResult result;
  const ChiSquare t1 = pearson_chi_square(table);
  result.t1 = {t1.statistic, t1.df, t1.p_value, std::nullopt};
  const ChiSquare t2 = pearson_chi_square(clump_rare(table, threshold));
  result.t2 = {t2.statistic, t2.df, t2.p_value, std::nullopt};
  ColumnScans scans = scan_columns(table);
  result.t3 = {scans.t3, 1, chi_square_sf(scans.t3, 1.0), std::nullopt};
  result.t4 = {scans.t4, 1, chi_square_sf(scans.t4, 1.0), std::nullopt};
  result.t4_group = std::move(scans.group);

  const std::uint32_t trials = config.monte_carlo_trials;
  if (trials == 0) return result;
  std::vector<std::uint64_t> seeds(trials);
  for (auto& seed : seeds) seed = rng();
  std::uint32_t ge[4] = {0, 0, 0, 0};
  for (const std::uint64_t seed : seeds) {
    Rng trial_rng(seed);
    const ContingencyTable null = sample_null(table, trial_rng);
    const ColumnScans null_scans = scan_columns(null);
    if (reaches_observed(pearson_chi_square(null).statistic,
                         result.t1.statistic)) {
      ++ge[0];
    }
    if (reaches_observed(
            pearson_chi_square(clump_rare(null, threshold)).statistic,
            result.t2.statistic)) {
      ++ge[1];
    }
    if (reaches_observed(null_scans.t3, result.t3.statistic)) ++ge[2];
    if (reaches_observed(null_scans.t4, result.t4.statistic)) ++ge[3];
  }
  const auto empirical = [&](std::uint32_t count) {
    return (1.0 + count) / (1.0 + trials);
  };
  result.t1.p_monte_carlo = empirical(ge[0]);
  result.t2.p_monte_carlo = empirical(ge[1]);
  result.t3.p_monte_carlo = empirical(ge[2]);
  result.t4.p_monte_carlo = empirical(ge[3]);
  result.mc_replicates_run = trials;
  return result;
}

}  // namespace ldga::stats::reference
