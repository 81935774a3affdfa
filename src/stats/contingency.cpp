#include "stats/contingency.hpp"

#include "stats/special.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"
#include "util/simd.hpp"

namespace ldga::stats {

ContingencyTable::ContingencyTable(std::uint32_t rows, std::uint32_t cols)
    : rows_(rows), cols_(cols),
      cells_(static_cast<std::size_t>(rows) * cols, 0.0) {
  LDGA_EXPECTS(rows > 0 && cols > 0);
}

double ContingencyTable::at(std::uint32_t r, std::uint32_t c) const {
  LDGA_EXPECTS(r < rows_ && c < cols_);
  return cells_[static_cast<std::size_t>(r) * cols_ + c];
}

void ContingencyTable::set(std::uint32_t r, std::uint32_t c, double value) {
  LDGA_EXPECTS(r < rows_ && c < cols_);
  cells_[static_cast<std::size_t>(r) * cols_ + c] = value;
}

void ContingencyTable::add(std::uint32_t r, std::uint32_t c, double value) {
  LDGA_EXPECTS(r < rows_ && c < cols_);
  cells_[static_cast<std::size_t>(r) * cols_ + c] += value;
}

double ContingencyTable::row_total(std::uint32_t r) const {
  LDGA_EXPECTS(r < rows_);
  KahanSum sum;
  for (std::uint32_t c = 0; c < cols_; ++c) sum.add(at(r, c));
  return sum.value();
}

double ContingencyTable::col_total(std::uint32_t c) const {
  LDGA_EXPECTS(c < cols_);
  KahanSum sum;
  for (std::uint32_t r = 0; r < rows_; ++r) sum.add(at(r, c));
  return sum.value();
}

double ContingencyTable::grand_total() const {
  KahanSum sum;
  for (const double cell : cells_) sum.add(cell);
  return sum.value();
}

double ContingencyTable::expected(std::uint32_t r, std::uint32_t c) const {
  const double total = grand_total();
  if (total <= 0.0) return 0.0;
  return row_total(r) * col_total(c) / total;
}

ChiSquare ContingencyTable::pearson_chi_square() const {
  const double total = grand_total();
  ChiSquare result;
  if (total <= 0.0) return result;

  // Thread-local: one call per CLUMP statistic; every element is
  // written below before it is read.
  thread_local std::vector<double> row_sums, col_sums;
  row_sums.resize(rows_);
  col_sums.resize(cols_);
  std::uint32_t live_rows = 0, live_cols = 0;
  for (std::uint32_t r = 0; r < rows_; ++r) {
    row_sums[r] = row_total(r);
    if (row_sums[r] > 0.0) ++live_rows;
  }
  for (std::uint32_t c = 0; c < cols_; ++c) {
    col_sums[c] = col_total(c);
    if (col_sums[c] > 0.0) ++live_cols;
  }
  if (live_rows < 2 || live_cols < 2) return result;

  // Cells are row-major, so each row's terms are one contiguous kernel
  // sweep; rows combine left to right.
  const util::SimdKernels& kernels = util::simd();
  double statistic = 0.0;
  for (std::uint32_t r = 0; r < rows_; ++r) {
    if (row_sums[r] <= 0.0) continue;
    statistic += kernels.pearson_row_terms(
        cells_.data() + static_cast<std::size_t>(r) * cols_, col_sums.data(),
        cols_, row_sums[r], total);
  }
  result.statistic = statistic;
  result.df = (live_rows - 1) * (live_cols - 1);
  result.p_value = chi_square_sf(result.statistic,
                                 static_cast<double>(result.df));
  return result;
}

ContingencyTable ContingencyTable::clump_columns(
    const std::vector<std::uint32_t>& kept) const {
  for (const std::uint32_t c : kept) LDGA_EXPECTS(c < cols_);
  const auto n_kept = static_cast<std::uint32_t>(kept.size());
  ContingencyTable out(rows_, n_kept + 1);
  std::vector<bool> is_kept(cols_, false);
  for (std::uint32_t i = 0; i < n_kept; ++i) {
    LDGA_EXPECTS(!is_kept[kept[i]]);  // indices must be distinct
    is_kept[kept[i]] = true;
    for (std::uint32_t r = 0; r < rows_; ++r) {
      out.set(r, i, at(r, kept[i]));
    }
  }
  for (std::uint32_t c = 0; c < cols_; ++c) {
    if (is_kept[c]) continue;
    for (std::uint32_t r = 0; r < rows_; ++r) {
      out.add(r, n_kept, at(r, c));
    }
  }
  return out;
}

ContingencyTable ContingencyTable::collapse_to_two(
    const std::vector<std::uint32_t>& group) const {
  std::vector<bool> in_group(cols_, false);
  for (const std::uint32_t c : group) {
    LDGA_EXPECTS(c < cols_);
    in_group[c] = true;
  }
  ContingencyTable out(rows_, 2);
  for (std::uint32_t r = 0; r < rows_; ++r) {
    for (std::uint32_t c = 0; c < cols_; ++c) {
      out.add(r, in_group[c] ? 0 : 1, at(r, c));
    }
  }
  return out;
}

ContingencyTable ContingencyTable::drop_empty_columns(double epsilon) const {
  std::vector<std::uint32_t> live;
  for (std::uint32_t c = 0; c < cols_; ++c) {
    if (col_total(c) > epsilon) live.push_back(c);
  }
  if (live.empty()) live.push_back(0);  // keep shape valid
  ContingencyTable out(rows_, static_cast<std::uint32_t>(live.size()));
  for (std::uint32_t i = 0; i < live.size(); ++i) {
    for (std::uint32_t r = 0; r < rows_; ++r) {
      out.set(r, i, at(r, live[i]));
    }
  }
  return out;
}

}  // namespace ldga::stats
