// Contingency tables and the Pearson chi-square machinery CLUMP is
// built on. Cells are doubles because our tables hold *estimated*
// haplotype counts produced by EM, not integer tallies.
#pragma once

#include <cstdint>
#include <vector>

namespace ldga::stats {

struct ChiSquare {
  double statistic = 0.0;
  std::uint32_t df = 0;
  double p_value = 1.0;
};

class ContingencyTable {
 public:
  ContingencyTable() = default;
  ContingencyTable(std::uint32_t rows, std::uint32_t cols);

  std::uint32_t rows() const { return rows_; }
  std::uint32_t cols() const { return cols_; }

  double at(std::uint32_t r, std::uint32_t c) const;
  void set(std::uint32_t r, std::uint32_t c, double value);
  void add(std::uint32_t r, std::uint32_t c, double value);

  double row_total(std::uint32_t r) const;
  double col_total(std::uint32_t c) const;
  double grand_total() const;

  /// Expected cell count under independence of rows and columns.
  double expected(std::uint32_t r, std::uint32_t c) const;

  /// Pearson chi-square over all cells whose row AND column totals are
  /// positive; df = (effective_rows − 1)(effective_cols − 1), where
  /// effective counts exclude all-zero rows/columns. The analytic
  /// p-value comes from the chi-square survival function.
  ///
  /// Each row's terms are one dispatched pearson_row_terms sweep
  /// (util/simd.hpp) in fixed lane order: deterministic for a fixed
  /// dispatch level, and equal to the Kahan-summed test oracle
  /// (reference_clump) to ~1e-9 but not bit for bit.
  ChiSquare pearson_chi_square() const;

  /// New table keeping only the listed columns, with every other column
  /// summed into one trailing "rest" column (CLUMP's clumping step).
  /// `kept` must be distinct, in-range column indices.
  ContingencyTable clump_columns(const std::vector<std::uint32_t>& kept) const;

  /// New 2-column table: the listed columns summed vs everything else.
  ContingencyTable collapse_to_two(const std::vector<std::uint32_t>& group)
      const;

  /// Drops all-zero columns (EM gives many haplotypes frequency ~0).
  /// Columns whose total is <= epsilon are removed entirely.
  ContingencyTable drop_empty_columns(double epsilon = 1e-12) const;

 private:
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::vector<double> cells_;
};

}  // namespace ldga::stats
