// Test-only reference CLUMP — the oracle the production statistics are
// held to.
//
// Production CLUMP (stats/clump.*) sums Pearson terms and scans 2×2
// splits with the runtime-dispatched vector kernels, and runs Monte
// Carlo through a replicate-batched engine that hoists the null
// table's invariants out of the trial loop and scores 64-replicate
// slabs at a time. The code here computes the same statistics the
// plain way: Kahan-summed Pearson terms, the closed-form 2×2
// chi-square one column at a time, and one freshly sampled null table
// per trial, scored by those two. It calls no SIMD kernel, so
// agreement with production is evidence, not tautology. Only tests
// link this library.
#pragma once

#include "stats/clump.hpp"
#include "stats/contingency.hpp"
#include "util/rng.hpp"

namespace ldga::stats::reference {

/// Pearson chi-square with Kahan-summed cell terms: the same cells, df,
/// analytic p-value and degenerate cases as
/// ContingencyTable::pearson_chi_square, summed in reference order.
ChiSquare pearson_chi_square(const ContingencyTable& table);

/// CLUMP's Monte-Carlo null table: the table's marginals rounded to
/// integers (the rounding error goes to the largest column), one label
/// per observation naming its column, shuffled with `rng` and dealt to
/// the rows in order of their quotas. Both rounded marginals are
/// preserved exactly.
ContingencyTable sample_null(const ContingencyTable& table, Rng& rng);

/// CLUMP's four statistics of a 2 × M table and, when
/// config.monte_carlo_trials > 0, their fixed-replicate Monte-Carlo
/// p-values, one trial at a time on the caller's thread. The RNG is
/// consumed as Clump::analyze consumes it — one child seed per trial,
/// all drawn up front — so for equal seeds both sample the same null
/// tables. monte_carlo_workers is ignored; mc_early_stop must be off.
ClumpResult clump_analyze(const ContingencyTable& table,
                          const ClumpConfig& config, Rng& rng);

}  // namespace ldga::stats::reference
