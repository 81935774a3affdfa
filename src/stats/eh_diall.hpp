// EH-DIALL wrapper: the first stage of the paper's Figure-3 pipeline.
//
// For a candidate SNP set it estimates haplotype frequencies three
// times — affected group, unaffected group, and both pooled — and
// derives the likelihood-ratio statistic for allelic association with
// disease status: LRT = 2 (ln L_A + ln L_U − ln L_pooled), which is
// asymptotically chi-square with 2^k − 1 degrees of freedom. The
// per-group estimates feed CLUMP; the LRT is available as an
// alternative fitness (the paper's conclusion mentions comparing
// different objective functions).
#pragma once

#include <span>
#include <vector>

#include "genomics/dataset.hpp"
#include "stats/contingency.hpp"
#include "stats/em_haplotype.hpp"
#include "stats/eval_scratch.hpp"

namespace ldga::stats {

struct EhDiallResult {
  EmResult affected;
  EmResult unaffected;
  EmResult pooled;
  double affected_individuals = 0.0;
  double unaffected_individuals = 0.0;
  /// 2 (ll_A + ll_U − ll_pooled); clamped at 0.
  double lrt = 0.0;
  std::uint32_t locus_count = 0;
  /// Wall time spent grouping genotype patterns (incl. the pooled
  /// merge and compiling the phase programs) and running the three EM
  /// estimations, for the per-stage telemetry
  /// (EvaluationResult::timings).
  double pattern_build_seconds = 0.0;
  double em_seconds = 0.0;

  /// The haplotype × status table CLUMP consumes: row 0 = affected,
  /// row 1 = unaffected; one column per haplotype code; cells are
  /// estimated chromosome counts. ("Concatenation" in Figure 3.)
  ContingencyTable to_contingency_table() const;
};

class EhDiall {
 public:
  /// Captures the affected/unaffected individual lists of the dataset;
  /// individuals with Unknown status are ignored (as in the paper).
  /// Each group is bit-packed once here — a per-group column slice —
  /// and every analysis counts genotype patterns with word-level
  /// popcounts, compiles each table to a phase program (em_kernel.hpp)
  /// and runs the scalar EM over the support set only — bit for bit
  /// the reference EM in tests/support.
  explicit EhDiall(const genomics::Dataset& dataset, EmConfig config = {});

  /// Full three-way analysis of a candidate SNP set (ascending order not
  /// required, but indices must be distinct and in range). Throws on
  /// failure (ldga::Error for bad input).
  EhDiallResult analyze(std::span<const genomics::SnpIndex> snps) const;

  /// The one EH-DIALL body: analyze() with the transient buffers (EM
  /// vectors, DFS rows) borrowed from the caller's arena — same result,
  /// bit for bit. Builds the three pattern tables and phase programs,
  /// then solves the three EM programs. The arena must not be shared
  /// across threads.
  EhDiallResult analyze(std::span<const genomics::SnpIndex> snps,
                        EvalScratch& scratch) const;

  std::uint32_t affected_count() const {
    return static_cast<std::uint32_t>(affected_.size());
  }
  std::uint32_t unaffected_count() const {
    return static_cast<std::uint32_t>(unaffected_.size());
  }

 private:
  EmConfig config_;
  std::vector<std::uint32_t> affected_;
  std::vector<std::uint32_t> unaffected_;
  genomics::PackedGenotypeMatrix packed_affected_;
  genomics::PackedGenotypeMatrix packed_unaffected_;
};

}  // namespace ldga::stats
