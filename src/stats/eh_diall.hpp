// EH-DIALL wrapper: the first stage of the paper's Figure-3 pipeline.
//
// For a candidate SNP set it estimates haplotype frequencies in the
// affected group and in the unaffected group (the paper's "EH-DIALL
// ×2"); their estimated counts are the table CLUMP scores. A full
// analysis also estimates both groups pooled and derives the
// likelihood-ratio statistic for allelic association with disease
// status: LRT = 2 (ln L_A + ln L_U − ln L_pooled), which is
// asymptotically chi-square with 2^k − 1 degrees of freedom. The LRT
// is available as an alternative fitness (the paper's conclusion
// mentions comparing different objective functions); CLUMP never reads
// the pooled run, so the T1–T4 fitness path skips it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "genomics/dataset.hpp"
#include "stats/contingency.hpp"
#include "stats/em_haplotype.hpp"
#include "stats/eval_scratch.hpp"

namespace ldga::stats {

/// Which EM runs one analysis makes.
enum class EhDiallScope : std::uint8_t {
  /// The affected and the unaffected EM: everything CLUMP's table
  /// reads. The result's `pooled` and `lrt` stay empty.
  kGroups,
  /// Both groups, then the pooled EM over their merged tables, and the
  /// LRT.
  kFull,
};

struct EhDiallResult {
  EmResult affected;
  EmResult unaffected;
  /// Both groups pooled, and 2 (ll_A + ll_U − ll_pooled) clamped at 0.
  /// Set by a full analysis only (EhDiallScope::kFull).
  std::optional<EmResult> pooled;
  std::optional<double> lrt;
  double affected_individuals = 0.0;
  double unaffected_individuals = 0.0;
  std::uint32_t locus_count = 0;
  /// Wall time spent grouping genotype patterns (incl. compiling the
  /// phase programs, and the pooled merge when it ran) and running the
  /// EM estimations the analysis made — two, or three with the pooled
  /// run — for the per-stage telemetry (EvaluationResult::timings).
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
  /// vectors, DFS rows) borrowed from the caller's arena, and the EM
  /// runs chosen by `scope`. Builds both groups' pattern tables and
  /// phase programs and solves them; kFull then merges the two tables,
  /// compiles and solves the pooled program and derives the LRT. The
  /// group estimates are the same bit for bit in either scope, and a
  /// kFull result equals analyze(snps). The arena must not be shared
  /// across threads.
  EhDiallResult analyze(std::span<const genomics::SnpIndex> snps,
                        EvalScratch& scratch, EhDiallScope scope) const;

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
