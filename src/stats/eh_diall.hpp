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
#include <string>
#include <vector>

#include "genomics/dataset.hpp"
#include "genomics/genotype_store.hpp"
#include "stats/contingency.hpp"
#include "stats/em_haplotype.hpp"
#include "stats/eval_scratch.hpp"

namespace ldga::stats {

/// Batched-EM effectiveness counters of one analyze_batch call.
struct EhDiallBatchStats {
  /// run_em_program_batch invocations (same-shape groups of >= 2).
  std::uint64_t batch_runs = 0;
  /// EM solves executed inside those batched invocations.
  std::uint64_t batch_lanes = 0;
};

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
  /// and runs EM over the support set only.
  /// `simd_kernels` routes the EM E-step through the dispatched vector
  /// kernels (util/simd.hpp) and lets same-shape solves of a batch run
  /// in SoA lockstep: deterministic per dispatch level, equal to the
  /// scalar path to ~1e-9 but not bit-for-bit. The parameter defaults
  /// to the scalar path — bit-for-bit the reference EM in
  /// tests/support — while the evaluator passes
  /// EvaluatorConfig::simd_kernels, which is on by default.
  explicit EhDiall(const genomics::Dataset& dataset, EmConfig config = {},
                   bool simd_kernels = false);

  /// As above, but slicing each group straight from any GenotypeStore
  /// (in-memory packed matrix or mmap'd on-disk store) — no byte matrix
  /// is ever materialized. `statuses` assigns store row i its group.
  /// A slice of an mmap'd store touches only the pages of its loci, so
  /// this is the genome-scale construction path.
  EhDiall(const genomics::GenotypeStore& store,
          std::span<const genomics::Status> statuses, EmConfig config = {},
          bool simd_kernels = false);

  /// Full three-way analysis of a candidate SNP set (ascending order not
  /// required, but indices must be distinct and in range): a batch of
  /// one. Throws ldga::Error with the pipeline's message on failure.
  EhDiallResult analyze(std::span<const genomics::SnpIndex> snps) const;

  /// analyze() with the transient buffers (EM vectors, DFS rows)
  /// borrowed from the caller's arena — same result, bit for bit. The
  /// arena must not be shared across threads.
  EhDiallResult analyze(std::span<const genomics::SnpIndex> snps,
                        EvalScratch& scratch) const;

  /// The one EH-DIALL body. Builds every candidate's three pattern
  /// tables and phase programs, then solves all 3 × n EM programs:
  /// with simd_kernels, programs of the same phase-program shape run
  /// in SoA lockstep through run_em_program_batch (em_kernel.hpp) and
  /// the rest run solo on the vector kernel; without it, every program
  /// runs solo on the scalar kernel. Each lockstep lane equals its
  /// solo run bit for bit, so every statistic is independent of batch
  /// size and composition. A candidate whose pipeline throws reports
  /// the message in errors[i] (results[i] stays default); others are
  /// unaffected. `stats`, when non-null, accumulates batching counters.
  void analyze_batch(std::span<const std::vector<genomics::SnpIndex>> snps,
                     EvalScratch& scratch,
                     std::span<EhDiallResult> results,
                     std::span<std::string> errors,
                     EhDiallBatchStats* stats = nullptr) const;

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
  bool simd_kernels_ = false;
  genomics::PackedGenotypeMatrix packed_affected_;
  genomics::PackedGenotypeMatrix packed_unaffected_;
};

}  // namespace ldga::stats
