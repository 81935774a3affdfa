// The paper's Figure-3 evaluation pipeline, end to end:
//
//   candidate SNP set
//     → per-group genotype-pattern enumeration          (Enumeration)
//     → EM haplotype frequency estimation per group     (EH-DIALL ×2)
//     → estimated-count contingency table               (Concatenation)
//     → chi-square association statistic                (CLUMP)
//     → fitness
//
// The cached fitness path runs the two group EMs only, unless the
// fitness reads the pooled EM as well: the LRT statistic does, and so
// does strict mode (require_em_convergence), which fails a candidate
// when any of the three runs stops at its iteration cap. evaluate_full
// always runs all three, so its lrt and EM diagnostics are complete.
//
// The evaluator is immutable after construction and safe to call from
// many threads concurrently; the fitness cache is internally
// synchronized. The GA's "number of evaluations" metric counts cache
// misses only — re-requesting a known haplotype is free, matching the
// paper's accounting where the cost lives in the statistical pipeline.
//
// Each stage has one code path. Pattern tables and EM are bit-identical
// at every SIMD dispatch level; CLUMP's floating-point sums run on the
// dispatched vector kernels (util/simd.hpp), so a CLUMP statistic is
// deterministic for a fixed level and agrees across levels to ~1e-9.
// Pin LDGA_SIMD=scalar for fitness bits that do not depend on the host.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "genomics/dataset.hpp"
#include "stats/clump.hpp"
#include "stats/eh_diall.hpp"
#include "stats/eval_scratch.hpp"
#include "stats/fitness_cache.hpp"

namespace ldga::stats {

/// Which statistic of the pipeline becomes the GA fitness.
enum class FitnessStatistic : std::uint8_t {
  T1,   ///< raw chi-square (the paper's choice)
  T2,   ///< rare-columns-clumped chi-square
  T3,   ///< best single-haplotype 2×2 chi-square
  T4,   ///< best haplotype-group 2×2 chi-square
  Lrt,  ///< EH-DIALL likelihood-ratio statistic
};

/// A statistical pipeline run produced no usable fitness.
class EvaluationError : public Error {
 public:
  enum class Reason : std::uint8_t {
    kNonFinite,       ///< statistic was NaN or infinite
    kEmNotConverged,  ///< EM hit its iteration cap (strict mode only)
    kPipeline,        ///< a pipeline stage threw
  };

  EvaluationError(Reason reason, const std::string& what)
      : Error(what), reason_(reason) {}
  Reason reason() const { return reason_; }

 private:
  Reason reason_;
};

/// What fitness() does when the pipeline fails for a candidate.
enum class EvaluationFailurePolicy : std::uint8_t {
  /// Degrade gracefully: the candidate scores penalty_fitness, the
  /// failure is counted in telemetry, and the (parallel) evaluation
  /// phase proceeds. The GA then selects the candidate away naturally.
  kPenalize,
  /// Strict: throw a typed EvaluationError (farm slaves report it and
  /// the retry/quarantine policy takes over).
  kPropagate,
};

struct EvaluatorConfig {
  EmConfig em;
  ClumpConfig clump;
  FitnessStatistic fitness_statistic = FitnessStatistic::T1;
  /// Base seed for the deterministic per-haplotype Monte-Carlo streams
  /// (only consumed when clump.monte_carlo_trials > 0).
  std::uint64_t monte_carlo_seed = 2004;
  /// Hard upper bound on candidate size (2^k blow-up guard).
  std::uint32_t max_loci = 16;
  /// Reaction to a failed pipeline run (non-finite statistic, strict EM
  /// non-convergence, or a throwing stage).
  EvaluationFailurePolicy failure_policy = EvaluationFailurePolicy::kPenalize;
  /// Fitness assigned to failed candidates under kPenalize. The GA
  /// maximizes a chi-square (>= 0), so 0 is the natural floor.
  double penalty_fitness = 0.0;
  /// Treat EM non-convergence as a failure. Off by default: a capped EM
  /// still yields a usable (slightly conservative) statistic, matching
  /// the original EH behaviour.
  bool require_em_convergence = false;
  /// Bound on the cross-generation fitness cache (entries, not bytes);
  /// 0 disables the bound. A cached double + key is ~100 bytes, so the
  /// default (~1M entries) stays well under typical workstation memory
  /// even on genome-scale runs.
  std::uint64_t cache_capacity = std::uint64_t{1} << 20;

  void validate() const;
  /// Validating factory: returns a copy after rejecting inconsistent
  /// settings with actionable messages. Prefer this at call sites so a
  /// bad config fails at construction, not mid-run.
  EvaluatorConfig validated() const;
};

/// Wall time spent in each stage of the Figure-3 pipeline. Per
/// candidate in EvaluationResult::timings; cumulative (across every
/// pipeline run since construction/reset) in
/// HaplotypeEvaluator::stage_timings(), GaResult and the telemetry CSV.
struct StageTimings {
  /// Enumeration and phase-program compile (+ the pooled merge when
  /// the pooled EM runs).
  double pattern_build_seconds = 0.0;
  /// The EH-DIALL EM runs the call made: two per T1–T4 fitness, three
  /// per Lrt or strict-mode fitness and per evaluate_full().
  double em_seconds = 0.0;
  double clump_seconds = 0.0;  ///< CLUMP statistics (+ MC)
};

/// Everything the pipeline knows about one candidate, for reporting.
struct EvaluationResult {
  double fitness = 0.0;
  ChiSquare t1;
  double lrt = 0.0;
  std::uint32_t em_iterations_total = 0;
  bool em_converged = true;
  std::uint32_t table_columns = 0;  ///< non-empty haplotype columns
  StageTimings timings;
};

class HaplotypeEvaluator {
 public:
  HaplotypeEvaluator(const genomics::Dataset& dataset,
                     EvaluatorConfig config = {});

  /// Full pipeline, never cached, never counted: all three EH-DIALL EM
  /// runs, so `lrt` and the EM diagnostics are set whatever the
  /// fitness statistic. For reports and tests.
  EvaluationResult evaluate_full(
      std::span<const genomics::SnpIndex> snps) const;

  /// evaluate_full() with the per-candidate buffers borrowed from the
  /// caller's arena (eval_scratch.hpp) — same result, bit for bit. The
  /// arena must be thread-private; backends keep one per worker.
  EvaluationResult evaluate_full(std::span<const genomics::SnpIndex> snps,
                                 EvalScratch& scratch) const;

  /// Complete CLUMP analysis (all four statistics + optional Monte
  /// Carlo) of a candidate, from the two group EMs. Not cached.
  ClumpResult clump_analysis(std::span<const genomics::SnpIndex> snps) const;

  /// Cached fitness: the number the GA maximizes. Thread-safe.
  /// Equivalent to cached_fitness() followed by fitness_and_cache() on
  /// a miss.
  double fitness(std::span<const genomics::SnpIndex> snps) const;

  /// Cache probe only — no pipeline run. Counts a request and a cache
  /// hit or miss. The batched EvaluationService uses this so each
  /// candidate is probed exactly once per generation.
  std::optional<double> cached_fitness(
      std::span<const genomics::SnpIndex> snps) const;

  /// Run the pipeline unconditionally and store the result. Does NOT
  /// probe the cache first (the caller already did), so stats are not
  /// double counted. Counts one evaluation. Thread-safe; this is what
  /// backend workers call.
  double fitness_and_cache(std::span<const genomics::SnpIndex> snps) const;

  /// fitness_and_cache() with an arena (see evaluate_full overload):
  /// the one body every backend runs — score(), then record(). The
  /// fitness equals evaluate_full(snps).fitness bit for bit.
  double fitness_and_cache(std::span<const genomics::SnpIndex> snps,
                           EvalScratch& scratch) const;

  /// fitness_and_cache() without record(): analyze (in fitness_scope_),
  /// finish, apply the failure policy. Failures and stage times count;
  /// the fitness is neither cached nor counted. What farm slaves run.
  double score(std::span<const genomics::SnpIndex> snps,
               EvalScratch& scratch) const;

  /// Caches a fitness and counts one evaluation. The farm's master
  /// records each result its slaves return; the slaves' score() calls
  /// have already counted stage times, failures and Monte-Carlo
  /// replicates in this evaluator.
  void record(std::span<const genomics::SnpIndex> snps, double fitness) const;

  /// Pipeline executions performed (cache misses). This is the paper's
  /// "# of evaluations" column.
  std::uint64_t evaluation_count() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  /// Total fitness requests including cache hits.
  std::uint64_t request_count() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Pipeline runs that failed (and were penalized or propagated per
  /// the failure policy). Degradation telemetry.
  std::uint64_t failed_evaluation_count() const {
    return failed_evaluations_.load(std::memory_order_relaxed);
  }
  /// Description of the most recent failure ("" when none occurred).
  std::string last_failure() const;
  void reset_counters() const;

  /// Cumulative per-stage wall time over every pipeline run since
  /// construction (or reset_counters()). Thread-safe; workers
  /// accumulate after each run, so concurrent stage seconds add up to
  /// more than elapsed wall time — it is a cost profile, not a clock.
  StageTimings stage_timings() const;

  /// Hit/miss/eviction counters of the cross-generation fitness cache.
  FitnessCacheStats cache_stats() const { return cache_.stats(); }

  /// Monte-Carlo replicates actually executed / skipped by the
  /// early-stopping scheduler, cumulative since construction (or
  /// reset_counters()). Both zero when Monte Carlo is off.
  std::uint64_t mc_replicates_run() const {
    return mc_replicates_run_.load(std::memory_order_relaxed);
  }
  std::uint64_t mc_replicates_saved() const {
    return mc_replicates_saved_.load(std::memory_order_relaxed);
  }

  /// Retired EM-batching counters (EM no longer batches across
  /// candidates), kept only because the repository benchmark reads
  /// them for its stats.em_lanes_per_batch metric: always 0; remove
  /// together with that metric.
  std::uint64_t em_batch_runs() const { return 0; }
  std::uint64_t em_batch_lanes() const { return 0; }

  const genomics::Dataset& dataset() const { return *dataset_; }
  const EvaluatorConfig& config() const { return config_; }

 private:
  /// Shared tail of evaluate_full()/fitness_and_cache(): turns a
  /// completed EH-DIALL analysis into the fitness-bearing result
  /// (CLUMP, fitness statistic, clump-stage timing accumulation). The
  /// lrt and EM diagnostics are set only from a full analysis.
  EvaluationResult finish_evaluation(std::span<const genomics::SnpIndex> snps,
                                     const EhDiallResult& eh) const;
  /// Failure tail of fitness_and_cache(): counts the failure,
  /// records last_failure(), then penalizes or throws per the policy.
  double note_failure(std::span<const genomics::SnpIndex> snps,
                      EvaluationError::Reason reason,
                      const std::string& detail) const;
  void accumulate_timings(const StageTimings& timings) const;
  void account_monte_carlo(const ClumpResult& clump) const;

  const genomics::Dataset* dataset_;
  EvaluatorConfig config_;
  /// The EM runs fitness_and_cache() makes: kFull when the fitness
  /// reads the pooled run (the Lrt statistic, or strict mode's
  /// convergence check over all three runs), else kGroups.
  const EhDiallScope fitness_scope_;
  EhDiall eh_diall_;
  Clump clump_;

  mutable FitnessCache cache_;
  mutable std::atomic<std::uint64_t> evaluations_{0};
  mutable std::atomic<std::uint64_t> requests_{0};
  mutable std::atomic<std::uint64_t> failed_evaluations_{0};
  // Stage clocks in integer nanoseconds: fetch_add on atomic<double>
  // is not universally lock-free, and nanosecond ticks lose nothing at
  // telemetry precision.
  mutable std::atomic<std::uint64_t> pattern_build_ns_{0};
  mutable std::atomic<std::uint64_t> em_ns_{0};
  mutable std::atomic<std::uint64_t> clump_ns_{0};
  mutable std::atomic<std::uint64_t> mc_replicates_run_{0};
  mutable std::atomic<std::uint64_t> mc_replicates_saved_{0};
  mutable std::mutex failure_mutex_;
  mutable std::string last_failure_;
};

}  // namespace ldga::stats
