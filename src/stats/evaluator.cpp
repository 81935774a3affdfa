#include "stats/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace ldga::stats {

using genomics::SnpIndex;

void EvaluatorConfig::validate() const {
  em.validate();
  clump.validate();
  if (max_loci == 0 || max_loci > kMaxEmLoci) {
    throw ConfigError("EvaluatorConfig: max_loci must be in [1, " +
                      std::to_string(kMaxEmLoci) + "]; got " +
                      std::to_string(max_loci));
  }
  if (!std::isfinite(penalty_fitness)) {
    throw ConfigError("EvaluatorConfig: penalty_fitness must be finite");
  }
  if (cache_shards == 0) {
    throw ConfigError(
        "EvaluatorConfig: cache_shards must be >= 1 (use cache_capacity = 0 "
        "to disable the bound, not shards = 0)");
  }
}

EvaluatorConfig EvaluatorConfig::validated() const {
  validate();
  return *this;
}

HaplotypeEvaluator::HaplotypeEvaluator(const genomics::Dataset& dataset,
                                       EvaluatorConfig config)
    : dataset_(&dataset),
      config_(config.validated()),
      eh_diall_(dataset, config.em),
      clump_(config.clump, config.simd_kernels),
      cache_(config.cache_capacity, config.cache_shards) {}

EvaluationResult HaplotypeEvaluator::evaluate_full(
    std::span<const SnpIndex> snps) const {
  EvalScratch scratch;
  return evaluate_full(snps, scratch);
}

EvaluationResult HaplotypeEvaluator::evaluate_full(
    std::span<const SnpIndex> snps, EvalScratch& scratch) const {
  LDGA_EXPECTS(!snps.empty());
  LDGA_EXPECTS(snps.size() <= config_.max_loci);

  const EhDiallResult eh = eh_diall_.analyze(snps, scratch);
  return finish_evaluation(snps, eh);
}

EvaluationResult HaplotypeEvaluator::finish_evaluation(
    std::span<const SnpIndex> snps, const EhDiallResult& eh) const {
  const ContingencyTable table =
      eh.to_contingency_table().drop_empty_columns();

  EvaluationResult result;
  result.timings.pattern_build_seconds = eh.pattern_build_seconds;
  result.timings.em_seconds = eh.em_seconds;
  Stopwatch clump_watch;
  result.t1 = clump_.t1(table);
  result.lrt = eh.lrt;
  result.em_iterations_total = eh.affected.iterations +
                               eh.unaffected.iterations +
                               eh.pooled.iterations;
  result.em_converged =
      eh.affected.converged && eh.unaffected.converged && eh.pooled.converged;
  result.table_columns = table.cols();

  switch (config_.fitness_statistic) {
    case FitnessStatistic::T1:
      result.fitness = result.t1.statistic;
      break;
    case FitnessStatistic::Lrt:
      result.fitness = result.lrt;
      break;
    case FitnessStatistic::T2:
    case FitnessStatistic::T3:
    case FitnessStatistic::T4: {
      // These need the full CLUMP machinery (and its RNG for Monte
      // Carlo); seed deterministically from the SNP set.
      std::vector<SnpIndex> key(snps.begin(), snps.end());
      std::uint64_t seed = config_.monte_carlo_seed;
      for (const SnpIndex s : key) seed = splitmix64(seed) ^ s;
      Rng rng(seed);
      const ClumpResult clump = clump_.analyze(table, rng);
      account_monte_carlo(clump);
      if (config_.fitness_statistic == FitnessStatistic::T2) {
        result.fitness = clump.t2.statistic;
      } else if (config_.fitness_statistic == FitnessStatistic::T3) {
        result.fitness = clump.t3.statistic;
      } else {
        result.fitness = clump.t4.statistic;
      }
      break;
    }
  }
  result.timings.clump_seconds = clump_watch.elapsed_seconds();
  accumulate_timings(result.timings);
  return result;
}

ClumpResult HaplotypeEvaluator::clump_analysis(
    std::span<const SnpIndex> snps) const {
  const EhDiallResult eh = eh_diall_.analyze(snps);
  std::uint64_t seed = config_.monte_carlo_seed;
  for (const SnpIndex s : snps) seed = splitmix64(seed) ^ s;
  Rng rng(seed);
  Stopwatch clump_watch;
  ClumpResult result = clump_.analyze(eh.to_contingency_table(), rng);
  account_monte_carlo(result);
  accumulate_timings({eh.pattern_build_seconds, eh.em_seconds,
                      clump_watch.elapsed_seconds()});
  return result;
}

void HaplotypeEvaluator::account_monte_carlo(const ClumpResult& clump) const {
  if (config_.clump.monte_carlo_trials == 0) return;
  mc_replicates_run_.fetch_add(clump.mc_replicates_run,
                               std::memory_order_relaxed);
  mc_replicates_saved_.fetch_add(
      config_.clump.monte_carlo_trials - clump.mc_replicates_run,
      std::memory_order_relaxed);
  mc_batched_replicates_.fetch_add(clump.mc_batched_replicates,
                                   std::memory_order_relaxed);
}

double HaplotypeEvaluator::note_failure(std::span<const SnpIndex> snps,
                                        EvaluationError::Reason reason,
                                        const std::string& detail) const {
  failed_evaluations_.fetch_add(1, std::memory_order_relaxed);
  std::string what = "evaluation failed for {";
  for (std::size_t i = 0; i < snps.size(); ++i) {
    if (i) what += ' ';
    what += std::to_string(snps[i] + 1);
  }
  what += "}: " + detail;
  {
    std::lock_guard lock(failure_mutex_);
    last_failure_ = what;
  }
  if (config_.failure_policy == EvaluationFailurePolicy::kPropagate) {
    throw EvaluationError(reason, what);
  }
  return config_.penalty_fitness;
}

std::string HaplotypeEvaluator::last_failure() const {
  std::lock_guard lock(failure_mutex_);
  return last_failure_;
}

std::optional<double> HaplotypeEvaluator::cached_fitness(
    std::span<const SnpIndex> snps) const {
  requests_.fetch_add(1, std::memory_order_relaxed);
  LDGA_EXPECTS(std::is_sorted(snps.begin(), snps.end()));
  return cache_.find(snps);
}

double HaplotypeEvaluator::fitness_and_cache(
    std::span<const SnpIndex> snps) const {
  EvalScratch scratch;
  return fitness_and_cache(snps, scratch);
}

double HaplotypeEvaluator::fitness_and_cache(std::span<const SnpIndex> snps,
                                             EvalScratch& scratch) const {
  LDGA_EXPECTS(!snps.empty());
  LDGA_EXPECTS(snps.size() <= config_.max_loci);
  LDGA_EXPECTS(std::is_sorted(snps.begin(), snps.end()));

  // Graceful degradation (DESIGN.md §5): a failed pipeline run must not
  // poison a whole parallel evaluation phase, so failures are detected
  // here, recorded in telemetry, and either mapped to the penalty
  // fitness or surfaced as a typed EvaluationError per the policy.
  auto reason = EvaluationError::Reason::kPipeline;
  std::string detail;
  double value = 0.0;
  try {
    const EvaluationResult result =
        finish_evaluation(snps, eh_diall_.analyze(snps, scratch));
    if (config_.require_em_convergence && !result.em_converged) {
      reason = EvaluationError::Reason::kEmNotConverged;
      detail = "EM did not converge";
    } else if (!std::isfinite(result.fitness)) {
      reason = EvaluationError::Reason::kNonFinite;
      detail = "non-finite statistic";
    } else {
      value = result.fitness;
    }
  } catch (const std::exception& error) {
    detail = error.what();
  }
  if (!detail.empty()) value = note_failure(snps, reason, detail);
  // Several threads may race on the same new key and each run the
  // pipeline, but the result is deterministic so last-writer-wins is
  // harmless; the evaluation counter reflects real pipeline executions
  // either way.
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  cache_.insert(snps, value);
  return value;
}

double HaplotypeEvaluator::fitness(std::span<const SnpIndex> snps) const {
  if (const auto cached = cached_fitness(snps)) return *cached;
  return fitness_and_cache(snps);
}

void HaplotypeEvaluator::accumulate_timings(
    const StageTimings& timings) const {
  const auto to_ns = [](double seconds) {
    return static_cast<std::uint64_t>(seconds * 1e9);
  };
  pattern_build_ns_.fetch_add(to_ns(timings.pattern_build_seconds),
                              std::memory_order_relaxed);
  em_ns_.fetch_add(to_ns(timings.em_seconds), std::memory_order_relaxed);
  clump_ns_.fetch_add(to_ns(timings.clump_seconds),
                      std::memory_order_relaxed);
}

StageTimings HaplotypeEvaluator::stage_timings() const {
  StageTimings timings;
  timings.pattern_build_seconds =
      static_cast<double>(pattern_build_ns_.load(std::memory_order_relaxed)) *
      1e-9;
  timings.em_seconds =
      static_cast<double>(em_ns_.load(std::memory_order_relaxed)) * 1e-9;
  timings.clump_seconds =
      static_cast<double>(clump_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return timings;
}

void HaplotypeEvaluator::reset_counters() const {
  evaluations_.store(0, std::memory_order_relaxed);
  requests_.store(0, std::memory_order_relaxed);
  failed_evaluations_.store(0, std::memory_order_relaxed);
  pattern_build_ns_.store(0, std::memory_order_relaxed);
  em_ns_.store(0, std::memory_order_relaxed);
  clump_ns_.store(0, std::memory_order_relaxed);
  mc_replicates_run_.store(0, std::memory_order_relaxed);
  mc_replicates_saved_.store(0, std::memory_order_relaxed);
  mc_batched_replicates_.store(0, std::memory_order_relaxed);
}

}  // namespace ldga::stats
