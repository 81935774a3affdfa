// The dedicated parallel adaptive multipopulation GA (paper Figure 5).
//
// Generation structure: a batch of crossover applications and a batch
// of mutation applications produce unevaluated offspring; all offspring
// of the generation are scored in one synchronous parallel evaluation
// phase (serial loop, thread pool, or the PVM-style master/slave farm
// of §4.5); then replacement, adaptive-rate update (§4.3.1), the
// random-immigrant test (§4.4) and the stagnation termination test
// (§4.6) run on the scored offspring.
//
// The SNP mutation's "applied several times in parallel, keep the best"
// maps onto this naturally: its trial variants all enter the same
// evaluation phase and the best becomes the operator's offspring.
//
// Progress accounting (for the adaptive controller) uses the fitness
// normalization of §4.3.1 with best/worst snapshots taken at the start
// of the generation, each individual normalized within the
// subpopulation of its own size.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ga/adaptive.hpp"
#include "ga/checkpoint.hpp"
#include "ga/constraints.hpp"
#include "ga/multipopulation.hpp"
#include "ga/operators.hpp"
#include "ga/selection.hpp"
#include "parallel/farm_policy.hpp"
#include "stats/evaluation_service.hpp"
#include "stats/evaluator.hpp"
#include "util/rng.hpp"

namespace ldga::ga {

/// The §5.2 ablation switches ("we tested the following schemes").
struct GaSchemes {
  bool adaptive_mutation = true;          ///< off → fixed equal rates
  bool adaptive_crossover = true;         ///< off → fixed equal rates
  bool size_mutations = true;             ///< reduction + augmentation
  bool inter_population_crossover = true;
  bool random_immigrants = true;

  /// The paper's best scheme (everything on).
  static GaSchemes full() { return {}; }
  /// Everything that links subpopulations or adds diversity off.
  static GaSchemes baseline() {
    return {false, false, false, false, false};
  }
};

struct GaConfig {
  std::uint32_t min_size = 2;
  std::uint32_t max_size = 6;
  std::uint32_t population_size = 150;       ///< paper §5.2.1
  std::uint32_t min_subpopulation = 10;
  /// How the population splits across size classes (§4.2 / ablation).
  AllocationPolicy allocation = AllocationPolicy::LogSearchSpace;
  std::uint32_t crossovers_per_generation = 20;
  std::uint32_t mutations_per_generation = 40;
  double crossover_global_rate = 0.9;        ///< G for the crossover pair
  double mutation_global_rate = 0.9;         ///< paper: P_mutation = 0.9
  double min_operator_rate = 0.01;           ///< paper: δ = 0.01
  std::uint32_t snp_mutation_trials = 4;
  std::uint32_t stagnation_generations = 100;  ///< paper termination
  std::uint32_t random_immigrant_stagnation = 20;
  std::uint32_t max_generations = 2000;      ///< hard safety cap
  std::uint64_t max_evaluations = 0;         ///< 0 = unlimited
  SelectionConfig selection;
  GaSchemes schemes;
  /// Periodic state snapshots and resume-from-snapshot (any backend).
  CheckpointPolicy checkpoint;
  std::uint64_t seed = 1;
  bool record_history = false;
  /// Known candidate haplotypes inserted into the initial population
  /// (canonicalized; sizes outside [min_size, max_size] are rejected by
  /// validate). Lets a study warm-start from candidate genes.
  std::vector<std::vector<genomics::SnpIndex>> warm_starts;

  void validate() const;
  /// Validating factory: returns a copy after rejecting inconsistent
  /// settings with actionable messages. Prefer this at call sites so a
  /// bad config fails before any backend or dataset work starts.
  GaConfig validated() const;
};

/// Per-generation operator rates, for telemetry and the rate-dynamics
/// experiments.
struct OperatorRates {
  std::vector<double> mutation;   ///< SNP / reduction / augmentation
  std::vector<double> crossover;  ///< intra / inter
};

struct GenerationInfo {
  std::uint32_t generation = 0;
  std::vector<double> best_by_size;  ///< best fitness per subpopulation
  std::uint64_t evaluations = 0;     ///< cumulative pipeline executions
  bool immigrants_triggered = false;
  OperatorRates rates;
  /// Cumulative fitness-cache traffic (cross-generation cache).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  /// Cumulative per-stage pipeline wall time (pattern build / EM /
  /// CLUMP) from the evaluator's stage clocks.
  stats::StageTimings stage_timings;
  /// Cumulative Monte-Carlo replicates executed / skipped by the
  /// early-stopping CLUMP scheduler.
  std::uint64_t mc_replicates_run = 0;
  std::uint64_t mc_replicates_saved = 0;
  /// Cumulative Monte-Carlo replicates through the replicate-batched
  /// CLUMP engine (zero when simd_kernels is off).
  std::uint64_t mc_batched_replicates = 0;
  /// This generation's deltas of the cumulative counters above — the
  /// telemetry CSV derives its per-generation hit ratios from these.
  std::uint64_t gen_cache_hits = 0;
  std::uint64_t gen_cache_misses = 0;
};

struct GaResult {
  /// Best individual found per size class (the paper reports one row of
  /// Table 2 per subpopulation).
  std::vector<HaplotypeIndividual> best_by_size;
  std::uint32_t generations = 0;
  std::uint64_t evaluations = 0;  ///< pipeline executions during the run
  bool terminated_by_stagnation = false;
  std::uint32_t immigrant_events = 0;
  /// Generation the run was restored from (0 = started fresh).
  std::uint32_t resumed_from_generation = 0;
  /// Backend health counters: retry/failure totals for every backend,
  /// plus the quarantine/respawn ladder for the farm.
  parallel::FarmStats farm_stats;
  /// Batching effectiveness: hits, in-batch duplicates, dispatches.
  stats::EvaluationServiceStats eval_stats;
  /// Cross-generation fitness-cache counters at the end of the run.
  stats::FitnessCacheStats cache_stats;
  /// Cumulative per-stage pipeline wall time at the end of the run
  /// (pattern build / EM / CLUMP — the Figure-3 cost profile).
  stats::StageTimings stage_timings;
  /// Monte-Carlo replicates executed / skipped over the whole run.
  std::uint64_t mc_replicates_run = 0;
  std::uint64_t mc_replicates_saved = 0;
  /// Replicates through the batched Monte-Carlo engine over the whole
  /// run.
  std::uint64_t mc_batched_replicates = 0;
  std::vector<GenerationInfo> history;  ///< when record_history is set
};

class GaEngine {
 public:
  /// The evaluator and filter must outlive the engine. `backend` is how
  /// evaluation phases execute — build one with make_serial_backend /
  /// make_thread_pool_backend / make_farm_backend over the *same*
  /// evaluator; nullptr defaults to a serial backend. The engine never
  /// branches on what kind of backend it holds.
  GaEngine(const stats::HaplotypeEvaluator& evaluator, GaConfig config,
           const FeasibilityFilter& filter,
           std::shared_ptr<stats::EvaluationBackend> backend = nullptr);

  /// Convenience constructor with a permissive (disabled) filter.
  GaEngine(const stats::HaplotypeEvaluator& evaluator, GaConfig config,
           std::shared_ptr<stats::EvaluationBackend> backend = nullptr);

  /// Runs the GA to termination. Deterministic for a fixed config.seed,
  /// regardless of backend or worker count.
  GaResult run();

  /// Observer invoked after every generation (telemetry, live plots).
  void set_generation_callback(std::function<void(const GenerationInfo&)> cb) {
    callback_ = std::move(cb);
  }

  const GaConfig& config() const { return config_; }
  const stats::EvaluationBackend& backend() const { return *backend_; }

  /// Validates `config` against the evaluator (size range vs max_loci
  /// and panel width). Shared with the asynchronous IslandEngine, which
  /// runs under the same compatibility rules.
  static void check_compatible(const stats::HaplotypeEvaluator& evaluator,
                               const GaConfig& config);

 private:
  struct Pending;  // offspring awaiting evaluation (defined in .cpp)

  const stats::HaplotypeEvaluator* evaluator_;
  GaConfig config_;
  FeasibilityFilter own_filter_;  ///< used by the convenience constructor
  const FeasibilityFilter* filter_;
  std::shared_ptr<stats::EvaluationBackend> backend_;
  std::function<void(const GenerationInfo&)> callback_;
};

}  // namespace ldga::ga
