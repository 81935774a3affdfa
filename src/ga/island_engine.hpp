// The asynchronous island-model GA — the generation barrier removed.
//
// The synchronous GaEngine (engine.hpp) realizes the paper's Figure-5
// loop literally: every generation's offspring are scored in one
// parallel phase, and the whole algorithm waits for the slowest
// evaluation before replacement or rate adaptation may proceed. That
// barrier caps parallel efficiency at the per-generation fan and makes
// stragglers — the dominant failure mode under fault injection — a
// full-population stall.
//
// Here each size-k subpopulation (§4.2) runs as a steady-state *island*
// on its own thread:
//   - offspring are submitted to an EvaluationStream and integrated as
//     their results arrive, out of order, up to a bounded in-flight
//     window — no island ever waits for another island's evaluations;
//   - elites travel between neighboring size classes over asynchronous
//     Mailbox-backed migration channels (migration.hpp) and serve as
//     mates for the paper's inter-population crossover, while
//     reduction/augmentation offspring are forwarded to the island
//     that owns their size;
//   - adaptive-rate bookkeeping (§4.3.1) is merge-safe: islands
//     accumulate progress locally and fold commutative deltas into a
//     SharedRateController whose rates are a pure function of
//     per-island totals, so out-of-order result arrival cannot perturb
//     them (adaptive.hpp);
//   - checkpoints are island-consistent: a rendezvous pauses every
//     island at a loop boundary (deltas published, migration drained),
//     snapshots all memberships plus the rate lanes and per-island RNG
//     streams, then resumes (checkpoint.hpp).
//
// The synchronous engine remains the deterministic, bit-exact
// reference; this engine trades replay determinism for throughput
// under stragglers and validates against the reference by reaching the
// same planted haplotypes (tests/test_island_engine.cpp,
// bench_parallel_speedup).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ga/constraints.hpp"
#include "ga/engine.hpp"
#include "stats/evaluation_service.hpp"
#include "stats/evaluator.hpp"

namespace ldga::ga {

struct IslandConfig {
  /// The base GA configuration. Sizes, rates, schemes, seed,
  /// stagnation/budget limits and the checkpoint policy all apply; the
  /// generation-shaped knobs (crossovers/mutations_per_generation)
  /// set the crossover:mutation mix and the generation-equivalent used
  /// to scale stagnation and checkpoint cadences.
  GaConfig ga;
  /// Evaluation dispatcher lanes shared by all islands — the async
  /// analogue of the synchronous backend's worker count.
  std::uint32_t lanes = 4;
  /// Max submissions one lane claims per dispatch round. A claim
  /// gathers one island's pending submissions (it is keyed by the
  /// island's completion queue), so this bounds how many of an
  /// island's results come back in one delivery.
  std::uint32_t max_coalesce = 16;
  /// In-flight evaluations each island keeps outstanding. Bounds
  /// selection-lag: an island breeds at most this far ahead of its own
  /// integrated results.
  std::uint32_t max_pending = 8;
  /// Integrated offspring between elite pushes to the neighboring
  /// islands, and how many elites travel per push.
  std::uint32_t migration_interval = 32;
  std::uint32_t migration_elites = 1;
  /// Integrated offspring between merges of the local rate deltas into
  /// the shared controller (and between fitness-range republishes).
  std::uint32_t rate_sync_interval = 8;
  /// How long an island blocks waiting for completions when it has
  /// nothing else to do.
  std::chrono::milliseconds poll_timeout{2};
  /// Retry ladder and optional fault injection for the evaluation
  /// lanes (the coordinates a straggler schedule reproduces under).
  parallel::FarmPolicy farm_policy;
  std::shared_ptr<parallel::FaultInjector> fault_injector;

  void validate() const;
  IslandConfig validated() const;

  /// Operator applications of one generational sweep — the unit that
  /// maps generation-denominated limits onto the steady-state engine.
  std::uint32_t applications_per_generation() const {
    return ga.crossovers_per_generation + ga.mutations_per_generation;
  }
};

/// One row of the event-based telemetry: islands emit events as they
/// happen instead of a per-generation summary (there are no
/// generations to summarize).
struct IslandEvent {
  enum class Kind : std::uint8_t {
    kInitialized,   ///< island finished scoring its initial population
    kImprovement,   ///< island best strictly improved
    kMigrationOut,  ///< elites pushed to the neighbors
    kMigrationIn,   ///< migrant or forwarded offspring integrated
    kImmigrants,    ///< random-immigrant wave (§4.4) on this island
    kCheckpoint,    ///< island-consistent snapshot written
  };

  Kind kind = Kind::kImprovement;
  std::uint32_t island = 0;        ///< index (== size - min_size)
  std::uint32_t haplotype_size = 0;
  std::uint64_t step = 0;          ///< island-local integrated offspring
  double wall_seconds = 0.0;       ///< since run() start
  double best_fitness = 0.0;
  double worst_fitness = 0.0;      ///< selection-pressure indicator
  std::uint32_t in_flight = 0;     ///< island's outstanding evaluations
  std::uint64_t rate_version = 0;  ///< merged mutation-rate version
  std::uint64_t evaluations = 0;   ///< global pipeline executions
};

const char* to_string(IslandEvent::Kind kind);

struct IslandRunResult {
  /// Best individual per size class, ascending size — the same Table-2
  /// shape GaResult reports.
  std::vector<HaplotypeIndividual> best_by_size;
  std::uint64_t evaluations = 0;
  std::uint64_t total_steps = 0;  ///< integrated offspring, all islands
  std::vector<std::uint64_t> steps_by_island;
  std::uint64_t migrations_sent = 0;
  std::uint64_t migrations_received = 0;
  std::uint32_t immigrant_events = 0;
  std::uint64_t failed_offspring = 0;  ///< retry-ladder exhaustions dropped
  bool terminated_by_stagnation = false;
  /// Steps already integrated by the checkpointed run this one resumed
  /// from (0 = started fresh).
  std::uint64_t resumed_steps = 0;
  double wall_seconds = 0.0;
  stats::EvaluationStreamStats stream_stats;
  stats::FitnessCacheStats cache_stats;
  stats::StageTimings stage_timings;
};

class IslandEngine {
 public:
  /// The evaluator and filter must outlive the engine. The engine owns
  /// its evaluation lanes (EvaluationStream); there is no backend
  /// parameter — the lane pool replaces it.
  IslandEngine(const stats::HaplotypeEvaluator& evaluator,
               IslandConfig config, const FeasibilityFilter& filter);
  IslandEngine(const stats::HaplotypeEvaluator& evaluator,
               IslandConfig config);

  /// Runs to termination (stagnation, evaluation budget, or the
  /// generation-equivalent hard cap). Reaches the same optima as the
  /// synchronous reference but walks a schedule-dependent trajectory —
  /// run-to-run results may differ in path, not in destination.
  IslandRunResult run();

  /// Runs the islands against an externally owned multi-tenant
  /// EvaluationStream instead of constructing a private one — how the
  /// pipelined genome scan amortizes one lane pool across many
  /// short-lived window engines. `queue_base` is what
  /// stream.open_queues(evaluator, island_count) returned, where
  /// island_count == ga.max_size - ga.min_size + 1 and the evaluator is
  /// the one this engine was built over. run() retires the queue block
  /// when it finishes (so the caller opens, the engine closes), and the
  /// stream's own lane configuration governs — `lanes`/`max_coalesce`/
  /// `farm_policy`/`fault_injector` of IslandConfig are ignored. The
  /// reported stream_stats are then stream-wide aggregates, not
  /// per-engine.
  void attach_stream(stats::EvaluationStream& stream,
                     std::uint32_t queue_base) {
    external_stream_ = &stream;
    external_queue_base_ = queue_base;
  }

  /// Observer for telemetry events. Called from island threads but
  /// never concurrently (the engine serializes invocations); the
  /// callback must not block for long — islands wait on it.
  void set_event_callback(std::function<void(const IslandEvent&)> cb) {
    callback_ = std::move(cb);
  }

  const IslandConfig& config() const { return config_; }

  /// Opaque implementation state (defined in the .cpp); public so the
  /// file-local helper functions there can name them.
  struct Island;
  struct Shared;

 private:
  void island_loop(Island& island, Shared& shared);

  const stats::HaplotypeEvaluator* evaluator_;
  IslandConfig config_;
  FeasibilityFilter own_filter_;
  const FeasibilityFilter* filter_;
  std::function<void(const IslandEvent&)> callback_;
  stats::EvaluationStream* external_stream_ = nullptr;
  std::uint32_t external_queue_base_ = 0;
};

}  // namespace ldga::ga
