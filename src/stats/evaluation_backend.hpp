// The one evaluation API every execution strategy implements.
//
// The GA hands a whole generation's offspring to EvaluationService as a
// batch; the service resolves cache hits and in-batch duplicates, and
// what remains — the candidates that genuinely need a pipeline run — is
// dispatched through this interface. Two implementations cover the
// paper's execution spectrum: the in-process backend (the caller alone,
// in order, or the caller and a shared-memory pool's threads) and the
// PVM-style master/slave farm of §4.5. The engine holds one
// EvaluationBackend pointer and never branches on a backend enum.
//
// Contract (the conformance suite in tests/test_evaluation_backend.cpp
// holds every implementation to it):
//   - evaluate_batch returns one fitness per candidate, in task order;
//   - candidates are evaluated with fitness_and_cache() (the farm's
//     slaves score, its master records), so pipeline executions are
//     counted and cached identically everywhere;
//   - a failing evaluation is retried up to farm_policy.max_task_retries
//     times; exhaustion raises parallel::FarmPhaseError carrying the
//     task index and attempt history;
//   - a configured parallel::FaultInjector is consulted once per
//     attempt at the true (phase, task index) coordinates, so injected
//     fault schedules reproduce exactly across backends.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "parallel/farm_policy.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/evaluator.hpp"

namespace ldga::stats {

/// A candidate haplotype: sorted, distinct SNP indices.
using Candidate = std::vector<genomics::SnpIndex>;

/// Construction-time knobs shared by every backend factory.
struct BackendOptions {
  /// Scoring threads; 0 → hardware concurrency. The thread-pool backend
  /// counts the calling thread, which scores too, so it starts
  /// workers − 1 pool threads (parallel::make_worker_pool) and none at
  /// 1. The farm starts this many slaves, since its master does not
  /// score. Ignored by the serial backend.
  std::uint32_t workers = 0;
  /// Thread-pool backend only: run on this long-lived pool instead of
  /// spinning up a private one (`workers` is then ignored — the pool's
  /// threads and the caller score). The windowed genome scan builds
  /// many short-lived backends over per-window evaluators; sharing one
  /// pool turns per-window thread spin-up into a pointer copy. Fitness
  /// results are identical either way — the backend contract is
  /// worker-count invariant.
  std::shared_ptr<parallel::ThreadPool> pool;
  /// Retry/quarantine ladder, validated by every backend. The
  /// in-process backend reads only max_task_retries (the quarantine,
  /// deadline and respawn fields only make sense for farm slaves).
  parallel::FarmPolicy farm_policy;
  /// Deterministic fault injection, consulted per (phase, task) attempt
  /// by every backend. Null = no faults.
  std::shared_ptr<parallel::FaultInjector> fault_injector;
};

class EvaluationBackend {
 public:
  virtual ~EvaluationBackend() = default;

  /// Scores every candidate, returning fitnesses in task order.
  /// Deterministic for a given evaluator regardless of worker count.
  virtual std::vector<double> evaluate_batch(
      std::span<const Candidate> batch) = 0;

  virtual std::string_view name() const = 0;
  virtual std::uint32_t worker_count() const = 0;

  /// Health counters. The in-process backend reports its retry totals
  /// through the same structure the farm uses, so callers read one
  /// shape everywhere.
  virtual parallel::FarmStats farm_stats() const = 0;
};

/// The in-process scoring body behind the in-process backend and
/// EvaluationStream's lanes: fitness_and_cache under the retry ladder.
/// A configured injector is consulted once per attempt at the caller's
/// (phase, index) coordinates; a failing attempt is retried up to
/// max_task_retries times, and exhaustion raises
/// parallel::FarmPhaseError with the attempt history. Stale-reply,
/// dropped-reply and kill decisions need a farm slave, no-ops here.
struct RetryLadder {
  const HaplotypeEvaluator* evaluator;
  std::uint32_t max_task_retries = 2;
  std::shared_ptr<parallel::FaultInjector> injector;
  /// Failed attempts, and the retries that followed them.
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> retries{0};

  /// Thread-safe; `scratch` must be the calling thread's own.
  double score(const Candidate& candidate, std::uint64_t phase,
               std::uint64_t index, EvalScratch& scratch);
};

/// The caller evaluates everything itself, in order: the in-process
/// backend with no pool.
std::shared_ptr<EvaluationBackend> make_serial_backend(
    const HaplotypeEvaluator& evaluator, BackendOptions options = {});

/// The in-process backend over `options.pool`, or over
/// parallel::make_worker_pool(options.workers): `workers` threads, the
/// caller among them, score each batch, and one worker scores it alone,
/// in order. Results are written by index, so ordering and GA
/// trajectory are unaffected by scheduling.
std::shared_ptr<EvaluationBackend> make_thread_pool_backend(
    const HaplotypeEvaluator& evaluator, BackendOptions options = {});

/// The paper's §4.5 message-passing master/slave farm: `workers` slave
/// threads score the candidates the master sends them by value, and the
/// master records each result in `evaluator`.
std::shared_ptr<EvaluationBackend> make_farm_backend(
    const HaplotypeEvaluator& evaluator, BackendOptions options = {});

}  // namespace ldga::stats
