// Generation-batched evaluation front door.
//
// The GA collects a whole generation's offspring and hands them here in
// one call. The service resolves what it can without running the
// statistical pipeline — cross-generation cache hits and in-batch
// duplicates (SNP-mutation trials and crossover children frequently
// collide on small panels) — then dispatches only the unique misses to
// the configured EvaluationBackend and scatters the results back into
// task order. Backend workers insert what they compute into the
// evaluator's shared cache, so the probe-once / compute-once accounting
// holds across serial, thread-pool, and farm execution alike.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "parallel/work_queue.hpp"
#include "stats/evaluation_backend.hpp"
#include "stats/fitness_cache.hpp"

namespace ldga::stats {

/// Batching effectiveness counters, cumulative across calls.
struct EvaluationServiceStats {
  std::uint64_t batches = 0;     ///< evaluate() calls
  std::uint64_t candidates = 0;  ///< total results delivered
  std::uint64_t cache_hits = 0;  ///< answered from the fitness cache
  std::uint64_t duplicates = 0;  ///< collapsed within a batch
  std::uint64_t dispatched = 0;  ///< sent to the backend (unique misses)
  /// Cumulative wall time inside evaluate() — dedup, cache probes and
  /// backend dispatch, calls that throw included. Together with the
  /// evaluator's stage_timings() this separates batching overhead from
  /// pipeline cost.
  double batch_seconds = 0.0;
};

class EvaluationService {
 public:
  /// The evaluator must outlive the service and be the same instance the
  /// backend evaluates with — the service probes the cache the backend's
  /// workers fill.
  EvaluationService(const HaplotypeEvaluator& evaluator,
                    std::shared_ptr<EvaluationBackend> backend);

  /// Scores the batch, in task order. Each distinct candidate costs at
  /// most one cache probe and one pipeline run per call.
  std::vector<double> evaluate(std::span<const Candidate> batch);

  const EvaluationServiceStats& stats() const { return stats_; }
  const EvaluationBackend& backend() const { return *backend_; }

 private:
  const HaplotypeEvaluator* evaluator_;
  std::shared_ptr<EvaluationBackend> backend_;
  EvaluationServiceStats stats_;
};

// ---------------------------------------------------------------------
// Streaming completion API — the asynchronous islands' front door.
//
// Where EvaluationService::evaluate is a synchronous barrier (the
// caller blocks until the whole batch is scored), EvaluationStream
// decouples submission from completion: islands submit!(ticket,
// candidate) and pull finished results from their own completion queue
// whenever they like. One stream serves one evaluator (one island
// engine). Between the two sides sits a small pool of dispatcher lanes,
// each with its own scratch arena and batching counters, that
//   - claim submissions in batches, gathering the oldest submission's
//     completion queue (one island) from anywhere in the stream queue,
//     so an island's results come back in one delivery,
//   - deduplicate against computations already in flight on another
//     lane (late submitters latch onto the running computation instead
//     of recomputing),
//   - probe the fitness cache and score a miss with the in-process
//     backend's RetryLadder, so both front doors run one scoring body,
//   - and absorb stragglers: a heavy-tailed evaluation delays only the
//     lane that claimed it — the other lanes keep draining the queue,
//     which is exactly the failure mode the generation barrier cannot
//     absorb.

/// One finished evaluation, delivered to the submitting queue.
struct StreamResult {
  std::uint64_t ticket = 0;
  double fitness = 0.0;
  /// True when the evaluation exhausted its retry ladder (injected or
  /// real faults). The fitness is then the evaluator's penalty value;
  /// callers typically drop the offspring. The synchronous engine
  /// aborts the run here instead — a steady-state island just breeds
  /// on.
  bool failed = false;
};

struct EvaluationStreamConfig {
  /// Dispatcher lanes. More lanes = more straggler tolerance and more
  /// pipeline parallelism; each lane scores its claimed batch one
  /// candidate at a time with a private scratch arena.
  std::uint32_t lanes = 2;
  /// Max submissions one lane claims per dispatch round. Claims are
  /// grouped by completion queue (the oldest submission anchors, more
  /// submissions of its island are gathered from across the queue), so
  /// one claim returns an island's results in one delivery; keep it
  /// small enough that one slow batch member cannot hold many results
  /// hostage.
  std::uint32_t max_coalesce = 16;
  /// Retries allowed per evaluation after its first failed attempt
  /// (the backends' retry ladder); an evaluation out of retries is
  /// delivered as failed.
  std::uint32_t max_task_retries = 2;
  /// Deterministic fault injection, consulted once per attempt of each
  /// computation at (completion queue, ticket) coordinates of the
  /// submission that claimed it, so a schedule fires once per
  /// evaluation whatever the lane count; cache hits and in-flight
  /// merges consult nothing. Null = no faults.
  std::shared_ptr<parallel::FaultInjector> fault_injector;

  void validate() const;
};

/// Aggregate counters. The atomic half (submitted/completed/...) is
/// readable at any time; `service` sums the per-lane batching stats
/// (each claimed submission counts as a one-candidate batch) and is
/// populated by close() — read it after the stream is closed.
struct EvaluationStreamStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Submissions that latched onto an in-flight computation of the
  /// same candidate on another lane (cross-island coalescing).
  std::uint64_t inflight_merges = 0;
  std::uint64_t dispatch_rounds = 0;
  /// Every claimed submission counts once in `candidates`, failed or
  /// not, so after close() candidates == completed - inflight_merges.
  EvaluationServiceStats service;
};

class EvaluationStream {
 public:
  /// `queue_count` independent completion queues (one per island). The
  /// evaluator must outlive the stream. Lanes start immediately.
  EvaluationStream(const HaplotypeEvaluator& evaluator,
                   std::uint32_t queue_count, EvaluationStreamConfig config);
  ~EvaluationStream();

  EvaluationStream(const EvaluationStream&) = delete;
  EvaluationStream& operator=(const EvaluationStream&) = delete;

  /// Enqueues one candidate; its result will appear on `queue` tagged
  /// with `ticket`. Returns false when the stream is closed (the
  /// submission is dropped).
  [[nodiscard]] bool submit(std::uint32_t queue, std::uint64_t ticket,
                            Candidate candidate);

  /// All results currently ready on `queue` (possibly none).
  std::vector<StreamResult> poll(std::uint32_t queue);

  /// Blocks up to `timeout` for at least one result on `queue`. An
  /// empty return after a close() means shutdown, not timeout.
  std::vector<StreamResult> wait(std::uint32_t queue,
                                 std::chrono::milliseconds timeout);

  /// Stops accepting submissions, drains in-flight work and joins the
  /// lanes. After it returns, one poll() per queue observes every
  /// result of every accepted submission. Idempotent; the destructor
  /// calls it.
  void close();

  /// Submitted but not yet delivered, across all queues.
  std::uint64_t in_flight() const {
    return submitted_.load(std::memory_order_relaxed) -
           delivered_.load(std::memory_order_relaxed);
  }

  EvaluationStreamStats stats() const;

 private:
  struct Submission {
    std::uint32_t queue = 0;
    std::uint64_t ticket = 0;
    Candidate candidate;
  };
  struct Waiter {
    std::uint32_t queue = 0;
    std::uint64_t ticket = 0;
  };
  struct CompletionQueue {
    std::mutex mutex;
    std::condition_variable ready;
    std::vector<StreamResult> results;
  };

  void lane_loop(EvaluationServiceStats& stats);
  void deliver(const Waiter& waiter, double fitness, bool failed);

  const HaplotypeEvaluator* evaluator_;
  EvaluationStreamConfig config_;
  RetryLadder ladder_;
  parallel::CoalescingQueue<Submission> queue_;
  std::vector<std::unique_ptr<CompletionQueue>> completions_;
  /// Batching counters, one per lane, so every lane keeps the
  /// probe-once / compute-once accounting of the synchronous path.
  /// Only the lane's own thread touches its entry until close() joins.
  std::vector<EvaluationServiceStats> lane_stats_;

  /// The submitters waiting on one running computation: the claimer,
  /// then any later submissions of the same candidate.
  struct InFlight {
    Waiter first;
    std::vector<Waiter> merged;
  };
  /// Candidate → its waiters, guarded by `inflight_mutex_`. A key views
  /// the claiming submission's candidate, which the claiming lane holds
  /// until it erases the entry after delivery.
  std::mutex inflight_mutex_;
  std::unordered_map<std::span<const genomics::SnpIndex>, InFlight,
                     SnpSetHash, SnpSetEqual>
      inflight_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> inflight_merges_{0};
  std::atomic<std::uint64_t> dispatch_rounds_{0};

  std::mutex close_mutex_;
  bool closed_ = false;
  /// Set by close() after the lanes drained and joined and their
  /// service totals were summed: every result that will ever exist has
  /// been delivered, so wait() returns without sleeping, and stats()
  /// may read `final_service_stats_`.
  std::atomic<bool> drained_{false};
  EvaluationServiceStats final_service_stats_;

  /// Declared last: the lanes use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace ldga::stats
