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
#include <vector>

#include "parallel/work_queue.hpp"
#include "stats/evaluation_backend.hpp"

namespace ldga::stats {

/// Batching effectiveness counters, cumulative across calls.
struct EvaluationServiceStats {
  std::uint64_t batches = 0;     ///< evaluate() calls
  std::uint64_t candidates = 0;  ///< total results delivered
  std::uint64_t cache_hits = 0;  ///< answered from the fitness cache
  std::uint64_t duplicates = 0;  ///< collapsed within a batch
  std::uint64_t dispatched = 0;  ///< sent to the backend (unique misses)
  /// Cumulative wall time inside evaluate() — dedup, cache probes and
  /// backend dispatch. Together with the evaluator's stage_timings()
  /// this separates batching overhead from pipeline cost.
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
// whenever they like. Between the two sides sits a small pool of
// dispatcher lanes that
//   - coalesce submissions into one service batch per claim, gathering
//     the oldest submission's completion queue (one island) from
//     anywhere in the stream queue, so an island's results come back
//     in one delivery,
//   - deduplicate against computations already in flight on another
//     lane (late submitters latch onto the running computation instead
//     of recomputing),
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
  /// pipeline parallelism; each lane evaluates its claimed batch
  /// serially with a private scratch arena.
  std::uint32_t lanes = 2;
  /// Max submissions one lane claims per dispatch round. Claims are
  /// grouped by completion queue (the oldest submission anchors, more
  /// submissions of its island are gathered from across the queue), so
  /// one claim never mixes tenants and returns an island's results in
  /// one delivery; keep it small enough that one slow batch member
  /// cannot hold many results hostage.
  std::uint32_t max_coalesce = 16;
  /// Retry ladder and (optional) fault injection, applied per attempt
  /// at (lane-local phase, submission index) coordinates exactly like
  /// the synchronous backends. `workers` and `transport` are ignored —
  /// the lane pool replaces them.
  BackendOptions backend;

  void validate() const;
};

/// Aggregate counters. The atomic half (submitted/completed/...) is
/// readable at any time; `service` sums the per-lane batching stats and
/// is populated by close() — read it after the stream is closed.
struct EvaluationStreamStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Submissions that latched onto an in-flight computation of the
  /// same candidate on another lane (cross-island coalescing).
  std::uint64_t inflight_merges = 0;
  std::uint64_t dispatch_rounds = 0;
  EvaluationServiceStats service;
};

class EvaluationStream {
 public:
  /// `queue_count` independent completion queues (one per island). The
  /// evaluator must outlive the stream. Lanes start immediately.
  EvaluationStream(const HaplotypeEvaluator& evaluator,
                   std::uint32_t queue_count, EvaluationStreamConfig config);

  /// Multi-tenant stream: `queue_capacity` completion queues are
  /// allocated up front but none is bound to an evaluator yet — tenants
  /// (e.g. the island engines of concurrently scanned windows) attach a
  /// block of queues with open_queues() and release it with
  /// retire_queues(), so one long-lived lane pool serves many
  /// short-lived engines instead of each spinning up its own. Lanes
  /// never mix tenants within a dispatch batch (the coalescing key is
  /// the completion queue, which belongs to one tenant), and each lane
  /// keeps one serial service per tenant, so the probe-once /
  /// compute-once accounting holds per evaluator.
  EvaluationStream(std::uint32_t queue_capacity,
                   EvaluationStreamConfig config);
  ~EvaluationStream();

  EvaluationStream(const EvaluationStream&) = delete;
  EvaluationStream& operator=(const EvaluationStream&) = delete;

  /// Binds `count` consecutive completion queues to `evaluator` and
  /// returns the first queue index. The evaluator must outlive the
  /// tenancy (i.e. stay alive until retire_queues() returns). Throws
  /// when the preallocated capacity is exhausted. Thread-safe.
  std::uint32_t open_queues(const HaplotypeEvaluator& evaluator,
                            std::uint32_t count);

  /// Closes the tenant that open_queues() returned `base` for (`count`
  /// must match): further submissions to its queues are rejected, and
  /// the call blocks until everything it already accepted has been
  /// delivered to the completion queues — after it returns, one final
  /// poll() per queue observes every result and the tenant's evaluator
  /// may be destroyed.
  void retire_queues(std::uint32_t base, std::uint32_t count);

  /// Enqueues one candidate; its result will appear on `queue` tagged
  /// with `ticket`. Returns false when the stream is closed or the
  /// queue's tenant is retired (the submission is dropped).
  [[nodiscard]] bool submit(std::uint32_t queue, std::uint64_t ticket,
                            Candidate candidate);

  /// All results currently ready on `queue` (possibly none).
  std::vector<StreamResult> poll(std::uint32_t queue);

  /// Blocks up to `timeout` for at least one result on `queue`. An
  /// empty return after a close() means shutdown, not timeout.
  std::vector<StreamResult> wait(std::uint32_t queue,
                                 std::chrono::milliseconds timeout);

  /// Stops accepting submissions, drains in-flight work and joins the
  /// lanes. Idempotent; the destructor calls it.
  void close();

  /// Submitted but not yet delivered, across all queues.
  std::uint64_t in_flight() const {
    return submitted_.load(std::memory_order_relaxed) -
           delivered_.load(std::memory_order_relaxed);
  }

  std::uint32_t queue_count() const {
    return static_cast<std::uint32_t>(completions_.size());
  }
  std::uint32_t lane_count() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }

  EvaluationStreamStats stats() const;

 private:
  struct Submission {
    std::uint32_t queue = 0;
    std::uint32_t slot = 0;  ///< owning tenant (fixed at submit)
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
  struct Lane;
  struct Tenant;

  static constexpr std::uint32_t kUnboundQueue =
      static_cast<std::uint32_t>(-1);

  void lane_loop(Lane& lane);
  void deliver(const Waiter& waiter, double fitness, bool failed);

  EvaluationStreamConfig config_;
  parallel::CoalescingQueue<Submission> queue_;
  std::vector<std::unique_ptr<CompletionQueue>> completions_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;

  /// Tenant registry. Slots and completion queues are preallocated at
  /// construction (no vector ever reallocates under a running lane);
  /// open_queues() fills the next free slot under `registry_mutex_`.
  /// `queue_slots_[q]` maps a queue to its owning slot and is written
  /// before the queue index is handed to the tenant, so readers that
  /// learned `q` from open_queues() race with nothing.
  std::mutex registry_mutex_;
  std::condition_variable retire_cv_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<std::uint32_t> queue_slots_;
  std::uint32_t open_slots_ = 0;
  std::uint32_t bound_queues_ = 0;

  /// Guards every tenant's in-flight map (candidate → submitters
  /// waiting on the one running computation of it).
  std::mutex inflight_mutex_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> inflight_merges_{0};
  std::atomic<std::uint64_t> dispatch_rounds_{0};

  mutable std::mutex close_mutex_;
  bool closed_ = false;
  /// Set by close() after the lanes drained and joined: every result
  /// that will ever exist has been delivered, so wait() returns
  /// without sleeping.
  std::atomic<bool> drained_{false};
  EvaluationServiceStats final_service_stats_;
};

}  // namespace ldga::stats
