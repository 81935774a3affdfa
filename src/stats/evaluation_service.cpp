#include "stats/evaluation_service.hpp"

#include <unordered_map>
#include <utility>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace ldga::stats {

EvaluationService::EvaluationService(
    const HaplotypeEvaluator& evaluator,
    std::shared_ptr<EvaluationBackend> backend)
    : evaluator_(&evaluator), backend_(std::move(backend)) {
  LDGA_EXPECTS(backend_ != nullptr);
}

std::vector<double> EvaluationService::evaluate(
    std::span<const Candidate> batch) {
  const Stopwatch watch;
  ++stats_.batches;
  stats_.candidates += batch.size();

  constexpr std::size_t kUnresolved = static_cast<std::size_t>(-1);
  std::vector<double> results(batch.size());
  /// First batch position of each distinct candidate.
  std::unordered_map<Candidate, std::size_t, SnpSetHash, SnpSetEqual>
      first_seen;
  first_seen.reserve(batch.size());
  /// Duplicates copy their result from the first occurrence afterwards.
  std::vector<std::size_t> copy_from(batch.size(), kUnresolved);
  /// First occurrences that missed the cache: position in `unique`.
  std::vector<std::size_t> dispatch_slot(batch.size(), kUnresolved);
  std::vector<Candidate> unique;

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto [seen, fresh] = first_seen.emplace(batch[i], i);
    if (!fresh) {
      ++stats_.duplicates;
      copy_from[i] = seen->second;
      continue;
    }
    if (const auto cached = evaluator_->cached_fitness(batch[i])) {
      ++stats_.cache_hits;
      results[i] = *cached;
      continue;
    }
    dispatch_slot[i] = unique.size();
    unique.push_back(batch[i]);
  }

  if (!unique.empty()) {
    stats_.dispatched += unique.size();
    std::vector<double> computed;
    try {
      computed = backend_->evaluate_batch(unique);
    } catch (...) {
      // An exhausted retry ladder still spent its time in this call.
      stats_.batch_seconds += watch.elapsed_seconds();
      throw;
    }
    LDGA_EXPECTS(computed.size() == unique.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (dispatch_slot[i] != kUnresolved) {
        results[i] = computed[dispatch_slot[i]];
      }
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (copy_from[i] != kUnresolved) results[i] = results[copy_from[i]];
  }
  stats_.batch_seconds += watch.elapsed_seconds();
  return results;
}

// --- EvaluationStream -------------------------------------------------

void EvaluationStreamConfig::validate() const {
  if (lanes < 1) {
    throw ConfigError("EvaluationStreamConfig: need at least one lane");
  }
  if (max_coalesce < 1) {
    throw ConfigError("EvaluationStreamConfig: max_coalesce must be >= 1");
  }
}

EvaluationStream::EvaluationStream(const HaplotypeEvaluator& evaluator,
                                   std::uint32_t queue_count,
                                   EvaluationStreamConfig config)
    : evaluator_(&evaluator),
      config_(std::move(config)),
      ladder_{&evaluator, config_.max_task_retries, config_.fault_injector},
      lane_stats_(config_.lanes) {
  config_.validate();
  LDGA_EXPECTS(queue_count >= 1);
  completions_.reserve(queue_count);
  for (std::uint32_t q = 0; q < queue_count; ++q) {
    completions_.push_back(std::make_unique<CompletionQueue>());
  }
  threads_.reserve(config_.lanes);
  for (EvaluationServiceStats& stats : lane_stats_) {
    threads_.emplace_back([this, &stats] { lane_loop(stats); });
  }
}

EvaluationStream::~EvaluationStream() { close(); }

bool EvaluationStream::submit(std::uint32_t queue, std::uint64_t ticket,
                              Candidate candidate) {
  LDGA_EXPECTS(queue < completions_.size());
  // Count before the push: a lane may claim, evaluate and deliver the
  // submission before this thread runs another instruction, and
  // in_flight() (submitted - delivered, unsigned) must never observe
  // delivered ahead of submitted.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!queue_.push({queue, ticket, std::move(candidate)})) {
    submitted_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void EvaluationStream::deliver(const Waiter& waiter, double fitness,
                               bool failed) {
  CompletionQueue& completion = *completions_[waiter.queue];
  // Count before the result becomes poppable: a consumer that has
  // drained its queue may immediately read in_flight()/stats(), and
  // the counters must already cover everything it received (the
  // completion mutex orders these relaxed increments for it).
  if (failed) failed_.fetch_add(1, std::memory_order_relaxed);
  delivered_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(completion.mutex);
    completion.results.push_back({waiter.ticket, fitness, failed});
  }
  completion.ready.notify_all();
}

void EvaluationStream::lane_loop(EvaluationServiceStats& stats) {
  EvalScratch scratch;
  for (;;) {
    // Claim the oldest submission plus more from its completion queue
    // (one island), gathered from anywhere in the stream queue, so an
    // island's results come back in one delivery. A plain FIFO claim
    // interleaves islands and measured 24-39% slower end to end on the
    // async region workload (docs/algorithms.md §16).
    std::vector<Submission> batch = queue_.pop_batch_grouped(
        config_.max_coalesce, [](const Submission& s) { return s.queue; });
    if (batch.empty()) return;  // closed and drained
    dispatch_rounds_.fetch_add(1, std::memory_order_relaxed);

    // Claim pass: this lane computes a candidate only if no other lane
    // is already computing it; otherwise the submission latches onto
    // the in-flight computation and is delivered by whichever lane
    // finishes it. The map key views the claiming submission's
    // candidate: its heap buffer moves with it into `claimed`, which
    // outlives the entry.
    std::vector<Submission> claimed;
    claimed.reserve(batch.size());
    {
      std::lock_guard lock(inflight_mutex_);
      for (Submission& submission : batch) {
        const Waiter waiter{submission.queue, submission.ticket};
        auto [entry, fresh] = inflight_.try_emplace(
            std::span<const genomics::SnpIndex>(submission.candidate),
            InFlight{waiter, {}});
        if (!fresh) {
          entry->second.merged.push_back(waiter);
          inflight_merges_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        claimed.push_back(std::move(submission));
      }
    }
    if (claimed.empty()) continue;

    // Each claimed candidate is probed and, on a miss, scored at its
    // claimer's (queue, ticket) coordinates. A candidate that exhausts
    // its retry ladder is delivered failed with the penalty fitness
    // while its siblings keep their real scores, instead of tearing
    // down the whole stream the way a synchronous phase would.
    const Stopwatch watch;
    std::vector<double> scores(claimed.size(),
                               evaluator_->config().penalty_fitness);
    std::vector<bool> failures(claimed.size(), false);
    for (std::size_t i = 0; i < claimed.size(); ++i) {
      const auto& [queue, ticket, candidate] = claimed[i];
      ++stats.batches;
      ++stats.candidates;
      if (const auto cached = evaluator_->cached_fitness(candidate)) {
        ++stats.cache_hits;
        scores[i] = *cached;
        continue;
      }
      ++stats.dispatched;
      try {
        scores[i] = ladder_.score(candidate, queue, ticket, scratch);
      } catch (const std::exception&) {
        failures[i] = true;
      }
    }
    stats.batch_seconds += watch.elapsed_seconds();

    for (std::size_t i = 0; i < claimed.size(); ++i) {
      InFlight waiters;
      {
        std::lock_guard lock(inflight_mutex_);
        auto entry = inflight_.find(
            std::span<const genomics::SnpIndex>(claimed[i].candidate));
        LDGA_EXPECTS(entry != inflight_.end());
        waiters = std::move(entry->second);
        inflight_.erase(entry);
      }
      deliver(waiters.first, scores[i], failures[i]);
      for (const Waiter& waiter : waiters.merged) {
        deliver(waiter, scores[i], failures[i]);
      }
    }
  }
}

std::vector<StreamResult> EvaluationStream::poll(std::uint32_t queue) {
  LDGA_EXPECTS(queue < completions_.size());
  CompletionQueue& completion = *completions_[queue];
  std::lock_guard lock(completion.mutex);
  return std::exchange(completion.results, {});
}

std::vector<StreamResult> EvaluationStream::wait(
    std::uint32_t queue, std::chrono::milliseconds timeout) {
  LDGA_EXPECTS(queue < completions_.size());
  CompletionQueue& completion = *completions_[queue];
  std::unique_lock lock(completion.mutex);
  completion.ready.wait_for(lock, timeout, [&] {
    return !completion.results.empty() ||
           drained_.load(std::memory_order_acquire);
  });
  return std::exchange(completion.results, {});
}

void EvaluationStream::close() {
  {
    std::lock_guard lock(close_mutex_);
    if (closed_) return;
    closed_ = true;
  }
  queue_.close();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  for (const EvaluationServiceStats& s : lane_stats_) {
    final_service_stats_.batches += s.batches;
    final_service_stats_.candidates += s.candidates;
    final_service_stats_.cache_hits += s.cache_hits;
    final_service_stats_.duplicates += s.duplicates;
    final_service_stats_.dispatched += s.dispatched;
    final_service_stats_.batch_seconds += s.batch_seconds;
  }
  // Results are final now: wake any consumer still blocked in wait(),
  // and make later wait() calls return empty immediately instead of
  // sleeping out their timeout (shutdown, not timeout).
  drained_.store(true, std::memory_order_release);
  for (const auto& completion : completions_) {
    completion->ready.notify_all();
  }
}

EvaluationStreamStats EvaluationStream::stats() const {
  EvaluationStreamStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = delivered_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.inflight_merges = inflight_merges_.load(std::memory_order_relaxed);
  stats.dispatch_rounds = dispatch_rounds_.load(std::memory_order_relaxed);
  // close() publishes the lane totals with `drained_`, after it summed
  // them; until then they read as zero, never as a partial sum.
  if (drained_.load(std::memory_order_acquire)) {
    stats.service = final_service_stats_;
  }
  return stats;
}

}  // namespace ldga::stats
