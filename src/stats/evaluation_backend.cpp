#include "stats/evaluation_backend.hpp"

#include <atomic>
#include <utility>

#include "parallel/master_slave.hpp"
#include "parallel/thread_pool.hpp"

namespace ldga::stats {

double RetryLadder::score(const Candidate& candidate, std::uint64_t phase,
                          std::uint64_t index, EvalScratch& scratch) {
  std::vector<parallel::TaskAttempt> attempts;
  for (;;) {
    try {
      if (injector != nullptr) {
        parallel::FaultInjector::apply_before_work(
            injector->decide(phase, index));
      }
      return evaluator->fitness_and_cache(candidate, scratch);
    } catch (const std::exception& error) {
      failures.fetch_add(1, std::memory_order_relaxed);
      parallel::record_failed_attempt(attempts, {0, error.what()},
                                      max_task_retries, phase, index);
      retries.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

namespace {

/// The caller and `pool`'s threads score a batch; with no pool the
/// caller scores it alone, in order. Each batch is one phase of fault
/// coordinates, its candidates' batch positions the task indices.
class InProcessBackend final : public EvaluationBackend {
 public:
  InProcessBackend(const HaplotypeEvaluator& evaluator,
                   const BackendOptions& options,
                   std::shared_ptr<parallel::ThreadPool> pool)
      : ladder_{&evaluator, options.farm_policy.max_task_retries,
                options.fault_injector},
        pool_(std::move(pool)),
        scratches_(worker_count()) {
    options.farm_policy.validate();
  }

  std::vector<double> evaluate_batch(
      std::span<const Candidate> batch) override {
    const std::uint64_t phase =
        phase_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::vector<double> results(batch.size());
    // parallel_for_chunked runs each chunk on exactly one thread (chunk
    // 0 on the caller), so indexing the arenas by chunk gives every
    // worker a private scratch with no locking. The chunks claim
    // candidates one at a time, so no worker idles while a costly one
    // (a size-6 candidate costs ~60 size-2 ones) holds up another; the
    // arenas hold capacity only, so which chunk scores a candidate
    // changes no result.
    const auto score = [&](std::size_t chunk, std::size_t i) {
      results[i] = ladder_.score(batch[i], phase, i, scratches_[chunk]);
    };
    if (pool_ != nullptr) {
      pool_->parallel_for_chunked(0, batch.size(), score);
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i) score(0, i);
    }
    phases_.fetch_add(1, std::memory_order_relaxed);
    return results;
  }

  std::string_view name() const override {
    return pool_ != nullptr ? "thread_pool" : "serial";
  }
  std::uint32_t worker_count() const override {
    return pool_ != nullptr ? pool_->thread_count() + 1 : 1;
  }

  parallel::FarmStats farm_stats() const override {
    parallel::FarmStats stats;
    stats.phases = phases_.load(std::memory_order_relaxed);
    stats.failures = ladder_.failures.load(std::memory_order_relaxed);
    stats.retries = ladder_.retries.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  RetryLadder ladder_;
  /// Injected (shared, long-lived) or private; null scores in order.
  std::shared_ptr<parallel::ThreadPool> pool_;
  /// One arena per worker: per parallel_for chunk, the caller's first.
  /// Buffers persist across candidates and batches at their
  /// high-water mark.
  std::vector<EvalScratch> scratches_;
  std::atomic<std::uint64_t> phase_counter_{0};
  std::atomic<std::uint64_t> phases_{0};
};

/// The §4.5 farm behind the backend API: each batch is one farm phase,
/// its candidates cross to the slave threads by value, and the master
/// records every returned fitness in the caller's evaluator.
class FarmBackend final : public EvaluationBackend {
 public:
  FarmBackend(const HaplotypeEvaluator& evaluator, BackendOptions options)
      : evaluator_(&evaluator),
        farm_(options.workers > 0 ? options.workers
                                  : parallel::default_thread_count(),
              // Each slave thread owns a copy of this worker (the farm
              // copies it per slave), so the mutable by-value scratch
              // is a per-slave arena. Slaves only score; the master
              // records every result.
              [ev = &evaluator,
               scratch = EvalScratch{}](const Candidate& candidate) mutable {
                return ev->score(candidate, scratch);
              },
              options.farm_policy, std::move(options.fault_injector)) {}

  std::vector<double> evaluate_batch(
      std::span<const Candidate> batch) override {
    std::vector<double> results = farm_.run(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      evaluator_->record(batch[i], results[i]);
    }
    return results;
  }

  std::string_view name() const override { return "farm"; }
  std::uint32_t worker_count() const override { return farm_.slave_count(); }
  parallel::FarmStats farm_stats() const override { return farm_.stats(); }

 private:
  const HaplotypeEvaluator* evaluator_;
  parallel::MasterSlaveFarm<Candidate, double> farm_;
};

}  // namespace

std::shared_ptr<EvaluationBackend> make_serial_backend(
    const HaplotypeEvaluator& evaluator, BackendOptions options) {
  return std::make_shared<InProcessBackend>(evaluator, options, nullptr);
}

std::shared_ptr<EvaluationBackend> make_thread_pool_backend(
    const HaplotypeEvaluator& evaluator, BackendOptions options) {
  std::shared_ptr<parallel::ThreadPool> pool =
      options.pool != nullptr ? options.pool
                              : parallel::make_worker_pool(options.workers);
  return std::make_shared<InProcessBackend>(evaluator, options,
                                            std::move(pool));
}

std::shared_ptr<EvaluationBackend> make_farm_backend(
    const HaplotypeEvaluator& evaluator, BackendOptions options) {
  return std::make_shared<FarmBackend>(evaluator, std::move(options));
}

}  // namespace ldga::stats
