#include "stats/evaluation_backend.hpp"

#include <atomic>
#include <string>
#include <utility>

#include "parallel/master_slave.hpp"
#include "parallel/thread_pool.hpp"

namespace ldga::stats {

namespace {

std::uint32_t resolve_workers(std::uint32_t requested) {
  return requested > 0 ? requested : parallel::default_thread_count();
}

/// Shared retry ladder for the in-process backends, mirroring the farm:
/// consult the injector once per attempt at the true (phase, index)
/// coordinates, retry a failing evaluation up to max_task_retries
/// times, and surface exhaustion as FarmPhaseError with the attempt
/// history. Stale-reply decisions are wire-level faults and degrade to
/// no-ops in process.
class InProcessBackend : public EvaluationBackend {
 public:
  InProcessBackend(const HaplotypeEvaluator& evaluator,
                   BackendOptions options)
      : evaluator_(&evaluator),
        policy_(options.farm_policy),
        injector_(std::move(options.fault_injector)) {
    policy_.validate();
  }

  parallel::FarmStats farm_stats() const final {
    parallel::FarmStats stats;
    stats.phases = phases_.load(std::memory_order_relaxed);
    stats.failures = failures_.load(std::memory_order_relaxed);
    stats.retries = retries_.load(std::memory_order_relaxed);
    return stats;
  }

 protected:
  double evaluate_with_retry(const Candidate& candidate, std::uint64_t phase,
                             std::uint64_t index,
                             EvalScratch& scratch) const {
    std::vector<parallel::TaskAttempt> attempts;
    for (;;) {
      try {
        if (injector_ != nullptr) {
          parallel::FaultInjector::apply_before_work(
              injector_->decide(phase, index));
        }
        return evaluator_->fitness_and_cache(candidate, scratch);
      } catch (const std::exception& error) {
        failures_.fetch_add(1, std::memory_order_relaxed);
        attempts.push_back({0, error.what()});
        if (attempts.size() >
            static_cast<std::size_t>(policy_.max_task_retries)) {
          std::string what =
              std::string(name()) + " backend: task " + std::to_string(index) +
              " failed " + std::to_string(attempts.size()) +
              " time(s): " + attempts.back().message;
          throw parallel::FarmPhaseError(std::move(what), phase, index,
                                         std::move(attempts));
        }
        retries_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  std::uint64_t begin_phase() const {
    return phase_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void end_phase() const { phases_.fetch_add(1, std::memory_order_relaxed); }

  const HaplotypeEvaluator* evaluator_;
  parallel::FarmPolicy policy_;
  std::shared_ptr<parallel::FaultInjector> injector_;

 private:
  mutable std::atomic<std::uint64_t> phase_counter_{0};
  mutable std::atomic<std::uint64_t> phases_{0};
  mutable std::atomic<std::uint64_t> failures_{0};
  mutable std::atomic<std::uint64_t> retries_{0};
};

class SerialBackend final : public InProcessBackend {
 public:
  using InProcessBackend::InProcessBackend;

  std::vector<double> evaluate_batch(
      std::span<const Candidate> batch) override {
    const std::uint64_t phase = begin_phase();
    std::vector<double> results(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      results[i] = evaluate_with_retry(batch[i], phase, i, scratch_);
    }
    end_phase();
    return results;
  }

  std::string_view name() const override { return "serial"; }
  std::uint32_t worker_count() const override { return 1; }

 private:
  /// One arena for the whole batch loop — buffers persist across
  /// candidates and generations at their high-water mark.
  EvalScratch scratch_;
};

class ThreadPoolBackend final : public InProcessBackend {
 public:
  ThreadPoolBackend(const HaplotypeEvaluator& evaluator,
                    BackendOptions options)
      : InProcessBackend(evaluator, options),
        pool_(options.pool != nullptr
                  ? options.pool
                  : std::make_shared<parallel::ThreadPool>(
                        resolve_workers(options.workers))),
        scratches_(pool_->thread_count() + 1) {}

  std::vector<double> evaluate_batch(
      std::span<const Candidate> batch) override {
    const std::uint64_t phase = begin_phase();
    std::vector<double> results(batch.size());
    // parallel_for_chunked runs each chunk on exactly one thread (chunk
    // 0 on the caller), so indexing the arenas by chunk gives every
    // worker a private scratch with no locking.
    pool_->parallel_for_chunked(
        0, batch.size(), [&](std::size_t chunk, std::size_t i) {
          results[i] =
              evaluate_with_retry(batch[i], phase, i, scratches_[chunk]);
        });
    end_phase();
    return results;
  }

  std::string_view name() const override { return "thread_pool"; }
  std::uint32_t worker_count() const override {
    return pool_->thread_count();
  }

 private:
  /// Injected (shared, long-lived) or private, per BackendOptions.
  std::shared_ptr<parallel::ThreadPool> pool_;
  /// One arena per parallel_for chunk (threads + the calling thread).
  std::vector<EvalScratch> scratches_;
};

class FarmBackend final : public EvaluationBackend {
 public:
  FarmBackend(const HaplotypeEvaluator& evaluator, BackendOptions options)
      : farm_(resolve_workers(options.workers),
              // Each slave owns a copy of this worker (the transport
              // copies it per worker — or the fork duplicates it), so
              // the mutable by-value scratch is a per-slave arena.
              [ev = &evaluator,
               scratch = EvalScratch{}](const Candidate& candidate) mutable {
                return ev->fitness_and_cache(candidate, scratch);
              },
              options.farm_policy, std::move(options.fault_injector),
              options.transport == FarmTransport::kSocket
                  ? parallel::socket_transport_factory(options.socket)
                  : parallel::TransportFactory{}) {}

  std::vector<double> evaluate_batch(
      std::span<const Candidate> batch) override {
    return farm_.run(batch);
  }

  std::string_view name() const override { return "farm"; }
  std::uint32_t worker_count() const override { return farm_.slave_count(); }
  parallel::FarmStats farm_stats() const override { return farm_.stats(); }

 private:
  parallel::MasterSlaveFarm<Candidate, double> farm_;
};

}  // namespace

std::shared_ptr<EvaluationBackend> make_serial_backend(
    const HaplotypeEvaluator& evaluator, BackendOptions options) {
  return std::make_shared<SerialBackend>(evaluator, std::move(options));
}

std::shared_ptr<EvaluationBackend> make_thread_pool_backend(
    const HaplotypeEvaluator& evaluator, BackendOptions options) {
  return std::make_shared<ThreadPoolBackend>(evaluator, std::move(options));
}

std::shared_ptr<EvaluationBackend> make_farm_backend(
    const HaplotypeEvaluator& evaluator, BackendOptions options) {
  return std::make_shared<FarmBackend>(evaluator, std::move(options));
}

}  // namespace ldga::stats
