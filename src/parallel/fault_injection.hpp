// Deterministic, seedable fault injection for the evaluation farm.
//
// The injector decides, per (phase, task index, attempt), whether a
// slave should throw, stall, or emit a wrong-phase stale reply before
// doing its real work. Decisions are a pure function of the seed and
// those coordinates, so a test run injects the same fault set on every
// execution regardless of thread interleaving — the farm's retry,
// quarantine, and stale-discard paths become reproducibly testable.
//
// Two ways to use it:
//   - hand a shared_ptr to MasterSlaveFarm: the *master* consults
//     decide() at dispatch time and ships the decision inside the work
//     item, so attempt tracking stays global across slaves (enables
//     stale replies and the slave faults: dropped replies and slave
//     kills);
//   - without a farm (stats::RetryLadder, behind the in-process backend
//     and the EvaluationStream's lanes): the scoring thread calls decide()
//     then apply_before_work() before each attempt, at (batch phase,
//     batch position) in a backend and at (completion queue, ticket)
//     in a stream. Throws and delays only.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace ldga::parallel {

/// What a slave is instructed to do before executing one task attempt.
struct FaultDecision {
  enum class Kind : std::uint8_t {
    kNone,         ///< proceed normally
    kThrow,        ///< raise FaultInjected instead of computing
    kDelay,        ///< sleep, then compute normally
    kStaleReply,   ///< send a wrong-phase duplicate, then reply normally
    // Slave faults (exercise the loss-detection machinery; only
    // meaningful on a farm, where the decision reaches a slave):
    kDropReply,    ///< compute, then never send the reply
    kKillWorker,   ///< die instantly, mid-protocol (SIGKILL-equivalent)
  };
  Kind kind = Kind::kNone;
  std::chrono::milliseconds delay{0};
};

/// The exception surfaced by injected throws; derives from
/// std::runtime_error so it reaches the farm's master as an error reply,
/// like any real worker failure.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& what)
      : std::runtime_error(what) {}
};

class FaultInjector {
 public:
  struct Config {
    std::uint64_t seed = 1;
    /// Per-attempt probabilities, each decided independently and
    /// deterministically from (seed, phase, index, attempt).
    double throw_probability = 0.0;
    double delay_probability = 0.0;
    double stale_probability = 0.0;
    std::chrono::milliseconds delay{1};
    /// Explicit schedules: fault the *first attempt* of these task
    /// indices (every phase), so a retry always recovers.
    std::vector<std::uint64_t> throw_on_tasks;
    std::vector<std::uint64_t> stale_on_tasks;
    /// Slave-fault schedules, same first-attempt semantics.
    std::vector<std::uint64_t> drop_on_tasks;
    std::vector<std::uint64_t> kill_on_tasks;

    /// Heavy-tailed "straggler" delays: with this probability an
    /// attempt sleeps for straggler_scale · u^(-1/straggler_shape)
    /// (a Pareto draw — most stragglers are mild, a few are extreme,
    /// the regime where a generation barrier hurts most), clamped to
    /// straggler_cap. Decided deterministically from (seed, phase,
    /// index, attempt) like every other fault, so a straggler schedule
    /// reproduces exactly across runs and backends.
    double straggler_probability = 0.0;
    std::chrono::milliseconds straggler_scale{2};
    double straggler_shape = 1.2;
    std::chrono::milliseconds straggler_cap{250};

    void validate() const;
  };

  /// The reproducible barrier-vs-async comparison preset: ~`probability`
  /// of attempts straggle with a Pareto(shape 1.1) tail scaled to
  /// `scale` and capped at 50·scale. Used by bench_parallel_speedup and
  /// the chaos tests so both always measure the same delay population.
  static Config straggler_preset(std::uint64_t seed, double probability,
                                 std::chrono::milliseconds scale);

  explicit FaultInjector(Config config);

  /// Deterministic decision for one attempt at (phase, index).
  /// Thread-safe; attempt numbers are tracked internally.
  FaultDecision decide(std::uint64_t phase, std::uint64_t task_index);

  /// Executes the throw/delay part of a decision (used by RetryLadder and
  /// by the farm's slave loop). Throws FaultInjected for kThrow.
  static void apply_before_work(const FaultDecision& decision);

  const Config& config() const { return config_; }

  std::uint64_t injected_throws() const { return throws_.load(); }
  std::uint64_t injected_delays() const { return delays_.load(); }
  std::uint64_t injected_stragglers() const { return stragglers_.load(); }
  /// Total wall time injected as straggler sleep (telemetry for the
  /// speedup bench: how much delay the schedule actually dealt).
  std::chrono::milliseconds injected_straggler_time() const {
    return std::chrono::milliseconds(straggler_ms_.load());
  }
  std::uint64_t injected_stales() const { return stales_.load(); }
  std::uint64_t injected_drops() const { return drops_.load(); }
  std::uint64_t injected_kills() const { return kills_.load(); }

 private:
  Config config_;
  std::mutex mutex_;
  /// Attempt counter per (phase, index) coordinate.
  std::unordered_map<std::uint64_t, std::uint32_t> attempts_;
  std::atomic<std::uint64_t> throws_{0};
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> stragglers_{0};
  std::atomic<std::uint64_t> straggler_ms_{0};
  std::atomic<std::uint64_t> stales_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> kills_{0};
};

}  // namespace ldga::parallel
