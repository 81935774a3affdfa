// Fault-tolerance policy and diagnostics for the master/slave farm.
//
// Kept separate from master_slave.hpp so that configuration-level code
// (GaConfig, CLI front-ends) can name the policy and read the stats
// without pulling in the whole farm template machinery.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace ldga::parallel {

/// How MasterSlaveFarm::run reacts to failing evaluations and slaves.
///
/// The escalation ladder is: retry the task on a different slave (up to
/// max_task_retries reassignments), quarantine a slave after
/// quarantine_after consecutive failures (respawning a replacement when
/// respawn_quarantined is set), and abort the phase with FarmPhaseError
/// only when a task exhausts its retries, no healthy slave remains, or
/// the optional phase deadline expires.
struct FarmPolicy {
  /// Reassignments allowed per task after its first failure. 0 restores
  /// the fail-fast behaviour of the original §4.5 farm.
  std::uint32_t max_task_retries = 2;
  /// Consecutive failures after which a slave is quarantined.
  std::uint32_t quarantine_after = 3;
  /// Replace a quarantined slave with a fresh one (same rank).
  bool respawn_quarantined = true;
  /// Wall-clock budget for one run() call; zero means unlimited.
  std::chrono::milliseconds phase_deadline{0};
  /// Wall-clock budget for one dispatched task. When it expires the
  /// worker is declared lost (hung worker, dropped reply) and the task
  /// is requeued elsewhere. Zero means unlimited — no liveness
  /// tracking, matching the original §4.5 farm.
  std::chrono::milliseconds task_deadline{0};
  /// Delay before respawning a *crashed* worker, doubling per
  /// consecutive loss on the same rank up to the cap — a crash-looping
  /// rank must not busy-spin thread creation. (Quarantine respawns of
  /// live workers stay immediate.)
  std::chrono::milliseconds respawn_backoff{10};
  std::chrono::milliseconds respawn_backoff_cap{1000};
  /// When no worker survives and none can be respawned, finish the
  /// remaining tasks on the master itself instead of failing the
  /// phase — full degradation down to serial.
  bool degrade_to_master = false;

  void validate() const {
    if (quarantine_after < 1) {
      throw ConfigError("FarmPolicy: quarantine_after must be >= 1");
    }
    if (phase_deadline.count() < 0) {
      throw ConfigError("FarmPolicy: phase_deadline must be >= 0");
    }
    if (task_deadline.count() < 0) {
      throw ConfigError("FarmPolicy: task_deadline must be >= 0");
    }
    if (respawn_backoff.count() < 0) {
      throw ConfigError("FarmPolicy: respawn_backoff must be >= 0");
    }
    if (respawn_backoff_cap < respawn_backoff) {
      throw ConfigError(
          "FarmPolicy: respawn_backoff_cap must be >= respawn_backoff");
    }
  }
};

/// One failed execution of a task, for post-mortem reporting.
struct TaskAttempt {
  std::uint32_t slave_rank = 0;  ///< rank that ran the attempt
  std::string message;           ///< worker exception what()
};

/// Rank recorded in TaskAttempt for attempts executed by the master
/// itself under FarmPolicy::degrade_to_master.
inline constexpr std::uint32_t kMasterRank = 0xFFFFFFFFu;

/// A farm phase that could not be completed under the active policy.
/// Carries the failing task index (when one task is to blame) and the
/// full attempt history so the caller can tell a poisoned input apart
/// from collapsing infrastructure.
class FarmPhaseError : public ParallelError {
 public:
  FarmPhaseError(const std::string& what, std::uint64_t phase,
                 std::optional<std::size_t> task_index,
                 std::vector<TaskAttempt> attempts)
      : ParallelError(what),
        phase_(phase),
        task_index_(task_index),
        attempts_(std::move(attempts)) {}

  std::uint64_t phase() const { return phase_; }
  std::optional<std::size_t> task_index() const { return task_index_; }
  const std::vector<TaskAttempt>& attempts() const { return attempts_; }

 private:
  std::uint64_t phase_;
  std::optional<std::size_t> task_index_;
  std::vector<TaskAttempt> attempts_;
};

/// Appends one failed attempt to a task's history. Once the history
/// holds more than `max_task_retries` attempts the task is out of
/// retries: throws FarmPhaseError naming the task and its last error,
/// with the whole history.
inline void record_failed_attempt(std::vector<TaskAttempt>& history,
                                  TaskAttempt attempt,
                                  std::uint32_t max_task_retries,
                                  std::uint64_t phase, std::size_t index) {
  history.push_back(std::move(attempt));
  if (history.size() <= max_task_retries) return;
  std::string what = "phase " + std::to_string(phase) + " task " +
                     std::to_string(index) + " failed " +
                     std::to_string(history.size()) +
                     " time(s): " + history.back().message;
  throw FarmPhaseError(what, phase, index, std::move(history));
}

/// Farm health and throughput counters, cumulative across phases.
struct FarmStats {
  /// Work items completed by each slave (index = slave *rank*; a rank
  /// keeps its row across quarantine respawns).
  std::vector<std::uint64_t> per_slave_tasks;
  std::uint64_t phases = 0;           ///< run() calls completed
  std::uint64_t failures = 0;         ///< error replies received
  std::uint64_t retries = 0;          ///< task reassignments dispatched
  std::uint64_t quarantines = 0;      ///< slaves taken out of rotation
  std::uint64_t respawns = 0;         ///< replacement slaves spawned
  std::uint64_t stale_discarded = 0;  ///< replies from other phases dropped
  std::uint64_t worker_losses = 0;    ///< crashes/kills/deadlines
  std::uint64_t master_degraded_tasks = 0;  ///< tasks run on the master
};

}  // namespace ldga::parallel
