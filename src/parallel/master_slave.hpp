// Synchronous master/slave evaluation farm — the paper's §4.5 parallel
// scheme (Figure 6): slaves are spawned once at start-up and bind to the
// data once; during each evaluation phase the master hands one work item
// at a time to whichever slave is free and gathers the results, so the
// phase is a synchronization point (the GA generation cannot proceed
// until every individual is scored).
//
// The farm is generic over (Task, Result); both must be round-trippable
// through the wire format via the farm_pack / farm_unpack customization
// points below, which keeps the discipline honest: everything that
// crosses the master/slave boundary is serialized, exactly as it would
// be over PVM. Messages travel through the transport (transport.hpp):
// slave threads, each with its own in-memory mailbox.
//
// Fault tolerance (FarmPolicy): a failed evaluation is retried on a
// different slave; a slave that fails repeatedly is quarantined and
// optionally respawned; a worker that dies or blows its per-task
// deadline is declared lost, its in-flight task requeued, and a
// replacement respawned after an exponential backoff; when every
// worker is gone the farm can degrade to computing on the master
// itself (degrade_to_master). The phase aborts with FarmPhaseError —
// carrying the failing task index and its attempt history — only when
// a task exhausts its retries, no healthy slave remains (and
// degradation is off), or the optional phase deadline expires. A
// deterministic FaultInjector can be attached to drive every one of
// those paths in tests; its decisions are taken by the master at
// dispatch time and shipped inside the work message, so attempt
// tracking stays global across slaves.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <thread>
#include <vector>

#include "parallel/farm_policy.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/transport.hpp"
#include "util/error.hpp"

namespace ldga::parallel {

// ---- wire customization points -------------------------------------
// Overloads for the payload shapes the library needs; extend by adding
// overloads in the payload type's namespace (found by ADL) or here.

template <WireScalar T>
void farm_pack(Packer& packer, const T& value) {
  packer.pack(value);
}
template <WireScalar T>
void farm_unpack(Unpacker& unpacker, T& value) {
  value = unpacker.unpack<T>();
}

template <WireScalar T>
void farm_pack(Packer& packer, const std::vector<T>& value) {
  packer.pack_vector(value);
}
template <WireScalar T>
void farm_unpack(Unpacker& unpacker, std::vector<T>& value) {
  value = unpacker.unpack_vector<T>();
}

// ----------------------------------------------------------------------

/// Message tags of the farm protocol.
namespace farm_tag {
inline constexpr std::int32_t kWork = 1;
inline constexpr std::int32_t kResult = 2;
inline constexpr std::int32_t kShutdown = 3;
inline constexpr std::int32_t kError = 4;  ///< body = phase + index + what()
}  // namespace farm_tag

template <typename Task, typename Result>
class MasterSlaveFarm {
 public:
  using Worker = std::function<Result(const Task&)>;

  /// Spawns `slave_count` slaves, each owning a copy of `worker` (the
  /// "slaves access the data once at initialization" of §4.5 — the
  /// worker closure typically captures a reference to the shared,
  /// immutable dataset/evaluator). `injector`, when set, is consulted
  /// by the master before every dispatch (test fault injection).
  MasterSlaveFarm(std::uint32_t slave_count, Worker worker,
                  FarmPolicy policy = {},
                  std::shared_ptr<FaultInjector> injector = nullptr)
      : worker_(std::move(worker)),
        policy_(policy),
        injector_(std::move(injector)) {
    LDGA_EXPECTS(slave_count >= 1);
    LDGA_EXPECTS(worker_ != nullptr);
    policy_.validate();
    transport_ = make_in_process_transport(
        [worker = worker_](WorkerChannel& channel) {
          slave_loop(channel, worker);
        });
    stats_.per_slave_tasks.assign(slave_count, 0);
    slaves_.resize(slave_count);
    for (std::uint32_t rank = 0; rank < slave_count; ++rank) {
      attach(rank, transport_->spawn_worker());
    }
    healthy_ = slave_count;
  }

  ~MasterSlaveFarm() {
    // Orderly shutdown: each live slave exits its loop on kShutdown;
    // retired/lost/quarantined workers are already gone, and the
    // transport destructor joins whatever remains.
    for (const auto& slave : slaves_) {
      if (slave.quarantined || slave.lost) continue;
      try {
        transport_->send_to_worker(slave.id, farm_tag::kShutdown, Packer{});
      } catch (const ParallelError&) {
        // Worker or machine already gone; the transport cleans up.
      }
    }
  }

  MasterSlaveFarm(const MasterSlaveFarm&) = delete;
  MasterSlaveFarm& operator=(const MasterSlaveFarm&) = delete;

  std::uint32_t slave_count() const {
    return static_cast<std::uint32_t>(slaves_.size());
  }
  std::uint32_t healthy_slave_count() const { return healthy_; }

  /// One synchronous evaluation phase: scores every task, returning
  /// results in task order. Dynamic (first-free-slave) scheduling with
  /// the FarmPolicy retry/quarantine/respawn ladder on top; the phase
  /// completes as long as any healthy slave remains (or can be
  /// respawned, or the policy allows degrading to the master) and no
  /// task exhausts its retries. On FarmPhaseError the farm stays usable
  /// for further phases (stale replies from the failed phase are
  /// identified by a phase counter and discarded).
  std::vector<Result> run(std::span<const Task> tasks) {
    using Clock = std::chrono::steady_clock;
    const std::uint64_t phase = ++phase_counter_;
    std::vector<Result> results(tasks.size());
    if (tasks.empty()) {
      ++stats_.phases;
      return results;
    }

    const bool timed = policy_.phase_deadline.count() > 0;
    const auto phase_deadline = Clock::now() + policy_.phase_deadline;

    // Per-phase scheduling state.
    std::vector<std::vector<TaskAttempt>> attempts(tasks.size());
    std::vector<std::uint8_t> done(tasks.size(), 0);
    struct RetryItem {
      std::size_t index;
      std::uint32_t last_rank;  ///< rank of the slave that just failed it
    };
    std::deque<RetryItem> retry;
    std::vector<std::uint32_t> idle;
    for (std::uint32_t rank = 0; rank < slaves_.size(); ++rank) {
      // In-flight work from an aborted earlier phase is forgotten; any
      // late replies are discarded below by their phase stamp.
      slaves_[rank].busy_task.reset();
      if (!slaves_[rank].quarantined && !slaves_[rank].lost) {
        idle.push_back(rank);
      }
    }
    std::size_t next = 0;
    std::size_t outstanding = 0;
    std::size_t completed = 0;

    // Records one failed attempt; throws FarmPhaseError when the task
    // is out of retries, otherwise queues it for reassignment.
    auto fail_attempt = [&](std::size_t index, std::uint32_t rank,
                            std::string message) {
      ++stats_.failures;
      attempts[index].push_back({rank, std::move(message)});
      if (attempts[index].size() >
          static_cast<std::size_t>(policy_.max_task_retries)) {
        // Build the message before moving the attempt history: the
        // constructor's by-value parameter may otherwise be
        // materialized first, leaving back() dangling.
        std::string what =
            "MasterSlaveFarm: task " + std::to_string(index) +
            " failed on " + std::to_string(attempts[index].size()) +
            " slave(s): " + attempts[index].back().message;
        throw FarmPhaseError(std::move(what), phase, index,
                             std::move(attempts[index]));
      }
      retry.push_back({index, rank});
    };

    auto schedule_respawn = [&](std::uint32_t rank, Clock::time_point now) {
      auto& slave = slaves_[rank];
      slave.lost = true;
      const std::uint32_t shift = std::min(
          slave.loss_streak > 0 ? slave.loss_streak - 1 : 0u, 10u);
      slave.respawn_due =
          now + std::min(policy_.respawn_backoff * (1u << shift),
                         policy_.respawn_backoff_cap);
    };

    // A worker is gone (killed, or past its task deadline): retire it,
    // requeue its in-flight task as a failed attempt, and run the
    // quarantine/respawn ladder. Losses always need a respawn (unlike
    // error replies, where the slave itself survives), so a lost rank
    // below the quarantine threshold is respawned too — after an
    // exponential backoff so a crash-looping rank cannot spin.
    auto declare_lost = [&](std::uint32_t rank, const std::string& reason,
                            Clock::time_point now) {
      auto& slave = slaves_[rank];
      if (slave.quarantined || slave.lost) return;
      ++stats_.worker_losses;
      transport_->retire_worker(slave.id);
      rank_by_task_.erase(slave.id);
      idle.erase(std::remove(idle.begin(), idle.end(), rank), idle.end());
      --healthy_;
      ++slave.loss_streak;
      if (++slave.consecutive_failures >= policy_.quarantine_after) {
        ++stats_.quarantines;
        slave.consecutive_failures = 0;
        if (policy_.respawn_quarantined) {
          schedule_respawn(rank, now);
        } else {
          slave.quarantined = true;
        }
      } else {
        schedule_respawn(rank, now);
      }
      if (slave.busy_task) {
        const std::size_t index = *slave.busy_task;
        slave.busy_task.reset();
        --outstanding;
        fail_attempt(index, rank, reason);  // may abort the phase
      }
    };

    auto perform_due_respawns = [&](Clock::time_point now) {
      for (std::uint32_t rank = 0; rank < slaves_.size(); ++rank) {
        auto& slave = slaves_[rank];
        if (!slave.lost || now < slave.respawn_due) continue;
        try {
          attach(rank, transport_->spawn_worker());
        } catch (const SpawnError&) {
          ++slave.loss_streak;
          schedule_respawn(rank, now);
          continue;
        }
        slave.lost = false;
        ++healthy_;
        ++stats_.respawns;
        idle.push_back(rank);
      }
    };

    // False when the chosen slave turned out to be dead at dispatch
    // (the task is then not in flight and the slave enters the loss
    // ladder).
    auto send_one = [&](std::uint32_t rank, std::size_t index) -> bool {
      try {
        send_work(slaves_[rank].id, phase, index, tasks[index]);
      } catch (const TransportError& error) {
        declare_lost(rank, std::string("dispatch failed: ") + error.what(),
                     Clock::now());
        return false;
      }
      slaves_[rank].busy_task = index;
      slaves_[rank].dispatched_at = Clock::now();
      ++outstanding;
      return true;
    };

    // Hands work to every idle healthy slave: queued retries first
    // (preferring a slave other than the one that just failed the
    // task), then fresh tasks.
    auto dispatch = [&] {
      for (auto item = retry.begin(); item != retry.end();) {
        if (idle.empty()) break;
        auto slot = std::find_if(
            idle.begin(), idle.end(),
            [&](std::uint32_t rank) { return rank != item->last_rank; });
        if (slot == idle.end()) {
          // Only the failing slave is free. If others are busy, wait
          // for one of them; if it is the last slave standing, it must
          // retry its own failure.
          if (outstanding > 0) {
            ++item;
            continue;
          }
          slot = idle.begin();
        }
        const std::uint32_t rank = *slot;
        const std::size_t index = item->index;
        idle.erase(slot);
        item = retry.erase(item);
        if (send_one(rank, index)) {
          ++stats_.retries;
        } else {
          // Chosen slave died at dispatch; same task, next candidate.
          item = retry.insert(item, {index, rank});
        }
      }
      while (!idle.empty() && next < tasks.size()) {
        const std::uint32_t rank = idle.back();
        idle.pop_back();
        if (!send_one(rank, next)) continue;
        ++next;
      }
    };

    /// Failure bookkeeping for one error reply from `rank`: count it,
    /// quarantine (and optionally respawn) the slave when it crosses
    /// the policy threshold, otherwise return it to the idle pool.
    auto handle_slave_failure = [&](std::uint32_t rank) {
      auto& slave = slaves_[rank];
      if (++slave.consecutive_failures >= policy_.quarantine_after) {
        ++stats_.quarantines;
        rank_by_task_.erase(slave.id);
        transport_->retire_worker(slave.id);
        slave.consecutive_failures = 0;
        if (policy_.respawn_quarantined) {
          // The old worker was merely failing, not dead: replace it
          // immediately, no crash backoff.
          attach(rank, transport_->spawn_worker());
          ++stats_.respawns;
          idle.push_back(rank);
        } else {
          slave.quarantined = true;
          --healthy_;
        }
      } else {
        idle.push_back(rank);
      }
    };

    // Earliest instant any timer (phase deadline, per-task deadline,
    // pending respawn) needs attention; none means receive can block.
    auto compute_wake = [&]() -> std::optional<Clock::time_point> {
      std::optional<Clock::time_point> wake;
      auto consider = [&](Clock::time_point t) {
        if (!wake || t < *wake) wake = t;
      };
      if (timed) consider(phase_deadline);
      if (policy_.task_deadline.count() > 0) {
        for (const auto& slave : slaves_) {
          if (slave.busy_task) {
            consider(slave.dispatched_at + policy_.task_deadline);
          }
        }
      }
      for (const auto& slave : slaves_) {
        if (slave.lost) consider(slave.respawn_due);
      }
      return wake;
    };

    auto handle_task_deadlines = [&](Clock::time_point now) {
      if (policy_.task_deadline.count() <= 0) return;
      for (std::uint32_t rank = 0; rank < slaves_.size(); ++rank) {
        if (slaves_[rank].busy_task &&
            now - slaves_[rank].dispatched_at >= policy_.task_deadline) {
          declare_lost(rank,
                       "task deadline of " +
                           std::to_string(policy_.task_deadline.count()) +
                           " ms exceeded (worker hung or reply lost)",
                       now);
        }
      }
    };

    // Full degradation: no worker left and none coming back, so the
    // master computes the remainder itself, still under the injector's
    // throw/delay faults and the per-task retry budget.
    auto run_on_master = [&](std::size_t index) {
      for (;;) {
        FaultDecision fault;
        if (injector_ != nullptr) fault = injector_->decide(phase, index);
        try {
          FaultInjector::apply_before_work(fault);
          results[index] = worker_(tasks[index]);
          done[index] = 1;
          ++completed;
          ++stats_.master_degraded_tasks;
          return;
        } catch (const std::exception& error) {
          ++stats_.failures;
          attempts[index].push_back({kMasterRank, error.what()});
          if (attempts[index].size() >
              static_cast<std::size_t>(policy_.max_task_retries)) {
            std::string what =
                "MasterSlaveFarm: task " + std::to_string(index) +
                " failed on " + std::to_string(attempts[index].size()) +
                " slave(s): " + attempts[index].back().message;
            throw FarmPhaseError(std::move(what), phase, index,
                                 std::move(attempts[index]));
          }
          ++stats_.retries;
        }
      }
    };

    auto degrade_remaining = [&] {
      while (!retry.empty()) {
        const std::size_t index = retry.front().index;
        retry.pop_front();
        run_on_master(index);
      }
      for (; next < tasks.size(); ++next) {
        if (!done[next]) run_on_master(next);
      }
    };

    dispatch();
    while (completed < tasks.size()) {
      auto now = Clock::now();
      if (timed && now >= phase_deadline) {
        throw FarmPhaseError("MasterSlaveFarm: phase deadline exceeded",
                             phase, std::nullopt, {});
      }
      perform_due_respawns(now);
      dispatch();

      if (outstanding == 0) {
        const bool respawn_pending =
            std::any_of(slaves_.begin(), slaves_.end(),
                        [](const Slave& slave) { return slave.lost; });
        if (!respawn_pending) {
          // Work remains, nothing in flight, nobody coming back.
          if (policy_.degrade_to_master) {
            degrade_remaining();
            continue;
          }
          throw FarmPhaseError("MasterSlaveFarm: no healthy slaves", phase,
                               std::nullopt, {});
        }
      }

      std::optional<Message> received;
      if (const auto wake = compute_wake()) {
        auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
                        *wake - now) +
                    std::chrono::milliseconds(1);
        if (wait < std::chrono::milliseconds(1)) {
          wait = std::chrono::milliseconds(1);
        }
        received = transport_->receive_for(wait);
      } else {
        received = transport_->receive();
      }
      if (!received) {
        handle_task_deadlines(Clock::now());
        continue;
      }
      const Message reply = std::move(*received);
      now = Clock::now();

      const auto found = rank_by_task_.find(reply.source);
      if (found == rank_by_task_.end()) {
        ++stats_.stale_discarded;  // late reply from a retired worker
        continue;
      }
      const std::uint32_t rank = found->second;
      auto& slave = slaves_[rank];

      if (reply.tag == transport_tag::kWorkerLost) {
        Unpacker unpacker = reply.unpacker();
        declare_lost(rank, "worker lost: " + unpacker.unpack_string(), now);
        continue;
      }
      if (reply.tag == transport_tag::kCorruptFrame) {
        // Only the one reply was damaged, the worker is fine — treat it
        // like an error reply for the task it answered. The notice
        // carries that reply's phase and index after its reason, so one
        // from an aborted phase, or for a task this slave no longer
        // holds, is stale like any other old reply.
        ++stats_.corrupt_frames;
        Unpacker unpacker = reply.unpacker();
        std::string detail = unpacker.unpack_string();
        const auto reply_phase = unpacker.unpack<std::uint64_t>();
        const auto index =
            static_cast<std::size_t>(unpacker.unpack<std::uint64_t>());
        if (reply_phase != phase || slave.busy_task != index) {
          ++stats_.stale_discarded;
          continue;
        }
        slave.busy_task.reset();
        --outstanding;
        fail_attempt(index, rank, std::move(detail));
        handle_slave_failure(rank);
        continue;
      }

      Unpacker unpacker = reply.unpacker();
      const auto reply_phase = unpacker.unpack<std::uint64_t>();
      if (reply_phase != phase) {
        ++stats_.stale_discarded;  // left over from an aborted phase
        continue;
      }
      const auto index =
          static_cast<std::size_t>(unpacker.unpack<std::uint64_t>());
      LDGA_EXPECTS(index < results.size());

      if (reply.tag == farm_tag::kError) {
        --outstanding;
        slave.busy_task.reset();
        fail_attempt(index, rank, unpacker.unpack_string());
        handle_slave_failure(rank);
      } else if (reply.tag == farm_tag::kResult) {
        if (done[index]) {
          // Duplicate of a task already completed elsewhere (requeued
          // on a deadline, then the original reply straggled in).
          ++stats_.stale_discarded;
          if (slave.busy_task == index) {
            slave.busy_task.reset();
            --outstanding;
            idle.push_back(rank);
          }
          continue;
        }
        farm_unpack(unpacker, results[index]);
        done[index] = 1;
        --outstanding;
        ++completed;
        ++stats_.per_slave_tasks[rank];
        slave.busy_task.reset();
        slave.consecutive_failures = 0;
        slave.loss_streak = 0;
        idle.push_back(rank);
      }
    }

    // End-of-phase maintenance: a fast phase can finish before a lost
    // slave's respawn backoff elapses. Wait the (bounded) backoffs out
    // and bring the ranks back now, so a completed phase always hands
    // the next one a full-strength farm. One spawn attempt per rank; a
    // failing spawn stays scheduled and the next phase keeps trying.
    {
      std::optional<Clock::time_point> last_due;
      for (const auto& slave : slaves_) {
        if (slave.lost && (!last_due || slave.respawn_due > *last_due)) {
          last_due = slave.respawn_due;
        }
      }
      if (last_due) {
        std::this_thread::sleep_until(*last_due);
        perform_due_respawns(Clock::now());
      }
    }
    ++stats_.phases;
    return results;
  }

  const FarmStats& stats() const { return stats_; }
  const FarmPolicy& policy() const { return policy_; }

 private:
  struct Slave {
    TaskId id = -1;
    bool quarantined = false;
    bool lost = false;  ///< dead, awaiting its respawn time
    std::uint32_t consecutive_failures = 0;
    std::uint32_t loss_streak = 0;  ///< consecutive crashes → backoff
    std::optional<std::size_t> busy_task;
    std::chrono::steady_clock::time_point dispatched_at{};
    std::chrono::steady_clock::time_point respawn_due{};
  };

  /// Runs on each slave thread: execute work messages, honouring the
  /// fault directive the master packed in.
  static void slave_loop(WorkerChannel& channel, const Worker& worker) {
    using Kind = FaultDecision::Kind;
    for (;;) {
      Message message;
      try {
        message = channel.receive_from_master();
      } catch (const TransportClosed&) {
        return;  // shutdown or lost master
      }
      if (message.tag == farm_tag::kShutdown) return;
      if (message.tag != farm_tag::kWork) continue;

      Unpacker unpacker = message.unpacker();
      const auto phase = unpacker.unpack<std::uint64_t>();
      const auto index = unpacker.unpack<std::uint64_t>();
      FaultDecision fault;
      fault.kind = static_cast<Kind>(unpacker.unpack<std::uint32_t>());
      fault.delay =
          std::chrono::milliseconds(unpacker.unpack<std::int64_t>());
      Task task;
      farm_unpack(unpacker, task);

      // Fatal directives happen outside the try: they must not be
      // softened into error replies.
      if (fault.kind == Kind::kKillWorker) {
        channel.die("injected worker kill");
      }

      try {
        if (fault.kind == Kind::kStaleReply) {
          // A wrong-phase duplicate first — the master must discard it
          // by the phase counter — then the genuine reply below.
          Packer stale;
          stale.pack(phase - 1);
          stale.pack(index);
          farm_pack(stale, worker(task));
          channel.send_to_master(farm_tag::kResult, std::move(stale));
        }
        FaultInjector::apply_before_work(fault);  // throw / delay

        FrameFault frame_fault = FrameFault::kNone;
        if (fault.kind == Kind::kDropReply) frame_fault = FrameFault::kDrop;
        if (fault.kind == Kind::kCorruptReply) {
          frame_fault = FrameFault::kCorrupt;
        }
        Packer reply;
        reply.pack(phase);
        reply.pack(index);
        farm_pack(reply, worker(task));
        channel.send_to_master(farm_tag::kResult, std::move(reply),
                               frame_fault);
      } catch (const TransportClosed&) {
        return;
      } catch (const std::exception& error) {
        // Report instead of letting the exception kill the worker; the
        // slave stays alive for later phases.
        Packer failure;
        failure.pack(phase);
        failure.pack(index);
        failure.pack_string(error.what());
        try {
          channel.send_to_master(farm_tag::kError, std::move(failure));
        } catch (const TransportClosed&) {
          return;
        }
      }
    }
  }

  void attach(std::uint32_t rank, TaskId id) {
    slaves_[rank].id = id;
    rank_by_task_.emplace(id, rank);
  }

  /// Packs and ships one work message. The fault directive is decided
  /// master-side (global attempt tracking) and executed worker-side.
  void send_work(TaskId worker, std::uint64_t phase, std::size_t index,
                 const Task& task) {
    FaultDecision fault;
    if (injector_ != nullptr) fault = injector_->decide(phase, index);
    Packer packer;
    packer.pack(phase);
    packer.pack(static_cast<std::uint64_t>(index));
    packer.pack(static_cast<std::uint32_t>(fault.kind));
    packer.pack(static_cast<std::int64_t>(fault.delay.count()));
    farm_pack(packer, task);
    transport_->send_to_worker(worker, farm_tag::kWork, std::move(packer));
  }

  Worker worker_;
  FarmPolicy policy_;
  std::shared_ptr<FaultInjector> injector_;
  std::unique_ptr<Transport> transport_;
  std::vector<Slave> slaves_;  ///< index = rank; id updated on respawn
  std::unordered_map<TaskId, std::uint32_t> rank_by_task_;
  std::uint32_t healthy_ = 0;
  FarmStats stats_;
  std::uint64_t phase_counter_ = 0;
};

}  // namespace ldga::parallel
