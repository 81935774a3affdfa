// Synchronous master/slave evaluation farm — the paper's §4.5 parallel
// scheme (Figure 6): slaves are spawned once at start-up and bind to the
// data once; during each evaluation phase the master hands one work item
// at a time to whichever slave is free and gathers the results, so the
// phase is a synchronization point (the GA generation cannot proceed
// until every individual is scored).
//
// The farm owns its slaves: each is a thread of this process that reads
// its own Mailbox of work items, and every slave posts its replies to
// the master's one Mailbox. Master and slaves share no mutable state;
// work and replies cross by value, typed at compile time, where PVM's
// pvm_send / pvm_recv move packed buffers between processes. Closing a
// slave's inbox is its shutdown.
//
// Fault tolerance (FarmPolicy): a failed evaluation is retried on a
// different slave; a slave that fails repeatedly is quarantined and
// optionally respawned; a slave that dies or blows its per-task
// deadline is declared lost, its in-flight task requeued, and a
// replacement respawned after an exponential backoff; when every
// slave is gone the farm can degrade to computing on the master
// itself (degrade_to_master). The phase aborts with FarmPhaseError —
// carrying the failing task index and its attempt history — only when
// a task exhausts its retries, no healthy slave remains (and
// degradation is off), or the optional phase deadline expires. A
// deterministic FaultInjector can be attached to drive every one of
// those paths in tests; its decisions are taken by the master at
// dispatch time and shipped inside the work item, so attempt tracking
// stays global across slaves.
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
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "parallel/farm_policy.hpp"
#include "parallel/fault_injection.hpp"
#include "parallel/mailbox.hpp"
#include "util/error.hpp"

namespace ldga::parallel {

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
    stats_.per_slave_tasks.assign(slave_count, 0);
    slaves_.resize(slave_count);
    const auto now = Clock::now();
    try {
      for (std::uint32_t rank = 0; rank < slave_count; ++rank) {
        start(rank, now);
      }
    } catch (...) {
      shut_down();  // no destructor runs for a half-built farm
      throw;
    }
  }

  ~MasterSlaveFarm() { shut_down(); }

  MasterSlaveFarm(const MasterSlaveFarm&) = delete;
  MasterSlaveFarm& operator=(const MasterSlaveFarm&) = delete;

  std::uint32_t slave_count() const {
    return static_cast<std::uint32_t>(slaves_.size());
  }
  std::uint32_t healthy_slave_count() const {
    return static_cast<std::uint32_t>(
        std::count_if(slaves_.begin(), slaves_.end(),
                      [](const Slave& slave) { return slave.in_service(); }));
  }

  /// One synchronous evaluation phase: scores every task, returning
  /// results in task order. Dynamic (first-free-slave) scheduling with
  /// the FarmPolicy retry/quarantine/respawn ladder on top; the phase
  /// completes as long as any healthy slave remains (or can be
  /// respawned, or the policy allows degrading to the master) and no
  /// task exhausts its retries. On FarmPhaseError the farm stays usable
  /// for further phases (stale replies from the failed phase are
  /// identified by a phase counter and discarded).
  std::vector<Result> run(std::span<const Task> tasks) {
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
      if (slaves_[rank].in_service()) idle.push_back(rank);
    }
    std::size_t next = 0;
    std::size_t outstanding = 0;
    std::size_t completed = 0;

    // Records one failed attempt; throws FarmPhaseError when the task
    // is out of retries, otherwise queues it for reassignment.
    auto fail_attempt = [&](std::size_t index, std::uint32_t rank,
                            std::string message) {
      ++stats_.failures;
      record_failed_attempt(attempts[index], {rank, std::move(message)},
                            policy_.max_task_retries, phase, index);
      retry.push_back({index, rank});
    };

    // Brings a lost or quarantined rank back with a fresh slave; a
    // thread that fails to start leaves the rank on the backoff ladder.
    auto respawn = [&](std::uint32_t rank, Clock::time_point now) {
      if (!start(rank, now)) return;
      ++stats_.respawns;
      idle.push_back(rank);
    };

    // A slave is gone (killed, or past its task deadline): retire it,
    // requeue its in-flight task as a failed attempt, and run the
    // quarantine/respawn ladder. Losses always need a respawn (unlike
    // error replies, where the slave itself survives), so a lost rank
    // below the quarantine threshold is respawned too — after an
    // exponential backoff so a crash-looping rank cannot spin.
    auto declare_lost = [&](std::uint32_t rank, const std::string& reason,
                            Clock::time_point now) {
      Slave& slave = slaves_[rank];
      if (!slave.in_service()) return;
      ++stats_.worker_losses;
      retire(rank);
      idle.erase(std::remove(idle.begin(), idle.end(), rank), idle.end());
      ++slave.loss_streak;
      if (++slave.consecutive_failures >= policy_.quarantine_after) {
        ++stats_.quarantines;
        slave.consecutive_failures = 0;
        slave.quarantined = !policy_.respawn_quarantined;
      }
      if (!slave.quarantined) schedule_respawn(rank, now);
      if (slave.busy_task) {
        const std::size_t index = *slave.busy_task;
        slave.busy_task.reset();
        --outstanding;
        fail_attempt(index, rank, reason);  // may abort the phase
      }
    };

    auto perform_due_respawns = [&](Clock::time_point now) {
      for (std::uint32_t rank = 0; rank < slaves_.size(); ++rank) {
        if (slaves_[rank].lost && now >= slaves_[rank].respawn_due) {
          respawn(rank, now);
        }
      }
    };

    // False when the chosen slave turned out to be dead at dispatch
    // (the task is then not in flight and the slave enters the loss
    // ladder). The fault decision is taken here, master-side, for
    // global attempt tracking, and executed by the slave.
    auto send_one = [&](std::uint32_t rank, std::size_t index) -> bool {
      Slave& slave = slaves_[rank];
      FaultDecision fault;
      if (injector_ != nullptr) fault = injector_->decide(phase, index);
      if (!slave.inbox->deliver(Work{phase, index, fault, tasks[index]})) {
        declare_lost(rank, "dispatch failed: the slave's inbox is closed",
                     Clock::now());
        return false;
      }
      slave.busy_task = index;
      slave.dispatched_at = Clock::now();
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
      Slave& slave = slaves_[rank];
      if (++slave.consecutive_failures < policy_.quarantine_after) {
        idle.push_back(rank);
        return;
      }
      ++stats_.quarantines;
      slave.consecutive_failures = 0;
      retire(rank);
      if (policy_.respawn_quarantined) {
        // The old slave was merely failing, not dead: replace it
        // immediately, no crash backoff.
        respawn(rank, Clock::now());
      } else {
        slave.quarantined = true;
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

    // Full degradation: no slave left and none coming back, so the
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
          record_failed_attempt(attempts[index], {kMasterRank, error.what()},
                                policy_.max_task_retries, phase, index);
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

      std::optional<Reply> received;
      if (const auto wake = compute_wake()) {
        auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
                        *wake - now) +
                    std::chrono::milliseconds(1);
        if (wait < std::chrono::milliseconds(1)) {
          wait = std::chrono::milliseconds(1);
        }
        received = replies_.receive_for(wait);
      } else {
        received = replies_.receive();
      }
      if (!received) {
        handle_task_deadlines(Clock::now());
        continue;
      }
      Reply& reply = *received;
      now = Clock::now();

      const std::uint32_t rank = reply.rank;
      Slave& slave = slaves_[rank];
      if (reply.incarnation != slave.incarnation) {
        ++stats_.stale_discarded;  // late reply from a retired slave
        continue;
      }
      if (reply.kind == Reply::Kind::kLost) {
        declare_lost(rank, "worker lost: " + reply.reason, now);
        continue;
      }
      if (reply.phase != phase) {
        ++stats_.stale_discarded;  // left over from an aborted phase
        continue;
      }
      const std::size_t index = reply.index;
      LDGA_EXPECTS(index < results.size());

      if (reply.kind == Reply::Kind::kError) {
        --outstanding;
        slave.busy_task.reset();
        fail_attempt(index, rank, std::move(reply.reason));
        handle_slave_failure(rank);
        continue;
      }
      if (done[index]) {
        // Duplicate of a task already completed elsewhere (requeued on
        // a deadline, then the original reply straggled in).
        ++stats_.stale_discarded;
        if (slave.busy_task == index) {
          slave.busy_task.reset();
          --outstanding;
          idle.push_back(rank);
        }
        continue;
      }
      results[index] = std::move(reply.result);
      done[index] = 1;
      --outstanding;
      ++completed;
      ++stats_.per_slave_tasks[rank];
      slave.busy_task.reset();
      slave.consecutive_failures = 0;
      slave.loss_streak = 0;
      idle.push_back(rank);
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
  using Clock = std::chrono::steady_clock;

  /// One attempt at one task, with the fault the slave must act out.
  struct Work {
    std::uint64_t phase = 0;
    std::size_t index = 0;
    FaultDecision fault;
    Task task;
  };

  /// What a slave posts to the master. The (rank, incarnation) stamp
  /// tells a live slave's reply from a retired one's.
  struct Reply {
    enum class Kind : std::uint8_t {
      kResult,  ///< `result` answers task `index` of `phase`
      kError,   ///< the attempt threw; `reason` is its what()
      kLost,    ///< the slave died; `reason` says why
    };
    std::uint32_t rank = 0;
    std::uint64_t incarnation = 0;
    Kind kind = Kind::kResult;
    std::uint64_t phase = 0;
    std::size_t index = 0;
    Result result{};
    std::string reason;
  };

  struct Slave {
    /// The current incarnation's work queue; null until one starts.
    std::shared_ptr<Mailbox<Work>> inbox;
    /// Bumped on every retirement, so a retired thread's replies are
    /// told apart from its successor's.
    std::uint64_t incarnation = 0;
    bool quarantined = false;
    bool lost = false;  ///< dead, awaiting its respawn time
    std::uint32_t consecutive_failures = 0;
    std::uint32_t loss_streak = 0;  ///< consecutive crashes → backoff
    std::optional<std::size_t> busy_task;
    Clock::time_point dispatched_at{};
    Clock::time_point respawn_due{};

    bool in_service() const { return !quarantined && !lost; }
  };

  /// The one spawn routine — start-up, quarantine respawn and backoff
  /// respawn alike. Starts a slave thread on `rank` with a fresh inbox
  /// and its own copy of the worker: worker closures may carry mutable
  /// by-value state (e.g. evaluation scratch arenas) that must not be
  /// shared across slave threads. A thread that fails to start puts the
  /// rank on the respawn backoff ladder, and start returns false.
  bool start(std::uint32_t rank, Clock::time_point now) {
    Slave& slave = slaves_[rank];
    auto inbox = std::make_shared<Mailbox<Work>>();
    try {
      threads_.emplace_back([worker = worker_, inbox, &replies = replies_,
                             rank, incarnation = slave.incarnation] {
        slave_loop(worker, *inbox, replies, rank, incarnation);
      });
    } catch (const std::system_error&) {
      ++slave.loss_streak;
      schedule_respawn(rank, now);
      return false;
    }
    slave.inbox = std::move(inbox);
    slave.lost = false;
    return true;
  }

  /// An idle slave wakes on its closed inbox and exits; a busy one
  /// exits after its task, whose reply the closed master inbox refuses.
  /// Retired slaves' inboxes are closed already. Every thread ever
  /// started, retired ones included, is joined here.
  void shut_down() {
    for (const Slave& slave : slaves_) {
      if (slave.inbox != nullptr) slave.inbox->close();
    }
    replies_.close();
    for (std::thread& thread : threads_) thread.join();
  }

  /// Takes `rank`'s slave out of service: its closed inbox ends the
  /// thread once it has finished what it holds, and the new incarnation
  /// marks whatever it still posts as stale.
  void retire(std::uint32_t rank) {
    slaves_[rank].inbox->close();
    ++slaves_[rank].incarnation;
  }

  /// Marks `rank` lost and due for respawn after its backoff, which
  /// doubles per consecutive loss up to the cap.
  void schedule_respawn(std::uint32_t rank, Clock::time_point now) {
    Slave& slave = slaves_[rank];
    slave.lost = true;
    const std::uint32_t shift =
        std::min(slave.loss_streak > 0 ? slave.loss_streak - 1 : 0u, 10u);
    slave.respawn_due =
        now + std::min(policy_.respawn_backoff * (1u << shift),
                       policy_.respawn_backoff_cap);
  }

  /// Runs on each slave thread: execute work items, acting out the
  /// fault the master decided, until the inbox is closed. A slave that
  /// dies — an injected kill, or a worker that escapes with something
  /// other than a std::exception — closes its own inbox, so dispatch
  /// to it fails, and reports itself lost.
  static void slave_loop(const Worker& worker, Mailbox<Work>& inbox,
                         Mailbox<Reply>& replies, std::uint32_t rank,
                         std::uint64_t incarnation) {
    using Kind = FaultDecision::Kind;
    // False once the master's inbox is closed: the farm is shutting
    // down, and the slave exits.
    auto post = [&](Reply reply) {
      reply.rank = rank;
      reply.incarnation = incarnation;
      return replies.deliver(std::move(reply));
    };
    std::string death;
    try {
      for (;;) {
        Work work = inbox.receive();  // MailboxClosed: retired or shut down
        if (work.fault.kind == Kind::kKillWorker) {
          death = "injected worker kill";
          break;
        }
        Reply reply;
        reply.phase = work.phase;
        reply.index = work.index;
        try {
          if (work.fault.kind == Kind::kStaleReply) {
            // A wrong-phase duplicate first — the master must discard
            // it by its phase — then the genuine reply below.
            Reply stale = reply;
            --stale.phase;
            stale.result = worker(work.task);
            if (!post(std::move(stale))) return;
          }
          FaultInjector::apply_before_work(work.fault);  // throw / delay
          reply.result = worker(work.task);
          if (work.fault.kind == Kind::kDropReply) continue;
        } catch (const std::exception& error) {
          // Reported instead of killing the slave, which stays alive
          // for later tasks.
          reply.kind = Reply::Kind::kError;
          reply.reason = error.what();
        }
        if (!post(std::move(reply))) return;
      }
    } catch (const MailboxClosed&) {
      return;
    } catch (...) {
      death = "worker body threw a non-exception";
    }
    // An inbox the master closed first means it retired this slave or
    // is shutting down: nobody waits for the news.
    if (inbox.closed()) return;
    inbox.close();
    Reply lost;
    lost.kind = Reply::Kind::kLost;
    lost.reason = std::move(death);
    (void)post(std::move(lost));
  }

  Worker worker_;
  FarmPolicy policy_;
  std::shared_ptr<FaultInjector> injector_;
  Mailbox<Reply> replies_;     ///< every slave posts here
  std::vector<Slave> slaves_;  ///< index = rank
  std::vector<std::thread> threads_;  ///< every incarnation's, joined last
  FarmStats stats_;
  std::uint64_t phase_counter_ = 0;
};

}  // namespace ldga::parallel
