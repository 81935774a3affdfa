#include "parallel/transport.hpp"

#include <mutex>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "parallel/mailbox.hpp"
#include "util/error.hpp"

namespace ldga::parallel {

Message control_message(TaskId source, std::int32_t tag,
                        const std::string& reason) {
  Packer packer;
  packer.pack_string(reason);
  Message message;
  message.source = source;
  message.tag = tag;
  message.payload = std::move(packer).take();
  return message;
}

namespace {

/// A worker thread's endpoint: its own inbox, and the master's.
class InProcessChannel final : public WorkerChannel {
 public:
  InProcessChannel(TaskId id, Mailbox& inbox, Mailbox& master)
      : id_(id), inbox_(inbox), master_(master) {}

  TaskId id() const override { return id_; }

  void send_to_master(std::int32_t tag, Packer payload,
                      FrameFault fault) override {
    Message message;
    switch (fault) {
      case FrameFault::kNone:
        message.source = id_;
        message.tag = tag;
        message.payload = std::move(payload).take();
        break;
      case FrameFault::kDrop:
        return;
      case FrameFault::kCorrupt: {
        // Nothing crosses a wire, so no check can fail: deliver the
        // notice of a damaged reply in its place, the reply's payload
        // after the reason.
        message = control_message(id_, transport_tag::kCorruptFrame,
                                  "reply from worker " + std::to_string(id_) +
                                      " arrived corrupt (injected fault)");
        const std::vector<std::uint8_t> reply = std::move(payload).take();
        message.payload.insert(message.payload.end(), reply.begin(),
                               reply.end());
        break;
      }
    }
    if (!master_.deliver(std::move(message))) {
      throw TransportClosed("send to master failed: mailbox closed");
    }
  }

  Message receive_from_master() override { return inbox_.receive(); }

  [[noreturn]] void die(const std::string& reason) override {
    throw WorkerTerminated{reason};
  }

 private:
  TaskId id_;
  Mailbox& inbox_;
  Mailbox& master_;
};

class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(WorkerBody body) : body_(std::move(body)) {
    LDGA_EXPECTS(body_ != nullptr);
  }

  ~InProcessTransport() override {
    {
      std::lock_guard lock(mutex_);
      shutting_down_ = true;
      for (auto& [id, worker] : workers_) worker.inbox.close();
    }
    master_.close();
    // Joined outside the lock: exiting workers take it to record their
    // exit. Nothing adds workers any more, so the map holds still.
    for (auto& [id, worker] : workers_) worker.thread.join();
  }

  TaskId spawn_worker() override {
    std::lock_guard lock(mutex_);
    const TaskId id = next_id_++;
    // Node-based map: the inbox keeps its address as workers are added.
    Worker& worker = workers_[id];
    try {
      worker.thread = std::thread(
          [this, id, &inbox = worker.inbox] { run_worker(id, inbox); });
    } catch (const std::system_error& e) {
      workers_.erase(id);
      throw SpawnError(std::string("worker thread failed to start: ") +
                       e.what());
    }
    return id;
  }

  void send_to_worker(TaskId worker, std::int32_t tag,
                      Packer payload) override {
    Mailbox* inbox = nullptr;
    {
      std::lock_guard lock(mutex_);
      const auto it = workers_.find(worker);
      if (it == workers_.end()) {
        throw TransportError("send to unknown worker " +
                             std::to_string(worker));
      }
      if (it->second.exited || it->second.retired) {
        throw TransportClosed("worker " + std::to_string(worker) +
                              " is gone");
      }
      inbox = &it->second.inbox;
    }
    Message message;
    message.source = kMasterTask;
    message.tag = tag;
    message.payload = std::move(payload).take();
    if (!inbox->deliver(std::move(message))) {
      throw TransportClosed("worker " + std::to_string(worker) +
                            " is gone");
    }
  }

  Message receive() override { return master_.receive(); }

  std::optional<Message> receive_for(
      std::chrono::milliseconds timeout) override {
    return master_.receive_for(timeout);
  }

  void retire_worker(TaskId worker) override {
    std::lock_guard lock(mutex_);
    const auto it = workers_.find(worker);
    if (it == workers_.end()) return;
    it->second.retired = true;
    // Unblocks the worker's pending receive with TransportClosed; the
    // thread then returns and is joined at destruction.
    it->second.inbox.close();
  }

 private:
  struct Worker {
    Mailbox inbox;
    std::thread thread;
    bool exited = false;
    bool retired = false;
  };

  void run_worker(TaskId id, Mailbox& inbox) {
    InProcessChannel channel(id, inbox, master_);
    std::string reason;
    bool graceful = false;
    try {
      // Each worker runs its own copy of the body: worker closures may
      // carry mutable by-value state (e.g. evaluation scratch arenas)
      // that must not be shared across slave threads.
      WorkerBody body = body_;
      body(channel);
      graceful = true;
    } catch (const TransportClosed&) {
      graceful = true;  // transport shutting down or worker retired
    } catch (const WorkerTerminated& killed) {
      reason = killed.reason;
    } catch (const std::exception& e) {
      reason = std::string("worker body threw: ") + e.what();
    } catch (...) {
      reason = "worker body threw a non-exception";
    }
    bool announce = !graceful;
    {
      std::lock_guard lock(mutex_);
      auto& worker = workers_.at(id);
      worker.exited = true;
      announce = announce && !worker.retired && !shutting_down_;
    }
    // A refused delivery means the master mailbox is already closed:
    // nobody is left to tell.
    if (announce) {
      (void)master_.deliver(
          control_message(id, transport_tag::kWorkerLost, reason));
    }
  }

  WorkerBody body_;
  Mailbox master_;
  std::mutex mutex_;
  std::unordered_map<TaskId, Worker> workers_;
  TaskId next_id_ = 1;
  bool shutting_down_ = false;
};

}  // namespace

std::unique_ptr<Transport> make_in_process_transport(
    Transport::WorkerBody body) {
  return std::make_unique<InProcessTransport>(std::move(body));
}

}  // namespace ldga::parallel
