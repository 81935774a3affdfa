// The message layer under the master/slave farm: the interface that
// keeps the farm's protocol apart from how messages travel.
//
// The split mirrors PVM's API surface: Transport is the master's view
// (pvm_spawn / pvm_send / pvm_recv over the whole worker set),
// WorkerChannel is the slave's view (pvm_send / pvm_recv against the
// master only). Both speak Message values whose payloads are plain
// Packer bytes. One implementation backs it: each worker is a thread
// of this process with its own Mailbox, and messages are handed over
// in memory.
//
// Fault model: a transport never throws out of receive() because a
// *worker* misbehaved. Worker death and damaged replies are turned
// into control messages (transport_tag below) so the farm can requeue,
// quarantine, and respawn; exceptions out of transport calls mean the
// transport itself is unusable.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "parallel/message.hpp"
#include "parallel/transport_error.hpp"

namespace ldga::parallel {

/// Control tags synthesized by transports. Negative so they can never
/// collide with a protocol's own tags (the farm uses small positive
/// ones).
namespace transport_tag {
/// The worker is gone (killed, or its body threw). Payload: one packed
/// string describing why. Synthesized by the transport, at most once
/// per worker incarnation.
inline constexpr std::int32_t kWorkerLost = -101;
/// A reply from the worker arrived corrupt. Payload: one packed string
/// saying why, followed by the damaged reply's own payload, so the
/// receiver can tell which request it answered. Only an injected
/// FrameFault::kCorrupt produces it: one reply is damaged, and the
/// worker stays healthy and may be sent further work.
inline constexpr std::int32_t kCorruptFrame = -102;
}  // namespace transport_tag

/// The message a transport synthesizes for kWorkerLost or kCorruptFrame:
/// `tag` from `source`, its payload one packed string.
Message control_message(TaskId source, std::int32_t tag,
                        const std::string& reason);

/// How a worker's outgoing message should be sabotaged — the hook the
/// fault injector's transport faults ride on.
enum class FrameFault : std::uint8_t {
  kNone,
  kDrop,     ///< never deliver the reply
  kCorrupt,  ///< damage the reply so it arrives as kCorruptFrame
};

/// Thrown by WorkerChannel::die to unwind the worker body. Not a
/// std::exception subclass on purpose: it must fly past the worker
/// loop's catch-and-report-error handling.
struct WorkerTerminated {
  std::string reason;
};

/// A worker's endpoint: talk to the master, nothing else.
class WorkerChannel {
 public:
  virtual ~WorkerChannel() = default;

  virtual TaskId id() const = 0;

  /// Sends one message to the master. Throws TransportClosed when the
  /// master is gone (worker should exit quietly).
  virtual void send_to_master(std::int32_t tag, Packer payload,
                              FrameFault fault = FrameFault::kNone) = 0;

  /// Blocks for the next message from the master. Throws
  /// TransportClosed on shutdown or when the worker is retired.
  virtual Message receive_from_master() = 0;

  /// Dies abruptly, mid-protocol, without a goodbye — the injected
  /// "kill -9" fault. The worker unwinds via WorkerTerminated, and the
  /// master learns of it only through the transport's kWorkerLost.
  [[noreturn]] virtual void die(const std::string& reason) = 0;
};

/// The master's endpoint: spawn workers, address them by TaskId,
/// receive from any of them.
class Transport {
 public:
  /// The code a worker runs, on a spawned thread.
  using WorkerBody = std::function<void(WorkerChannel&)>;

  virtual ~Transport() = default;

  /// Starts one worker running the body; returns its address. Throws
  /// SpawnError when the worker cannot be started.
  virtual TaskId spawn_worker() = 0;

  /// Sends one message to a worker. Throws TransportClosed when that
  /// worker is known to be gone or retired; the caller should treat the
  /// worker as lost (the transport will not synthesize kWorkerLost for
  /// a failed send — the sender already knows).
  virtual void send_to_worker(TaskId worker, std::int32_t tag,
                              Packer payload) = 0;

  /// Blocks for the next message from any worker: its replies and the
  /// control tags above.
  virtual Message receive() = 0;

  /// As receive(), but gives up after `timeout`; empty on timeout.
  virtual std::optional<Message> receive_for(
      std::chrono::milliseconds timeout) = 0;

  /// Force-retires a worker: its mailbox is closed, no kWorkerLost
  /// will be synthesized for it, and sends to it fail.
  /// Idempotent; unknown ids are ignored. Used for quarantine and for
  /// workers declared dead by deadline.
  virtual void retire_worker(TaskId worker) = 0;
};

/// Workers are threads of this process, each with its own Mailbox;
/// messages are handed over in memory.
std::unique_ptr<Transport> make_in_process_transport(
    Transport::WorkerBody body);

}  // namespace ldga::parallel
