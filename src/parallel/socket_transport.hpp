// Cross-process transport: each worker is a forked process speaking
// length-prefixed, CRC-checksummed frames (frame.hpp) to the master
// over its own Unix-domain socketpair.
//
// The same farm as the in-process transport, but with genuine process
// isolation — a worker can segfault, be SIGKILLed, hang, or write
// garbage, and the master observes it as a typed control message
// (kWorkerLost / kCorruptFrame) rather than undefined behaviour.
//
// Mechanics per worker:
//   - master forks via ProcessSupervisor; the child closes every fd it
//     does not own and runs the WorkerBody against its socket;
//   - a reader thread in the master drains the socket through a
//     FrameDecoder into one shared inbox Mailbox, which the master's
//     receive reads;
//   - EOF/read errors and frame corruption retire the connection and
//     synthesize kWorkerLost (after reaping the child for its exit
//     status, with a 500 ms grace before SIGKILL); corruption
//     additionally SIGKILLs the child, since a desynchronized stream
//     cannot be re-trusted;
//   - an idle child emits a heartbeat frame every heartbeat_interval so
//     deadline-based liveness has signal to work with.
#pragma once

#include <chrono>
#include <memory>

#include "parallel/transport.hpp"

namespace ldga::parallel {

struct SocketTransportConfig {
  /// How often an idle worker reassures the master it is alive.
  std::chrono::milliseconds heartbeat_interval{200};

  void validate() const;
};

/// Workers are forked processes; messages travel as checksummed frames
/// over socketpairs. Throws SpawnError when a worker cannot be started.
std::unique_ptr<Transport> make_socket_transport(
    Transport::WorkerBody body, SocketTransportConfig config = {});

/// Factory form for MasterSlaveFarm / evaluation backends.
TransportFactory socket_transport_factory(SocketTransportConfig config = {});

}  // namespace ldga::parallel
