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
//   - the master starts no thread: receive polls every open socket on
//     the caller's thread, one FrameDecoder per connection;
//   - EOF/read errors and frame corruption close the connection and
//     synthesize kWorkerLost (after reaping the child for its exit
//     status, with a 500 ms grace before SIGKILL); corruption first
//     SIGKILLs the child and reports kCorruptFrame, since a
//     desynchronized stream cannot be re-trusted;
//   - retire_worker SIGKILLs, reaps and closes at once (nothing is
//     announced for a retired worker, so nothing waits for its exit).
//
// The master reads only inside receive, so meanwhile a worker's write
// waits in its socket buffer, and blocks once that is full. The farm
// bounds this at one reply per task, plus one stale duplicate under an
// injected kStaleReply.
#pragma once

#include <memory>

#include "parallel/transport.hpp"

namespace ldga::parallel {

/// Workers are forked processes; messages travel as checksummed frames
/// over socketpairs. Throws SpawnError when a worker cannot be started.
std::unique_ptr<Transport> make_socket_transport(Transport::WorkerBody body);

/// Factory form for MasterSlaveFarm / evaluation backends.
TransportFactory socket_transport_factory();

}  // namespace ldga::parallel
