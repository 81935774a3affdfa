// Typed errors of the transport layer. Separate from transport.hpp so
// the mailbox can throw them without depending on the Transport
// interface itself.
//
// Hierarchy (all recoverable, all under ParallelError so existing farm
// catch sites keep working):
//   TransportError        — any transport-layer failure
//   ├─ TransportClosed    — endpoint shut down (send/receive after close)
//   └─ SpawnError         — a worker thread could not be started
#pragma once

#include <string>

#include "util/error.hpp"

namespace ldga::parallel {

class TransportError : public ParallelError {
 public:
  explicit TransportError(const std::string& what) : ParallelError(what) {}
};

class TransportClosed : public TransportError {
 public:
  explicit TransportClosed(const std::string& what) : TransportError(what) {}
};

class SpawnError : public TransportError {
 public:
  explicit SpawnError(const std::string& what) : TransportError(what) {}
};

}  // namespace ldga::parallel
