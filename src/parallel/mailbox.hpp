// A closable blocking FIFO of messages: any thread may deliver, and
// receivers take messages in arrival order. The transport gives the
// master and each worker one.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "parallel/message.hpp"

namespace ldga::parallel {

class Mailbox {
 public:
  /// Enqueues a message (called by any sender thread). Returns false —
  /// without queueing — when the mailbox is closed, so senders can
  /// surface a typed error instead of silently losing the message.
  [[nodiscard]] bool deliver(Message message);

  /// Blocks for the oldest message. Throws TransportClosed once the
  /// mailbox is closed and empty (machine shutdown).
  Message receive();

  /// Blocks up to `timeout` for the oldest message; empty on timeout.
  /// Throws TransportClosed if the mailbox closes while waiting. Used
  /// by the farm's phase-deadline policy.
  std::optional<Message> receive_for(std::chrono::milliseconds timeout);

  /// Wakes all blocked receivers with an error; further receives throw
  /// once the queue is drained, and further deliveries return false.
  void close();

  bool closed() const;
  std::size_t pending() const;

 private:
  /// Pops the oldest message; caller holds the lock.
  std::optional<Message> take_front();

  mutable std::mutex mutex_;
  std::condition_variable arrived_;
  std::deque<Message> queue_;
  bool closed_ = false;
};

}  // namespace ldga::parallel
