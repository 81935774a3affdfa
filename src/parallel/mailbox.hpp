// A closable blocking FIFO: any thread may deliver, and receivers take
// items in arrival order. The master/slave farm gives each slave thread
// one for its work items and reads one more for every slave's replies;
// items cross by value, typed by the element type.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace ldga::parallel {

/// A receive found its mailbox closed and drained.
class MailboxClosed : public ParallelError {
 public:
  explicit MailboxClosed(const std::string& what) : ParallelError(what) {}
};

template <typename T>
class Mailbox {
 public:
  /// Enqueues an item (called by any sender thread). Returns false —
  /// without queueing — when the mailbox is closed, so senders can tell
  /// their receiver is gone instead of silently losing the item.
  [[nodiscard]] bool deliver(T item) {
    {
      std::lock_guard lock(mutex_);
      if (closed_) return false;
      queue_.push_back(std::move(item));
    }
    arrived_.notify_one();
    return true;
  }

  /// Blocks for the oldest item. Throws MailboxClosed once the mailbox
  /// is closed and empty.
  T receive() {
    std::unique_lock lock(mutex_);
    for (;;) {
      if (auto found = take_front()) return std::move(*found);
      if (closed_) throw MailboxClosed("Mailbox: receive on closed mailbox");
      arrived_.wait(lock);
    }
  }

  /// Blocks up to `timeout` for the oldest item; empty on timeout.
  /// Throws MailboxClosed if the mailbox closes while waiting. Used by
  /// the farm's deadlines.
  std::optional<T> receive_for(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::unique_lock lock(mutex_);
    for (;;) {
      if (auto found = take_front()) return found;
      if (closed_) throw MailboxClosed("Mailbox: receive on closed mailbox");
      if (arrived_.wait_until(lock, deadline) == std::cv_status::timeout) {
        // One last look: an item may have arrived with the timeout.
        return take_front();
      }
    }
  }

  /// Wakes all blocked receivers; they drain what is queued, then
  /// receives throw and further deliveries return false. Idempotent.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    arrived_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  std::size_t pending() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

 private:
  /// Pops the oldest item; caller holds the lock.
  std::optional<T> take_front() {
    if (queue_.empty()) return std::nullopt;
    std::optional<T> front(std::move(queue_.front()));
    queue_.pop_front();
    return front;
  }

  mutable std::mutex mutex_;
  std::condition_variable arrived_;
  std::deque<T> queue_;
  bool closed_ = false;
};

}  // namespace ldga::parallel
