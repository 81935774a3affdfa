#include "parallel/mailbox.hpp"

#include "parallel/transport_error.hpp"

namespace ldga::parallel {

bool Mailbox::deliver(Message message) {
  {
    std::lock_guard lock(mutex_);
    if (closed_) return false;
    queue_.push_back(std::move(message));
  }
  arrived_.notify_one();
  return true;
}

std::optional<Message> Mailbox::take_front() {
  if (queue_.empty()) return std::nullopt;
  Message front = std::move(queue_.front());
  queue_.pop_front();
  return front;
}

Message Mailbox::receive() {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (auto found = take_front()) return std::move(*found);
    if (closed_) {
      throw TransportClosed("Mailbox: receive on closed mailbox");
    }
    arrived_.wait(lock);
  }
}

std::optional<Message> Mailbox::receive_for(
    std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock lock(mutex_);
  for (;;) {
    if (auto found = take_front()) return found;
    if (closed_) {
      throw TransportClosed("Mailbox: receive on closed mailbox");
    }
    if (arrived_.wait_until(lock, deadline) == std::cv_status::timeout) {
      // One last look: a message may have arrived with the timeout.
      return take_front();
    }
  }
}

void Mailbox::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  arrived_.notify_all();
}

bool Mailbox::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

std::size_t Mailbox::pending() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

}  // namespace ldga::parallel
