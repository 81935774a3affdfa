// A coalescing multi-producer multi-consumer work queue — the
// straggler-tolerant scheduling primitive under the asynchronous
// evaluation stream.
//
// Consumers claim *grouped batches*: the oldest queued item plus up to
// a cap of further items that share its grouping key, gathered from
// anywhere in the queue. The evaluation stream keys by completion queue
// (one island of one tenant), so each claim is one island's pending
// work. With several consumer threads, a slow item (a straggling
// evaluation) delays only the batch its consumer claimed; the other
// consumers keep draining, so queue latency degrades gracefully under
// heavy-tailed service times instead of collapsing behind one barrier.
// Producers never block (the queue is unbounded; callers bound their
// own in-flight counts, as the island engine does per island).
//
// Close semantics mirror Mailbox: after close() producers get false and
// consumers drain what remains, then receive empty batches — so a
// consumer loop terminates exactly when the queue is both closed and
// empty, never dropping accepted work.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace ldga::parallel {

template <typename T>
class CoalescingQueue {
 public:
  /// Enqueues one item; wakes one waiting consumer. Returns false —
  /// without queueing — when the queue is closed.
  [[nodiscard]] bool push(T item) {
    {
      std::lock_guard lock(mutex_);
      if (closed_) return false;
      queue_.push_back(std::move(item));
    }
    arrived_.notify_one();
    return true;
  }

  /// Blocks until at least one item is available (or the queue
  /// closes), then claims the oldest item plus up to `max_items - 1`
  /// more items with the same grouping key, searched across the whole
  /// queue. No key starves: the overall front of the queue anchors
  /// every claim, and items the claim skips keep their relative order.
  /// An empty result means closed-and-drained: the consumer should
  /// exit.
  template <typename KeyFn>
  std::vector<T> pop_batch_grouped(std::size_t max_items, KeyFn&& key) {
    std::unique_lock lock(mutex_);
    arrived_.wait(lock, [&] { return !queue_.empty() || closed_; });
    std::vector<T> batch;
    if (queue_.empty() || max_items == 0) return batch;
    batch.reserve(max_items);
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
    const auto want = key(batch.front());
    for (auto it = queue_.begin();
         it != queue_.end() && batch.size() < max_items;) {
      if (key(*it) == want) {
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    return batch;
  }

  /// Stops accepting items and wakes every waiting consumer. Queued
  /// items remain poppable until drained.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    arrived_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable arrived_;
  std::deque<T> queue_;
  bool closed_ = false;
};

}  // namespace ldga::parallel
