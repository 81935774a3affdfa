// A plain fixed-size thread pool with a parallel_for helper.
//
// The farm (master_slave.hpp) is the faithful reproduction of the
// paper's PVM scheme; the pool is the pragmatic shared-memory backend
// used where message-passing fidelity buys nothing — e.g. the SNP
// mutation operator's parallel trials (§4.3.1: "we use this mutation
// several times in parallel and keep the best").
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ldga::parallel {

class ThreadPool {
 public:
  explicit ThreadPool(std::uint32_t thread_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::uint32_t thread_count() const {
    return static_cast<std::uint32_t>(threads_.size());
  }

  /// Enqueues a task; the future reports its completion (and rethrows
  /// any exception it raised).
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [begin, end) across the pool and waits.
  /// Self-scheduling: each chunk claims the next unclaimed index until
  /// the range is used up, like the paper's farm handing the next
  /// individual to whichever slave is idle. Which chunk runs an index
  /// is not deterministic, so results must not depend on it.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// parallel_for handing fn the chunk it runs in: fn(chunk, i) with
  /// chunk in [0, thread_count() + 1). Exactly one thread executes any
  /// given chunk (chunk 0 is the caller), so per-chunk state — e.g. a
  /// scratch arena indexed by chunk — needs no synchronization. A chunk
  /// stops at its first exception and the others claim what is left;
  /// once every chunk has finished, the first error in chunk order is
  /// rethrown.
  void parallel_for_chunked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::jthread> threads_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stopping_ = false;
};

/// A sensible default worker count: hardware concurrency, at least 1.
std::uint32_t default_thread_count();

/// The pool for a `workers`-wide parallel_for. `workers` counts the
/// caller, which runs chunk 0 itself, and 0 means
/// default_thread_count(): the pool gets workers − 1 threads, and there
/// is none when that resolves to a single worker.
std::unique_ptr<ThreadPool> make_worker_pool(std::uint32_t workers);

/// pool->parallel_for(begin, end, fn), or fn(i) for each i in order on
/// the caller when `pool` is null.
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace ldga::parallel
