#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "util/error.hpp"

namespace ldga::parallel {

ThreadPool::ThreadPool(std::uint32_t thread_count) {
  LDGA_EXPECTS(thread_count >= 1);
  threads_.reserve(thread_count);
  for (std::uint32_t i = 0; i < thread_count; ++i) {
    threads_.emplace_back([this](std::stop_token) { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  // Join before any other member is destroyed: workers still drain the
  // queue (and touch mutex_/queue_) until they observe stopping_ with
  // an empty queue.
  threads_.clear();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  LDGA_EXPECTS(task != nullptr);
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    if (stopping_) throw ParallelError("ThreadPool: submit after shutdown");
    queue_.push_back(std::move(packaged));
  }
  work_available_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the associated future
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunked(begin, end,
                       [&fn](std::size_t, std::size_t i) { fn(i); });
}

void ThreadPool::parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  // The caller is a worker too: it runs chunk 0 inline while the pool
  // takes chunks 1..n−1, so one extra chunk's worth of parallelism is
  // free and the caller never idles in future::get while work remains
  // (with a 1-thread pool this makes parallel_for genuinely 2-wide).
  const std::size_t chunks =
      std::min<std::size_t>(threads_.size() + 1, end - begin);
  // Self-scheduling: every chunk claims the next unclaimed index until
  // the range is used up, so a costly index holds up only the thread
  // that drew it, and a chunk whose task starts late (queued behind
  // another caller's) finds the work already done.
  std::atomic<std::size_t> next{begin};
  const auto run_chunk = [&next, end, &fn](std::size_t chunk) {
    for (std::size_t i = next++; i < end; i = next++) fn(chunk, i);
  };
  std::vector<std::future<void>> futures;
  futures.reserve(chunks - 1);
  for (std::size_t chunk = 1; chunk < chunks; ++chunk) {
    futures.push_back(submit([chunk, &run_chunk] { run_chunk(chunk); }));
  }
  // Drain every chunk before surfacing a failure: the tasks reference
  // the caller's stack (the cursor, fn and its captures), so returning
  // — even by exception — while a chunk is still running would be a
  // use-after-free. A throwing chunk stops and leaves its unclaimed
  // indices to the others; the first error in chunk order wins.
  std::exception_ptr first_error;
  try {
    run_chunk(0);
  } catch (...) {
    first_error = std::current_exception();
  }
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

std::uint32_t default_thread_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::unique_ptr<ThreadPool> make_worker_pool(std::uint32_t workers) {
  if (workers == 0) workers = default_thread_count();
  if (workers <= 1) return nullptr;
  return std::make_unique<ThreadPool>(workers - 1);
}

void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallel_for(begin, end, fn);
    return;
  }
  for (std::size_t i = begin; i < end; ++i) fn(i);
}

}  // namespace ldga::parallel
