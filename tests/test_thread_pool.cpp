#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace ldga::parallel {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, FuturePropagatesExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRespectsRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(10, 20, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i >= 10 && i < 20 ? 1 : 0);
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(5, 5, [&touched](std::size_t) { touched = true; });
  pool.parallel_for(7, 3, [&touched](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  pool.parallel_for(0, 3, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 10; ++i) {
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++done;
      });
    }
  }
  // Queue is drained before workers exit.
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPool, DefaultThreadCountPositive) {
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ThreadPool, ZeroThreadsDies) {
  EXPECT_DEATH(ThreadPool(0), "precondition");
}

TEST(ThreadPool, WorkerPoolCountsTheCaller) {
  // `workers` includes the caller, which runs chunk 0 of parallel_for:
  // the pool gets workers − 1 threads, none for a single worker, and a
  // parallel_for through it never runs on more than `workers` threads.
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    const auto pool = make_worker_pool(workers);
    EXPECT_EQ(pool == nullptr ? 0u : pool->thread_count(), workers - 1);
    std::mutex mutex;
    std::set<std::thread::id> ids;
    std::vector<std::atomic<int>> hits(64);
    parallel_for(pool.get(), 0, hits.size(), [&](std::size_t i) {
      ++hits[i];
      std::lock_guard lock(mutex);
      ids.insert(std::this_thread::get_id());
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), workers);
  }
  const auto hardware = make_worker_pool(0);
  EXPECT_EQ(hardware == nullptr ? 0u : hardware->thread_count(),
            default_thread_count() - 1);
}

}  // namespace
}  // namespace ldga::parallel
