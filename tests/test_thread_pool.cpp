#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
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

TEST(ThreadPool, ParallelForChunkedLetsOthersPassASlowIndex) {
  // Index 0 blocks until every other index has run, with a 5 s
  // deadline: it is released only if the other three threads claim
  // indices 1–63 while index 0's thread is held up, as a generation's
  // cheap candidates must not wait behind a costly one.
  ThreadPool pool(3);
  constexpr std::size_t kCount = 64;
  std::mutex mutex;
  std::condition_variable others_done;
  std::size_t done = 0;
  bool released = false;
  pool.parallel_for_chunked(0, kCount, [&](std::size_t, std::size_t i) {
    std::unique_lock lock(mutex);
    if (i == 0) {
      released = others_done.wait_for(lock, std::chrono::seconds(5),
                                       [&] { return done == kCount - 1; });
    } else if (++done == kCount - 1) {
      others_done.notify_one();
    }
  });
  EXPECT_TRUE(released);
}

TEST(ThreadPool, EachChunkRunsOnOneThread) {
  // Callers index per-chunk state (the in-process backend's scratch
  // arenas) by chunk id without locking: every chunk id must stay
  // below thread_count() + 1 and run on exactly one thread, chunk 0 on
  // the caller's.
  ThreadPool pool(3);
  std::mutex mutex;
  std::map<std::size_t, std::set<std::thread::id>> threads_of_chunk;
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_chunked(0, hits.size(), [&](std::size_t chunk,
                                                std::size_t i) {
    ++hits[i];
    std::lock_guard lock(mutex);
    threads_of_chunk[chunk].insert(std::this_thread::get_id());
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  for (const auto& [chunk, ids] : threads_of_chunk) {
    SCOPED_TRACE(chunk);
    EXPECT_LT(chunk, pool.thread_count() + 1);
    EXPECT_EQ(ids.size(), 1u);
    if (chunk == 0) {
      EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
    }
  }
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
