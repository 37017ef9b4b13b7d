#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace xrbench::util {
namespace {

TEST(ThreadPool, ForEachRunsEveryIndexExactlyOnce) {
  // Each index once, on a worker in [1, N] (or 0 on a 0-worker pool),
  // for empty, single, short and long ranges on one pool in turn.
  for (std::size_t workers : {0u, 1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.num_threads(), workers);
    for (std::size_t n : {0u, 1u, 3u, 257u}) {
      const std::string where = std::to_string(workers) + " workers, n " +
                                std::to_string(n);
      std::vector<std::atomic<int>> runs(n);
      std::atomic<int> bad_worker{0};
      pool.for_each(n, [&](std::size_t worker, std::size_t i) {
        ++runs[i];
        if (workers == 0 ? worker != 0 : worker < 1 || worker > workers) {
          ++bad_worker;
        }
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << where << ", index " << i;
      }
      EXPECT_EQ(bad_worker.load(), 0) << where;
    }
  }
}

TEST(ThreadPool, ZeroWorkerPoolRunsIndicesInOrderOnTheCaller) {
  ThreadPool pool(0);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool on_caller = true;
  pool.for_each(8, [&](std::size_t worker, std::size_t i) {
    EXPECT_EQ(worker, 0u);
    on_caller = on_caller && std::this_thread::get_id() == caller;
    order.push_back(i);
  });
  EXPECT_TRUE(on_caller);
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, BlockedIndexNeverHoldsBackTheOthers) {
  // Index 0 spins until index 1 has run. Whichever worker claims index 0,
  // the other claims index 1 from the shared cursor; a pool that handed
  // both to one worker would spin forever (and time out).
  ThreadPool pool(2);
  std::atomic<bool> one_ran{false};
  pool.for_each(3, [&](std::size_t, std::size_t i) {
    if (i == 0) {
      while (!one_ran.load()) std::this_thread::yield();
    } else if (i == 1) {
      one_ran.store(true);
    }
  });
  EXPECT_TRUE(one_ran.load());
}

TEST(ThreadPool, ForEachRethrowsFirstExceptionAfterEveryIndexRan) {
  for (std::size_t workers : {0u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ThreadPool pool(workers);
    std::atomic<int> completed{0};
    EXPECT_THROW(pool.for_each(16,
                               [&](std::size_t, std::size_t i) {
                                 if (i == 5) throw std::runtime_error("boom");
                                 ++completed;
                               }),
                 std::runtime_error);
    EXPECT_EQ(completed.load(), 15);  // the other indices still ran
    // The error is consumed: the next range succeeds.
    EXPECT_NO_THROW(
        pool.for_each(4, [&](std::size_t, std::size_t) { ++completed; }));
    EXPECT_EQ(completed.load(), 19);
  }
  // In order on the caller, the first exception is index 2's.
  ThreadPool inline_pool(0);
  EXPECT_THROW(inline_pool.for_each(8,
                                    [](std::size_t, std::size_t i) {
                                      if (i == 2) throw std::logic_error("2");
                                      if (i == 5) throw std::runtime_error("5");
                                    }),
               std::logic_error);
}

TEST(ThreadPool, BackToBackRangesNeverOverlap) {
  // 2,000 short ranges in a row exercise the start/finish handshake: each
  // range's indices run once, on that range's function, and every worker
  // has checked out before for_each returns, so no index of one range
  // runs after the next is published. One range throws midway.
  constexpr int kRanges = 2000;
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ThreadPool pool(workers);
    for (int r = 0; r < kRanges; ++r) {
      const std::size_t n = static_cast<std::size_t>(r % 7);
      std::vector<int> runs(n, 0);
      std::atomic<int> late{0};
      bool open = true;
      const bool throws = r == kRanges / 2;
      const auto each = [&](std::size_t, std::size_t i) {
        ++runs[i];  // each index is its own slot: no two calls share one
        if (!open) ++late;
        if (throws && i == 3) throw std::runtime_error("range");
      };
      if (throws) {
        EXPECT_THROW(pool.for_each(n, each), std::runtime_error);
      } else {
        pool.for_each(n, each);
      }
      open = false;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(runs[i], 1) << "range " << r << ", index " << i;
      }
      ASSERT_EQ(late.load(), 0) << "range " << r;
    }
  }
}

TEST(ThreadPool, SubmitBatchRunsEveryTaskAndWaitIdleRethrows) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  std::vector<Task> batch;
  for (int i = 0; i < 257; ++i) {  // deliberately not a multiple of 4
    if (i == 5) {
      batch.push_back([] { throw std::runtime_error("batch boom"); });
    } else {
      batch.push_back([&completed] { ++completed; });
    }
  }
  pool.submit_batch(std::move(batch));
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(completed.load(), 256);  // the other tasks still ran
  // The error is consumed: a subsequent batch succeeds.
  std::vector<Task> ok;
  ok.push_back([&completed] { ++completed; });
  pool.submit_batch(std::move(ok));
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(completed.load(), 257);
}

TEST(ThreadPool, DefaultNumThreadsHonorsEnvVar) {
  ASSERT_EQ(setenv("XRBENCH_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_num_threads(), 3u);
  ASSERT_EQ(setenv("XRBENCH_THREADS", "0", 1), 0);
  EXPECT_EQ(ThreadPool::default_num_threads(), 0u);
  ASSERT_EQ(unsetenv("XRBENCH_THREADS"), 0);
  EXPECT_GE(ThreadPool::default_num_threads(), 1u);
}

TEST(ThreadPool, DefaultNumThreadsRejectsGarbageEnvValues) {
  // Non-numeric, negative, and absurdly large values all fall through to
  // the hardware default, which is clamped to >= 1 even when
  // hardware_concurrency() reports 0.
  for (const char* bad : {"abc", "-4", "1e3", "99999", ""}) {
    ASSERT_EQ(setenv("XRBENCH_THREADS", bad, 1), 0);
    EXPECT_GE(ThreadPool::default_num_threads(), 1u) << "env = '" << bad << "'";
  }
  ASSERT_EQ(unsetenv("XRBENCH_THREADS"), 0);
}

}  // namespace
}  // namespace xrbench::util
