#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace xrbench::util {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, InlineModeRunsOnCallerThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.submit([&seen] { seen = std::this_thread::get_id(); });
  pool.wait_idle();
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 10; ++i) {
    pool.submit([&completed] { ++completed; });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(completed.load(), 10);  // later tasks still ran
  // The error is consumed: a subsequent wait succeeds.
  pool.submit([&completed] { ++completed; });
  EXPECT_NO_THROW(pool.wait_idle());
}

TEST(ThreadPool, InlineModeAlsoCapturesExceptions) {
  ThreadPool pool(0);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

TEST(ThreadPool, TasksCanSubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &count] {
      ++count;
      for (int j = 0; j < 4; ++j) {
        pool.submit([&count] { ++count; });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 8 + 8 * 4);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  ThreadPool inline_pool(0);
  inline_pool.wait_idle();
}

TEST(ThreadPool, SubmitBatchRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<Task> batch;
  for (int i = 0; i < 257; ++i) {  // deliberately not a multiple of 4
    batch.push_back([&count] { ++count; });
  }
  pool.submit_batch(std::move(batch));
  pool.wait_idle();
  EXPECT_EQ(count.load(), 257);
}

TEST(ThreadPool, SubmitBatchInlineRunsInOrder) {
  ThreadPool pool(0);
  std::vector<int> order;
  std::vector<Task> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back([&order, i] { order.push_back(i); });
  }
  pool.submit_batch(std::move(batch));
  pool.wait_idle();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, SubmitBatchPropagatesFirstException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  std::vector<Task> batch;
  for (int i = 0; i < 16; ++i) {
    if (i == 5) {
      batch.push_back([] { throw std::runtime_error("batch boom"); });
    } else {
      batch.push_back([&completed] { ++completed; });
    }
  }
  pool.submit_batch(std::move(batch));
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(completed.load(), 15);  // the other tasks still ran
  // The error is consumed: a subsequent batch succeeds.
  pool.submit_batch([] {
    std::vector<Task> ok;
    ok.push_back([] {});
    return ok;
  }());
  EXPECT_NO_THROW(pool.wait_idle());
}

TEST(ThreadPool, SubmitBatchInlineAlsoPropagatesException) {
  ThreadPool pool(0);
  std::vector<Task> batch;
  batch.push_back([] { throw std::runtime_error("inline batch boom"); });
  pool.submit_batch(std::move(batch));
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

TEST(ThreadPool, EmptyBatchIsFine) {
  ThreadPool pool(2);
  pool.submit_batch({});
  pool.wait_idle();
  ThreadPool inline_pool(0);
  inline_pool.submit_batch({});
  inline_pool.wait_idle();
}

TEST(ThreadPool, WorkIsStolenAcrossWorkers) {
  // One submit_batch from the main thread lands contiguous chunks on the
  // worker deques; with far more tasks than workers and each task sleeping,
  // the run only finishes quickly if idle workers steal. Verify every
  // worker ends up executing something.
  constexpr std::size_t kWorkers = 4;
  ThreadPool pool(kWorkers);
  std::mutex mu;
  std::set<std::thread::id> executors;
  std::vector<Task> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back([&mu, &executors] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::lock_guard lock(mu);
      executors.insert(std::this_thread::get_id());
    });
  }
  pool.submit_batch(std::move(batch));
  pool.wait_idle();
  // Several workers participated. Not all four are guaranteed — a
  // late-waking worker whose chunk was stolen legally executes nothing
  // (the deterministic steal proof is IdleWorkerStealsFromBusyWorkerQueue).
  EXPECT_GE(executors.size(), 2u);
}

TEST(ThreadPool, IdleWorkerStealsFromBusyWorkerQueue) {
  // Batch layout with 2 workers and 3 tasks: one deque gets {A, B}, the
  // other {C}. A spins until B has run — and B sits BEHIND A on the same
  // deque, so the only way it can run is the C-worker stealing it from the
  // victim's back. Without stealing this test deadlocks (and times out).
  ThreadPool pool(2);
  std::atomic<bool> b_ran{false};
  std::vector<Task> batch;
  batch.push_back([&b_ran] {
    while (!b_ran.load()) std::this_thread::yield();
  });
  batch.push_back([&b_ran] { b_ran.store(true); });
  batch.push_back([] {});
  pool.submit_batch(std::move(batch));
  pool.wait_idle();
  EXPECT_TRUE(b_ran.load());
}

TEST(ThreadPool, TaskSmallBufferAvoidsHeapForSmallCaptures) {
  // The sweep's jobs capture a few pointers and indices; those must fit
  // the inline buffer. (Compile-time property surfaced as a test; the
  // sweep engine also asserts fits_inline on every job it builds.)
  struct SmallCapture {
    void* a;
    void* b;
    void* c;
    std::size_t d, e;
    int f, g;
  };
  static_assert(sizeof(SmallCapture) <= Task::kInlineBytes,
                "sweep-shaped captures must stay inline");
  static_assert(Task::fits_inline<SmallCapture>);
  // One word more, or a move that may throw, takes the heap cell.
  struct OneWordTooMany {
    SmallCapture small;
    void* extra;
  };
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
  };
  static_assert(!Task::fits_inline<OneWordTooMany>);
  static_assert(!Task::fits_inline<ThrowingMove>);
  // Oversized captures still work through the heap fallback.
  std::array<double, 32> big{};
  big[7] = 42.0;
  double seen = 0.0;
  const auto job = [big, &seen] { seen = big[7]; };
  static_assert(!Task::fits_inline<decltype(job)>);
  Task task(job);
  task();
  EXPECT_EQ(seen, 42.0);
}

TEST(ThreadPool, TaskMoveTransfersOwnership) {
  int runs = 0;
  Task a([&runs] { ++runs; });
  Task b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(runs, 1);
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
