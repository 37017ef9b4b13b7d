#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xrbench::util {

/// One task of the submit_batch shim.
using Task = std::function<void()>;

/// A fixed set of worker threads that runs one index range at a time.
///
/// for_each(n, fn) calls fn(worker, i) exactly once for each i in [0, n)
/// and returns when every call has returned. Workers claim the next index
/// from one shared atomic cursor, so an index that blocks never holds back
/// the others. `worker` is 1..N on the pool's N threads. A pool built with
/// 0 threads runs every index on the caller, in order, with worker 0: the
/// serial baseline of the sweep engine (the same code path, no threads),
/// which is what makes "parallel output is bit-identical to serial" easy
/// to verify. A caller that keys per-thread state by `worker` therefore
/// keeps N + 1 slots.
///
/// If an index throws, every other index still runs, and for_each rethrows
/// the first exception once all of them have returned. One range runs at a
/// time: for_each is not re-entrant (no index may call it), and two
/// threads must not call it at once.
class ThreadPool {
 public:
  using IndexFn = std::function<void(std::size_t worker, std::size_t i)>;

  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void for_each(std::size_t n, const IndexFn& fn);

  /// Runs every task through for_each and keeps the first exception for
  /// wait_idle(). perfbench's util.thread_pool.ns_per_task probe is this
  /// shim's only caller.
  void submit_batch(std::vector<Task> tasks);

  /// Rethrows, and forgets, the first exception submit_batch kept.
  void wait_idle();

  std::size_t num_threads() const { return workers_.size(); }

  /// Worker count for "auto": the XRBENCH_THREADS environment variable when
  /// set (0 allowed, meaning inline), otherwise std::thread::hardware_concurrency().
  static std::size_t default_num_threads();

 private:
  void worker_loop(std::size_t worker);
  /// Runs the indices `worker` claims until the cursor passes n_.
  void run_claims(std::size_t worker, const IndexFn& fn, std::size_t n);
  void stop_and_join();

  /// The published range and its handshake. The caller publishes a range
  /// and bumps generation_; each worker claims indices until the cursor
  /// passes n_, then checks out; the caller returns once all N have, so no
  /// worker still reads one range when the next is published. next_ is
  /// reset under mutex_ and claimed without it.
  std::mutex mutex_;
  std::condition_variable start_;  ///< A range was published, or stop_.
  std::condition_variable done_;   ///< The last worker checked out.
  const IndexFn* fn_ = nullptr;
  std::size_t n_ = 0;
  std::uint64_t generation_ = 0;
  std::size_t checked_out_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
  std::atomic<std::size_t> next_{0};

  std::exception_ptr batch_error_;  ///< Kept by submit_batch.
  std::vector<std::thread> workers_;  ///< Last: its threads use the rest.
};

}  // namespace xrbench::util
