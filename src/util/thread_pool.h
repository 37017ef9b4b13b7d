#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace xrbench::util {

/// Move-only type-erased callable with small-buffer storage.
///
/// The pool's task unit. A capture list of a few pointers and indices — the
/// shape of every sweep job — lives inline in the 48-byte buffer, so
/// enqueueing a task performs no heap allocation (std::function typically
/// allocates past 2-3 captured words). Larger or throwing-move callables
/// fall back to a single heap cell; fits_inline tells which, at compile
/// time, so a caller can pin a job's captures to the inline path.
class Task {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  /// True when a Task holds an `Fn` in its inline buffer (no heap cell).
  template <typename Fn>
  static constexpr bool fits_inline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  Task() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Task> &&
                std::is_invocable_v<std::decay_t<F>&>>>
  Task(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for lambdas
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      static const VTable vt = {
          [](void* p) { (*static_cast<Fn*>(p))(); },
          [](void* dst, void* src) {
            ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
            static_cast<Fn*>(src)->~Fn();
          },
          [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      };
      vtable_ = &vt;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      static const VTable vt = {
          [](void* p) { (**static_cast<Fn**>(p))(); },
          [](void* dst, void* src) {
            ::new (dst) Fn*(*static_cast<Fn**>(src));
          },
          [](void* p) { delete *static_cast<Fn**>(p); },
      };
      vtable_ = &vt;
    }
  }

  Task(Task&& other) noexcept { move_from(other); }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  ~Task() { reset(); }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  explicit operator bool() const { return vtable_ != nullptr; }

  void operator()() { vtable_->invoke(storage_); }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  ///< Move-construct dst, end src.
    void (*destroy)(void*);
  };

  void reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  void move_from(Task& other) noexcept {
    if (other.vtable_ != nullptr) {
      other.vtable_->relocate(storage_, other.storage_);
      vtable_ = other.vtable_;
      other.vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

/// Work-stealing worker pool.
///
/// Each worker owns a deque behind its own mutex; submissions distribute
/// round-robin, workers pop their own queue from the front and steal from
/// other queues' backs when empty. Sharding the queues this way keeps the
/// per-task critical section on an (almost always) uncontended lock, and
/// submit_batch() enqueues a whole batch under one wakeup signal — the two
/// costs that made sub-millisecond trial jobs queue-bound on the old
/// single-queue pool.
///
/// Construction with `num_threads == 0` creates an INLINE pool: submit()
/// and submit_batch() run tasks immediately on the caller's thread, in
/// order. That mode is the serial baseline of the sweep engine — identical
/// code path, no threads — which is what makes "parallel output is
/// bit-identical to serial" easy to verify.
///
/// The first exception thrown by any task (from submit or submit_batch) is
/// captured and rethrown from wait_idle(); subsequent tasks still run and
/// later exceptions are dropped.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task (runs it inline when the pool has no workers).
  void submit(Task task);

  /// Enqueues a batch of tasks with one wakeup signal, spread contiguously
  /// across the worker deques. Tasks still execute independently; batching
  /// only amortizes the enqueue cost.
  void submit_batch(std::vector<Task> tasks);

  /// Blocks until every queue is empty and every worker is idle, then
  /// rethrows the first task exception, if any.
  void wait_idle();

  std::size_t num_threads() const { return workers_.size(); }

  /// Worker count for "auto": the XRBENCH_THREADS environment variable when
  /// set (0 allowed, meaning inline), otherwise std::thread::hardware_concurrency().
  static std::size_t default_num_threads();

  /// Scratch-slot index of the calling thread: 1 + worker index on a pool
  /// worker thread, 0 everywhere else (including the caller of an inline
  /// pool, which runs tasks itself). A pool with N workers therefore needs
  /// N + 1 scratch slots to give every task-running thread a private one —
  /// this is how SweepEngine keys its per-worker RunScratch arenas.
  static std::size_t current_worker_slot();

 private:
  /// One worker's deque. Owner pops the front; thieves pop the back.
  /// Heap-allocated so the mutexes sit on distinct cache lines.
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> deque;
  };

  void worker_loop(std::size_t self);
  /// Pops own queue front, else steals another queue's back; runs the task.
  bool try_run_one(std::size_t self);
  void run_task(Task& task);
  void run_inline(Task& task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> pending_{0};  ///< Queued + executing tasks.
  std::atomic<std::size_t> queued_{0};   ///< Queued, not yet dequeued.
  std::atomic<std::size_t> next_queue_{0};  ///< Round-robin cursor.
  std::atomic<bool> stop_{false};

  /// Wakeup/idle signaling. Submitters touch this lock once per submit (or
  /// once per batch); the per-task queue traffic goes through the sharded
  /// WorkerQueue mutexes instead.
  std::mutex signal_mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_idle_;

  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace xrbench::util
