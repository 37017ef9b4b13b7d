#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "util/ini.h"

namespace xrbench::util {

namespace {
/// 0 on non-worker threads; worker i of its owning pool sees i + 1. A
/// worker thread belongs to exactly one pool for its whole lifetime, so a
/// plain thread_local is unambiguous even with several pools alive.
thread_local std::size_t t_worker_slot = 0;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  queues_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(signal_mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_inline(Task& task) {
  // Inline mode: the serial baseline. Exceptions still surface via
  // wait_idle() so callers behave identically in both modes.
  try {
    task();
  } catch (...) {
    std::lock_guard lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::submit(Task task) {
  if (workers_.empty()) {
    run_inline(task);
    return;
  }
  const std::size_t q =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  // Both counters rise BEFORE the task becomes poppable: a worker's
  // fetch_sub on dequeue must never observe a count the enqueue has not
  // deposited yet (size_t would wrap below zero and leave every sleeping
  // worker's wait predicate spuriously true). A briefly over-counted
  // queued_ only costs a failed scan-and-resleep.
  pending_.fetch_add(1, std::memory_order_relaxed);
  queued_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(queues_[q]->mutex);
    queues_[q]->deque.push_back(std::move(task));
  }
  // The empty critical section orders the queued_ store against a worker's
  // predicate check inside wait(): without it the notify can land in the
  // window between a worker reading queued_ == 0 and blocking.
  { std::lock_guard lock(signal_mutex_); }
  task_ready_.notify_one();
}

void ThreadPool::submit_batch(std::vector<Task> tasks) {
  if (tasks.empty()) return;
  if (workers_.empty()) {
    for (auto& task : tasks) run_inline(task);
    return;
  }
  // Contiguous chunks round-robin across the deques: each worker wakes to a
  // run of local tasks, and the whole batch pays one signal round-trip.
  const std::size_t nq = queues_.size();
  const std::size_t per_queue = (tasks.size() + nq - 1) / nq;
  // Counters rise before any task is poppable — see submit() for why.
  pending_.fetch_add(tasks.size(), std::memory_order_relaxed);
  queued_.fetch_add(tasks.size(), std::memory_order_relaxed);
  const std::size_t start =
      next_queue_.fetch_add(1, std::memory_order_relaxed);
  std::size_t next = 0;
  for (std::size_t chunk = 0; chunk < nq && next < tasks.size(); ++chunk) {
    auto& q = *queues_[(start + chunk) % nq];
    const std::size_t end = std::min(tasks.size(), next + per_queue);
    std::lock_guard lock(q.mutex);
    for (; next < end; ++next) q.deque.push_back(std::move(tasks[next]));
  }
  { std::lock_guard lock(signal_mutex_); }
  task_ready_.notify_all();
}

void ThreadPool::run_task(Task& task) {
  try {
    task();
  } catch (...) {
    std::lock_guard lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    { std::lock_guard lock(signal_mutex_); }
    all_idle_.notify_all();
  }
}

bool ThreadPool::try_run_one(std::size_t self) {
  Task task;
  {
    auto& own = *queues_[self];
    std::lock_guard lock(own.mutex);
    if (!own.deque.empty()) {
      task = std::move(own.deque.front());
      own.deque.pop_front();
    }
  }
  if (!task) {
    // Steal from the back of the other deques (opposite end from the
    // owner's pops, so a steal rarely contends with the victim).
    for (std::size_t i = 1; i < queues_.size() && !task; ++i) {
      auto& victim = *queues_[(self + i) % queues_.size()];
      std::lock_guard lock(victim.mutex);
      if (!victim.deque.empty()) {
        task = std::move(victim.deque.back());
        victim.deque.pop_back();
      }
    }
  }
  if (!task) return false;
  queued_.fetch_sub(1, std::memory_order_relaxed);
  run_task(task);
  return true;
}

void ThreadPool::worker_loop(std::size_t self) {
  t_worker_slot = self + 1;
  for (;;) {
    if (try_run_one(self)) continue;
    std::unique_lock lock(signal_mutex_);
    task_ready_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_relaxed) == 0) {
      return;  // stop requested and every queue drained
    }
  }
}

void ThreadPool::wait_idle() {
  {
    std::unique_lock lock(signal_mutex_);
    all_idle_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }
  std::lock_guard lock(error_mutex_);
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

std::size_t ThreadPool::current_worker_slot() { return t_worker_slot; }

std::size_t ThreadPool::default_num_threads() {
  if (const char* env = std::getenv("XRBENCH_THREADS")) {
    constexpr std::uint64_t kMaxThreads = 1024;
    const auto n = parse_number<std::uint64_t>(env);
    if (n && *n <= kMaxThreads) return static_cast<std::size_t>(*n);
    // Malformed or out of range: fall through to hardware concurrency.
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace xrbench::util
