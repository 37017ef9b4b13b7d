#include "util/thread_pool.h"

#include <cstdlib>
#include <utility>

#include "util/ini.h"

namespace xrbench::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  try {
    for (std::size_t w = 1; w <= num_threads; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  } catch (...) {
    stop_and_join();  // the threads that did start
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_claims(std::size_t worker, const IndexFn& fn,
                            std::size_t n) {
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < n;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      fn(worker, i);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    start_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const IndexFn& fn = *fn_;
    const std::size_t n = n_;
    lock.unlock();
    run_claims(worker, fn, n);
    lock.lock();
    if (++checked_out_ == workers_.size()) done_.notify_one();
  }
}

void ThreadPool::for_each(std::size_t n, const IndexFn& fn) {
  std::unique_lock lock(mutex_);
  fn_ = &fn;
  n_ = n;
  next_.store(0, std::memory_order_relaxed);
  checked_out_ = 0;
  ++generation_;
  lock.unlock();
  start_.notify_all();
  // Without workers the caller claims every index itself, in order.
  if (workers_.empty()) run_claims(0, fn, n);
  lock.lock();
  done_.wait(lock, [this] { return checked_out_ == workers_.size(); });
  if (first_error_) {
    std::rethrow_exception(std::exchange(first_error_, nullptr));
  }
}

void ThreadPool::submit_batch(std::vector<Task> tasks) {
  try {
    for_each(tasks.size(),
             [&tasks](std::size_t, std::size_t i) { tasks[i](); });
  } catch (...) {
    if (!batch_error_) batch_error_ = std::current_exception();
  }
}

void ThreadPool::wait_idle() {
  if (batch_error_) {
    std::rethrow_exception(std::exchange(batch_error_, nullptr));
  }
}

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
