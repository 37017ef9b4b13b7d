#include "runtime/record_store.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

namespace xrbench::runtime {

namespace {

/// Arena layout: five double columns, one int64, two int32, one TaskId
/// (int-backed), two byte columns — in that order, so every column start
/// is naturally aligned when the arena itself is max-aligned.
constexpr std::size_t kDoubleCols = 5;

std::size_t arena_bytes(std::size_t n) {
  return n * (kDoubleCols * sizeof(double) + sizeof(std::int64_t) +
              2 * sizeof(std::int32_t) + sizeof(models::TaskId) +
              2 * sizeof(std::uint8_t));
}

}  // namespace

void RecordStore::rebase(std::size_t n) {
  std::unique_ptr<unsigned char[]> fresh(new unsigned char[arena_bytes(n)]);
  unsigned char* p = fresh.get();
  auto place = [&p, n](auto*& column, std::size_t live) {
    using T = std::remove_reference_t<decltype(*column)>;
    T* next = reinterpret_cast<T*>(p);
    if (live > 0) std::memcpy(next, column, live * sizeof(T));
    column = next;
    p += n * sizeof(T);
  };
  place(treq_ms_, size_);
  place(tdl_ms_, size_);
  place(dispatch_ms_, size_);
  place(complete_ms_, size_);
  place(energy_mj_, size_);
  place(frame_, size_);
  place(sub_accel_, size_);
  place(dvfs_level_, size_);
  place(task_, size_);
  place(dropped_, size_);
  place(resumed_, size_);
  arena_ = std::move(fresh);
  capacity_ = n;
}

RecordStore::RecordStore(const RecordStore& other) {
  if (other.size_ == 0) return;
  rebase(other.size_);  // size_ is still 0: nothing to carry over
  size_ = other.size_;
  std::memcpy(treq_ms_, other.treq_ms_, size_ * sizeof(double));
  std::memcpy(tdl_ms_, other.tdl_ms_, size_ * sizeof(double));
  std::memcpy(dispatch_ms_, other.dispatch_ms_, size_ * sizeof(double));
  std::memcpy(complete_ms_, other.complete_ms_, size_ * sizeof(double));
  std::memcpy(energy_mj_, other.energy_mj_, size_ * sizeof(double));
  std::memcpy(frame_, other.frame_, size_ * sizeof(std::int64_t));
  std::memcpy(sub_accel_, other.sub_accel_, size_ * sizeof(std::int32_t));
  std::memcpy(dvfs_level_, other.dvfs_level_, size_ * sizeof(std::int32_t));
  std::memcpy(task_, other.task_, size_ * sizeof(models::TaskId));
  std::memcpy(dropped_, other.dropped_, size_ * sizeof(std::uint8_t));
  std::memcpy(resumed_, other.resumed_, size_ * sizeof(std::uint8_t));
}

RecordStore& RecordStore::operator=(const RecordStore& other) {
  if (this != &other) {
    RecordStore copy(other);
    *this = std::move(copy);
  }
  return *this;
}

RecordStore::RecordStore(RecordStore&& other) noexcept
    : arena_(std::move(other.arena_)),
      size_(other.size_),
      capacity_(other.capacity_),
      treq_ms_(other.treq_ms_),
      tdl_ms_(other.tdl_ms_),
      dispatch_ms_(other.dispatch_ms_),
      complete_ms_(other.complete_ms_),
      energy_mj_(other.energy_mj_),
      frame_(other.frame_),
      sub_accel_(other.sub_accel_),
      dvfs_level_(other.dvfs_level_),
      task_(other.task_),
      dropped_(other.dropped_),
      resumed_(other.resumed_) {
  other.size_ = 0;
  other.capacity_ = 0;
  other.treq_ms_ = other.tdl_ms_ = other.dispatch_ms_ = other.complete_ms_ =
      other.energy_mj_ = nullptr;
  other.frame_ = nullptr;
  other.sub_accel_ = other.dvfs_level_ = nullptr;
  other.task_ = nullptr;
  other.dropped_ = other.resumed_ = nullptr;
}

RecordStore& RecordStore::operator=(RecordStore&& other) noexcept {
  if (this != &other) {
    arena_ = std::move(other.arena_);
    size_ = other.size_;
    capacity_ = other.capacity_;
    treq_ms_ = other.treq_ms_;
    tdl_ms_ = other.tdl_ms_;
    dispatch_ms_ = other.dispatch_ms_;
    complete_ms_ = other.complete_ms_;
    energy_mj_ = other.energy_mj_;
    frame_ = other.frame_;
    sub_accel_ = other.sub_accel_;
    dvfs_level_ = other.dvfs_level_;
    task_ = other.task_;
    dropped_ = other.dropped_;
    resumed_ = other.resumed_;
    other.size_ = 0;
    other.capacity_ = 0;
    other.treq_ms_ = other.tdl_ms_ = other.dispatch_ms_ =
        other.complete_ms_ = other.energy_mj_ = nullptr;
    other.frame_ = nullptr;
    other.sub_accel_ = other.dvfs_level_ = nullptr;
    other.task_ = nullptr;
    other.dropped_ = other.resumed_ = nullptr;
  }
  return *this;
}

void RecordStore::reserve(std::size_t n) {
  if (n > capacity_) rebase(n);
}

void RecordStore::append_dropped(models::TaskId task, std::int64_t frame,
                                 double treq_ms, double tdl_ms) {
  ensure_capacity();
  const std::size_t i = size_++;
  task_[i] = task;
  frame_[i] = frame;
  treq_ms_[i] = treq_ms;
  tdl_ms_[i] = tdl_ms;
  dispatch_ms_[i] = 0.0;
  complete_ms_[i] = 0.0;
  energy_mj_[i] = 0.0;
  sub_accel_[i] = -1;
  dvfs_level_[i] = -1;
  dropped_[i] = 1;
  resumed_[i] = 0;
}

void RecordStore::append_executed(models::TaskId task, std::int64_t frame,
                                  double treq_ms, double tdl_ms, int sub_accel,
                                  int dvfs_level, double dispatch_ms,
                                  double complete_ms, double energy_mj,
                                  bool resumed) {
  ensure_capacity();
  const std::size_t i = size_++;
  task_[i] = task;
  frame_[i] = frame;
  treq_ms_[i] = treq_ms;
  tdl_ms_[i] = tdl_ms;
  dispatch_ms_[i] = dispatch_ms;
  complete_ms_[i] = complete_ms;
  energy_mj_[i] = energy_mj;
  sub_accel_[i] = static_cast<std::int32_t>(sub_accel);
  dvfs_level_[i] = static_cast<std::int32_t>(dvfs_level);
  dropped_[i] = 0;
  resumed_[i] = resumed ? 1 : 0;
}

void RecordStore::append_shifted(const RecordStore& other, double shift_ms) {
  // At least doubling, like the one-record appends: a program appends one
  // store per phase, and an exact fit would copy the whole session so far
  // at every phase.
  const std::size_t needed = size_ + other.size_;
  if (needed > capacity_) rebase(std::max(needed, 2 * capacity_));
  for (std::size_t i = 0; i < other.size_; ++i) {
    const std::size_t j = size_++;
    task_[j] = other.task_[i];
    frame_[j] = other.frame_[i];
    treq_ms_[j] = other.treq_ms_[i] + shift_ms;
    tdl_ms_[j] = other.tdl_ms_[i] + shift_ms;
    if (other.dropped_[i] != 0) {
      // Never dispatched: execution fields stay as stored, not shifted.
      dispatch_ms_[j] = other.dispatch_ms_[i];
      complete_ms_[j] = other.complete_ms_[i];
    } else {
      dispatch_ms_[j] = other.dispatch_ms_[i] + shift_ms;
      complete_ms_[j] = other.complete_ms_[i] + shift_ms;
    }
    energy_mj_[j] = other.energy_mj_[i];
    sub_accel_[j] = other.sub_accel_[i];
    dvfs_level_[j] = other.dvfs_level_[i];
    dropped_[j] = other.dropped_[i];
    resumed_[j] = other.resumed_[i];
  }
}

void RecordStore::sort_canonical() {
  const std::size_t n = size_;
  if (n < 2) return;
  const auto less = [this](std::size_t a, std::size_t b) {
    if (frame_[a] != frame_[b]) return frame_[a] < frame_[b];
    if (treq_ms_[a] != treq_ms_[b]) return treq_ms_[a] < treq_ms_[b];
    if (dropped_[a] != dropped_[b]) {
      return dropped_[b] != 0;  // executed before dropped
    }
    return dispatch_ms_[a] < dispatch_ms_[b];
  };
  // Strictly ascending keys admit exactly one sorted order, the one the
  // permutation below would produce, so already-canonical records (the
  // common case for a run's per-model appends) cost one linear pass. Equal
  // keys take the permutation path, whatever order they arrived in.
  std::size_t ascending = 1;
  while (ascending < n && less(ascending - 1, ascending)) ++ascending;
  if (ascending == n) return;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), less);
  // Apply the permutation in place, cycle by cycle (at most n-1 row swaps,
  // no per-column scratch copies — this runs once per model per trial).
  auto swap_rows = [this](std::size_t a, std::size_t b) {
    std::swap(task_[a], task_[b]);
    std::swap(frame_[a], frame_[b]);
    std::swap(treq_ms_[a], treq_ms_[b]);
    std::swap(tdl_ms_[a], tdl_ms_[b]);
    std::swap(dispatch_ms_[a], dispatch_ms_[b]);
    std::swap(complete_ms_[a], complete_ms_[b]);
    std::swap(energy_mj_[a], energy_mj_[b]);
    std::swap(sub_accel_[a], sub_accel_[b]);
    std::swap(dvfs_level_[a], dvfs_level_[b]);
    std::swap(dropped_[a], dropped_[b]);
    std::swap(resumed_[a], resumed_[b]);
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (order[i] == i) continue;
    std::size_t j = i;
    // Walk the cycle: repeatedly bring the row destined for j into j.
    for (;;) {
      const std::size_t src = order[j];
      order[j] = j;
      if (src == i) break;
      swap_rows(j, src);
      j = src;
    }
  }
}

}  // namespace xrbench::runtime
