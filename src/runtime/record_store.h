#pragma once

#include <cstdint>
#include <memory>

#include "runtime/request.h"

namespace xrbench::runtime {

/// Structure-of-arrays storage for the inference records of one model run.
///
/// Each record is one request's outcome: its Box-1 timing attributes, and
/// for an executed request the unit, DVFS level, busy span and energy. The
/// QoE/score aggregation walks every record of every trial of every sweep
/// point, so each field is a dense column: the scorer streams exactly the
/// doubles it needs and the branch column (dropped) is one byte per record.
/// Every reader, hot or not, reads the columns.
///
/// All eleven columns live in ONE heap arena (column pointers carved out
/// of a single allocation): a trial's per-model setup costs one malloc,
/// not eleven — sub-millisecond sweep trials run thousands of these stores
/// per second and the allocator round-trips were measurable.
class RecordStore {
 public:
  RecordStore() = default;
  RecordStore(const RecordStore& other);
  RecordStore& operator=(const RecordStore& other);
  RecordStore(RecordStore&& other) noexcept;
  RecordStore& operator=(RecordStore&& other) noexcept;
  ~RecordStore() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }
  void reserve(std::size_t n);
  /// Reallocates to exactly size() records when capacity() is larger.
  void shrink_to_fit() {
    if (capacity_ > size_) rebase(size_);
  }
  void clear() { size_ = 0; }

  /// Appends a dropped record (never dispatched; sub_accel/dvfs stay -1).
  void append_dropped(models::TaskId task, std::int64_t frame, double treq_ms,
                      double tdl_ms);

  /// Appends an executed record. `resumed` tags checkpoint-resumed work
  /// (fault-free runs always pass false).
  void append_executed(models::TaskId task, std::int64_t frame, double treq_ms,
                       double tdl_ms, int sub_accel, int dvfs_level,
                       double dispatch_ms, double complete_ms,
                       double energy_mj, bool resumed = false);

  /// Appends every record of `other` with `shift_ms` added to its request
  /// and deadline times — and, for executed records, its dispatch and
  /// completion times (dropped records keep their canonical zeroed
  /// execution fields). This is how a scenario program stitches per-phase
  /// stores onto one session timeline; a shift of 0 appends exact copies.
  /// The capacity grows geometrically, so appending n stores one by one
  /// copies O(total records), not O(n x total).
  void append_shifted(const RecordStore& other, double shift_ms);

  // ---- Column accessors (the scorer's streaming interface) --------------
  const models::TaskId* task() const { return task_; }
  const std::int64_t* frame() const { return frame_; }
  const double* treq_ms() const { return treq_ms_; }
  const double* tdl_ms() const { return tdl_ms_; }
  const double* dispatch_ms() const { return dispatch_ms_; }
  const double* complete_ms() const { return complete_ms_; }
  const double* energy_mj() const { return energy_mj_; }
  const std::int32_t* sub_accel() const { return sub_accel_; }
  const std::int32_t* dvfs_level() const { return dvfs_level_; }
  const std::uint8_t* dropped() const { return dropped_; }
  const std::uint8_t* resumed() const { return resumed_; }

  /// Per-record derived quantities: end-to-end latency (request to
  /// completion, queueing included), slack (Definition 9) and whether an
  /// executed record finished past its deadline.
  double latency_ms(std::size_t i) const {
    return complete_ms_[i] - treq_ms_[i];
  }
  double slack_ms(std::size_t i) const { return tdl_ms_[i] - treq_ms_[i]; }
  bool missed_deadline(std::size_t i) const {
    return dropped_[i] == 0 && complete_ms_[i] > tdl_ms_[i];
  }

  /// Sorts all columns by the runner's canonical record order — (frame,
  /// treq, executed-before-dropped, dispatch). Records already in strictly
  /// ascending order return after one linear check, allocating nothing;
  /// otherwise one index permutation is applied in place, cycle by cycle.
  /// The full tie-break keeps equal keys from permuting between runs or
  /// stdlib implementations.
  void sort_canonical();

 private:
  /// (Re)allocates the arena for `n` records and rebases the column
  /// pointers, copying the first `size_` records of each column over.
  void rebase(std::size_t n);
  void ensure_capacity() {
    if (size_ == capacity_) rebase(capacity_ == 0 ? 16 : capacity_ * 2);
  }

  /// One allocation, columns in descending-alignment order (8-byte blocks
  /// first, the byte column last) so every column pointer is aligned.
  std::unique_ptr<unsigned char[]> arena_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;

  double* treq_ms_ = nullptr;
  double* tdl_ms_ = nullptr;
  double* dispatch_ms_ = nullptr;
  double* complete_ms_ = nullptr;
  double* energy_mj_ = nullptr;
  std::int64_t* frame_ = nullptr;
  std::int32_t* sub_accel_ = nullptr;
  std::int32_t* dvfs_level_ = nullptr;
  models::TaskId* task_ = nullptr;
  std::uint8_t* dropped_ = nullptr;
  std::uint8_t* resumed_ = nullptr;
};

}  // namespace xrbench::runtime
