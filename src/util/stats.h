#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace xrbench::util {

/// Streaming summary statistics (Welford) over doubles.
///
/// Used throughout the harness to summarize per-inference latencies,
/// energies, and scores without storing every sample. add() and mean() are
/// inline: the scorer calls add() once per record and reads only mean(), so
/// the compiler drops the stores it never reads.
class RunningStats {
 public:
  void add(double x) {
    if (n_ == 0) {
      min_ = x;
      max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  /// Merges another accumulator into this one (parallel-safe reduction).
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  double variance() const;  ///< Population variance; 0 when count < 2.
  double stddev() const;
  double min() const;  ///< +inf when empty.
  double max() const;  ///< -inf when empty.
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact percentile over a stored sample set (used for tail-latency reports).
/// Keeps all samples; prefer RunningStats when only moments are needed.
///
/// add() is an O(1) amortized append (the former binary-insert was O(n) per
/// sample — quadratic when the scorer feeds it every executed inference of
/// a run); seal() sorts once. The mutex-free concurrency contract is kept:
/// after seal(), percentile() touches no mutable state, so concurrent const
/// reads from sweep-result readers are race-free. A read BEFORE seal() is
/// still correct and still const — it sorts a local copy (O(n log n) per
/// query, never a mutation; the lazy in-place sort this replaces was a data
/// race under const). Producers should add(), seal(), then share.
class Percentiles {
 public:
  /// Appends a sample. Amortized O(1); un-seals the set.
  void add(double x);

  /// Pre-sizes the sample buffer (hot producers know their record count).
  void reserve(std::size_t n) { samples_.reserve(n); }

  /// Drops the samples but keeps the buffer: one accumulator can serve many
  /// sample sets without re-allocating (the per-model scoring loop does).
  void clear() {
    samples_.clear();
    sealed_ = true;
  }

  /// Sorts the accumulated samples once. Reads after seal() are O(1) index
  /// math. Idempotent; called automatically by nothing — the producer owns
  /// the moment of sealing.
  void seal();
  bool sealed() const { return sealed_; }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Linear-interpolated percentile, p in [0, 100]. Returns 0 when empty.
  double percentile(double p) const;

  double median() const { return percentile(50.0); }

 private:
  std::vector<double> samples_;  ///< Sorted ascending iff sealed_.
  bool sealed_ = true;           ///< Empty set is trivially sorted.
};

/// Arithmetic mean of a vector; 0 for an empty vector.
double mean_of(const std::vector<double>& xs);

/// Geometric mean of a vector of non-negative values; 0 if any value is 0 or
/// the vector is empty.
double geomean_of(const std::vector<double>& xs);

}  // namespace xrbench::util
