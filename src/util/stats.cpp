#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace xrbench::util {

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  mean_ = (na * mean_ + nb * other.mean_) / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  return n_ == 0 ? std::numeric_limits<double>::infinity() : min_;
}

double RunningStats::max() const {
  return n_ == 0 ? -std::numeric_limits<double>::infinity() : max_;
}

void Percentiles::add(double x) {
  // Appending to an already-sorted tail position keeps the set sealed (the
  // common monotone-insert case costs nothing extra to detect).
  if (sealed_ && !samples_.empty() && x < samples_.back()) sealed_ = false;
  samples_.push_back(x);
}

void Percentiles::seal() {
  if (!sealed_) {
    std::sort(samples_.begin(), samples_.end());
    sealed_ = true;
  }
}

namespace {

double percentile_of_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double Percentiles::percentile(double p) const {
  if (sealed_) return percentile_of_sorted(samples_, p);
  // Unsealed read: sort a local copy. Correct and mutation-free (concurrent
  // const reads stay race-free), just O(n log n) per query — producers that
  // read repeatedly should seal() first.
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  return percentile_of_sorted(sorted, p);
}

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double geomean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    if (x <= 0.0) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace xrbench::util
