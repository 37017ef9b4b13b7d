#pragma once

#include <cstdint>

#include "workload/unit_model.h"

namespace xrbench::core {

/// The paper's stated Enmax default (Definition 11).
inline constexpr double kPaperEnmaxMj = 1500.0;

/// Numerical-stability epsilon of the accuracy score (Definition 12).
inline constexpr double kAccuracyEpsilon = 1e-6;

/// Scoring constants (paper Box 2 / appendix B defaults).
struct ScoreConfig {
  /// Sigmoid steepness k of the real-time score (Definition 10). The paper
  /// uses k = 15 with the "+-0.5 ms around a 10 ms deadline" calibration,
  /// i.e. per-millisecond units; latencies/slacks here are milliseconds.
  double k = 15.0;
  /// Emax of the energy score (Definition 11), paper default 1500 mJ.
  /// Per-inference energies include the device-baseline amortization of
  /// RunConfig::system_baseline_w, which puts them in this regime (see
  /// DESIGN.md "Energy calibration").
  double enmax_mj = kPaperEnmaxMj;
};

/// Real-time score (Definition 10): 1 / (1 + e^{k (Linf - Tsl)}).
/// 1 when comfortably within the deadline, 0.5 exactly at it, -> 0 beyond.
double rt_score(double latency_ms, double slack_ms, double k);

/// Energy score (Definition 11): (Enmax - En)/Enmax, clamped to [0,1].
double energy_score(double energy_mj, double enmax_mj);

/// Accuracy score (Definition 12), clamped into [0,1]. `higher_is_better`
/// selects the HiB/LiB branch. (The paper's `max(1, raw)` is read as
/// min — the score is defined to live in [0,1] and saturate at 1.)
double accuracy_score(double measured, double target, bool higher_is_better,
                      double epsilon);

/// Accuracy score of a task's Table-1 quality goal.
double accuracy_score(const workload::QualityGoal& goal, double epsilon);

/// QoE score (Definition 13): executed / streamed frames.
double qoe_score(std::int64_t frames_executed, std::int64_t frames_expected);

}  // namespace xrbench::core
