#include "core/score.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

// -ffast-math lets the compiler reassociate, contract and flush to zero, so
// scores, tables and digests would drift from the committed goldens.
#ifdef __FAST_MATH__
#error "xrbench must not be built with -ffast-math: its outputs are bit-exact"
#endif

namespace xrbench::core {

double rt_score(double latency_ms, double slack_ms, double k) {
  if (k < 0.0) throw std::invalid_argument("rt_score: k must be >= 0");
  const double arg = k * (latency_ms - slack_ms);
  // exp() overflows past ~709; the score saturates well before that.
  if (arg > 500.0) return 0.0;
  if (arg < -500.0) return 1.0;
  return 1.0 / (1.0 + std::exp(arg));
}

double energy_score(double energy_mj, double enmax_mj) {
  if (enmax_mj <= 0.0) {
    throw std::invalid_argument("energy_score: Enmax must be > 0");
  }
  return std::clamp((enmax_mj - energy_mj) / enmax_mj, 0.0, 1.0);
}

double accuracy_score(double measured, double target, bool higher_is_better,
                      double epsilon) {
  if (epsilon <= 0.0) {
    throw std::invalid_argument("accuracy_score: epsilon must be > 0");
  }
  double raw = 0.0;
  if (higher_is_better) {
    raw = target > 0.0 ? measured / target : 1.0;
  } else {
    raw = target / (measured + epsilon);
  }
  return std::clamp(raw, 0.0, 1.0);
}

double accuracy_score(const workload::QualityGoal& goal, double epsilon) {
  return accuracy_score(goal.measured, goal.target, goal.higher_is_better,
                        epsilon);
}

double qoe_score(std::int64_t frames_executed, std::int64_t frames_expected) {
  if (frames_expected <= 0) return 1.0;  // nothing was demanded
  return std::clamp(static_cast<double>(frames_executed) /
                        static_cast<double>(frames_expected),
                    0.0, 1.0);
}

}  // namespace xrbench::core
