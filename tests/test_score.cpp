#include "core/score.h"

#include <gtest/gtest.h>

#include <cmath>

namespace xrbench::core {
namespace {

TEST(RtScore, HalfExactlyAtDeadline) {
  EXPECT_DOUBLE_EQ(rt_score(/*latency=*/10.0, /*slack=*/10.0, /*k=*/15.0),
                   0.5);
}

TEST(RtScore, SaturatesWithinAndBeyond) {
  // Paper calibration: ~0 at 0.5 ms past a deadline, ~1 well within.
  EXPECT_LT(rt_score(10.5, 10.0, 15.0), 0.001);
  EXPECT_GT(rt_score(9.5, 10.0, 15.0), 0.999);
}

TEST(RtScore, MonotoneDecreasingInLatency) {
  double prev = 1.1;
  for (double lat = 0.0; lat <= 20.0; lat += 0.25) {
    const double s = rt_score(lat, 10.0, 15.0);
    EXPECT_LE(s, prev);
    // Strictly decreasing inside the transition band around the deadline
    // (outside it the sigmoid saturates to exactly 0/1 in double math).
    if (lat > 9.0 && lat < 11.0) {
      EXPECT_LT(s, prev);
    }
    prev = s;
  }
}

TEST(RtScore, KZeroIsDeadlineInsensitive) {
  // Figure 8: k = 0 gives a constant 0.5 regardless of latency.
  EXPECT_DOUBLE_EQ(rt_score(0.0, 10.0, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(rt_score(100.0, 10.0, 0.0), 0.5);
}

TEST(RtScore, LargerKIsSharper) {
  // Figure 8: larger k flips faster around the deadline.
  const double just_late = 10.2;
  EXPECT_GT(rt_score(just_late, 10.0, 1.0), rt_score(just_late, 10.0, 15.0));
  EXPECT_GT(rt_score(just_late, 10.0, 15.0), rt_score(just_late, 10.0, 50.0));
}

TEST(RtScore, NoOverflowAtExtremes) {
  EXPECT_DOUBLE_EQ(rt_score(1e9, 0.0, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(rt_score(0.0, 1e9, 50.0), 1.0);
}

TEST(RtScore, NegativeKThrows) {
  EXPECT_THROW(rt_score(1.0, 1.0, -1.0), std::invalid_argument);
}

TEST(EnergyScore, LinearInEnergy) {
  EXPECT_DOUBLE_EQ(energy_score(0.0, 1500.0), 1.0);
  EXPECT_DOUBLE_EQ(energy_score(750.0, 1500.0), 0.5);
  EXPECT_DOUBLE_EQ(energy_score(1500.0, 1500.0), 0.0);
}

TEST(EnergyScore, ClampsBeyondEnmax) {
  EXPECT_DOUBLE_EQ(energy_score(3000.0, 1500.0), 0.0);
  EXPECT_DOUBLE_EQ(energy_score(-10.0, 1500.0), 1.0);
}

TEST(EnergyScore, InvalidEnmaxThrows) {
  EXPECT_THROW(energy_score(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(energy_score(1.0, -5.0), std::invalid_argument);
}

TEST(AccuracyScore, HibSaturatesAtTarget) {
  EXPECT_DOUBLE_EQ(accuracy_score(95.0, 90.0, true, 1e-6), 1.0);
  EXPECT_DOUBLE_EQ(accuracy_score(90.0, 90.0, true, 1e-6), 1.0);
  EXPECT_NEAR(accuracy_score(45.0, 90.0, true, 1e-6), 0.5, 1e-12);
}

TEST(AccuracyScore, LibInverts) {
  // Lower-is-better: beating the target (smaller error) saturates at 1.
  EXPECT_DOUBLE_EQ(accuracy_score(3.0, 3.39, false, 1e-6), 1.0);
  EXPECT_NEAR(accuracy_score(6.78, 3.39, false, 1e-6), 0.5, 1e-6);
}

TEST(AccuracyScore, LibEpsilonPreventsDivZero) {
  const double s = accuracy_score(0.0, 3.39, false, 1e-6);
  EXPECT_TRUE(std::isfinite(s));
  EXPECT_DOUBLE_EQ(s, 1.0);  // zero error is perfect, clamped at 1
}

TEST(AccuracyScore, InvalidEpsilonThrows) {
  EXPECT_THROW(accuracy_score(1.0, 1.0, false, 0.0), std::invalid_argument);
}

TEST(AccuracyScore, GoalOverload) {
  workload::QualityGoal goal{"mIoU", 90.0, true, 95.0};
  EXPECT_DOUBLE_EQ(accuracy_score(goal, 1e-6), 1.0);
  goal.measured = 45.0;
  EXPECT_NEAR(accuracy_score(goal, 1e-6), 0.5, 1e-12);
}

TEST(QoeScore, Ratio) {
  EXPECT_DOUBLE_EQ(qoe_score(30, 60), 0.5);
  EXPECT_DOUBLE_EQ(qoe_score(60, 60), 1.0);
  EXPECT_DOUBLE_EQ(qoe_score(0, 60), 0.0);
}

TEST(QoeScore, NothingDemandedIsPerfect) {
  EXPECT_DOUBLE_EQ(qoe_score(0, 0), 1.0);
}

TEST(QoeScore, ClampsOverAchievement) {
  EXPECT_DOUBLE_EQ(qoe_score(70, 60), 1.0);
}

/// Property: all unit scores stay in [0,1] across a parameter sweep.
struct ScoreSweepCase {
  double latency, slack, k, energy, enmax;
};

class ScoreRangeSweep : public ::testing::TestWithParam<ScoreSweepCase> {};

TEST_P(ScoreRangeSweep, AllScoresInUnitRange) {
  const auto p = GetParam();
  const double rt = rt_score(p.latency, p.slack, p.k);
  EXPECT_GE(rt, 0.0);
  EXPECT_LE(rt, 1.0);
  const double en = energy_score(p.energy, p.enmax);
  EXPECT_GE(en, 0.0);
  EXPECT_LE(en, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScoreRangeSweep,
    ::testing::Values(ScoreSweepCase{0, 16.6, 15, 10, 1500},
                      ScoreSweepCase{16.6, 16.6, 15, 1500, 1500},
                      ScoreSweepCase{100, 16.6, 15, 5000, 1500},
                      ScoreSweepCase{0.01, 333, 15, 0.001, 1500},
                      ScoreSweepCase{50, 33, 50, 700, 100},
                      ScoreSweepCase{1e6, 1e-6, 15, 1e6, 1.0}));

}  // namespace
}  // namespace xrbench::core
