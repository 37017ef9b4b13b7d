#pragma once

// Bit-identical comparisons of harness, sweep and fleet outcomes for the
// tests: exact double equality (EXPECT_EQ), not EXPECT_DOUBLE_EQ's 4-ULP
// tolerance. The determinism contract promises the very same bits on every
// field, at any worker count.

#include <gtest/gtest.h>

#include <string>

#include "core/harness.h"

namespace xrbench::test {

inline void expect_identical(const runtime::ResilienceStats& a,
                             const runtime::ResilienceStats& b,
                             const std::string& where) {
  EXPECT_EQ(a.enabled, b.enabled) << where;
  EXPECT_EQ(a.transient_faults, b.transient_faults) << where;
  EXPECT_EQ(a.retries, b.retries) << where;
  EXPECT_EQ(a.retry_give_ups, b.retry_give_ups) << where;
  EXPECT_EQ(a.outage_kills, b.outage_kills) << where;
  EXPECT_EQ(a.failovers, b.failovers) << where;
  EXPECT_EQ(a.throttle_clamps, b.throttle_clamps) << where;
  EXPECT_EQ(a.drops_early, b.drops_early) << where;
  EXPECT_EQ(a.drops_late, b.drops_late) << where;
  EXPECT_EQ(a.resumes, b.resumes) << where;
  EXPECT_EQ(a.checkpoint_saved_ms, b.checkpoint_saved_ms) << where;
}

inline void expect_identical(const core::TrialSummary& a,
                             const core::TrialSummary& b,
                             const std::string& where) {
  expect_identical(a.resilience, b.resilience, where);
  EXPECT_EQ(a.total_energy_mj, b.total_energy_mj) << where;
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms) << where;
}

inline void expect_identical(const core::ModelScore& a,
                             const core::ModelScore& b,
                             const std::string& where) {
  EXPECT_EQ(a.task, b.task) << where;
  EXPECT_EQ(a.active, b.active) << where;
  EXPECT_EQ(a.rt, b.rt) << where;
  EXPECT_EQ(a.energy, b.energy) << where;
  EXPECT_EQ(a.accuracy, b.accuracy) << where;
  EXPECT_EQ(a.per_model, b.per_model) << where;
  EXPECT_EQ(a.qoe, b.qoe) << where;
  EXPECT_EQ(a.combined, b.combined) << where;
  EXPECT_EQ(a.frames_expected, b.frames_expected) << where;
  EXPECT_EQ(a.frames_executed, b.frames_executed) << where;
  EXPECT_EQ(a.frames_dropped, b.frames_dropped) << where;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << where;
}

inline void expect_identical(const core::ScenarioScore& a,
                             const core::ScenarioScore& b,
                             const std::string& where) {
  EXPECT_EQ(a.scenario_name, b.scenario_name) << where;
  EXPECT_EQ(a.realtime, b.realtime) << where;
  EXPECT_EQ(a.energy, b.energy) << where;
  EXPECT_EQ(a.accuracy, b.accuracy) << where;
  EXPECT_EQ(a.qoe, b.qoe) << where;
  EXPECT_EQ(a.overall, b.overall) << where;
  EXPECT_EQ(a.total_energy_mj, b.total_energy_mj) << where;
  EXPECT_EQ(a.frame_drop_rate, b.frame_drop_rate) << where;
  ASSERT_EQ(a.models.size(), b.models.size()) << where;
  for (std::size_t m = 0; m < a.models.size(); ++m) {
    expect_identical(a.models[m], b.models[m],
                     where + ", model " + std::to_string(m));
  }
}

/// Trial count, every score bit and the final trial's summary.
inline void expect_identical(const core::ScenarioOutcome& a,
                             const core::ScenarioOutcome& b,
                             const std::string& where) {
  EXPECT_EQ(a.trials, b.trials) << where;
  expect_identical(a.score, b.score, where);
  expect_identical(a.last, b.last, where);
}

inline void expect_identical(const core::SuitePointScore& a,
                             const core::SuitePointScore& b) {
  const std::string where = a.accelerator_id;
  EXPECT_EQ(a.accelerator_id, b.accelerator_id);
  EXPECT_EQ(a.total_pes, b.total_pes) << where;
  EXPECT_EQ(a.score.overall, b.score.overall) << where;
  EXPECT_EQ(a.score.realtime, b.score.realtime) << where;
  EXPECT_EQ(a.score.energy, b.score.energy) << where;
  EXPECT_EQ(a.score.qoe, b.score.qoe) << where;
  EXPECT_EQ(a.trials, b.trials) << where;
  ASSERT_EQ(a.score.scenarios.size(), b.score.scenarios.size()) << where;
  ASSERT_EQ(a.last.size(), b.last.size()) << where;
  for (std::size_t s = 0; s < a.score.scenarios.size(); ++s) {
    const std::string at = where + ", scenario " + std::to_string(s);
    expect_identical(a.score.scenarios[s], b.score.scenarios[s], at);
    expect_identical(a.last[s], b.last[s], at);
  }
}

}  // namespace xrbench::test
