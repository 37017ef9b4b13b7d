#include "runtime/telemetry.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/harness.h"
#include "core/sweep.h"
#include "hw/accelerator.h"
#include "outcome_checks.h"
#include "workload/scenario_program.h"

namespace xrbench::runtime {
namespace {

using models::TaskId;

InferenceRequest make_req(TaskId task, double treq, double tdl) {
  InferenceRequest r;
  r.task = task;
  r.treq_ms = treq;
  r.tdl_ms = tdl;
  return r;
}

/// Busy time per unit summed over a run's timeline() spans.
std::vector<double> span_busy_ms(const ScenarioRunResult& run) {
  std::vector<double> busy(run.telemetry.num_sub_accels(), 0.0);
  for (const auto& span : run.timeline()) {
    busy[static_cast<std::size_t>(span.sub_accel)] +=
        span.end_ms - span.start_ms;
  }
  return busy;
}

// ---- Unit behavior --------------------------------------------------------

TEST(Telemetry, BusyIdleAccountingAndEwma) {
  Telemetry tel;
  tel.reset(2);
  const auto req = make_req(TaskId::kHT, 0.0, 50.0);
  // sub 0: busy [10, 30], idle elsewhere in [0, 100].
  tel.on_dispatch(0, req, 3, 10.0, 4);
  tel.on_retire(0, req, 3, 30.0, 2.0, 1.0);
  tel.finish(100.0);

  const auto& s0 = tel.sub_accel(0);
  EXPECT_DOUBLE_EQ(s0.busy_ms, 20.0);
  EXPECT_DOUBLE_EQ(s0.idle_ms, 80.0);
  EXPECT_DOUBLE_EQ(s0.utilization(), 0.2);
  EXPECT_GT(s0.util_ewma, 0.0);
  EXPECT_LT(s0.util_ewma, 1.0);
  EXPECT_EQ(s0.dispatches, 1);
  EXPECT_EQ(s0.retires, 1);
  EXPECT_EQ(s0.last_level, 3);
  ASSERT_EQ(s0.recent_levels.size(), 1u);
  EXPECT_EQ(s0.recent_levels.front(), 3);
  EXPECT_DOUBLE_EQ(s0.dynamic_mj, 2.0);
  EXPECT_DOUBLE_EQ(s0.static_mj, 1.0);
  EXPECT_DOUBLE_EQ(s0.idle_mj, 0.0);

  // sub 1 never ran: pure idle window.
  const auto& s1 = tel.sub_accel(1);
  EXPECT_DOUBLE_EQ(s1.busy_ms, 0.0);
  EXPECT_DOUBLE_EQ(s1.idle_ms, 100.0);
  EXPECT_DOUBLE_EQ(s1.util_ewma, 0.0);

  EXPECT_EQ(tel.queue_depth(), 4u);
  EXPECT_GT(tel.queue_depth_ewma(), 0.0);
  EXPECT_EQ(tel.task_completions(TaskId::kHT), 1);
  EXPECT_DOUBLE_EQ(tel.task_latency_ewma(TaskId::kHT), 30.0);  // treq 0
}

TEST(Telemetry, LevelHistoryIsBounded) {
  constexpr std::size_t kDepth = Telemetry::kLevelHistoryDepth;
  Telemetry tel;
  tel.reset(1);
  const auto req = make_req(TaskId::kHT, 0.0, 1e9);
  for (std::size_t i = 0; i < kDepth + 3; ++i) {
    tel.on_dispatch(0, req, i, static_cast<double>(i) * 10.0, 0);
    tel.on_retire(0, req, i, static_cast<double>(i) * 10.0 + 5.0, 0.0, 0.0);
  }
  // The oldest three levels fell out; the newest kDepth remain in order.
  const auto& levels = tel.sub_accel(0).recent_levels;
  ASSERT_EQ(levels.size(), kDepth);
  for (std::size_t i = 0; i < kDepth; ++i) {
    EXPECT_EQ(levels[i], static_cast<int>(i + 3));
  }
}

TEST(Telemetry, ResetClearsStateButKeepsShape) {
  Telemetry tel;
  tel.reset(2);
  const auto req = make_req(TaskId::kKD, 0.0, 1e9);
  tel.on_dispatch(0, req, 1, 5.0, 2);
  tel.on_retire(0, req, 1, 9.0, 1.0, 0.5);
  tel.reset(2);
  EXPECT_EQ(tel.sub_accel(0).dispatches, 0);
  EXPECT_DOUBLE_EQ(tel.sub_accel(0).busy_ms, 0.0);
  EXPECT_TRUE(tel.sub_accel(0).recent_levels.empty());
  EXPECT_EQ(tel.task_completions(TaskId::kKD), 0);
  EXPECT_EQ(tel.queue_depth(), 0u);
}

// ---- End-to-end: runner-produced snapshots --------------------------------

TEST(TelemetryRun, SnapshotMatchesRunAccounting) {
  core::HarnessOptions opt;
  opt.dynamic_trials = 1;
  const core::Harness harness(
      hw::with_default_dvfs(hw::make_accelerator('J', 8192)), opt);
  const auto run =
      harness.run_once(workload::scenario_by_name("AR Gaming"), 42);
  const Telemetry& tel = run.telemetry;
  const std::vector<double> span_busy = span_busy_ms(run);

  std::int64_t executed = 0;
  for (const auto& m : run.per_model) executed += m.frames_executed;
  std::int64_t dispatches = 0;
  for (std::size_t sa = 0; sa < tel.num_sub_accels(); ++sa) {
    const auto& sub = tel.sub_accel(sa);
    // The telemetry's busy time is the length of the unit's spans.
    EXPECT_DOUBLE_EQ(sub.busy_ms, span_busy[sa]) << sa;
    EXPECT_EQ(sub.dispatches, sub.retires) << sa;
    dispatches += sub.dispatches;
    EXPECT_GE(sub.util_ewma, 0.0);
    EXPECT_LE(sub.util_ewma, 1.0);
    // Default fixed-nominal governor: every dispatch at the nominal level.
    if (sub.dispatches > 0) {
      EXPECT_EQ(sub.last_level,
                static_cast<int>(harness.cost_table().nominal_level(sa)));
    }
    // No idle-power term declared: idle energy must be exactly zero.
    EXPECT_EQ(sub.idle_mj, 0.0);
    // Busy + idle spans the same accounting window on every lane.
    EXPECT_GE(sub.busy_ms + sub.idle_ms, run.duration_ms);
  }
  EXPECT_EQ(dispatches, executed);
}

void expect_identical_telemetry(const Telemetry& a, const Telemetry& b) {
  ASSERT_EQ(a.num_sub_accels(), b.num_sub_accels());
  for (std::size_t sa = 0; sa < a.num_sub_accels(); ++sa) {
    const auto& x = a.sub_accel(sa);
    const auto& y = b.sub_accel(sa);
    // Exact double equality everywhere: the telemetry contract is
    // byte-determinism, not approximate agreement.
    EXPECT_EQ(x.busy_ms, y.busy_ms) << sa;
    EXPECT_EQ(x.idle_ms, y.idle_ms) << sa;
    EXPECT_EQ(x.util_ewma, y.util_ewma) << sa;
    EXPECT_EQ(x.last_event_ms, y.last_event_ms) << sa;
    EXPECT_EQ(x.dispatches, y.dispatches) << sa;
    EXPECT_EQ(x.retires, y.retires) << sa;
    EXPECT_EQ(x.last_level, y.last_level) << sa;
    EXPECT_EQ(x.park_level, y.park_level) << sa;
    EXPECT_EQ(x.dynamic_mj, y.dynamic_mj) << sa;
    EXPECT_EQ(x.static_mj, y.static_mj) << sa;
    EXPECT_EQ(x.idle_mj, y.idle_mj) << sa;
    EXPECT_EQ(x.recent_levels, y.recent_levels) << sa;
  }
  for (TaskId task : models::all_tasks()) {
    EXPECT_EQ(a.task_latency_ewma(task), b.task_latency_ewma(task));
    EXPECT_EQ(a.task_completions(task), b.task_completions(task));
  }
  EXPECT_EQ(a.queue_depth(), b.queue_depth());
  EXPECT_EQ(a.queue_depth_ewma(), b.queue_depth_ewma());
}

TEST(TelemetryRun, SnapshotsByteIdenticalSerialVsParallel) {
  // The headline determinism claim: telemetry advances only on
  // simulated-clock events, so a 4-worker sweep steers a history-aware
  // governor, whose decisions FEED BACK into the schedule, exactly as the
  // inline serial engine does: every score and final-trial summary bit
  // agrees. The final trial, re-run through the harness, has the same
  // snapshot bits on every re-run.
  auto make_points = [] {
    core::HarnessOptions opt;
    opt.governor = "ondemand";
    opt.dynamic_trials = 5;
    std::vector<core::ScenarioSweepPoint> points;
    const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
    for (const char* name : {"Bursty Notification", "AR Gaming"}) {
      points.push_back(
          {name, system, opt, workload::scenario_by_name(name)});
    }
    return points;
  };
  core::SweepEngine serial(0);
  core::SweepEngine parallel(4);
  const auto a = serial.run_scenario_points(make_points());
  const auto b = parallel.run_scenario_points(make_points());
  ASSERT_EQ(a.size(), b.size());
  const auto points = make_points();
  for (std::size_t p = 0; p < a.size(); ++p) {
    test::expect_identical(b[p], a[p], points[p].label);
    const core::Harness harness(points[p].system, points[p].options);
    const auto seed = core::last_trial_seed(points[p].options, a[p].trials);
    const auto first = harness.run_once(points[p].scenario, seed);
    const auto again = harness.run_once(points[p].scenario, seed);
    test::expect_identical(core::summarize_trial(first), a[p].last,
                           points[p].label);
    expect_identical_telemetry(first.telemetry, again.telemetry);
  }
}

TEST(TelemetryRun, SinglePhaseProgramSnapshotMatchesPlainRun) {
  // The program merge's compatibility anchor extends to telemetry: one
  // phase merged into a fresh session accumulator reproduces the plain
  // run's snapshot exactly.
  core::HarnessOptions opt;
  const core::Harness harness(
      hw::with_default_dvfs(hw::make_accelerator('J', 8192)), opt);
  const auto& scenario = workload::scenario_by_name("AR Gaming");
  const auto plain = harness.run_once(scenario, 42);
  const auto program = harness.run_program_once(
      workload::single_phase_program(scenario, opt.run.duration_ms), 42);
  expect_identical_telemetry(plain.telemetry, program.telemetry);
}

TEST(TelemetryRun, ProgramSnapshotAccumulatesPhases) {
  core::HarnessOptions opt;
  opt.dynamic_trials = 1;
  const core::Harness harness(
      hw::with_default_dvfs(hw::make_accelerator('J', 4096)), opt);
  const auto& program = workload::program_by_name("Scenario Hand-Off");
  const auto run = harness.run_program_once(program, 7);
  const Telemetry& tel = run.telemetry;
  const std::vector<double> span_busy = span_busy_ms(run);
  std::int64_t executed = 0;
  for (const auto& m : run.per_model) executed += m.frames_executed;
  std::int64_t dispatches = 0;
  for (std::size_t sa = 0; sa < tel.num_sub_accels(); ++sa) {
    dispatches += tel.sub_accel(sa).dispatches;
    // The session spans are shifted by each phase's start, which rounds.
    EXPECT_NEAR(tel.sub_accel(sa).busy_ms, span_busy[sa],
                1e-9 * span_busy[sa]);
  }
  EXPECT_EQ(dispatches, executed);
}

}  // namespace
}  // namespace xrbench::runtime
