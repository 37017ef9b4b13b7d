#include "runtime/scenario_runner.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "costmodel/cost_model.h"
#include "workload/input_source.h"

namespace xrbench::runtime {
namespace {

using models::TaskId;
using workload::scenario_by_name;

class RunnerTest : public ::testing::Test {
 protected:
  ScenarioRunResult run(char accel_id, std::int64_t pes,
                        const workload::UsageScenario& scenario,
                        RunConfig cfg = {}) {
    const auto sys = hw::make_accelerator(accel_id, pes);
    const CostTable table(sys, cost_model_);
    const ScenarioRunner runner(sys, table);
    LatencyGreedyScheduler sched;
    return runner.run(scenario, sched, cfg);
  }

  costmodel::AnalyticalCostModel cost_model_;
};

TEST_F(RunnerTest, FrameAccountingIsConsistent) {
  const auto r = run('A', 8192, scenario_by_name("VR Gaming"));
  for (const auto& m : r.per_model) {
    EXPECT_EQ(m.frames_executed + m.frames_dropped,
              static_cast<std::int64_t>(m.records.size()))
        << models::task_code(m.task);
    // Independent/data-dep models: expected = fps * duration.
    EXPECT_EQ(m.frames_expected,
              static_cast<std::int64_t>(m.target_fps));
    EXPECT_LE(m.frames_executed, m.frames_expected);
  }
}

TEST_F(RunnerTest, ExecutedRecordsHaveSaneTimes) {
  const auto r = run('J', 8192, scenario_by_name("Social Interaction A"));
  for (const auto& m : r.per_model) {
    const RecordStore& recs = m.records;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs.dropped()[i] != 0) {
        EXPECT_EQ(recs.sub_accel()[i], -1);
        continue;
      }
      EXPECT_GE(recs.dispatch_ms()[i], recs.treq_ms()[i] - 1e-9);
      EXPECT_GT(recs.complete_ms()[i], recs.dispatch_ms()[i]);
      EXPECT_GE(recs.sub_accel()[i], 0);
      EXPECT_GT(recs.energy_mj()[i], 0.0);
      EXPECT_GT(recs.latency_ms(i), 0.0);
    }
  }
}

TEST_F(RunnerTest, DroppedRequestsNeverStarted) {
  // 4K-PE accelerator J on AR gaming drops a large share of frames (the
  // Figure-6 experiment).
  const auto r = run('J', 4096, scenario_by_name("AR Gaming"));
  std::int64_t drops = 0;
  for (const auto& m : r.per_model) drops += m.frames_dropped;
  EXPECT_GT(drops, 0);
}

TEST_F(RunnerTest, Figure6Shape4kVs8k) {
  // Paper Figure 6: 4K-PE J drops far more frames than 8K-PE J on AR
  // gaming, and its PD deadline violations are massive.
  const auto r4 = run('J', 4096, scenario_by_name("AR Gaming"));
  const auto r8 = run('J', 8192, scenario_by_name("AR Gaming"));
  auto drop_rate = [](const ScenarioRunResult& r) {
    std::int64_t d = 0, e = 0;
    for (const auto& m : r.per_model) {
      d += m.frames_dropped;
      e += m.frames_expected;
    }
    return static_cast<double>(d) / static_cast<double>(e);
  };
  EXPECT_GT(drop_rate(r4), 2.0 * drop_rate(r8));
}

TEST_F(RunnerTest, TimelineTiesHaveDeterministicTotalOrder) {
  // With jitter off, independent models arrive at identical ideal times and
  // a multi-sub-accelerator system dispatches several of them in the same
  // simulation event — equal start_ms entries are common. The report sort
  // must impose a full (start, sub_accel, task, frame) order so equal-time
  // entries cannot permute between runs or stdlib sort implementations.
  RunConfig cfg{1000.0, 11, false, 2.0, FaultSpec{}};
  const auto r = run('M', 8192, scenario_by_name("AR Assistant"), cfg);
  const auto timeline = r.timeline();
  bool any_tie = false;
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    const auto& prev = timeline[i - 1];
    const auto& cur = timeline[i];
    ASSERT_LE(prev.start_ms, cur.start_ms);
    if (prev.start_ms == cur.start_ms) {
      any_tie = true;
      const bool ordered =
          prev.sub_accel < cur.sub_accel ||
          (prev.sub_accel == cur.sub_accel &&
           (models::task_index(prev.task) < models::task_index(cur.task) ||
            (prev.task == cur.task && prev.frame < cur.frame)));
      EXPECT_TRUE(ordered) << "unordered tie at start_ms=" << cur.start_ms;
    }
  }
  EXPECT_TRUE(any_tie) << "scenario produced no equal-start timeline entries;"
                          " the tie-break is untested";
}

TEST_F(RunnerTest, DataDependentFpsMismatchIsRejected) {
  // A data-dependent model is requested once per upstream completion; a
  // target_fps different from the upstream's rate would silently skew its
  // QoE denominator, so the preflight check rejects it.
  workload::UsageScenario bad = scenario_by_name("VR Gaming");
  for (auto& m : bad.models) {
    if (m.task == TaskId::kGE) m.target_fps = 30.0;  // ES runs at 60
  }
  EXPECT_THROW(run('A', 8192, bad), std::invalid_argument);
}

TEST_F(RunnerTest, TimelineMatchesExecutedRecords) {
  const auto r = run('D', 8192, scenario_by_name("AR Gaming"));
  std::size_t executed = 0;
  for (const auto& m : r.per_model) {
    executed += static_cast<std::size_t>(m.frames_executed);
  }
  const auto timeline = r.timeline();
  EXPECT_EQ(timeline.size(), executed);
  // Timeline sorted by start time.
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_GE(timeline[i].start_ms, timeline[i - 1].start_ms);
  }
}

TEST_F(RunnerTest, NoHardwareOverlapPerSubAccel) {
  // Hardware occupancy condition (appendix B.2): one sub-accelerator never
  // runs two inferences at once.
  const auto r = run('J', 4096, scenario_by_name("AR Assistant"),
                     RunConfig{1000.0, 7, true, 2.0, FaultSpec{}});
  std::vector<std::vector<BusyInterval>> lanes(r.telemetry.num_sub_accels());
  for (const auto& bi : r.timeline()) {
    lanes[static_cast<std::size_t>(bi.sub_accel)].push_back(bi);
  }
  for (const auto& lane : lanes) {
    for (std::size_t i = 1; i < lane.size(); ++i) {
      EXPECT_GE(lane[i].start_ms, lane[i - 1].end_ms - 1e-9);
    }
  }
}

TEST_F(RunnerTest, DependencyConditionHolds) {
  // GE never starts before the ES inference of the same frame completed.
  const auto r = run('A', 8192, scenario_by_name("VR Gaming"));
  const auto* es = r.find(TaskId::kES);
  const auto* ge = r.find(TaskId::kGE);
  ASSERT_NE(es, nullptr);
  ASSERT_NE(ge, nullptr);
  const RecordStore& g = ge->records;
  const RecordStore& e = es->records;
  for (std::size_t gi = 0; gi < g.size(); ++gi) {
    if (g.dropped()[gi] != 0) continue;
    bool found = false;
    for (std::size_t ei = 0; ei < e.size(); ++ei) {
      if (e.frame()[ei] == g.frame()[gi] && e.dropped()[ei] == 0) {
        EXPECT_GE(g.dispatch_ms()[gi], e.complete_ms()[ei] - 1e-9);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "GE frame " << g.frame()[gi]
                       << " ran without an ES completion";
  }
}

TEST_F(RunnerTest, ControlDependencyGatesDownstream) {
  // With trigger probability 0, SR never runs; with 1, it follows KD.
  auto scenario = scenario_by_name("Outdoor Activity B");
  for (auto& m : scenario.models) {
    if (m.task == TaskId::kSR) m.trigger_probability = 0.0;
  }
  const auto none = run('A', 8192, scenario);
  EXPECT_EQ(none.find(TaskId::kSR)->frames_expected, 0);
  EXPECT_TRUE(none.find(TaskId::kSR)->records.empty());

  for (auto& m : scenario.models) {
    if (m.task == TaskId::kSR) m.trigger_probability = 1.0;
  }
  const auto all = run('A', 8192, scenario);
  EXPECT_EQ(all.find(TaskId::kSR)->frames_expected,
            all.find(TaskId::kKD)->frames_executed);
}

TEST_F(RunnerTest, JitterChangesArrivalNotCounts) {
  RunConfig with{1000.0, 3, true, 2.0, FaultSpec{}};
  RunConfig without{1000.0, 3, false, 2.0, FaultSpec{}};
  const auto a = run('A', 8192, scenario_by_name("VR Gaming"), with);
  const auto b = run('A', 8192, scenario_by_name("VR Gaming"), without);
  for (std::size_t i = 0; i < a.per_model.size(); ++i) {
    EXPECT_EQ(a.per_model[i].frames_expected, b.per_model[i].frames_expected);
  }
  // Some arrival times must differ when jitter is on.
  bool any_diff = false;
  for (std::size_t i = 0; i < a.per_model.size(); ++i) {
    for (std::size_t f = 0; f < a.per_model[i].records.size() &&
                            f < b.per_model[i].records.size();
         ++f) {
      if (a.per_model[i].records.treq_ms()[f] !=
          b.per_model[i].records.treq_ms()[f]) {
        any_diff = true;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(RunnerTest, DeterministicForSameSeed) {
  RunConfig cfg{1000.0, 99, true, 2.0, FaultSpec{}};
  const auto a = run('J', 4096, scenario_by_name("AR Assistant"), cfg);
  const auto b = run('J', 4096, scenario_by_name("AR Assistant"), cfg);
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  EXPECT_DOUBLE_EQ(a.total_energy_mj, b.total_energy_mj);
  for (std::size_t i = 0; i < a.per_model.size(); ++i) {
    EXPECT_EQ(a.per_model[i].frames_executed, b.per_model[i].frames_executed);
    EXPECT_EQ(a.per_model[i].frames_dropped, b.per_model[i].frames_dropped);
  }
}

TEST_F(RunnerTest, LongerDurationScalesFrames) {
  RunConfig cfg;
  cfg.duration_ms = 2000.0;
  const auto r = run('A', 8192, scenario_by_name("VR Gaming"), cfg);
  EXPECT_EQ(r.find(TaskId::kHT)->frames_expected, 90);  // 45 FPS x 2 s
  EXPECT_EQ(r.find(TaskId::kES)->frames_expected, 120);
}

TEST_F(RunnerTest, MultiModalModelWaitsForBothStreams) {
  const auto r = run('A', 8192, scenario_by_name("Social Interaction A"));
  const auto* dr = r.find(TaskId::kDR);
  ASSERT_NE(dr, nullptr);
  const auto& cam = workload::input_source(workload::InputSourceId::kCamera);
  const auto& lidar = workload::input_source(workload::InputSourceId::kLidar);
  const RecordStore& recs = dr->records;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs.dropped()[i] != 0) continue;
    const std::int64_t sf = recs.frame()[i] * 2;  // 30 FPS on 60 FPS streams
    const double cam_ideal = workload::ideal_arrival_ms(cam, sf);
    const double lidar_ideal = workload::ideal_arrival_ms(lidar, sf);
    EXPECT_GE(recs.treq_ms()[i],
              std::max(cam_ideal, lidar_ideal) - cam.max_jitter_ms -
                  lidar.max_jitter_ms - 1e-9);
  }
}

TEST_F(RunnerTest, InvalidConfigsThrow) {
  const auto sys = hw::make_accelerator('A', 4096);
  const CostTable table(sys, cost_model_);
  const ScenarioRunner runner(sys, table);
  LatencyGreedyScheduler sched;
  RunConfig cfg;
  cfg.duration_ms = 0.0;
  EXPECT_THROW(runner.run(scenario_by_name("VR Gaming"), sched, cfg),
               std::invalid_argument);

  workload::UsageScenario bad = scenario_by_name("VR Gaming");
  bad.models[0].target_fps = 120.0;  // exceeds the 60 FPS camera
  EXPECT_THROW(runner.run(bad, sched, RunConfig{}), std::invalid_argument);
}

TEST_F(RunnerTest, RecordBudgetPreflightRejectsBeforeReserving) {
  // A duration whose predicted record count no memory could hold (1e12 ms
  // of VR Gaming: 1.8e11 records) is rejected with the count and the bound
  // instead of ending in bad_alloc; so are non-finite durations.
  const auto sys = hw::make_accelerator('A', 4096);
  const CostTable table(sys, cost_model_);
  const ScenarioRunner runner(sys, table);
  LatencyGreedyScheduler sched;
  RunScratch scratch;
  for (double duration : {1e12, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    RunConfig cfg;
    cfg.duration_ms = duration;
    try {
      runner.run(scenario_by_name("VR Gaming"), sched, cfg, nullptr,
                 &scratch);
      FAIL() << "expected std::invalid_argument for " << duration;
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("records"), std::string::npos) << message;
      EXPECT_NE(message.find(std::to_string(ScenarioRunner::kMaxRunRecords)),
                std::string::npos)
          << message;
    }
  }

  // Ten minutes of VR Gaming (108k records) is well inside the bound, and
  // the scratch the rejected runs saw still serves it.
  RunConfig long_run;
  long_run.duration_ms = 6e5;
  const auto r = runner.run(scenario_by_name("VR Gaming"), sched, long_run,
                            nullptr, &scratch);
  EXPECT_EQ(r.find(TaskId::kES)->frames_expected, 36000);
}

TEST_F(RunnerTest, PlanningRejectsWhatRunRejects) {
  // plan_arrivals reserves storage too, so it applies run()'s preflight.
  RunConfig too_long;
  too_long.duration_ms = 1e12;
  EXPECT_THROW(plan_arrivals(scenario_by_name("VR Gaming"), too_long),
               std::invalid_argument);
  workload::UsageScenario bad = scenario_by_name("VR Gaming");
  bad.models[0].target_fps = 120.0;  // exceeds the 60 FPS camera
  EXPECT_THROW(plan_arrivals(bad, RunConfig{}), std::invalid_argument);
}

TEST_F(RunnerTest, PlanForAnotherLoadIsRejected) {
  const auto sys = hw::make_accelerator('A', 4096);
  const CostTable table(sys, cost_model_);
  const ScenarioRunner runner(sys, table);
  LatencyGreedyScheduler sched;
  // Social Interaction A: sources HT 30, ES 60, DR 30; GE depends on ES.
  const auto& scenario = scenario_by_name("Social Interaction A");
  RunConfig cfg;
  cfg.duration_ms = 200.0;
  const ArrivalPlan plan = plan_arrivals(scenario, cfg);
  EXPECT_NO_THROW(
      runner.run(scenario, sched, cfg, nullptr, nullptr, nullptr, &plan));

  // What generation never reads may differ: the plan still serves.
  workload::UsageScenario dependent_changed = scenario;
  dependent_changed.models[2].trigger_probability = 0.5;
  RunConfig faulted = cfg;
  faulted.faults.transient_rate = 0.1;
  faulted.system_baseline_w = 0.0;
  EXPECT_NO_THROW(runner.run(dependent_changed, sched, faulted, nullptr,
                             nullptr, nullptr, &plan));

  const auto expect_rejected = [&](const workload::UsageScenario& s,
                                   const RunConfig& c, const char* what) {
    EXPECT_THROW(runner.run(s, sched, c, nullptr, nullptr, nullptr, &plan),
                 std::invalid_argument)
        << what;
  };
  RunConfig other = cfg;
  other.seed += 1;
  expect_rejected(scenario, other, "seed");
  other = cfg;
  other.duration_ms = 400.0;
  expect_rejected(scenario, other, "duration");
  other = cfg;
  other.enable_jitter = false;
  expect_rejected(scenario, other, "jitter flag");
  workload::UsageScenario fps = scenario;
  fps.models[0].target_fps = 15.0;
  expect_rejected(fps, cfg, "source fps");
  workload::UsageScenario reordered = scenario;
  std::swap(reordered.models[0], reordered.models[3]);
  expect_rejected(reordered, cfg, "source order");
  workload::UsageScenario fewer = scenario;
  fewer.models.pop_back();  // drops DR
  expect_rejected(fewer, cfg, "one source fewer");
  workload::UsageScenario more = scenario;
  workload::ScenarioModel as;
  as.task = TaskId::kAS;
  more.models.push_back(as);
  expect_rejected(more, cfg, "one source more");
  expect_rejected(scenario_by_name("VR Gaming"), cfg, "another scenario");
  const ArrivalPlan empty;
  EXPECT_THROW(
      runner.run(scenario, sched, cfg, nullptr, nullptr, nullptr, &empty),
      std::invalid_argument);
}

TEST_F(RunnerTest, ProgramRecordPreflightBoundsThePhaseSum) {
  // Two 15 000 s phases of VR Gaming (165 inferences/s) predict 2.475M
  // records each, under the bound, and 4.95M together, over it. The
  // session would hold both, so the program is rejected, with the total
  // and the bound, before any phase runs: the scheduler is never asked for
  // a dispatch.
  class CountingScheduler final : public Scheduler {
   public:
    const char* name() const override { return "counting"; }
    std::optional<Assignment> pick(const DispatchContext& ctx) override {
      ++picks;
      return inner.pick(ctx);
    }
    LatencyGreedyScheduler inner;
    int picks = 0;
  };
  const auto sys = hw::make_accelerator('A', 4096);
  const CostTable table(sys, cost_model_);
  const ScenarioRunner runner(sys, table);
  workload::ScenarioProgram program;
  program.name = "Two long phases";
  for (std::uint64_t offset = 0; offset < 2; ++offset) {
    program.phases.push_back({scenario_by_name("VR Gaming"), 1.5e7, offset});
  }
  double per_phase = 0.0;
  for (const auto& sm : program.phases.front().scenario.models) {
    per_phase += sm.target_fps * 1.5e4;
  }
  ASSERT_EQ(per_phase, 2.475e6);
  CountingScheduler sched;
  try {
    runner.run_program(program, sched, RunConfig{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("4950000 records"), std::string::npos) << message;
    EXPECT_NE(message.find(std::to_string(ScenarioRunner::kMaxRunRecords)),
              std::string::npos)
        << message;
  }
  EXPECT_EQ(sched.picks, 0);
}

TEST_F(RunnerTest, DependencyOnAbsentUpstreamNeverTriggers) {
  // A custom scenario whose model depends on a task that is not part of
  // the scenario: the dependent model can never be triggered, but the run
  // must complete cleanly (regression for the slot-indexed fanout).
  workload::UsageScenario scenario;
  scenario.name = "dangling-dep";
  workload::ScenarioModel ht;
  ht.task = TaskId::kHT;
  ht.target_fps = 30.0;
  scenario.models.push_back(ht);
  workload::ScenarioModel sr;  // depends on KD, which is absent
  sr.task = TaskId::kSR;
  sr.target_fps = 3.0;
  sr.depends_on = TaskId::kKD;
  sr.dependency = workload::DependencyType::kControl;
  sr.trigger_probability = 1.0;
  scenario.models.push_back(sr);

  const auto r = run('A', 8192, scenario);
  const auto* srs = r.find(TaskId::kSR);
  ASSERT_NE(srs, nullptr);
  EXPECT_EQ(srs->frames_expected, 0);
  EXPECT_TRUE(srs->records.empty());
  EXPECT_GT(r.find(TaskId::kHT)->frames_executed, 0);
}

TEST_F(RunnerTest, MismatchedCostTableThrows) {
  const auto sys_a = hw::make_accelerator('A', 4096);
  const auto sys_m = hw::make_accelerator('M', 4096);
  const CostTable table_a(sys_a, cost_model_);
  EXPECT_THROW(ScenarioRunner(sys_m, table_a), std::invalid_argument);
}

TEST_F(RunnerTest, UtilizationBoundedByOne) {
  const auto r = run('J', 4096, scenario_by_name("AR Gaming"));
  for (std::size_t sa = 0; sa < r.telemetry.num_sub_accels(); ++sa) {
    EXPECT_GE(r.utilization(sa), 0.0);
    EXPECT_LE(r.utilization(sa), 1.0);
  }
  EXPECT_EQ(r.utilization(99), 0.0);  // out of range is defined as 0
}

/// Property: across all scenarios x a few accelerators, the run result
/// satisfies the core invariants.
class RunnerSweep
    : public ::testing::TestWithParam<std::tuple<std::string, char>> {};

TEST_P(RunnerSweep, CoreInvariants) {
  const auto& [scenario_name, accel_id] = GetParam();
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::make_accelerator(accel_id, 8192);
  const CostTable table(sys, cm);
  const ScenarioRunner runner(sys, table);
  LatencyGreedyScheduler sched;
  const auto r = runner.run(scenario_by_name(scenario_name), sched,
                            RunConfig{1000.0, 5, true, 2.0, FaultSpec{}});
  EXPECT_EQ(r.scenario_name, scenario_name);
  EXPECT_GT(r.total_energy_mj, 0.0);
  for (const auto& m : r.per_model) {
    EXPECT_GE(m.qoe(), 0.0);
    EXPECT_LE(m.qoe(), 1.0);
    EXPECT_GE(m.frames_executed, 0);
    EXPECT_GE(m.frames_dropped, 0);
    EXPECT_LE(m.deadline_misses, m.frames_executed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RunnerSweep,
    ::testing::Combine(::testing::Values("Social Interaction A",
                                         "Outdoor Activity A", "AR Assistant",
                                         "AR Gaming", "VR Gaming"),
                       ::testing::Values('A', 'F', 'J', 'M')),
    [](const auto& info) {
      std::string n = std::get<0>(info.param);
      for (auto& c : n) {
        if (c == ' ') c = '_';
      }
      return n + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace xrbench::runtime
