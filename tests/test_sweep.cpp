#include "core/sweep.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace xrbench::core {
namespace {

HarnessOptions fast_options() {
  HarnessOptions opt;
  opt.run.duration_ms = 400.0;  // keep the test quick; shape is unchanged
  opt.dynamic_trials = 3;
  return opt;
}

std::vector<SweepPoint> two_points() {
  const auto opt = fast_options();
  return {
      {"J@4096", hw::make_accelerator('J', 4096), opt},
      {"A@8192", hw::make_accelerator('A', 8192), opt},
  };
}

/// Bit-identical score comparison: exact double equality, not
/// EXPECT_DOUBLE_EQ's 4-ULP tolerance — the sweep engine promises the very
/// same bits as a serial run.
void expect_identical(const BenchmarkOutcome& a, const BenchmarkOutcome& b) {
  EXPECT_EQ(a.accelerator_id, b.accelerator_id);
  EXPECT_EQ(a.total_pes, b.total_pes);
  EXPECT_EQ(a.score.overall, b.score.overall);
  EXPECT_EQ(a.score.realtime, b.score.realtime);
  EXPECT_EQ(a.score.energy, b.score.energy);
  EXPECT_EQ(a.score.qoe, b.score.qoe);
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  for (std::size_t s = 0; s < a.scenarios.size(); ++s) {
    const auto& sa = a.scenarios[s];
    const auto& sb = b.scenarios[s];
    EXPECT_EQ(sa.trials, sb.trials);
    EXPECT_EQ(sa.score.overall, sb.score.overall) << "scenario " << s;
    EXPECT_EQ(sa.score.realtime, sb.score.realtime) << "scenario " << s;
    EXPECT_EQ(sa.score.energy, sb.score.energy) << "scenario " << s;
    EXPECT_EQ(sa.score.qoe, sb.score.qoe) << "scenario " << s;
    EXPECT_EQ(sa.score.total_energy_mj, sb.score.total_energy_mj)
        << "scenario " << s;
    EXPECT_EQ(sa.last_run.total_energy_mj, sb.last_run.total_energy_mj)
        << "scenario " << s;
    ASSERT_EQ(sa.last_run.timeline.size(), sb.last_run.timeline.size());
  }
}

TEST(SweepEngine, ParallelSuiteIsBitIdenticalToSerial) {
  const auto points = two_points();
  SweepEngine serial(0);    // inline: no worker threads at all
  SweepEngine parallel(4);  // oversubscribed on small machines — still exact
  const auto a = serial.run_suite_points(points);
  const auto b = parallel.run_suite_points(points);
  ASSERT_EQ(a.size(), points.size());
  ASSERT_EQ(b.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    expect_identical(a[p], b[p]);
  }
}

TEST(SweepEngine, MergeOrderByteIdenticalAcross1248Workers) {
  // The work-stealing pool executes batches in a nondeterministic order;
  // the submission-order result slots must erase that. Compare the full
  // outcome byte pattern — every score, every record of every trial's last
  // run — across 1/2/4/8 workers against the inline serial baseline.
  const auto points = two_points();
  SweepEngine serial(0);
  const auto baseline = serial.run_suite_points(points);
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    SweepEngine engine(workers);
    const auto got = engine.run_suite_points(points);
    ASSERT_EQ(got.size(), baseline.size()) << workers << " workers";
    for (std::size_t p = 0; p < points.size(); ++p) {
      expect_identical(got[p], baseline[p]);
      // Byte-level record comparison of the kept last runs.
      ASSERT_EQ(got[p].scenarios.size(), baseline[p].scenarios.size());
      for (std::size_t s = 0; s < got[p].scenarios.size(); ++s) {
        const auto& ra = got[p].scenarios[s].last_run;
        const auto& rb = baseline[p].scenarios[s].last_run;
        ASSERT_EQ(ra.per_model.size(), rb.per_model.size());
        for (std::size_t m = 0; m < ra.per_model.size(); ++m) {
          const auto va = ra.per_model[m].records.view();
          const auto vb = rb.per_model[m].records.view();
          ASSERT_EQ(va.size(), vb.size()) << workers << " workers";
          for (std::size_t r = 0; r < va.size(); ++r) {
            // Exact equality on every field (memcmp would trip on struct
            // padding): dispatch/complete/energy are the bits the
            // determinism contract actually promises.
            EXPECT_EQ(va[r].frame, vb[r].frame);
            EXPECT_EQ(va[r].treq_ms, vb[r].treq_ms);
            EXPECT_EQ(va[r].tdl_ms, vb[r].tdl_ms);
            EXPECT_EQ(va[r].dropped, vb[r].dropped);
            EXPECT_EQ(va[r].sub_accel, vb[r].sub_accel);
            EXPECT_EQ(va[r].dvfs_level, vb[r].dvfs_level);
            EXPECT_EQ(va[r].dispatch_ms, vb[r].dispatch_ms);
            EXPECT_EQ(va[r].complete_ms, vb[r].complete_ms);
            EXPECT_EQ(va[r].energy_mj, vb[r].energy_mj)
                << workers << " workers, point " << p << ", scenario " << s
                << ", model " << m << ", record " << r;
          }
        }
      }
    }
  }
}

TEST(SweepEngine, MatchesHarnessExactly) {
  const auto points = two_points();
  SweepEngine engine(4);
  const auto outcomes = engine.run_suite_points(points);
  ASSERT_EQ(outcomes.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    const Harness harness(points[p].system, points[p].options);
    const auto expected = harness.run_suite();
    expect_identical(outcomes[p], expected);
  }
}

TEST(SweepEngine, ScenarioPointsMatchHarness) {
  const auto opt = fast_options();
  std::vector<ScenarioSweepPoint> points;
  for (double p : {0.25, 1.0}) {
    points.push_back({"vr@" + std::to_string(p),
                      hw::make_accelerator('B', 4096), opt,
                      workload::with_cascade_probability(
                          workload::scenario_by_name("VR Gaming"),
                          models::TaskId::kGE, p)});
  }
  SweepEngine engine(4);
  const auto outcomes = engine.run_scenario_points(points);
  ASSERT_EQ(outcomes.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    const Harness harness(points[p].system, points[p].options);
    const auto expected = harness.run_scenario(points[p].scenario);
    EXPECT_EQ(outcomes[p].trials, expected.trials);
    EXPECT_EQ(outcomes[p].score.overall, expected.score.overall);
    EXPECT_EQ(outcomes[p].score.realtime, expected.score.realtime);
    EXPECT_EQ(outcomes[p].score.energy, expected.score.energy);
    EXPECT_EQ(outcomes[p].score.qoe, expected.score.qoe);
  }
}

TEST(SweepEngine, RepeatedParallelRunsAreStable) {
  const auto points = two_points();
  SweepEngine engine(3);
  const auto a = engine.run_suite_points(points);
  const auto b = engine.run_suite_points(points);
  for (std::size_t p = 0; p < points.size(); ++p) {
    expect_identical(a[p], b[p]);
  }
}

TEST(SweepEngine, BuildCostTablesMatchesDirectConstruction) {
  const costmodel::AnalyticalCostModel cm;
  std::vector<hw::AcceleratorSystem> systems;
  for (char id : {'A', 'J', 'M'}) {
    systems.push_back(hw::make_accelerator(id, 4096));
  }
  SweepEngine engine(4);
  const auto tables = engine.build_cost_tables(systems, cm);
  ASSERT_EQ(tables.size(), systems.size());
  const costmodel::AnalyticalCostModel fresh;
  for (std::size_t i = 0; i < systems.size(); ++i) {
    ASSERT_NE(tables[i], nullptr);
    const runtime::CostTable direct(systems[i], fresh);
    for (models::TaskId t : models::all_tasks()) {
      for (std::size_t sa = 0; sa < systems[i].sub_accels.size(); ++sa) {
        EXPECT_EQ(tables[i]->latency_ms(t, sa), direct.latency_ms(t, sa));
        EXPECT_EQ(tables[i]->energy_mj(t, sa), direct.energy_mj(t, sa));
      }
    }
  }
}

TEST(SweepEngine, MemoIsSharedAcrossPoints) {
  // CostTable builds go through the model-level all-levels memo: repeated
  // designs on one cost model must not re-walk any layer list. We can't
  // observe the memo through SweepEngine directly, so check the underlying
  // property on AnalyticalCostModel.
  costmodel::AnalyticalCostModel cm;
  const auto sys_a = hw::make_accelerator('A', 4096);
  const runtime::CostTable table_a(sys_a, cm);
  const auto stats_first = cm.model_memo_stats();
  EXPECT_GT(stats_first.entries, 0u);
  EXPECT_EQ(stats_first.hits, 0u);
  EXPECT_EQ(stats_first.misses, stats_first.entries);
  // Same design again: no new entries, every lookup hits.
  const runtime::CostTable table_a2(sys_a, cm);
  const auto stats_second = cm.model_memo_stats();
  EXPECT_EQ(stats_second.entries, stats_first.entries);
  EXPECT_EQ(stats_second.hits, stats_first.misses);
  // A different design adds entries.
  const auto sys_b = hw::make_accelerator('B', 4096);
  const runtime::CostTable table_b(sys_b, cm);
  EXPECT_GT(cm.model_memo_stats().entries, stats_first.entries);
}

TEST(SweepEngine, EmptyPointListIsFine) {
  SweepEngine engine(2);
  EXPECT_TRUE(engine.run_suite_points({}).empty());
  EXPECT_TRUE(engine.run_scenario_points({}).empty());
  EXPECT_EQ(engine.loads_planned(), 0u);
}

/// Exact equality of two scenario outcomes: every score bit and the kept
/// last run's energy, timeline and per-model record counts.
void expect_same_outcome(const ScenarioOutcome& a, const ScenarioOutcome& b,
                         const std::string& where) {
  EXPECT_EQ(a.trials, b.trials) << where;
  EXPECT_EQ(a.score.overall, b.score.overall) << where;
  EXPECT_EQ(a.score.realtime, b.score.realtime) << where;
  EXPECT_EQ(a.score.energy, b.score.energy) << where;
  EXPECT_EQ(a.score.qoe, b.score.qoe) << where;
  EXPECT_EQ(a.score.total_energy_mj, b.score.total_energy_mj) << where;
  EXPECT_EQ(a.last_run.total_energy_mj, b.last_run.total_energy_mj) << where;
  ASSERT_EQ(a.last_run.timeline.size(), b.last_run.timeline.size()) << where;
  for (std::size_t i = 0; i < a.last_run.timeline.size(); ++i) {
    EXPECT_EQ(a.last_run.timeline[i].start_ms, b.last_run.timeline[i].start_ms)
        << where;
  }
  ASSERT_EQ(a.last_run.per_model.size(), b.last_run.per_model.size()) << where;
  for (std::size_t m = 0; m < a.last_run.per_model.size(); ++m) {
    EXPECT_EQ(a.last_run.per_model[m].records.size(),
              b.last_run.per_model[m].records.size())
        << where;
  }
}

/// Runs `points` on a fresh engine at every worker count and checks each
/// outcome against Harness::run_scenario and the number of trial loads the
/// call planned.
void expect_shared_loads(const std::vector<ScenarioSweepPoint>& points,
                         std::uint64_t plans) {
  std::vector<ScenarioOutcome> expected;
  for (const auto& p : points) {
    expected.push_back(Harness(p.system, p.options).run_scenario(p.scenario));
  }
  for (std::size_t workers : {0u, 1u, 4u, 8u}) {
    SweepEngine engine(workers);
    const auto got = engine.run_scenario_points(points);
    EXPECT_EQ(engine.loads_planned(), plans) << workers << " workers";
    ASSERT_EQ(got.size(), points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      expect_same_outcome(got[p], expected[p],
                          points[p].label + " @ " + std::to_string(workers) +
                              " workers");
    }
  }
}

TEST(SweepEngine, PolicyPointsShareOneLoadPerScenarioAndTrial) {
  // The perfbench trial_sweep shape: one design, every Table-2 scenario x
  // 3 schedulers x 2 governors, 30 dynamic trials. The three dynamic
  // scenarios run 30 trials and the four static ones one, so each policy
  // triple runs 94 trials over the same 94 loads.
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  HarnessOptions base;
  base.dynamic_trials = 30;
  std::vector<ScenarioSweepPoint> points;
  for (const auto& scenario : workload::benchmark_suite()) {
    for (const char* scheduler : {"latency-greedy", "edf", "least-loaded"}) {
      for (const char* governor : {"deadline-aware", "ondemand"}) {
        HarnessOptions o = base;
        o.scheduler = scheduler;
        o.governor = governor;
        points.push_back({scenario.name + "/" + scheduler + "/" + governor,
                          system, o, scenario});
      }
    }
  }
  SweepEngine engine(4);
  const auto outcomes = engine.run_scenario_points(points);
  int trials = 0;
  for (const auto& o : outcomes) trials += o.trials;
  EXPECT_EQ(trials, 564);
  EXPECT_EQ(engine.loads_planned(), 94u);
  // A second call plans its own loads again: plans live for one call.
  engine.run_scenario_points(points);
  EXPECT_EQ(engine.loads_planned(), 188u);
}

TEST(SweepEngine, DesignPointsShareOneLoadPerScenario) {
  // The perfbench design_sweep shape: 13 Table-5 designs x 9 chip sizes
  // against the full suite at one trial per scenario.
  HarnessOptions options;
  options.run.duration_ms = 200.0;
  options.dynamic_trials = 1;
  std::vector<SweepPoint> points;
  for (std::int64_t k = 0; k < 9; ++k) {
    for (char id : hw::accelerator_ids()) {
      points.push_back({std::string(1, id), hw::with_default_dvfs(
                            hw::make_accelerator(id, 1024 + 1536 * k)),
                        options});
    }
  }
  SweepEngine engine(4);
  const auto outcomes = engine.run_suite_points(points);
  int trials = 0;
  for (const auto& o : outcomes) {
    for (const auto& s : o.scenarios) trials += s.trials;
  }
  EXPECT_EQ(trials, 819);
  EXPECT_EQ(engine.loads_planned(), 7u);
}

TEST(SweepEngine, CascadeSweepSharesOneLoadPerTrial) {
  // Figure 7's shape: designs x ES->GE cascade probabilities. GE is not a
  // source model, so every point replays the same load at each trial index
  // (p = 1 is static and runs trial 0 only).
  HarnessOptions opt = fast_options();
  opt.dynamic_trials = 10;
  std::vector<ScenarioSweepPoint> points;
  for (char id : {'B', 'J'}) {
    for (double p : {0.25, 0.5, 0.75, 1.0}) {
      points.push_back({std::string(1, id) + "@" + std::to_string(p),
                        hw::make_accelerator(id, 4096), opt,
                        workload::with_cascade_probability(
                            workload::scenario_by_name("VR Gaming"),
                            models::TaskId::kGE, p)});
    }
  }
  expect_shared_loads(points, 10);
}

TEST(SweepEngine, PointsWithDifferentLoadsShareNone) {
  // Each point changes one input of load generation: seed, duration,
  // jitter flag, a source model's rate. Social Interaction A is static,
  // so every point runs one trial and plans its own load.
  const auto& scenario = workload::scenario_by_name("Social Interaction A");
  const HarnessOptions opt = fast_options();
  std::vector<ScenarioSweepPoint> points;
  const auto add = [&](const std::string& label, HarnessOptions o,
                       workload::UsageScenario s) {
    points.push_back({label, hw::make_accelerator('J', 4096), o, s});
  };
  add("base", opt, scenario);
  HarnessOptions o = opt;
  o.run.seed += 1000;
  add("seed", o, scenario);
  o = opt;
  o.run.duration_ms = 300.0;
  add("duration", o, scenario);
  o = opt;
  o.run.enable_jitter = false;
  add("jitter", o, scenario);
  workload::UsageScenario slower = scenario;
  slower.models[0].target_fps = 15.0;
  add("fps", opt, slower);
  expect_shared_loads(points, 5);
}

TEST(SweepEngine, ConcurrentFirstUseOfOneLoad) {
  // Every point needs the same slot (one static scenario, one trial), so
  // all 8 workers race to plan it as the batch fans out; one plans it and
  // the rest wait, then replay it. Repeated so the race actually occurs.
  const auto& scenario = workload::scenario_by_name("AR Gaming");
  std::vector<ScenarioSweepPoint> points;
  for (const char* scheduler : {"latency-greedy", "edf", "least-loaded"}) {
    for (const char* governor : {"deadline-aware", "ondemand"}) {
      for (std::int64_t pes : {4096, 8192}) {
        HarnessOptions o = fast_options();
        o.scheduler = scheduler;
        o.governor = governor;
        points.push_back({std::string(scheduler) + "/" + governor,
                          hw::with_default_dvfs(hw::make_accelerator('J', pes)),
                          o, scenario});
      }
    }
  }
  std::vector<ScenarioOutcome> expected;
  for (const auto& p : points) {
    expected.push_back(Harness(p.system, p.options).run_scenario(p.scenario));
  }
  SweepEngine engine(8);
  constexpr int kCalls = 20;
  for (int call = 0; call < kCalls; ++call) {
    const auto got = engine.run_scenario_points(points);
    ASSERT_EQ(got.size(), points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      expect_same_outcome(got[p], expected[p], points[p].label);
    }
  }
  EXPECT_EQ(engine.loads_planned(), static_cast<std::uint64_t>(kCalls));
}

}  // namespace
}  // namespace xrbench::core
