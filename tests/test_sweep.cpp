#include "core/sweep.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "outcome_checks.h"

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

/// A faulted design: transient faults with retries, outages with
/// checkpoints and throttle windows, so the last trial's resilience
/// counters are non-zero.
SweepPoint faulted_point() {
  HarnessOptions opt = fast_options();
  auto& faults = opt.run.faults;
  faults.transient_rate = 0.03;
  faults.max_retries = 2;
  faults.retry_backoff_ms = 1.0;
  faults.outage_rate_per_s = 3.0;
  faults.outage_ms = 30.0;
  faults.checkpoint = true;
  faults.throttle_rate_per_s = 4.0;
  faults.throttle_ms = 20.0;
  return {"M@4096/faults",
          hw::with_default_dvfs(hw::make_accelerator('M', 4096)), opt};
}

/// Each point's suite scenarios as scenario points, point-major: the same
/// (design, suite scenario, seed) trials a suite sweep runs.
std::vector<ScenarioSweepPoint> suite_scenario_points(
    const std::vector<SweepPoint>& points) {
  std::vector<ScenarioSweepPoint> out;
  for (const auto& p : points) {
    for (const auto& scenario : workload::benchmark_suite()) {
      out.push_back({p.label + "/" + scenario.name, p.system, p.options,
                     scenario});
    }
  }
  return out;
}

using test::expect_identical;

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
  // The pool's workers claim trials in a nondeterministic order; the
  // unit-order result slots must erase that. Compare every
  // field of the suite sweep's results, and every (design, suite scenario)
  // outcome of run_scenario_points, across 1/2/4/8 workers against the
  // inline serial baseline.
  const auto points = two_points();
  const auto scenario_points = suite_scenario_points(points);
  SweepEngine serial(0);
  const auto baseline = serial.run_suite_points(points);
  const auto baseline_runs = serial.run_scenario_points(scenario_points);
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    SweepEngine engine(workers);
    const auto got = engine.run_suite_points(points);
    ASSERT_EQ(got.size(), baseline.size()) << workers << " workers";
    for (std::size_t p = 0; p < points.size(); ++p) {
      expect_identical(got[p], baseline[p]);
    }
    const auto runs = engine.run_scenario_points(scenario_points);
    ASSERT_EQ(runs.size(), baseline_runs.size()) << workers << " workers";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      expect_identical(runs[i], baseline_runs[i],
                       scenario_points[i].label + " @ " +
                           std::to_string(workers) + " workers");
    }
  }
}

TEST(SweepEngine, MatchesHarnessExactly) {
  // Every field of a suite point's result equals Harness::run_suite's at
  // any worker count: scores down to each model, trial counts and each
  // scenario's final-trial summary (resilience counters non-zero on the
  // faulted design). Each (design, suite scenario) outcome of
  // run_scenario_points equals the harness's too.
  auto points = two_points();
  points.push_back(faulted_point());
  std::vector<SuitePointScore> expected;
  for (const auto& p : points) {
    expected.push_back(Harness(p.system, p.options).run_suite());
  }
  std::int64_t faults = 0;
  for (const auto& last : expected.back().last) {
    faults += last.resilience.transient_faults + last.resilience.resumes;
  }
  EXPECT_GT(faults, 0);
  for (std::size_t workers : {0u, 1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    SweepEngine engine(workers);
    const auto outcomes = engine.run_suite_points(points);
    ASSERT_EQ(outcomes.size(), points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      expect_identical(outcomes[p], expected[p]);
    }
  }
  const auto scenario_points = suite_scenario_points(points);
  SweepEngine engine(4);
  const auto runs = engine.run_scenario_points(scenario_points);
  const std::size_t per_point = workload::benchmark_suite().size();
  ASSERT_EQ(runs.size(), points.size() * per_point);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& want = expected[i / per_point];
    const std::size_t s = i % per_point;
    expect_identical(
        runs[i],
        ScenarioOutcome{want.score.scenarios[s], want.trials[s], want.last[s]},
        scenario_points[i].label);
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
  // A second call on the same engine reuses its warm memo and worker
  // arenas, and must change nothing: neither the scores nor the final-trial
  // summaries.
  const auto points = two_points();
  SweepEngine engine(3);
  const auto a = engine.run_suite_points(points);
  const auto b = engine.run_suite_points(points);
  for (std::size_t p = 0; p < points.size(); ++p) {
    expect_identical(a[p], b[p]);
  }
  const auto scenario_points = suite_scenario_points(points);
  const auto ra = engine.run_scenario_points(scenario_points);
  const auto rb = engine.run_scenario_points(scenario_points);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    expect_identical(ra[i], rb[i], scenario_points[i].label);
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

TEST(SweepEngine, AThrowingPointLeavesTheEngineReusable) {
  // One bad point among good ones fails the whole call with
  // std::invalid_argument: an unregistered scheduler throws in each of its
  // trials, and a sub-accelerator with no PEs throws in its group's table
  // build (inside the table's once_flag slot). After each throw, the same
  // engine's next call on the good points equals a fresh engine's.
  const auto good = suite_scenario_points(two_points());
  ScenarioSweepPoint bad_scheduler = good[1];
  bad_scheduler.label = "unregistered scheduler";
  bad_scheduler.options.scheduler = "no-such-scheduler";
  ScenarioSweepPoint bad_build = good[1];
  bad_build.label = "no PEs";
  bad_build.system.sub_accels[0].num_pes = 0;
  for (std::size_t workers : {0u, 4u}) {
    const auto expected = SweepEngine(workers).run_scenario_points(good);
    SweepEngine engine(workers);
    for (const ScenarioSweepPoint& bad : {bad_scheduler, bad_build}) {
      const std::string where =
          bad.label + " @ " + std::to_string(workers) + " workers";
      auto points = good;
      points.insert(points.begin() + 3, bad);
      EXPECT_THROW(engine.run_scenario_points(points), std::invalid_argument)
          << where;
      const auto got = engine.run_scenario_points(good);
      ASSERT_EQ(got.size(), expected.size()) << where;
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_identical(got[i], expected[i], good[i].label + ", " + where);
      }
    }
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
      expect_identical(got[p], expected[p],
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
    for (int t : o.trials) trials += t;
  }
  EXPECT_EQ(trials, 819);
  EXPECT_EQ(engine.loads_planned(), 7u);
  // The 117 points' memo entries share one key per zoo model graph, and
  // the memo's stripes count every lookup exactly.
  const auto memo = engine.model_memo_stats();
  EXPECT_EQ(memo.entries, 1089u);
  EXPECT_EQ(memo.graph_keys, 11u);
  EXPECT_EQ(memo.hits + memo.misses, 3069u);
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
      expect_identical(got[p], expected[p], points[p].label);
    }
  }
  EXPECT_EQ(engine.loads_planned(), static_cast<std::uint64_t>(kCalls));
}

TEST(SweepEngine, SuitePointsShareTableBuilds) {
  // Suite points that share a system and energy constants share one
  // CostTable build, like scenario and program points: a repeated point
  // makes no memo lookup of its own and scores exactly as the first.
  const SweepPoint point = two_points().front();
  const auto lookups = [](const costmodel::MemoStats& s) {
    return s.hits + s.misses;
  };
  for (std::size_t workers : {0u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    SweepEngine once(workers);
    SweepEngine twice(workers);
    const auto a = once.run_suite_points({point});
    const auto b = twice.run_suite_points({point, point});
    EXPECT_GT(lookups(once.model_memo_stats()), 0u);
    EXPECT_EQ(lookups(twice.model_memo_stats()),
              lookups(once.model_memo_stats()));
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 2u);
    expect_identical(b[0], a[0]);
    expect_identical(b[1], a[0]);
  }
}

TEST(SweepEngine, ProgramPoliciesMatchHarness) {
  // No built-in program names a policy. A program that names its own
  // scheduler, governor and admission policy runs them, through the engine
  // exactly as through Harness::run_program, and each name changes the
  // score against the same program that leaves it to the options.
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  const HarnessOptions opt = fast_options();
  workload::ScenarioProgram named =
      workload::program_by_name("Scenario Hand-Off");
  named.scheduler = "edf";
  named.governor = "deadline-aware";
  named.admission = "drop-early";
  std::vector<ProgramSweepPoint> points = {{"named", system, opt, named}};
  for (auto clear : {&workload::ScenarioProgram::scheduler,
                     &workload::ScenarioProgram::governor,
                     &workload::ScenarioProgram::admission}) {
    workload::ScenarioProgram program = named;
    (program.*clear).clear();
    points.push_back({"cleared", system, opt, program});
  }
  const ScenarioOutcome expected = Harness(system, opt).run_program(named);
  EXPECT_GT(expected.trials, 1);
  EXPECT_GT(expected.last.resilience.drops_early, 0);
  for (std::size_t workers : {0u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    SweepEngine engine(workers);
    const auto got = engine.run_program_points(points);
    ASSERT_EQ(got.size(), points.size());
    expect_identical(got[0], expected, "named");
    for (std::size_t p = 1; p < points.size(); ++p) {
      EXPECT_NE(got[p].score.overall, got[0].score.overall) << "point " << p;
    }
  }
}

TEST(SweepEngine, SummariesAreTheirFinalTrialRerun) {
  // Each outcome's `last` is the summary of its final trial: re-running
  // that trial through Harness::run_once / run_program_once at
  // last_trial_seed gives the same summary, from the harness and from the
  // engine at any worker count. Covered: every scenario of a faulted suite
  // point, a dynamic faulted scenario point and a faulted program point.
  const SweepPoint suite = faulted_point();
  const ScenarioSweepPoint scenario{"AR Assistant/faults", suite.system,
                                    suite.options,
                                    workload::scenario_by_name("AR Assistant")};
  const ProgramSweepPoint program{
      "hand-off/faults", suite.system, suite.options,
      workload::program_by_name("Scenario Hand-Off")};
  const Harness harness(suite.system, suite.options);
  const auto& scenarios = workload::benchmark_suite();

  const auto suite_h = harness.run_suite();
  ASSERT_EQ(suite_h.last.size(), scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const auto rerun = harness.run_once(
        scenarios[s], last_trial_seed(suite.options, suite_h.trials[s]));
    expect_identical(suite_h.last[s], summarize_trial(rerun),
                     "suite scenario " + std::to_string(s));
  }
  const auto scenario_h = harness.run_scenario(scenario.scenario);
  ASSERT_EQ(scenario_h.trials, 3);
  const auto scenario_rerun = harness.run_once(
      scenario.scenario, last_trial_seed(suite.options, scenario_h.trials));
  EXPECT_TRUE(scenario_h.last.resilience.enabled);
  expect_identical(scenario_h.last, summarize_trial(scenario_rerun),
                   "scenario");
  // The summary is the final trial's, not an earlier one's.
  EXPECT_NE(summarize_trial(harness.run_once(scenario.scenario,
                                             suite.options.run.seed + 1))
                .mean_latency_ms,
            scenario_h.last.mean_latency_ms);
  const auto program_h = harness.run_program(program.program);
  EXPECT_GT(program_h.trials, 1);
  const auto program_rerun = harness.run_program_once(
      program.program, last_trial_seed(suite.options, program_h.trials));
  expect_identical(program_h.last, summarize_trial(program_rerun), "program");

  for (std::size_t workers : {0u, 1u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    SweepEngine engine(workers);
    const auto suite_e = engine.run_suite_points({suite});
    ASSERT_EQ(suite_e.size(), 1u);
    expect_identical(suite_e[0], suite_h);
    const auto scenario_e = engine.run_scenario_points({scenario});
    ASSERT_EQ(scenario_e.size(), 1u);
    expect_identical(scenario_e[0], scenario_h, "scenario");
    const auto program_e = engine.run_program_points({program});
    ASSERT_EQ(program_e.size(), 1u);
    expect_identical(program_e[0], program_h, "program");
  }
}

}  // namespace
}  // namespace xrbench::core
