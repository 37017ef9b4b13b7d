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
/// (design, suite scenario, seed) trials a suite sweep runs, with the last
/// trial's raw run kept.
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

/// Harness::run_suite's outcome reduced to what a suite sweep returns.
SuitePointScore lean(const BenchmarkOutcome& outcome) {
  SuitePointScore out;
  out.accelerator_id = outcome.accelerator_id;
  out.total_pes = outcome.total_pes;
  out.score = outcome.score;
  for (const auto& s : outcome.scenarios) {
    out.trials.push_back(s.trials);
    out.last_resilience.push_back(s.last_run.resilience);
  }
  return out;
}

/// Bit-identical comparisons: exact double equality, not
/// EXPECT_DOUBLE_EQ's 4-ULP tolerance — the sweep engine promises the very
/// same bits as a serial run, on every field.
void expect_identical(const ModelScore& a, const ModelScore& b,
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

void expect_identical(const ScenarioScore& a, const ScenarioScore& b,
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

void expect_identical(const runtime::ResilienceStats& a,
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

void expect_identical(const SuitePointScore& a, const SuitePointScore& b) {
  const std::string where = a.accelerator_id;
  EXPECT_EQ(a.accelerator_id, b.accelerator_id);
  EXPECT_EQ(a.total_pes, b.total_pes) << where;
  EXPECT_EQ(a.score.overall, b.score.overall) << where;
  EXPECT_EQ(a.score.realtime, b.score.realtime) << where;
  EXPECT_EQ(a.score.energy, b.score.energy) << where;
  EXPECT_EQ(a.score.qoe, b.score.qoe) << where;
  EXPECT_EQ(a.trials, b.trials) << where;
  ASSERT_EQ(a.score.scenarios.size(), b.score.scenarios.size()) << where;
  ASSERT_EQ(a.last_resilience.size(), b.last_resilience.size()) << where;
  for (std::size_t s = 0; s < a.score.scenarios.size(); ++s) {
    const std::string at = where + ", scenario " + std::to_string(s);
    expect_identical(a.score.scenarios[s], b.score.scenarios[s], at);
    expect_identical(a.last_resilience[s], b.last_resilience[s], at);
  }
}

/// Every record of two raw runs, field by field, plus the run totals.
void expect_same_records(const runtime::ScenarioRunResult& a,
                         const runtime::ScenarioRunResult& b,
                         const std::string& where) {
  EXPECT_EQ(a.total_energy_mj, b.total_energy_mj) << where;
  ASSERT_EQ(a.aborted.size(), b.aborted.size()) << where;
  ASSERT_EQ(a.per_model.size(), b.per_model.size()) << where;
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    const runtime::RecordStore& va = a.per_model[m].records;
    const runtime::RecordStore& vb = b.per_model[m].records;
    ASSERT_EQ(va.size(), vb.size()) << where;
    for (std::size_t r = 0; r < va.size(); ++r) {
      // Exact equality on every column: dispatch/complete/energy are the
      // bits the determinism contract actually promises.
      EXPECT_EQ(va.frame()[r], vb.frame()[r]);
      EXPECT_EQ(va.treq_ms()[r], vb.treq_ms()[r]);
      EXPECT_EQ(va.tdl_ms()[r], vb.tdl_ms()[r]);
      EXPECT_EQ(va.dropped()[r], vb.dropped()[r]);
      EXPECT_EQ(va.sub_accel()[r], vb.sub_accel()[r]);
      EXPECT_EQ(va.dvfs_level()[r], vb.dvfs_level()[r]);
      EXPECT_EQ(va.dispatch_ms()[r], vb.dispatch_ms()[r]);
      EXPECT_EQ(va.complete_ms()[r], vb.complete_ms()[r]);
      EXPECT_EQ(va.energy_mj()[r], vb.energy_mj()[r])
          << where << ", model " << m << ", record " << r;
    }
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
  // the submission-order result slots must erase that. Compare every
  // field of the suite sweep's results, and every record of each
  // (design, suite scenario) last run through run_scenario_points, across
  // 1/2/4/8 workers against the inline serial baseline.
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
      expect_same_records(runs[i].last_run, baseline_runs[i].last_run,
                          scenario_points[i].label + " @ " +
                              std::to_string(workers) + " workers");
    }
  }
}

TEST(SweepEngine, MatchesHarnessExactly) {
  // Every field of a suite point's result equals Harness::run_suite's at
  // any worker count: scores down to each model, trial counts and the
  // last trial's resilience counters (non-zero on the faulted design).
  // The records of each (design, suite scenario) last run equal the
  // harness's through run_scenario_points.
  auto points = two_points();
  points.push_back(faulted_point());
  std::vector<BenchmarkOutcome> expected;
  for (const auto& p : points) {
    expected.push_back(Harness(p.system, p.options).run_suite());
  }
  std::int64_t faults = 0;
  for (const auto& s : expected.back().scenarios) {
    faults += s.last_run.resilience.transient_faults +
              s.last_run.resilience.resumes;
  }
  EXPECT_GT(faults, 0);
  for (std::size_t workers : {0u, 1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    SweepEngine engine(workers);
    const auto outcomes = engine.run_suite_points(points);
    ASSERT_EQ(outcomes.size(), points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      expect_identical(outcomes[p], lean(expected[p]));
    }
  }
  const auto scenario_points = suite_scenario_points(points);
  SweepEngine engine(4);
  const auto runs = engine.run_scenario_points(scenario_points);
  const std::size_t per_point = workload::benchmark_suite().size();
  ASSERT_EQ(runs.size(), points.size() * per_point);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& want = expected[i / per_point].scenarios[i % per_point];
    EXPECT_EQ(runs[i].trials, want.trials);
    expect_identical(runs[i].score, want.score, scenario_points[i].label);
    expect_same_records(runs[i].last_run, want.last_run,
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
  // arenas, and must change nothing: neither the scores nor the records.
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
    expect_same_records(ra[i].last_run, rb[i].last_run,
                        scenario_points[i].label);
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
  const auto ta = a.last_run.timeline();
  const auto tb = b.last_run.timeline();
  ASSERT_EQ(ta.size(), tb.size()) << where;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].start_ms, tb[i].start_ms) << where;
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
      expect_same_outcome(got[p], expected[p], points[p].label);
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
  EXPECT_GT(expected.last_run.resilience.drops_early, 0);
  for (std::size_t workers : {0u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    SweepEngine engine(workers);
    const auto got = engine.run_program_points(points);
    ASSERT_EQ(got.size(), points.size());
    EXPECT_EQ(got[0].trials, expected.trials);
    expect_identical(got[0].score, expected.score, "named");
    expect_identical(got[0].last_run.resilience, expected.last_run.resilience,
                     "named");
    expect_same_records(got[0].last_run, expected.last_run, "named");
    for (std::size_t p = 1; p < points.size(); ++p) {
      EXPECT_NE(got[p].score.overall, got[0].score.overall) << "point " << p;
    }
  }
}

}  // namespace
}  // namespace xrbench::core
