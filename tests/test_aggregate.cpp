#include "core/aggregate.h"

#include <gtest/gtest.h>

namespace xrbench::core {
namespace {

using models::TaskId;

/// Appends an executed record requested at 0 ms on unit 0, level 0.
void append_executed(runtime::RecordStore& records, TaskId task,
                     std::int64_t frame, double latency, double slack,
                     double energy) {
  records.append_executed(task, frame, /*treq_ms=*/0.0, /*tdl_ms=*/slack,
                          /*sub_accel=*/0, /*dvfs_level=*/0,
                          /*dispatch_ms=*/0.0, /*complete_ms=*/latency,
                          energy);
}

runtime::ScenarioRunResult synthetic_run() {
  runtime::ScenarioRunResult run;
  run.scenario_name = "synthetic";
  run.duration_ms = 1000.0;

  runtime::ModelRunStats ht;
  ht.task = TaskId::kHT;
  ht.target_fps = 30;
  ht.frames_expected = 4;
  ht.frames_executed = 3;
  ht.frames_dropped = 1;
  for (int f = 0; f < 3; ++f) {
    append_executed(ht.records, TaskId::kHT, f, /*latency=*/5.0,
                    /*slack=*/33.0, /*energy=*/150.0);
  }
  ht.records.append_dropped(TaskId::kHT, 3, 0.0, 0.0);
  run.per_model.push_back(ht);

  runtime::ModelRunStats es;
  es.task = TaskId::kES;
  es.target_fps = 60;
  es.frames_expected = 2;
  es.frames_executed = 2;
  for (int f = 0; f < 2; ++f) {
    append_executed(es.records, TaskId::kES, f, 1.0, 16.0, 750.0);
  }
  run.per_model.push_back(es);

  run.total_energy_mj = 3 * 150.0 + 2 * 750.0;
  return run;
}

TEST(ScoreScenario, ComputesExpectedValues) {
  const auto sc = score_scenario(synthetic_run(), ScoreConfig{});
  ASSERT_EQ(sc.models.size(), 2u);
  const auto* ht = sc.find(TaskId::kHT);
  const auto* es = sc.find(TaskId::kES);
  ASSERT_NE(ht, nullptr);
  ASSERT_NE(es, nullptr);

  // HT: on time (rt ~1), energy 150/1500 -> 0.9, acc 1, QoE 3/4.
  EXPECT_NEAR(ht->rt, 1.0, 1e-6);
  EXPECT_NEAR(ht->energy, 0.9, 1e-9);
  EXPECT_DOUBLE_EQ(ht->accuracy, 1.0);
  EXPECT_DOUBLE_EQ(ht->qoe, 0.75);
  EXPECT_NEAR(ht->per_model, 0.9, 1e-6);
  EXPECT_NEAR(ht->combined, 0.675, 1e-6);

  // ES: energy 750/1500 -> 0.5, QoE 1.
  EXPECT_NEAR(es->energy, 0.5, 1e-9);
  EXPECT_NEAR(es->combined, 0.5, 1e-6);

  // Scenario = mean of combined.
  EXPECT_NEAR(sc.overall, (0.675 + 0.5) / 2.0, 1e-6);
  EXPECT_NEAR(sc.qoe, (0.75 + 1.0) / 2.0, 1e-9);
  EXPECT_NEAR(sc.frame_drop_rate, 1.0 / 6.0, 1e-9);
}

TEST(ScoreScenario, AllFramesDroppedScoresZero) {
  runtime::ScenarioRunResult run;
  run.scenario_name = "dead";
  run.duration_ms = 1000.0;
  runtime::ModelRunStats m;
  m.task = TaskId::kPD;
  m.target_fps = 30;
  m.frames_expected = 30;
  m.frames_dropped = 30;
  for (int f = 0; f < 30; ++f) {
    m.records.append_dropped(TaskId::kPD, f, 0.0, 0.0);
  }
  run.per_model.push_back(m);
  const auto sc = score_scenario(run, ScoreConfig{});
  EXPECT_DOUBLE_EQ(sc.overall, 0.0);
  EXPECT_DOUBLE_EQ(sc.models[0].per_model, 0.0);
  EXPECT_DOUBLE_EQ(sc.models[0].qoe, 0.0);
}

TEST(ScoreScenario, EmptyRunThrows) {
  runtime::ScenarioRunResult run;
  run.scenario_name = "empty";
  EXPECT_THROW(score_scenario(run, ScoreConfig{}), std::invalid_argument);
}

TEST(ScoreScenario, InactiveControlModelExcluded) {
  auto run = synthetic_run();
  runtime::ModelRunStats sr;
  sr.task = TaskId::kSR;
  sr.target_fps = 3;
  sr.frames_expected = 0;  // never triggered
  run.per_model.push_back(sr);
  const auto sc = score_scenario(run, ScoreConfig{});
  const auto* m = sc.find(TaskId::kSR);
  ASSERT_NE(m, nullptr);
  EXPECT_FALSE(m->active);
  // Scenario mean unchanged vs. the two active models.
  EXPECT_NEAR(sc.overall, (0.675 + 0.5) / 2.0, 1e-6);
}

TEST(AverageScores, SingleTrialPassThrough) {
  const auto sc = score_scenario(synthetic_run(), ScoreConfig{});
  const auto avg = average_scores({sc});
  EXPECT_DOUBLE_EQ(avg.overall, sc.overall);
}

TEST(AverageScores, MeansAcrossTrials) {
  auto a = score_scenario(synthetic_run(), ScoreConfig{});
  auto b = a;
  b.overall = a.overall / 2.0;
  b.realtime = 0.0;
  const auto avg = average_scores({a, b});
  EXPECT_NEAR(avg.overall, (a.overall + b.overall) / 2.0, 1e-12);
  EXPECT_NEAR(avg.realtime, a.realtime / 2.0, 1e-12);
}

TEST(AverageScores, EmptyThrows) {
  EXPECT_THROW(average_scores({}), std::invalid_argument);
}

TEST(AverageScores, MismatchedScenariosThrow) {
  auto a = score_scenario(synthetic_run(), ScoreConfig{});
  auto b = a;
  b.scenario_name = "other";
  EXPECT_THROW(average_scores({a, b}), std::invalid_argument);
}

TEST(AverageScores, InactiveTrialsExcludedFromModelMeans) {
  auto active = score_scenario(synthetic_run(), ScoreConfig{});
  // Append an SR model entry: active with score 0.8 in trial 1, inactive in
  // trial 2. The average SR score must be 0.8, not 0.4.
  ModelScore sr;
  sr.task = TaskId::kSR;
  sr.active = true;
  sr.per_model = 0.8;
  sr.combined = 0.8;
  sr.qoe = 1.0;
  auto trial1 = active;
  trial1.models.push_back(sr);
  auto trial2 = active;
  sr.active = false;
  sr.per_model = 0.0;
  sr.combined = 0.0;
  trial2.models.push_back(sr);
  const auto avg = average_scores({trial1, trial2});
  const auto* m = avg.find(TaskId::kSR);
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->active);
  EXPECT_NEAR(m->combined, 0.8, 1e-12);
}

TEST(CombineScenarios, MeanOverScenarios) {
  auto a = score_scenario(synthetic_run(), ScoreConfig{});
  auto b = a;
  b.scenario_name = "second";
  b.overall = 0.0;
  const auto bench = combine_scenarios({a, b});
  EXPECT_NEAR(bench.overall, a.overall / 2.0, 1e-12);
  EXPECT_EQ(bench.scenarios.size(), 2u);
}

TEST(CombineScenarios, EmptyThrows) {
  EXPECT_THROW(combine_scenarios({}), std::invalid_argument);
}

}  // namespace
}  // namespace xrbench::core
