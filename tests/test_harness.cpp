#include "core/harness.h"

#include <gtest/gtest.h>

#include <type_traits>

namespace xrbench::core {
namespace {

using models::TaskId;
using workload::scenario_by_name;

// The runner a Harness owns points at the harness's own system, so a copy
// or a move would silently run an empty one.
static_assert(!std::is_copy_constructible_v<Harness>);
static_assert(!std::is_copy_assignable_v<Harness>);
static_assert(!std::is_move_constructible_v<Harness>);
static_assert(!std::is_move_assignable_v<Harness>);

TEST(Harness, RunOnceIsDeterministic) {
  Harness h(hw::make_accelerator('J', 8192));
  const auto a = h.run_once(scenario_by_name("AR Gaming"), 1);
  const auto b = h.run_once(scenario_by_name("AR Gaming"), 1);
  EXPECT_DOUBLE_EQ(a.total_energy_mj, b.total_energy_mj);
}

TEST(Harness, StaticScenarioRunsOneTrial) {
  Harness h(hw::make_accelerator('A', 8192));
  const auto out = h.run_scenario(scenario_by_name("VR Gaming"));
  EXPECT_EQ(out.trials, 1);
  EXPECT_GT(out.score.overall, 0.0);
  EXPECT_LE(out.score.overall, 1.0);
}

TEST(Harness, DynamicScenarioAveragesTrials) {
  HarnessOptions opt;
  opt.dynamic_trials = 5;
  Harness h(hw::make_accelerator('A', 8192), opt);
  const auto out = h.run_scenario(scenario_by_name("Outdoor Activity A"));
  EXPECT_EQ(out.trials, 5);
}

TEST(Harness, SuiteCoversAllScenarios) {
  HarnessOptions opt;
  opt.dynamic_trials = 2;
  Harness h(hw::make_accelerator('K', 4096), opt);
  const auto out = h.run_suite();
  const std::size_t scenarios = workload::benchmark_suite().size();
  EXPECT_EQ(out.score.scenarios.size(), scenarios);
  EXPECT_EQ(out.trials.size(), scenarios);
  EXPECT_EQ(out.last.size(), scenarios);
  EXPECT_EQ(out.accelerator_id, "K");
  EXPECT_EQ(out.total_pes, 4096);
  EXPECT_GT(out.score.overall, 0.0);
  EXPECT_LE(out.score.overall, 1.0);
  // Benchmark score is the mean of scenario scores (Definition 16).
  double sum = 0.0;
  for (const auto& s : out.score.scenarios) sum += s.overall;
  EXPECT_NEAR(out.score.overall, sum / static_cast<double>(scenarios), 1e-9);
}

TEST(Harness, SchedulerChoiceChangesOutcomes) {
  HarnessOptions greedy;
  greedy.scheduler = "latency-greedy";
  HarnessOptions rr;
  rr.scheduler = "round-robin";
  Harness hg(hw::make_accelerator('J', 4096), greedy);
  Harness hr(hw::make_accelerator('J', 4096), rr);
  const auto g = hg.run_scenario(scenario_by_name("AR Gaming"));
  const auto r = hr.run_scenario(scenario_by_name("AR Gaming"));
  // Policies differ on an overloaded system (exact direction is a result,
  // not an invariant — just require a measurable difference).
  EXPECT_NE(g.score.overall, r.score.overall);
}

TEST(Harness, EnergyParamsPropagate) {
  HarnessOptions cheap;
  cheap.energy.dram_pj_per_byte = 1.0;
  cheap.run.system_baseline_w = 0.0;
  HarnessOptions pricey = cheap;
  pricey.energy.dram_pj_per_byte = 2000.0;
  Harness hc(hw::make_accelerator('A', 8192), cheap);
  Harness hp(hw::make_accelerator('A', 8192), pricey);
  const auto c = hc.run_once(scenario_by_name("VR Gaming"), 1);
  const auto p = hp.run_once(scenario_by_name("VR Gaming"), 1);
  EXPECT_GT(p.total_energy_mj, c.total_energy_mj);
}

TEST(Harness, BaselinePowerAddsEnergy) {
  HarnessOptions base;
  base.run.system_baseline_w = 0.0;
  HarnessOptions heavy;
  heavy.run.system_baseline_w = 2.0;
  Harness hb(hw::make_accelerator('A', 8192), base);
  Harness hh(hw::make_accelerator('A', 8192), heavy);
  const auto b = hb.run_once(scenario_by_name("VR Gaming"), 1);
  const auto h2 = hh.run_once(scenario_by_name("VR Gaming"), 1);
  EXPECT_GT(h2.total_energy_mj, b.total_energy_mj);
}

TEST(Harness, CostTableAccessible) {
  Harness h(hw::make_accelerator('D', 4096));
  EXPECT_EQ(h.cost_table().num_sub_accels(), 2u);
  EXPECT_GT(h.cost_table().latency_ms(TaskId::kHT, 0), 0.0);
}

/// Property: the benchmark score of every Table-5 design is a valid score.
class HarnessSweep : public ::testing::TestWithParam<char> {};

TEST_P(HarnessSweep, ValidSuiteScores4k) {
  HarnessOptions opt;
  opt.dynamic_trials = 2;
  Harness h(hw::make_accelerator(GetParam(), 4096), opt);
  const auto out = h.run_suite();
  EXPECT_GE(out.score.overall, 0.0);
  EXPECT_LE(out.score.overall, 1.0);
  EXPECT_GE(out.score.qoe, 0.0);
  EXPECT_LE(out.score.qoe, 1.0);
  for (const auto& s : out.score.scenarios) {
    EXPECT_GE(s.overall, 0.0);
    EXPECT_LE(s.overall, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, HarnessSweep,
                         ::testing::ValuesIn(hw::accelerator_ids()),
                         [](const auto& info) {
                           return std::string(1, info.param);
                         });

}  // namespace
}  // namespace xrbench::core
