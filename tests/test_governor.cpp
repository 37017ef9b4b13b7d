#include "runtime/governor.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/harness.h"
#include "hw/dvfs.h"
#include "models/zoo.h"
#include "runtime/policy_registry.h"

namespace xrbench::runtime {
namespace {

using models::TaskId;

// ---- DVFS state / cost-model level scaling --------------------------------

TEST(DvfsState, DefaultLadderIsValidAndNominalAnchored) {
  const auto state = hw::default_dvfs_state(1.0);
  EXPECT_TRUE(state.valid());
  EXPECT_EQ(state.num_levels(), 5u);
  EXPECT_EQ(state.levels[state.nominal_level].freq_ghz, 1.0);
  EXPECT_EQ(state.levels[state.nominal_level].voltage_v, hw::kNominalVoltageV);
  for (std::size_t i = 1; i < state.levels.size(); ++i) {
    EXPECT_GT(state.levels[i].freq_ghz, state.levels[i - 1].freq_ghz);
    EXPECT_GT(state.levels[i].voltage_v, state.levels[i - 1].voltage_v);
  }
}

TEST(DvfsState, EmptyTableIsSingleNominalLevel) {
  hw::DvfsState state;
  EXPECT_TRUE(state.valid());
  EXPECT_EQ(state.num_levels(), 1u);
}

TEST(DvfsState, InvalidTablesAreRejected) {
  hw::DvfsState bad_order;
  bad_order.levels = {{1.0, 0.8}, {0.5, 0.6}};
  EXPECT_FALSE(bad_order.valid());

  hw::DvfsState bad_nominal = hw::default_dvfs_state(1.0);
  bad_nominal.nominal_level = 99;
  EXPECT_FALSE(bad_nominal.valid());

  EXPECT_THROW(hw::with_dvfs(hw::make_accelerator('A', 4096), bad_order),
               std::invalid_argument);

  // Nominal frequency must match the configured clock.
  auto mismatched = hw::default_dvfs_state(2.0);
  EXPECT_THROW(hw::with_dvfs(hw::make_accelerator('A', 4096), mismatched),
               std::invalid_argument);
}

TEST(DvfsState, LadderLengthIsCapped) {
  // Every level multiplies the cost columns a CostTable holds, so a ladder
  // built in code may list at most hw::kMaxDvfsLevels points, like one
  // read from a config file.
  hw::DvfsState longest;
  for (std::size_t i = 1; i <= hw::kMaxDvfsLevels; ++i) {
    longest.levels.push_back({static_cast<double>(i), hw::kNominalVoltageV});
  }
  EXPECT_TRUE(longest.valid());
  EXPECT_NO_THROW(hw::with_dvfs(hw::make_accelerator('A', 4096), longest));

  hw::DvfsState too_long = longest;
  too_long.levels.push_back(
      {static_cast<double>(hw::kMaxDvfsLevels + 1), hw::kNominalVoltageV});
  EXPECT_FALSE(too_long.valid());
  EXPECT_THROW(hw::with_dvfs(hw::make_accelerator('A', 4096), too_long),
               std::invalid_argument);
}

TEST(DvfsCostModel, NominalLevelIsBitIdenticalToLegacyPath) {
  costmodel::AnalyticalCostModel cm;
  const auto plain = hw::make_accelerator('J', 8192);
  const auto dvfs = hw::with_default_dvfs(plain);
  for (TaskId t : {TaskId::kHT, TaskId::kPD, TaskId::kKD}) {
    const auto& graph = models::model_graph(t);
    for (std::size_t sa = 0; sa < plain.sub_accels.size(); ++sa) {
      const auto legacy = cm.model_cost(graph, plain.sub_accels[sa]);
      const auto nominal = cm.model_cost_at(
          graph, dvfs.sub_accels[sa], dvfs.sub_accels[sa].dvfs.nominal_level);
      EXPECT_EQ(legacy.latency_ms, nominal.latency_ms);
      EXPECT_EQ(legacy.energy_mj, nominal.energy_mj);
    }
  }
}

TEST(DvfsCostModel, LatencyIsNonIncreasingInLevel) {
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  for (TaskId t : models::all_tasks()) {
    const auto& graph = models::model_graph(t);
    for (const auto& sa : sys.sub_accels) {
      double prev = std::numeric_limits<double>::infinity();
      for (std::size_t lvl = 0; lvl < sa.dvfs.num_levels(); ++lvl) {
        const auto mc = cm.model_cost_at(graph, sa, lvl);
        EXPECT_LE(mc.latency_ms, prev) << models::task_code(t);
        prev = mc.latency_ms;
      }
    }
  }
}

TEST(DvfsCostModel, VoltageScalesDynamicEnergyQuadratically) {
  costmodel::AnalyticalCostModel cm;
  auto sys = hw::make_accelerator('A', 4096);
  // Two levels at the SAME frequency, different voltage: latency must be
  // unchanged and dynamic energy must scale with (V/Vnom)^2 exactly.
  hw::DvfsState state;
  state.levels = {{0.999999, hw::kNominalVoltageV},
                  {1.0, hw::kNominalVoltageV}};
  state.nominal_level = 1;
  sys = hw::with_dvfs(std::move(sys), state);
  auto& sa = sys.sub_accels[0];
  sa.dvfs.levels[0] = {1.0 - 1e-12, 2.0 * hw::kNominalVoltageV};

  const auto& graph = models::model_graph(TaskId::kKD);
  const auto nominal = cm.model_cost_at(graph, sa, 1);
  const auto doubled_v = cm.model_cost_at(graph, sa, 0);
  const double dyn_nom = nominal.energy_mj - nominal.static_energy_mj;
  const double dyn_hi = doubled_v.energy_mj - doubled_v.static_energy_mj;
  EXPECT_NEAR(dyn_hi / dyn_nom, 4.0, 1e-6);            // V^2
  EXPECT_NEAR(doubled_v.static_energy_mj,
              2.0 * nominal.static_energy_mj, 1e-9);   // V (same latency)
}

TEST(DvfsCostModel, InvalidLevelThrows) {
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('A', 4096));
  EXPECT_THROW(cm.model_cost_at(models::model_graph(TaskId::kHT),
                                sys.sub_accels[0], 5),
               std::out_of_range);
}

// ---- Per-level cost table -------------------------------------------------

TEST(CostTableDvfs, HoldsEveryLevelAndMatchesDirectEvaluation) {
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  const CostTable table(sys, cm);
  ASSERT_EQ(table.num_sub_accels(), 2u);
  for (std::size_t sa = 0; sa < 2; ++sa) {
    EXPECT_EQ(table.num_levels(sa), 5u);
    EXPECT_EQ(table.nominal_level(sa), sys.sub_accels[sa].dvfs.nominal_level);
  }
  for (TaskId t : {TaskId::kHT, TaskId::kSR}) {
    for (std::size_t sa = 0; sa < 2; ++sa) {
      for (std::size_t lvl = 0; lvl < 5; ++lvl) {
        const auto mc =
            cm.model_cost_at(models::model_graph(t), sys.sub_accels[sa], lvl);
        EXPECT_EQ(table.latency_ms(t, sa, lvl), mc.latency_ms);
        EXPECT_EQ(table.energy_mj(t, sa, lvl), mc.energy_mj);
      }
    }
  }
  EXPECT_THROW(table.cost(TaskId::kHT, 0, 5), std::out_of_range);
}

TEST(CostTableDvfs, MisAnchoredTableIsRejected) {
  // A DVFS table whose nominal frequency differs from the configured clock
  // would make the "nominal" row silently diverge from the fixed-clock
  // costs; attaching one directly (bypassing hw::with_dvfs) must still be
  // caught when the table is materialized.
  costmodel::AnalyticalCostModel cm;
  auto sys = hw::make_accelerator('A', 4096);
  sys.sub_accels[0].dvfs = hw::default_dvfs_state(2.0);  // clock is 1.0
  EXPECT_FALSE(sys.sub_accels[0].valid());
  EXPECT_THROW(CostTable(sys, cm), std::invalid_argument);
}

TEST(CostTableDvfs, NominalLevelMatchesLegacyTable) {
  costmodel::AnalyticalCostModel cm;
  const auto plain = hw::make_accelerator('K', 8192);
  const CostTable legacy(plain, cm);
  const CostTable leveled(hw::with_default_dvfs(plain), cm);
  for (TaskId t : models::all_tasks()) {
    for (std::size_t sa = 0; sa < legacy.num_sub_accels(); ++sa) {
      EXPECT_EQ(legacy.latency_ms(t, sa), leveled.latency_ms(t, sa));
      EXPECT_EQ(legacy.energy_mj(t, sa), leveled.energy_mj(t, sa));
    }
  }
}

// ---- Governor policies ----------------------------------------------------

class GovernorTest : public ::testing::Test {
 protected:
  GovernorTest()
      : system_(hw::with_default_dvfs(hw::make_accelerator('J', 8192))),
        table_(system_, cost_model_) {}

  DispatchContext ctx(const InferenceRequest& req, std::size_t sa,
                      double now = 0.0) {
    DispatchContext c;
    c.now_ms = now;
    c.request = &req;
    c.sub_accel = sa;
    c.costs = &table_;
    return c;
  }

  costmodel::AnalyticalCostModel cost_model_;
  hw::AcceleratorSystem system_;
  CostTable table_;
};

TEST_F(GovernorTest, FixedLevelsPickTheirEndpoints) {
  InferenceRequest req;
  req.task = TaskId::kHT;
  req.tdl_ms = 100.0;
  using Level = FixedLevelGovernor::Level;
  EXPECT_EQ(FixedLevelGovernor(Level::kLowest).level_for(ctx(req, 0)), 0u);
  EXPECT_EQ(FixedLevelGovernor(Level::kNominal).level_for(ctx(req, 0)),
            table_.nominal_level(0));
  EXPECT_EQ(FixedLevelGovernor(Level::kHighest).level_for(ctx(req, 0)),
            table_.num_levels(0) - 1);
  EXPECT_EQ(RaceToIdleGovernor().level_for(ctx(req, 0)),
            table_.num_levels(0) - 1);
}

TEST_F(GovernorTest, DeadlineAwarePicksCheapestFeasibleLevel) {
  InferenceRequest req;
  req.task = TaskId::kHT;
  req.tdl_ms = 1e9;  // everything is feasible
  DeadlineAwareGovernor gov;
  const std::size_t lvl = gov.level_for(ctx(req, 0));
  const double chosen = table_.energy_mj(req.task, 0, lvl);
  for (std::size_t l = 0; l < table_.num_levels(0); ++l) {
    EXPECT_LE(chosen, table_.energy_mj(req.task, 0, l));
  }
}

TEST_F(GovernorTest, DeadlineAwareSprintsWhenDoomed) {
  InferenceRequest req;
  req.task = TaskId::kPD;
  req.tdl_ms = 1e-6;  // infeasible on every level
  DeadlineAwareGovernor gov;
  EXPECT_EQ(gov.level_for(ctx(req, 0)), table_.num_levels(0) - 1);
}

TEST_F(GovernorTest, DeadlineAwareRespectsTightDeadlines) {
  // Pick a deadline between the lowest-level latency and the highest-level
  // latency: the governor must choose a level that still makes it.
  InferenceRequest req;
  req.task = TaskId::kPD;
  const double slow = table_.latency_ms(req.task, 0, 0);
  const double fast = table_.latency_ms(req.task, 0, table_.num_levels(0) - 1);
  ASSERT_LT(fast, slow);
  req.tdl_ms = (slow + fast) / 2.0;
  DeadlineAwareGovernor gov;
  const std::size_t lvl = gov.level_for(ctx(req, 0));
  EXPECT_LE(table_.latency_ms(req.task, 0, lvl), req.tdl_ms);
}

/// Property: every registered governor picks, and parks at, a level the
/// sub-accelerator has, for feasible and doomed deadlines alike, with a
/// telemetry history for the utilization-driven policies to read.
TEST_F(GovernorTest, EveryPolicyPicksValidLevels) {
  Telemetry telemetry;
  telemetry.reset(system_.sub_accels.size());
  InferenceRequest busy;
  busy.task = TaskId::kPD;
  telemetry.on_dispatch(0, busy, 0, 0.0, 3);
  telemetry.on_retire(0, busy, 0, 9.0, 1.0, 0.1);
  const auto& registry = PolicyRegistry::instance();
  for (const auto& name : registry.governor_names()) {
    auto governor = registry.make_governor(name);
    for (std::size_t sa = 0; sa < table_.num_sub_accels(); ++sa) {
      for (double tdl : {1e-6, 5.0, 1e9}) {
        InferenceRequest req;
        req.task = TaskId::kHT;
        req.tdl_ms = tdl;
        DispatchContext c = ctx(req, sa, 10.0);
        c.telemetry = &telemetry;
        c.system = &system_;
        const std::size_t level = governor->level_for(c);
        ASSERT_LT(level, table_.num_levels(sa)) << name;
        c.level = level;
        EXPECT_LT(governor->park_level(c), table_.num_levels(sa)) << name;
      }
    }
  }
}

// ---- End-to-end policy behavior (satellite regression coverage) -----------

core::HarnessOptions governor_options(const std::string& governor) {
  core::HarnessOptions opt;
  opt.governor = governor;
  opt.dynamic_trials = 5;
  return opt;
}

core::ScenarioOutcome run_with(const hw::AcceleratorSystem& system,
                               const std::string& scenario,
                               const std::string& governor) {
  const core::Harness harness(system, governor_options(governor));
  return harness.run_scenario(workload::scenario_by_name(scenario));
}

/// The final trial of run_with(system, scenario, governor), re-run.
ScenarioRunResult final_trial_with(const hw::AcceleratorSystem& system,
                                   const std::string& scenario,
                                   const std::string& governor) {
  const auto opt = governor_options(governor);
  const auto& sc = workload::scenario_by_name(scenario);
  return core::Harness(system, opt).run_once(
      sc, core::last_trial_seed(opt, core::trials_for(sc, opt)));
}

TEST(GovernorPolicy, DeadlineAwareNeverScoresBelowFixedLowest) {
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  for (const char* scenario :
       {"Low-Power Wearable", "Bursty Notification", "AR Gaming"}) {
    const auto deadline = run_with(system, scenario, "deadline-aware");
    const auto lowest = run_with(system, scenario, "fixed-lowest");
    EXPECT_GE(deadline.score.overall, lowest.score.overall) << scenario;
  }
}

TEST(GovernorPolicy, DeadlineAwareEnergyBeatsFixedHighest) {
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  for (const char* scenario : {"Low-Power Wearable", "Bursty Notification"}) {
    const auto deadline = run_with(system, scenario, "deadline-aware");
    const auto highest = run_with(system, scenario, "fixed-highest");
    EXPECT_GE(deadline.score.energy, highest.score.energy) << scenario;
  }
}

TEST(GovernorPolicy, RaceToIdleMatchesFixedHighestLatency) {
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  for (const char* scenario : {"AR Gaming", "Low-Power Wearable"}) {
    const auto a = final_trial_with(system, scenario, "race-to-idle");
    const auto b = final_trial_with(system, scenario, "fixed-highest");
    const auto ta = a.timeline();
    const auto tb = b.timeline();
    ASSERT_EQ(ta.size(), tb.size()) << scenario;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].start_ms, tb[i].start_ms);
      EXPECT_EQ(ta[i].end_ms, tb[i].end_ms);
      EXPECT_EQ(ta[i].sub_accel, tb[i].sub_accel);
    }
    ASSERT_EQ(a.per_model.size(), b.per_model.size());
    for (std::size_t m = 0; m < a.per_model.size(); ++m) {
      const RecordStore& ra = a.per_model[m].records;
      const RecordStore& rb = b.per_model[m].records;
      ASSERT_EQ(ra.size(), rb.size());
      for (std::size_t r = 0; r < ra.size(); ++r) {
        EXPECT_EQ(ra.dispatch_ms()[r], rb.dispatch_ms()[r]);
        EXPECT_EQ(ra.complete_ms()[r], rb.complete_ms()[r]);
      }
    }
  }
}

TEST(GovernorPolicy, FixedNominalReproducesUngovernedRun) {
  // The default governor must not change any pre-DVFS result: a governed
  // run at fixed-nominal is bit-identical to a run without a governor.
  costmodel::AnalyticalCostModel cm;
  const auto sys = hw::with_default_dvfs(hw::make_accelerator('J', 8192));
  const CostTable table(sys, cm);
  const ScenarioRunner runner(sys, table);
  const RunConfig cfg;
  LatencyGreedyScheduler sched_a;
  const auto bare = runner.run(workload::scenario_by_name("AR Gaming"),
                               sched_a, cfg, nullptr);
  LatencyGreedyScheduler sched_b;
  FixedLevelGovernor nominal_gov(FixedLevelGovernor::Level::kNominal);
  const auto governed = runner.run(workload::scenario_by_name("AR Gaming"),
                                   sched_b, cfg, &nominal_gov);
  EXPECT_EQ(bare.total_energy_mj, governed.total_energy_mj);
  const auto ta = bare.timeline();
  const auto tb = governed.timeline();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].start_ms, tb[i].start_ms);
    EXPECT_EQ(ta[i].end_ms, tb[i].end_ms);
  }
}

}  // namespace
}  // namespace xrbench::runtime
