#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "core/harness.h"
#include "core/sweep.h"
#include "hw/accelerator.h"
#include "outcome_checks.h"
#include "runtime/dispatch_context.h"
#include "runtime/governor.h"
#include "runtime/policy_registry.h"
#include "runtime/scheduler.h"

namespace xrbench::runtime {
namespace {

using models::TaskId;

// ---- DispatchContext API contract (compile-time) --------------------------

// The two policy interfaces consume ONE context type.
static_assert(
    std::is_same_v<decltype(&Scheduler::pick),
                   std::optional<Assignment> (Scheduler::*)(
                       const DispatchContext&)>,
    "Scheduler::pick must take the unified DispatchContext");
static_assert(std::is_same_v<decltype(&FrequencyGovernor::level_for),
                             std::size_t (FrequencyGovernor::*)(
                                 const DispatchContext&)>,
              "FrequencyGovernor::level_for must take the unified "
              "DispatchContext");
static_assert(std::is_same_v<decltype(&FrequencyGovernor::park_level),
                             std::size_t (FrequencyGovernor::*)(
                                 const DispatchContext&)>,
              "FrequencyGovernor::park_level must take the unified "
              "DispatchContext");

/// A user policy written purely against the DispatchContext API: overriding
/// with `override` is the compile-time signature check, and the run below
/// proves the runner feeds it telemetry + hardware views.
class ContractScheduler final : public Scheduler {
 public:
  const char* name() const override { return "contract-sched"; }
  std::optional<Assignment> pick(const DispatchContext& ctx) override {
    if (ctx.pending == nullptr || ctx.pending->empty() ||
        ctx.idle_sub_accels == nullptr || ctx.idle_sub_accels->empty()) {
      return std::nullopt;
    }
    saw_telemetry = saw_telemetry || ctx.telemetry != nullptr;
    saw_system = saw_system || ctx.system != nullptr;
    // Earliest deadline, canonical ties, fastest idle sub-accelerator.
    const auto& pending = *ctx.pending;
    std::size_t best = 0;
    for (std::size_t ri = 1; ri < pending.size(); ++ri) {
      if (pending[ri].tdl_ms < pending[best].tdl_ms) best = ri;
    }
    std::size_t sa = ctx.idle_sub_accels->front();
    for (std::size_t cand : *ctx.idle_sub_accels) {
      if (ctx.costs->latency_ms(pending[best].task, cand) <
          ctx.costs->latency_ms(pending[best].task, sa)) {
        sa = cand;
      }
    }
    return Assignment{best, sa};
  }

  static bool saw_telemetry;
  static bool saw_system;
};
bool ContractScheduler::saw_telemetry = false;
bool ContractScheduler::saw_system = false;

class ContractGovernor final : public FrequencyGovernor {
 public:
  const char* name() const override { return "contract-gov"; }
  std::size_t level_for(const DispatchContext& ctx) override {
    saw_telemetry = saw_telemetry || ctx.telemetry != nullptr;
    return ctx.costs->nominal_level(ctx.sub_accel);
  }
  std::size_t park_level(const DispatchContext& ctx) override {
    park_calls = park_calls + 1;
    return ctx.level;
  }

  static bool saw_telemetry;
  static int park_calls;
};
bool ContractGovernor::saw_telemetry = false;
int ContractGovernor::park_calls = 0;

TEST(DispatchContract, UserPoliciesRunThroughRegistryWithFullContext) {
  auto& registry = PolicyRegistry::instance();
  const auto schedulers = registry.scheduler_names();
  if (std::count(schedulers.begin(), schedulers.end(), "contract-sched") ==
      0) {
    registry.register_scheduler(
        "contract-sched", [] { return std::make_unique<ContractScheduler>(); });
  }
  const auto governors = registry.governor_names();
  if (std::count(governors.begin(), governors.end(), "contract-gov") == 0) {
    registry.register_governor(
        "contract-gov", [] { return std::make_unique<ContractGovernor>(); });
  }
  core::HarnessOptions opt;
  opt.scheduler = "contract-sched";
  opt.governor = "contract-gov";
  opt.dynamic_trials = 1;
  const core::Harness harness(
      hw::with_default_dvfs(hw::make_accelerator('J', 8192)), opt);
  const auto out =
      harness.run_scenario(workload::scenario_by_name("AR Gaming"));
  EXPECT_GT(out.score.overall, 0.0);
  EXPECT_TRUE(ContractScheduler::saw_telemetry);
  EXPECT_TRUE(ContractScheduler::saw_system);
  EXPECT_TRUE(ContractGovernor::saw_telemetry);
  EXPECT_GT(ContractGovernor::park_calls, 0);
}

// ---- Ondemand hysteresis --------------------------------------------------

class AdaptiveGovernorTest : public ::testing::Test {
 protected:
  AdaptiveGovernorTest()
      : system_(hw::with_default_dvfs(hw::make_accelerator('J', 8192))),
        table_(system_, cost_model_) {
    tel_.reset(table_.num_sub_accels());
  }

  /// Drives sub-accel 0's utilization EWMA to ~`target` with one synthetic
  /// busy/idle cycle over a long window (tau = 100 ms, so a 500 ms window
  /// washes out the initial state).
  void drive_util(double busy_fraction) {
    tel_.reset(table_.num_sub_accels());
    const auto req = make_req(TaskId::kHT);
    double t = 0.0;
    // Many short cycles approximate a steady busy fraction for the EWMA
    // (400 ms window = 4 tau, so the EWMA converges to ~98% of the
    // fraction).
    for (int i = 0; i < 400; ++i) {
      tel_.on_dispatch(0, req, 3, t, 0);
      tel_.on_retire(0, req, 3, t + busy_fraction, 0.0, 0.0);
      t += 1.0;
    }
  }

  InferenceRequest make_req(TaskId task) {
    InferenceRequest r;
    r.task = task;
    r.tdl_ms = 1e9;
    return r;
  }

  DispatchContext gctx(std::size_t sa) {
    DispatchContext c;
    c.request = &req_;
    c.sub_accel = sa;
    c.costs = &table_;
    c.telemetry = &tel_;
    c.system = &system_;
    return c;
  }

  costmodel::AnalyticalCostModel cost_model_;
  hw::AcceleratorSystem system_;
  CostTable table_;
  Telemetry tel_;
  InferenceRequest req_ = make_req(TaskId::kHT);
};

TEST_F(AdaptiveGovernorTest, OndemandSprintsAboveUpThreshold) {
  drive_util(0.95);
  ASSERT_GT(tel_.util_ewma(0), 0.7);
  OndemandGovernor gov;
  EXPECT_EQ(gov.level_for(gctx(0)), table_.num_levels(0) - 1);
  // And stays at the top while load persists.
  EXPECT_EQ(gov.level_for(gctx(0)), table_.num_levels(0) - 1);
}

TEST_F(AdaptiveGovernorTest, OndemandStepsDownBelowDownThreshold) {
  drive_util(0.05);
  ASSERT_LT(tel_.util_ewma(0), 0.3);
  OndemandGovernor gov;
  const std::size_t nominal = table_.nominal_level(0);
  ASSERT_GT(nominal, 0u);
  // One step per consultation — glide, don't cliff-dive...
  EXPECT_EQ(gov.level_for(gctx(0)), nominal - 1);
  if (nominal >= 2) {
    EXPECT_EQ(gov.level_for(gctx(0)), nominal - 2);
  }
  // ...and saturate at the floor.
  for (int i = 0; i < 10; ++i) gov.level_for(gctx(0));
  EXPECT_EQ(gov.level_for(gctx(0)), 0u);
}

TEST_F(AdaptiveGovernorTest, OndemandHoldsInsideHysteresisBand) {
  drive_util(0.5);
  ASSERT_GT(tel_.util_ewma(0), 0.3);
  ASSERT_LT(tel_.util_ewma(0), 0.7);
  OndemandGovernor gov;
  const std::size_t nominal = table_.nominal_level(0);
  // Mid-band load neither raises nor lowers the level — the hysteresis
  // that stops borderline load from oscillating.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(gov.level_for(gctx(0)), nominal);
  }
}

TEST_F(AdaptiveGovernorTest, OndemandRecoversAfterBurstEnds) {
  drive_util(0.95);
  OndemandGovernor gov;
  ASSERT_EQ(gov.level_for(gctx(0)), table_.num_levels(0) - 1);
  drive_util(0.05);
  // Quiet again: steps down from the top one level per dispatch.
  EXPECT_EQ(gov.level_for(gctx(0)), table_.num_levels(0) - 2);
}

TEST_F(AdaptiveGovernorTest, OndemandStateIsPerSubAccelerator) {
  drive_util(0.05);  // sub 0 quiet; sub 1 untouched (util 0)
  OndemandGovernor gov;
  const std::size_t nominal0 = table_.nominal_level(0);
  const std::size_t nominal1 = table_.nominal_level(1);
  EXPECT_EQ(gov.level_for(gctx(0)), nominal0 - 1);
  // Sub 1's ladder state is independent of sub 0's consultations.
  DispatchContext c1 = gctx(1);
  EXPECT_EQ(gov.level_for(c1), nominal1 - 1);
}

// ---- Utilization feedback -------------------------------------------------

TEST_F(AdaptiveGovernorTest, UtilizationFeedbackTracksTarget) {
  UtilizationFeedbackGovernor gov;
  // Idle hardware glides to the lowest point.
  drive_util(0.0);
  EXPECT_EQ(gov.level_for(gctx(0)), 0u);
  // Load at the target settles at the nominal clock.
  drive_util(0.5);
  const double util = tel_.util_ewma(0);
  ASSERT_NEAR(util, 0.5, 0.1);
  const std::size_t lvl = gov.level_for(gctx(0));
  const auto& dvfs = system_.sub_accels[0].dvfs;
  EXPECT_GE(dvfs.levels[lvl].freq_ghz,
            dvfs.levels[table_.nominal_level(0)].freq_ghz * util / 0.5 - 1e-9);
  // Saturated hardware is pushed past nominal.
  drive_util(0.95);
  EXPECT_EQ(gov.level_for(gctx(0)), table_.num_levels(0) - 1);
}

TEST_F(AdaptiveGovernorTest, UtilizationFeedbackWithoutHardwareViewIsNominal) {
  UtilizationFeedbackGovernor gov;
  DispatchContext c = gctx(0);
  c.system = nullptr;
  EXPECT_EQ(gov.level_for(c), table_.nominal_level(0));
}

// ---- Least-loaded scheduler -----------------------------------------------

TEST_F(AdaptiveGovernorTest, LeastLoadedPlacesOnColdestSubAccel) {
  // Load sub 0's history; sub 1 stays cold.
  drive_util(0.9);
  std::vector<InferenceRequest> pending = {make_req(TaskId::kHT)};
  std::vector<std::size_t> idle = {0, 1};
  DispatchContext ctx;
  ctx.pending = &pending;
  ctx.idle_sub_accels = &idle;
  ctx.costs = &table_;
  ctx.telemetry = &tel_;
  ctx.system = &system_;
  LeastLoadedScheduler sched;
  const auto pick = sched.pick(ctx);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->sub_accel, 1u);
  // Without telemetry the tie falls back to the fastest sub-accelerator.
  ctx.telemetry = nullptr;
  const auto cold = sched.pick(ctx);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(cold->sub_accel, table_.fastest_sub_accel(TaskId::kHT));
}

// ---- Idle power: race-to-idle finally separates ---------------------------

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

/// The idle column of the telemetry breakdown of `outcome`'s final trial,
/// re-run at its seed.
double final_trial_idle_mj(const hw::AcceleratorSystem& system,
                           const std::string& scenario,
                           const std::string& governor,
                           const core::ScenarioOutcome& outcome) {
  const auto opt = governor_options(governor);
  const auto run = core::Harness(system, opt).run_once(
      workload::scenario_by_name(scenario),
      core::last_trial_seed(opt, outcome.trials));
  EXPECT_EQ(run.total_energy_mj, outcome.last.total_energy_mj);
  double idle = 0.0;
  for (std::size_t sa = 0; sa < run.telemetry.num_sub_accels(); ++sa) {
    idle += run.telemetry.sub_accel(sa).idle_mj;
  }
  return idle;
}

hw::AcceleratorSystem idle_system(double idle_mw) {
  auto dvfs = hw::default_dvfs_state(1.0);
  dvfs.idle_mw = idle_mw;
  return hw::with_dvfs(hw::make_accelerator('J', 4096), dvfs);
}

TEST(IdlePower, RaceToIdleBeatsFixedHighestOnLowPowerWearable) {
  // With an idle-power term the parked level matters: race-to-idle sprints
  // identically to fixed-highest but parks at the lowest point, so its
  // total energy must come out strictly lower on an idle-heavy scenario.
  const auto system = idle_system(50.0);
  const auto race = run_with(system, "Low-Power Wearable", "race-to-idle");
  const auto fixed = run_with(system, "Low-Power Wearable", "fixed-highest");
  EXPECT_LT(race.last.total_energy_mj, fixed.last.total_energy_mj);
  // Schedules stay identical — only idle energy moved.
  EXPECT_EQ(race.score.realtime, fixed.score.realtime);
  EXPECT_EQ(race.score.qoe, fixed.score.qoe);
  // The saving is exactly the idle column of the telemetry breakdown.
  const double race_idle = final_trial_idle_mj(system, "Low-Power Wearable",
                                               "race-to-idle", race);
  const double fixed_idle = final_trial_idle_mj(system, "Low-Power Wearable",
                                                "fixed-highest", fixed);
  EXPECT_GT(race_idle, 0.0);
  EXPECT_LT(race_idle, fixed_idle);
}

TEST(IdlePower, ZeroIdleTermKeepsRaceToIdleIdenticalToFixedHighest) {
  // The bit-identity default: without idle_mw the two policies coincide in
  // energy exactly, as they always did.
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  const auto race = run_with(system, "Low-Power Wearable", "race-to-idle");
  const auto fixed = run_with(system, "Low-Power Wearable", "fixed-highest");
  EXPECT_EQ(race.last.total_energy_mj, fixed.last.total_energy_mj);
}

TEST(IdlePower, OndemandBeatsFixedHighestEnergyAtEqualQoeOnBurst) {
  // The bench_ablation_dvfs acceptance shape as a regression test.
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  const auto ondemand = run_with(system, "Bursty Notification", "ondemand");
  const auto fixed = run_with(system, "Bursty Notification", "fixed-highest");
  EXPECT_GT(ondemand.score.energy, fixed.score.energy);
  EXPECT_GE(ondemand.score.qoe, fixed.score.qoe);
}

// ---- Serial/parallel byte-identity for the new policies -------------------

TEST(AdaptivePolicyDeterminism, ByteIdenticalAcross1248Workers) {
  // History-aware policies close the loop between telemetry and the
  // schedule; the sweep contract must still hold bit-for-bit at every
  // worker count for each of them.
  struct Combo {
    const char* scheduler;
    const char* governor;
  };
  const Combo combos[] = {{"latency-greedy", "ondemand"},
                          {"latency-greedy", "utilization-feedback"},
                          {"least-loaded", "fixed-nominal"},
                          {"least-loaded", "ondemand"}};
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  std::vector<core::ScenarioSweepPoint> points;
  for (const auto& combo : combos) {
    core::HarnessOptions opt;
    opt.scheduler = combo.scheduler;
    opt.governor = combo.governor;
    opt.dynamic_trials = 5;
    opt.run.duration_ms = 600.0;
    points.push_back({std::string(combo.scheduler) + "/" + combo.governor,
                      system, opt,
                      workload::scenario_by_name("Bursty Notification")});
  }
  core::SweepEngine serial(0);
  const auto baseline = serial.run_scenario_points(points);
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    core::SweepEngine engine(workers);
    const auto got = engine.run_scenario_points(points);
    ASSERT_EQ(got.size(), baseline.size());
    for (std::size_t p = 0; p < got.size(); ++p) {
      test::expect_identical(got[p], baseline[p],
                             std::to_string(workers) + " workers, " +
                                 points[p].label);
    }
  }
}

TEST(AdaptivePolicyDeterminism, OndemandProgramByteIdenticalSerialVsParallel) {
  // The CI hand-off check in test form: a multi-phase program under
  // ondemand, serial vs 4 workers.
  core::HarnessOptions opt;
  opt.governor = "ondemand";
  opt.dynamic_trials = 3;
  const auto system = hw::with_default_dvfs(hw::make_accelerator('J', 4096));
  auto program = workload::program_by_name("Scenario Hand-Off");
  program.governor.clear();  // the options' governor is the one under test
  const std::vector<core::ProgramSweepPoint> points = {
      {"handoff/ondemand", system, opt, program}};
  core::SweepEngine serial(0);
  core::SweepEngine parallel(4);
  const auto a = serial.run_program_points(points);
  const auto b = parallel.run_program_points(points);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  test::expect_identical(b[0], a[0], "handoff/ondemand");
}

}  // namespace
}  // namespace xrbench::runtime
